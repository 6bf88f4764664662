import pytest

from raicarn.io import load_pipeline_config
from raicarn.errors import IoFailureError


def _write(tmp_path, text):
    path = tmp_path / "pipeline.cfg"
    path.write_text(text)
    return path


class TestLoadPipelineConfig:
    def test_full_config(self, tmp_path):
        cfg = load_pipeline_config(_write(tmp_path, """\
[ica]
q = 8
nonlinearity = cubic
max_iters = 300
tol = 1e-5

[null]
R = 200
p_crit = 0.01

[mixture]
max_iters = 400
tol = 1e-8
"""))
        assert cfg == {
            "ica": {"q": 8, "nonlinearity": "cubic", "max_iters": 300, "tol": 1e-5},
            "null": {"R": 200, "p_crit": 0.01},
            "mixture": {"max_iters": 400, "tol": 1e-8},
        }
        assert type(cfg["ica"]["max_iters"]) is int and type(cfg["null"]["p_crit"]) is float

    def test_partial_config(self, tmp_path):
        cfg = load_pipeline_config(_write(tmp_path, "[null]\nR = 50\n"))
        assert cfg == {"ica": {}, "null": {"R": 50}, "mixture": {}}

    def test_seed_is_not_a_key(self, tmp_path):
        with pytest.raises(ValueError, match="unknown key"):
            load_pipeline_config(_write(tmp_path, "[null]\nseed = 3\n"))

    def test_unknown_section(self, tmp_path):
        with pytest.raises(ValueError, match="unknown section"):
            load_pipeline_config(_write(tmp_path, "[plotting]\nstyle = dark\n"))

    @pytest.mark.parametrize("text", ["[raicar]\n", "[grouping]\nN = 23\n", "[pipeline]\nseed = 42\n"])
    def test_sections_no_subcommand_reads_are_unknown(self, tmp_path, text):
        with pytest.raises(ValueError, match="unknown section"):
            load_pipeline_config(_write(tmp_path, text))

    def test_values_are_literal(self, tmp_path):
        # no % interpolation: a '%' is part of the value, and the type or the
        # config class judges it
        cfg = load_pipeline_config(_write(tmp_path, "[ica]\nnonlinearity = tanh%\n"))
        assert cfg["ica"] == {"nonlinearity": "tanh%"}
        with pytest.raises(ValueError, match="bad value for ica.q"):
            load_pipeline_config(_write(tmp_path, "[ica]\nq = %(x)s\n"))

    @pytest.mark.parametrize("text", ["[DEFAULT]\nR = 5\n", "[DEFAULT]\nR = 5\n[null]\n"])
    def test_default_section_is_unknown(self, tmp_path, text):
        # configparser would copy [DEFAULT]'s keys into every section, or
        # drop them when no section follows
        with pytest.raises(ValueError, match=r"unknown section \[DEFAULT\]"):
            load_pipeline_config(_write(tmp_path, text))

    def test_unknown_key(self, tmp_path):
        with pytest.raises(ValueError, match="unknown key"):
            load_pipeline_config(_write(tmp_path, "[ica]\nalpha = 3\n"))

    def test_bad_value_type(self, tmp_path):
        with pytest.raises(ValueError, match="bad value"):
            load_pipeline_config(_write(tmp_path, "[ica]\nq = eight\n"))

    def test_bounds_are_left_to_the_config_classes(self, tmp_path):
        # an out-of-range value parses; the subcommand that builds the
        # section's config class rejects it (tests/test_cli.py)
        cfg = load_pipeline_config(_write(tmp_path, "[null]\np_crit = 1.5\n"))
        assert cfg["null"] == {"p_crit": 1.5}

    def test_missing_file(self, tmp_path):
        with pytest.raises(IoFailureError):
            load_pipeline_config(tmp_path / "absent.cfg")
