import pytest

from raicarn.config import load_pipeline_config
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
        assert cfg.ica == {"q": 8, "nonlinearity": "cubic", "max_iters": 300, "tol": 1e-5}
        assert cfg.null == {"R": 200, "p_crit": 0.01}
        assert cfg.mixture == {"max_iters": 400, "tol": 1e-8}

    def test_partial_config(self, tmp_path):
        cfg = load_pipeline_config(_write(tmp_path, "[null]\nR = 50\n"))
        assert cfg.null == {"R": 50}
        assert cfg.ica == {} and cfg.mixture == {}

    def test_unknown_section(self, tmp_path):
        with pytest.raises(ValueError, match="unknown section"):
            load_pipeline_config(_write(tmp_path, "[plotting]\nstyle = dark\n"))

    @pytest.mark.parametrize("text", ["[raicar]\n", "[grouping]\nN = 23\n", "[pipeline]\nseed = 42\n"])
    def test_sections_no_subcommand_reads_are_unknown(self, tmp_path, text):
        with pytest.raises(ValueError, match="unknown section"):
            load_pipeline_config(_write(tmp_path, text))

    def test_unknown_key(self, tmp_path):
        with pytest.raises(ValueError, match="unknown key"):
            load_pipeline_config(_write(tmp_path, "[ica]\nalpha = 3\n"))

    def test_bad_value_type(self, tmp_path):
        with pytest.raises(ValueError, match="bad value"):
            load_pipeline_config(_write(tmp_path, "[ica]\nq = eight\n"))

    def test_bounds_enforced(self, tmp_path):
        with pytest.raises(ValueError, match="p_crit"):
            load_pipeline_config(_write(tmp_path, "[null]\np_crit = 1.5\n"))
        with pytest.raises(ValueError, match="q"):
            load_pipeline_config(_write(tmp_path, "[ica]\nq = 0\n"))

    def test_missing_file(self, tmp_path):
        with pytest.raises(IoFailureError):
            load_pipeline_config(tmp_path / "absent.cfg")
