import os
import shutil
from pathlib import Path

import numpy as np
import pytest

from raicarn import io
from raicarn.cli import main
from raicarn.synth import gen_mixture, gen_sources


def _simulate(out, seed=7, K=6, nc=3, planted=2, overlap=0.95, n=800):
    rc = main([
        "simulate", "--K", str(K), "--nc", str(nc), "--planted", str(planted),
        "--overlap", str(overlap), "--n", str(n), "--seed", str(seed),
        "--out", str(out),
    ])
    assert rc == 0
    return os.path.join(str(out), "manifest.txt")


def _ica_data(tmp_path, seed=0, p=10, n=1500):
    S = gen_sources(3, n, "laplacian", seed)
    Y, _, _ = gen_mixture(S, p=p, sigma=0.1, seed=seed + 1)
    path = tmp_path / f"data{seed}.rnm"
    io.write_matrix(Y, path)
    return path


def _same_bytes(a, b):
    return Path(a).read_bytes() == Path(b).read_bytes()


class TestSimulate:
    def test_writes_manifest_and_runs(self, tmp_path):
        manifest = _simulate(tmp_path / "sim")
        rc = io.load_runs(manifest)
        assert (rc.K, rc.n_C, rc.n) == (6, 3, 800)
        assert (tmp_path / "sim" / "truth.txt").exists()

    def test_planted_exceeding_nc_is_usage_error(self, tmp_path):
        rc = main([
            "simulate", "--K", "4", "--nc", "8", "--planted", "9",
            "--n", "100", "--seed", "0", "--out", str(tmp_path / "x"),
        ])
        assert rc == 2

    @pytest.mark.parametrize("flag, value", [("--K", "1"), ("--nc", "0"), ("--n", "1")])
    def test_shape_below_bounds_is_usage_error(self, tmp_path, flag, value):
        shape = {"--K": "4", "--nc": "3", "--n": "100", flag: value}
        out = tmp_path / "x"
        rc = main(["simulate", *(t for kv in shape.items() for t in kv),
                   "--planted", "0", "--seed", "0", "--out", str(out)])
        assert rc == 2
        assert not out.exists()

    def test_deterministic(self, tmp_path):
        _simulate(tmp_path / "a", seed=3)
        _simulate(tmp_path / "b", seed=3)
        for name in sorted(os.listdir(tmp_path / "a")):
            assert _same_bytes(tmp_path / "a" / name, tmp_path / "b" / name)


class TestIca:
    def test_single_run_outputs(self, tmp_path):
        data = _ica_data(tmp_path)
        out = tmp_path / "ica"
        assert main(["ica", str(data), "--q", "3", "--seed", "1", "--out", str(out)]) == 0
        comps = io.read_matrix(out / "components.rnm")
        assert comps.shape == (3, 1500)
        assert io.read_matrix(out / "mixing.rnm").shape == (10, 3)
        model = dict(
            line.split(" = ") for line in (out / "model.txt").read_text().splitlines()[1:]
        )
        assert model["q"] == "3"
        assert model["converged"] == "true"
        assert 1 <= int(model["iterations"]) < 500

    def test_iteration_cap_recorded(self, tmp_path):
        data = _ica_data(tmp_path)
        out = tmp_path / "ica"
        rc = main(["ica", str(data), "--q", "3", "--max-iters", "2", "--tol", "1e-300",
                   "--seed", "1", "--out", str(out)])
        assert rc == 0
        text = (out / "model.txt").read_text()
        assert "converged = false\niterations = 2\n" in text

    def test_max_iters_zero_is_usage_error(self, tmp_path):
        data = _ica_data(tmp_path)
        out = tmp_path / "o"
        rc = main(["ica", str(data), "--q", "3", "--max-iters", "0", "--seed", "1", "--out", str(out)])
        assert rc == 2
        assert not out.exists()

    def test_group_mode(self, tmp_path):
        d1 = _ica_data(tmp_path, seed=2)
        d2 = _ica_data(tmp_path, seed=3)
        out = tmp_path / "gica"
        rc = main(["ica", str(d1), str(d2), "--group", "--q", "3", "--seed", "1", "--out", str(out)])
        assert rc == 0
        assert io.read_matrix(out / "components.rnm").shape == (3, 1500)

    def test_two_files_without_group_is_usage_error(self, tmp_path):
        d1 = _ica_data(tmp_path, seed=4)
        d2 = _ica_data(tmp_path, seed=5)
        rc = main(["ica", str(d1), str(d2), "--q", "3", "--seed", "1", "--out", str(tmp_path / "o")])
        assert rc == 2

    def test_q_zero_is_usage_error(self, tmp_path):
        data = _ica_data(tmp_path, seed=6)
        assert main(["ica", str(data), "--q", "0", "--seed", "1", "--out", str(tmp_path / "o")]) == 2

    def test_missing_data_is_runtime_error(self, tmp_path):
        rc = main(["ica", str(tmp_path / "gone.rnm"), "--q", "2", "--seed", "1", "--out", str(tmp_path / "o")])
        assert rc == 1

    def test_config_supplies_defaults(self, tmp_path):
        data = _ica_data(tmp_path, seed=7)
        cfg = tmp_path / "p.cfg"
        cfg.write_text("[ica]\nq = 3\n")
        out = tmp_path / "cfgica"
        rc = main(["ica", str(data), "--config", str(cfg), "--seed", "1", "--out", str(out)])
        assert rc == 0
        assert io.read_matrix(out / "components.rnm").shape[0] == 3


class TestConfigFile:
    """Bounds live in the config classes, so a bad value exits 2 from a
    flag and from a --config file alike, in the subcommand that reads it."""

    def test_bounds_enforced(self, tmp_path):
        manifest = _simulate(tmp_path / "sim", seed=12)
        cfg = tmp_path / "p.cfg"
        cfg.write_text("[null]\np_crit = 1.5\n")
        rc = main(["raicarn", manifest, "--config", str(cfg), "--seed", "1", "--out", str(tmp_path / "r")])
        assert rc == 2
        cfg.write_text("[ica]\nq = 0\n")
        data = _ica_data(tmp_path)
        rc = main(["ica", str(data), "--config", str(cfg), "--seed", "1", "--out", str(tmp_path / "i")])
        assert rc == 2

    def test_flags_win_over_file(self, tmp_path):
        manifest = _simulate(tmp_path / "sim", seed=13)
        cfg = tmp_path / "p.cfg"
        cfg.write_text("[null]\nR = 0\np_crit = 0.2\n")
        out = tmp_path / "rep"
        rc = main(["raicarn", manifest, "--config", str(cfg), "--R", "7", "--seed", "1", "--out", str(out)])
        assert rc == 0
        report = io.read_report(out / "report.txt")
        assert report.p_crit == 0.2 and report.null_sample.shape == (7 * 3,)

    @pytest.mark.parametrize("text", ["[mixture]\nmax_iters = 0\n", "[mixture]\ntol = -1\n"])
    def test_bad_mixture_section_exits_2(self, tmp_path, text):
        cfg = tmp_path / "p.cfg"
        cfg.write_text(text)
        rc = main(["mixture", "--report", str(tmp_path / "absent.txt"),
                   "--manifest", str(tmp_path / "absent.txt"), "--config", str(cfg),
                   "--out", str(tmp_path / "m")])
        assert rc == 2

    def test_section_read_by_another_subcommand_is_not_checked(self, tmp_path):
        manifest = _simulate(tmp_path / "sim", seed=14)
        cfg = tmp_path / "p.cfg"
        cfg.write_text("[ica]\nq = 0\n[mixture]\ntol = -1\n")
        rc = main(["raicarn", manifest, "--config", str(cfg), "--R", "5", "--seed", "1",
                   "--out", str(tmp_path / "r")])
        assert rc == 0


class TestRaicarn:
    def test_report_files_written(self, tmp_path):
        manifest = _simulate(tmp_path / "sim", seed=11)
        out = tmp_path / "rep"
        rc = main(["raicarn", manifest, "--R", "30", "--seed", "2", "--out", str(out)])
        assert rc == 0
        report = io.read_report(out / "report.txt")
        assert report.n_C == 3
        assert report.null_sample.shape == (90,)

    def test_planted_components_significant(self, tmp_path):
        manifest = _simulate(tmp_path / "sim", seed=12, K=8, overlap=0.95)
        out = tmp_path / "rep"
        assert main(["raicarn", manifest, "--R", "50", "--seed", "0", "--out", str(out)]) == 0
        report = io.read_report(out / "report.txt")
        assert report.significant[0] and report.significant[1]
        assert not report.significant[2]

    def test_R_zero_is_usage_error(self, tmp_path):
        manifest = _simulate(tmp_path / "sim", seed=13)
        rc = main(["raicarn", manifest, "--R", "0", "--seed", "0", "--out", str(tmp_path / "o")])
        assert rc == 2

    def test_deterministic(self, tmp_path):
        manifest = _simulate(tmp_path / "sim", seed=14)
        for d in ("a", "b"):
            assert main(["raicarn", manifest, "--R", "20", "--seed", "5", "--out", str(tmp_path / d)]) == 0
        assert _same_bytes(tmp_path / "a" / "report.txt", tmp_path / "b" / "report.txt")
        assert _same_bytes(tmp_path / "a" / "report.txt.null.rnm", tmp_path / "b" / "report.txt.null.rnm")

    def test_maps_are_released_before_the_null(self, tmp_path, monkeypatch):
        # the null reads only the CRCM, so the loaded runs must not stay
        # resident beside its per-replicate working matrices
        import weakref

        from raicarn import null

        manifest = _simulate(tmp_path / "sim", seed=16)
        refs, alive = [], []
        compute_crcm, null_distribution = null.compute_crcm, null.null_distribution

        def spy_crcm(rc):
            refs.append(weakref.ref(rc))
            return compute_crcm(rc)

        def spy_null(*args, **kwargs):
            alive.append(refs[0]() is not None)
            return null_distribution(*args, **kwargs)

        monkeypatch.setattr(null, "compute_crcm", spy_crcm)
        monkeypatch.setattr(null, "null_distribution", spy_null)
        assert main(["raicarn", manifest, "--R", "2", "--seed", "0", "--out", str(tmp_path / "o")]) == 0
        assert alive == [False]

    def test_threads_do_not_change_bytes(self, tmp_path):
        manifest = _simulate(tmp_path / "sim", seed=15)
        main(["raicarn", manifest, "--R", "20", "--seed", "5", "--out", str(tmp_path / "s")])
        main(["raicarn", manifest, "--R", "20", "--seed", "5", "--threads", "4", "--out", str(tmp_path / "t")])
        assert _same_bytes(tmp_path / "s" / "report.txt.null.rnm", tmp_path / "t" / "report.txt.null.rnm")


class TestPlanGroups:
    def test_paper_setting(self, tmp_path):
        out = tmp_path / "plan"
        rc = main(["plan-groups", "--N", "23", "--alpha", "0.05", "--seed", "5", "--out", str(out)])
        assert rc == 0
        text = (out / "plan.txt").read_text()
        assert "L = 5" in text
        assert text.count("group = ") == 50

    def test_infeasible_is_usage_error(self, tmp_path):
        rc = main(["plan-groups", "--N", "4", "--alpha", "0.01", "--seed", "0", "--out", str(tmp_path / "o")])
        assert rc == 2

    def test_deterministic(self, tmp_path):
        for d in ("a", "b"):
            main(["plan-groups", "--N", "23", "--alpha", "0.05", "--K", "10", "--seed", "9", "--out", str(tmp_path / d)])
        assert _same_bytes(tmp_path / "a" / "plan.txt", tmp_path / "b" / "plan.txt")


class TestMixtureCommand:
    def _analysis(self, tmp_path, overlap=0.95, seed=21, n=2000):
        manifest = _simulate(tmp_path / "sim", seed=seed, K=8, overlap=overlap, n=n)
        rep_dir = tmp_path / "rep"
        assert main(["raicarn", manifest, "--R", "50", "--seed", "0", "--out", str(rep_dir)]) == 0
        return manifest, os.path.join(str(rep_dir), "report.txt")

    def test_significant_components_fitted(self, tmp_path):
        manifest, report = self._analysis(tmp_path)
        out = tmp_path / "mix"
        rc = main(["mixture", "--report", report, "--manifest", manifest,
                   "--seed", "0", "--out", str(out)])
        assert rc == 0
        assert (out / "comp01_tstat.rnm").exists()
        assert (out / "comp01_labels.rnm").exists()
        assert (out / "comp01_fit.txt").exists()
        labels = io.read_matrix(out / "comp01_labels.rnm")
        assert set(np.unique(labels)) <= {-1.0, 0.0, 1.0}

    @pytest.mark.parametrize("flags", [["--max-iters", "0"], ["--tol", "-1"]])
    def test_bad_stopping_rule_is_usage_error(self, tmp_path, flags):
        manifest, report = self._analysis(tmp_path)
        out = tmp_path / "mix"
        rc = main(["mixture", "--report", report, "--manifest", manifest, *flags, "--out", str(out)])
        assert rc == 2
        assert not out.exists()

    def test_bins_below_one_is_usage_error(self, tmp_path):
        manifest, report = self._analysis(tmp_path)
        out = tmp_path / "mix"
        rc = main(["mixture", "--report", report, "--manifest", manifest,
                   "--bins", "0", "--out", str(out)])
        assert rc == 2
        assert not out.exists()

    def test_swapped_null_sample_is_runtime_error(self, tmp_path, capsys):
        manifest, report = self._analysis(tmp_path)
        other = tmp_path / "rep_seed1"
        assert main(["raicarn", manifest, "--R", "50", "--seed", "1", "--out", str(other)]) == 0
        shutil.copyfile(other / "report.txt.null.rnm", report + ".null.rnm")
        out = tmp_path / "mix"
        rc = main(["mixture", "--report", report, "--manifest", manifest, "--out", str(out)])
        assert rc == 1
        assert not out.exists()
        err = capsys.readouterr().err
        assert report in err and "report.txt.null.rnm" in err

    def test_report_without_components_is_runtime_error(self, tmp_path):
        manifest, report = self._analysis(tmp_path)
        text = Path(report).read_text()
        Path(report).write_text(text[: text.index("[component]")])
        out = tmp_path / "mix"
        rc = main(["mixture", "--report", report, "--manifest", manifest, "--out", str(out)])
        assert rc == 1
        assert not out.exists()

    def test_seed_is_optional_and_ignored(self, tmp_path):
        manifest, report = self._analysis(tmp_path)
        args = ["mixture", "--report", report, "--manifest", manifest]
        assert main(args + ["--seed", "5", "--out", str(tmp_path / "a")]) == 0
        assert main(args + ["--out", str(tmp_path / "b")]) == 0
        names = sorted(os.listdir(tmp_path / "a"))
        assert names and names == sorted(os.listdir(tmp_path / "b"))
        for name in names:
            assert _same_bytes(tmp_path / "a" / name, tmp_path / "b" / name)

    def test_identical_maps_degenerate_to_null_labels(self, tmp_path):
        manifest, report = self._analysis(tmp_path, overlap=1.0, seed=22)
        out = tmp_path / "mix"
        rc = main(["mixture", "--report", report, "--manifest", manifest,
                   "--seed", "0", "--out", str(out)])
        assert rc == 0
        labels = io.read_matrix(out / "comp01_labels.rnm")
        assert not labels.any()
        assert "degenerate = true" in (out / "comp01_fit.txt").read_text()

    def test_missing_report_is_runtime_error(self, tmp_path):
        manifest = _simulate(tmp_path / "sim", seed=23)
        rc = main(["mixture", "--report", str(tmp_path / "gone.txt"),
                   "--manifest", manifest, "--seed", "0", "--out", str(tmp_path / "o")])
        assert rc == 1

    def test_report_missing_members_is_runtime_error(self, tmp_path, capsys):
        manifest, report = self._analysis(tmp_path)
        with open(report) as f:
            lines = f.read().splitlines()
        lines.remove(next(line for line in lines if line.startswith("members = ")))
        with open(report, "w") as f:
            f.write("\n".join(lines) + "\n")
        rc = main(["mixture", "--report", report, "--manifest", manifest,
                   "--seed", "0", "--out", str(tmp_path / "mix")])
        assert rc == 1
        err = capsys.readouterr().err
        assert report in err and "'members'" in err

    @pytest.mark.parametrize("key, bad", [("members", "1:1"), ("p_value", "abc")])
    def test_garbled_report_value_is_runtime_error(self, tmp_path, capsys, key, bad):
        manifest, report = self._analysis(tmp_path)
        with open(report) as f:
            lines = f.read().splitlines()
        first = next(i for i, line in enumerate(lines) if line.startswith(f"{key} = "))
        lines[first] = f"{key} = {bad}"
        with open(report, "w") as f:
            f.write("\n".join(lines) + "\n")
        rc = main(["mixture", "--report", report, "--manifest", manifest,
                   "--seed", "0", "--out", str(tmp_path / "mix")])
        assert rc == 1
        err = capsys.readouterr().err
        assert report in err and f"bad value for {key!r}" in err

    def test_manifest_with_fewer_components_is_runtime_error(self, tmp_path):
        _manifest, report = self._analysis(tmp_path)
        other = _simulate(tmp_path / "other", seed=24, K=8, nc=2, n=2000)
        rc = main(["mixture", "--report", report, "--manifest", other,
                   "--seed", "0", "--out", str(tmp_path / "mix")])
        assert rc == 1

    def test_manifest_with_more_runs_is_runtime_error(self, tmp_path):
        manifest = _simulate(tmp_path / "sim", seed=25, K=4, n=2000)
        assert main(["raicarn", manifest, "--R", "20", "--seed", "0",
                     "--out", str(tmp_path / "rep")]) == 0
        other = _simulate(tmp_path / "other", seed=25, K=5, n=2000)
        rc = main(["mixture", "--report", str(tmp_path / "rep" / "report.txt"),
                   "--manifest", other, "--seed", "0", "--out", str(tmp_path / "mix")])
        assert rc == 1
        assert not (tmp_path / "mix").exists()
