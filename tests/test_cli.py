import hashlib
import os
import re
import shutil
import struct
import subprocess
import sys
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


def _write_unchecked(Y, path):
    """An .rnm file holding Y as given; write_matrix would refuse non-finite values."""
    Path(path).write_bytes(struct.pack("<4sII", io.MAGIC, *Y.shape) + Y.astype("<f8").tobytes())


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

    @pytest.mark.parametrize("group", [[], ["--group"]])
    @pytest.mark.parametrize("value", [np.nan, np.inf])
    def test_non_finite_data_is_runtime_error(self, tmp_path, capsys, group, value):
        Y = io.read_matrix(_ica_data(tmp_path))
        Y[4, 7] = value
        _write_unchecked(Y, tmp_path / "bad.rnm")
        out = tmp_path / "o"
        rc = main(["ica", str(tmp_path / "bad.rnm"), *group, "--q", "3", "--seed", "1", "--out", str(out)])
        assert rc == 1
        assert not out.exists()
        assert "non-finite" in capsys.readouterr().err

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

    def test_non_text_file_exits_2_naming_it(self, tmp_path, capsys):
        cfg = tmp_path / "p.cfg"
        cfg.write_bytes(b"[null]\nR = \xa0\n")
        rc = main(["raicarn", str(tmp_path / "absent.txt"), "--config", str(cfg), "--seed", "1",
                   "--out", str(tmp_path / "r")])
        assert rc == 2
        assert str(cfg) in capsys.readouterr().err

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

    def test_maps_are_read_one_run_at_a_time(self, tmp_path):
        # 16 MB of maps; the CRCM buffer they are centred into is its own
        # memory map, so the traced heap holds about one 1.6 MB run at a time
        import tracemalloc

        manifest = _simulate(tmp_path / "sim", seed=3, K=10, nc=4, planted=1, n=50000)
        tracemalloc.start()
        try:
            assert main(["raicarn", manifest, "--R", "5", "--seed", "0", "--out", str(tmp_path / "o")]) == 0
            peak = tracemalloc.get_traced_memory()[1]
        finally:
            tracemalloc.stop()
        assert peak < 8 * 2**20

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

    def test_flipped_significance_flag_is_runtime_error(self, tmp_path, capsys):
        manifest, report = self._analysis(tmp_path)
        text = Path(report).read_text()
        rank1 = text.index("[component]")
        assert "significant = true" in text[rank1:text.index("[component]", rank1 + 1)]
        Path(report).write_text(text.replace("significant = true", "significant = false", 1))
        out = tmp_path / "mix"
        rc = main(["mixture", "--report", report, "--manifest", manifest, "--out", str(out)])
        assert rc == 1
        assert not out.exists()
        assert report in capsys.readouterr().err

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

    @pytest.mark.parametrize("flag", ["--report", "--manifest"])
    def test_non_text_input_is_runtime_error(self, tmp_path, capsys, flag):
        manifest, report = self._analysis(tmp_path)
        files = {"--report": report, "--manifest": manifest}
        files[flag] = os.path.join(os.path.dirname(manifest), "run00.rnm")
        out = tmp_path / "mix"
        rc = main(["mixture", *(t for kv in files.items() for t in kv), "--out", str(out)])
        assert rc == 1
        assert not out.exists()
        assert files[flag] in capsys.readouterr().err

    @pytest.mark.parametrize("key, value", [("n_C", "9"), ("K", "7")])
    def test_header_disagreeing_with_components_is_runtime_error(self, tmp_path, capsys, key, value):
        manifest, report = self._analysis(tmp_path)  # K = 8 runs of n_C = 3
        text = Path(report).read_text()
        edited = re.sub(rf"^{key} = \d+$", f"{key} = {value}", text, count=1, flags=re.M)
        assert edited != text
        Path(report).write_text(edited)
        out = tmp_path / "mix"
        rc = main(["mixture", "--report", report, "--manifest", manifest, "--out", str(out)])
        assert rc == 1
        assert not out.exists()
        err = capsys.readouterr().err
        assert report in err and f"{key!r}" in err

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

    @staticmethod
    def _member_rows(report):
        """(run, component) of every member of a significant component."""
        rep = io.read_report(report)
        return {(run, comp) for mc, sig in zip(rep.matched, rep.significant) if sig
                for run, comp, _ in mc.members}

    @pytest.mark.parametrize("case, says", [
        ("NaN in a member map", "contains non-finite values"),
        ("truncated run file", "expected 48012 bytes for 3x2000"),
        ("run with fewer components", "all runs must share n_C"),
        ("mask of the wrong length", "mask length 1999 vs map length 2000"),
    ])
    def test_bad_run_files_exit_1_before_writing(self, tmp_path, capsys, case, says):
        manifest, report = self._analysis(tmp_path)
        sim = tmp_path / "sim"
        run = sim / "run03.rnm"
        if case == "NaN in a member map":
            comp = next(c for r, c in sorted(self._member_rows(report)) if r == 3)
            maps = io.read_matrix(run)
            maps[comp, 17] = np.nan
            _write_unchecked(maps, run)
            says = f"run03.rnm: map {comp + 1} contains non-finite values"
        elif case == "truncated run file":
            run.write_bytes(run.read_bytes()[:-4])
        elif case == "run with fewer components":
            io.write_matrix(io.read_matrix(run)[:2], run)
        else:
            io.write_matrix(np.ones((1, 1999)), sim / "mask.rnm")
            with open(manifest, "a") as f:
                f.write("mask = mask.rnm\n")
        capsys.readouterr()
        out = tmp_path / "mix"
        assert main(["mixture", "--report", report, "--manifest", manifest, "--out", str(out)]) == 1
        assert not out.exists()
        err = capsys.readouterr().err
        assert err.startswith("error: ") and err.count("\n") == 1
        assert says in err

    def test_nan_outside_the_member_maps_is_not_read(self, tmp_path):
        manifest, report = self._analysis(tmp_path)
        assert main(["mixture", "--report", report, "--manifest", manifest,
                     "--out", str(tmp_path / "clean")]) == 0
        unused = sorted({(r, c) for r in range(8) for c in range(3)} - self._member_rows(report))
        assert unused
        for run, comp in unused:
            path = tmp_path / "sim" / f"run{run:02d}.rnm"
            maps = io.read_matrix(path)
            maps[comp, ::7] = np.nan
            _write_unchecked(maps, path)
        assert main(["mixture", "--report", report, "--manifest", manifest,
                     "--out", str(tmp_path / "dirty")]) == 0
        names = sorted(os.listdir(tmp_path / "clean"))
        assert names == sorted(os.listdir(tmp_path / "dirty"))
        for name in names:
            assert _same_bytes(tmp_path / "clean" / name, tmp_path / "dirty" / name)


def test_cli_import_leaves_scipy_stats_unloaded():
    # scipy.stats alone adds about half a second to every command's start
    code = "import raicarn.cli, sys; print('scipy.stats' in sys.modules)"
    src = str(Path(__file__).resolve().parents[1] / "src")
    env = {**os.environ, "PYTHONPATH": src + os.pathsep + os.environ.get("PYTHONPATH", "")}
    done = subprocess.run([sys.executable, "-c", code], env=env, capture_output=True, text=True, check=True)
    assert done.stdout.strip() == "False"


class TestRejections:
    """Bad input that reaches the command line exits 1 (runtime or I/O) or
    2 (usage) with a one-line error, never a traceback."""

    @staticmethod
    def _argv(tmp_path, case):
        sim = tmp_path / "sim"
        manifest = _simulate(sim, K=4, nc=2, planted=1, n=200)
        bad = sim / "bad.txt"
        runs = "run = run00.rnm\nrun = run01.rnm\n"
        raicarn = ["raicarn", str(bad), "--R", "5", "--seed", "1"]
        if case == "truncated matrix header":
            (sim / "run01.rnm").write_bytes(io.MAGIC + bytes(3))
            return ["raicarn", manifest, "--R", "5", "--seed", "1"]
        if case == "unknown manifest key":
            bad.write_text(runs + "colour = red\n")
            return raicarn
        if case == "manifest without runs":
            bad.write_text("# no runs\nmask = mask.rnm\n")
            return raicarn
        if case == "mask of two rows":
            io.write_matrix(np.ones((2, 200)), sim / "mask.rnm")
            bad.write_text(runs + "mask = mask.rnm\n")
            return raicarn
        if case == "line without '='":
            bad.write_text(runs + "run02.rnm\n")
            return raicarn
        if case == "member sign not + or -":
            assert main(["raicarn", manifest, "--R", "5", "--seed", "1", "--out", str(tmp_path / "rep")]) == 0
            report = tmp_path / "rep" / "report.txt"
            text = report.read_text()
            edited = re.sub(r"^(members = \d+:\d+):[+-]", r"\1:*", text, count=1, flags=re.M)
            assert edited != text
            report.write_text(edited)
            return ["mixture", "--report", str(report), "--manifest", manifest]
        if case == "two mask lines":
            io.write_matrix(np.ones((1, 200)), sim / "ones.rnm")
            io.write_matrix(np.ones((1, 10)), sim / "ten.rnm")
            bad.write_text(runs + "mask = ones.rnm\nmask = ten.rnm\n")
            return raicarn
        if case == "mask not 0/1":
            mask = np.ones((1, 200))
            mask[0, 9] = np.nan
            _write_unchecked(mask, sim / "mask.rnm")
            bad.write_text(runs + "mask = mask.rnm\n")
            return raicarn
        if case == "NaN in a run":
            maps = io.read_matrix(sim / "run02.rnm")
            maps[1, 17] = np.nan
            _write_unchecked(maps, sim / "run02.rnm")
            return ["raicarn", manifest, "--R", "5", "--seed", "1"]
        if case == "ica without --q":
            return ["ica", str(sim / "run00.rnm"), "--seed", "1"]
        raise AssertionError(case)

    @pytest.mark.parametrize("case, code, says", [
        ("truncated matrix header", 1, "truncated header"),
        ("unknown manifest key", 1, "unknown manifest key 'colour'"),
        ("manifest without runs", 1, "lists no runs"),
        ("mask of two rows", 1, "1-row"),
        ("line without '='", 1, "malformed line"),
        ("member sign not + or -", 1, "sign must be + or -"),
        ("two mask lines", 1, "bad.txt: manifest lists more than one mask"),
        ("mask not 0/1", 1, "mask.rnm: mask values must be 0 or 1"),
        ("NaN in a run", 1, "run02.rnm: map 2 contains non-finite values"),
        ("ica without --q", 2, "--q is required"),
    ])
    def test_clean_exit(self, tmp_path, capsys, case, code, says):
        argv = self._argv(tmp_path, case)
        capsys.readouterr()
        out = tmp_path / "out"
        assert main([*argv, "--out", str(out)]) == code
        assert not out.exists()
        err = capsys.readouterr().err
        assert err.startswith("error: ") and err.count("\n") == 1
        assert says in err and "Traceback" not in err


class TestPinnedOutputs:
    """SHA-256 of every file that simulate -> raicarn -> mixture writes at
    one small shape and seed, so a change meant to keep the output bits is
    checked by the suite. Ranks 1 and 2 are significant, and each has a
    converged three-class fit. At location 250 of rank 2 all six maps share
    a rank; their rounded standard deviation of about 5e-16 used to give
    |t| near 1.6e16 and a whole-map degenerate fit."""

    DIGESTS = {
        "sim/manifest.txt": "beaea525124788e791e48f3d6bb220f43ba0ef96edf3194ff9df8a150e79f5b9",
        "sim/run00.rnm": "0545e302ff0d78075c4a9d3c899cd8738fba1f2459bc31e62d051f66378cec34",
        "sim/run01.rnm": "78b8393f5cf0e89349999f9f30ad2b71db6b98e37d248219821963f98e1ad560",
        "sim/run02.rnm": "f1dc50e192c6c0f33e5a67cda221d8e8921d16f4337f8fc297bb48cfbd079d5e",
        "sim/run03.rnm": "0f4150e99f1c731c6d3a2358ce7ff364b01d657e6b1c62e2f315bfbbf298348c",
        "sim/run04.rnm": "ab80d33f8e181a1f852f5571a7f4eb7d3d7390d3a35cc8a9c95394d1a1633f38",
        "sim/run05.rnm": "2dd2e5b01cbfc06ba0fed41325e56fbb7195466c2ea718e8083f2f1badf92120",
        "sim/truth.txt": "46098cc040d6384e54af4ec645d535aa01e8cffd4e454c33a938c8c7ef8b20f2",
        "rep/report.txt": "80784ebac2ad7c9e41ca299eba04f1c816f022a36beb287d1bd91e2df891b75a",
        "rep/report.txt.null.rnm": "ec4a7971e05d0708288b9f7d95de87699d2fc45f9bf0c1910e8e18f0814cb362",
        "mix/comp01_fit.txt": "ee030e20a0f0c49c8b3bf1980e669ac041f4bda1b989f4fe9212cca3c372f39b",
        "mix/comp01_hist.rnm": "5ecafa999449ede9c2234c082675812f1cc822d4c4ebf282adcba6e51b14c021",
        "mix/comp01_labels.rnm": "c61b261b3b2596ebd998df5c22781c43bec5fa0895776f43f4095ff14feb7372",
        "mix/comp01_tstat.rnm": "0859b2614da3de9f74236ae818cfb061b46173ee75dc22e1dc87403dfcaa0896",
        "mix/comp02_fit.txt": "0a37dd5526d6e4308db01cb2bd784f3384787be391dca0536352de24e6a1ede9",
        "mix/comp02_hist.rnm": "f8d380fda285ca1933027e94110c0fd0497c74d7274acb64d699cb7b410dd6cd",
        "mix/comp02_labels.rnm": "1a114a505491788b2ff5eb84815f506664ba70cc7aef233bcd98812a31114ce9",
        "mix/comp02_tstat.rnm": "779119ec62817a1532dae94e5f06d8fd2ded3e5edcc3d764185b2e7ff6b484e4",
    }

    @pytest.fixture(scope="class")
    def pipeline(self, tmp_path_factory):
        root = tmp_path_factory.mktemp("pinned")
        manifest = _simulate(root / "sim", seed=7, K=6, nc=3, planted=2, overlap=0.9, n=600)
        assert main(["raicarn", manifest, "--R", "40", "--seed", "0", "--out", str(root / "rep")]) == 0
        assert main(["mixture", "--report", str(root / "rep" / "report.txt"),
                     "--manifest", manifest, "--out", str(root / "mix")]) == 0
        return root

    def test_pipeline_bytes_are_pinned(self, pipeline):
        assert "converged = true" in (pipeline / "mix" / "comp01_fit.txt").read_text()
        written = {
            f"{d}/{name}": hashlib.sha256((pipeline / d / name).read_bytes()).hexdigest()
            for d in ("sim", "rep", "mix")
            for name in sorted(os.listdir(pipeline / d))
        }
        assert written == self.DIGESTS

    def test_location_with_rounded_zero_spread_is_degenerate_alone(self, pipeline):
        fit = dict(
            line.split(" = ") for line in (pipeline / "mix" / "comp02_fit.txt").read_text().splitlines()[1:]
        )
        assert (fit["degenerate_locations"], fit["converged"]) == ("1", "true")
        assert 1 <= int(fit["iterations"]) < 500
        assert "degenerate" not in fit
        t = io.read_matrix(pipeline / "mix" / "comp02_tstat.rnm")[0]
        labels = io.read_matrix(pipeline / "mix" / "comp02_labels.rnm")[0]
        assert t[250] == 0.0 and labels[250] == 0.0
        assert np.abs(t).max() < 100.0
