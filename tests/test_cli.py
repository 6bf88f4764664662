import ast
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
        assert model["stopped"] == "tolerance"

    def test_iteration_cap_recorded(self, tmp_path):
        data = _ica_data(tmp_path)
        out = tmp_path / "ica"
        rc = main(["ica", str(data), "--q", "3", "--max-iters", "2", "--tol", "1e-300",
                   "--seed", "1", "--out", str(out)])
        assert rc == 0
        text = (out / "model.txt").read_text()
        assert "converged = false\niterations = 2\nstopped = max_iters\n" in text

    def test_over_specified_order_stops_on_plateau(self, tmp_path):
        # 8 components for 4 noisy sources: half the rows stay near-Gaussian
        # and never meet --tol, so the contrast plateau ends the search
        S = gen_sources(4, 3000, "laplacian", seed=30)
        Y, _, _ = gen_mixture(S, p=30, sigma=1.0, seed=31)
        data = tmp_path / "data.rnm"
        io.write_matrix(Y, data)
        out = tmp_path / "ica"
        assert main(["ica", str(data), "--q", "8", "--seed", "0", "--out", str(out)]) == 0
        model = dict(
            line.split(" = ") for line in (out / "model.txt").read_text().splitlines()[1:]
        )
        assert (model["converged"], model["stopped"]) == ("false", "plateau")
        assert int(model["iterations"]) < 500

    def test_max_iters_zero_is_usage_error(self, tmp_path):
        data = _ica_data(tmp_path)
        out = tmp_path / "o"
        rc = main(["ica", str(data), "--q", "3", "--max-iters", "0", "--seed", "1", "--out", str(out)])
        assert rc == 2
        assert not out.exists()

    @pytest.mark.parametrize("tol", ["nan", "inf"])
    def test_non_finite_tol_is_usage_error(self, tmp_path, tol):
        data = _ica_data(tmp_path)
        out = tmp_path / "o"
        rc = main(["ica", str(data), "--q", "3", "--tol", tol, "--seed", "1", "--out", str(out)])
        assert rc == 2
        assert not out.exists()

    def test_group_mode(self, tmp_path):
        d1 = _ica_data(tmp_path, seed=2)
        d2 = _ica_data(tmp_path, seed=3)
        out = tmp_path / "gica"
        rc = main(["ica", str(d1), str(d2), "--q", "3", "--seed", "1", "--out", str(out)])
        assert rc == 0
        assert io.read_matrix(out / "components.rnm").shape == (3, 1500)
        # z-scaled against the residual of the one centred stack the fit ran on
        assert hashlib.sha256((out / "components.rnm").read_bytes()).hexdigest() == (
            "43e8f7fc5cf0ff0790b6c5c1cbbc530cca9fe3636467f0055b81d47de02c4d08"
        )

    def test_group_mode_with_mismatched_n_is_runtime_error(self, tmp_path, capsys):
        d1 = _ica_data(tmp_path, seed=2)
        d2 = _ica_data(tmp_path, seed=3, n=1400)
        out = tmp_path / "gica"
        rc = main(["ica", str(d1), str(d2), "--q", "3", "--seed", "1", "--out", str(out)])
        assert rc == 1
        assert not out.exists()
        err = capsys.readouterr().err
        assert err.count("\n") == 1 and "location count n, got [1500, 1400]" in err

    def test_q_zero_is_usage_error(self, tmp_path):
        data = _ica_data(tmp_path, seed=6)
        assert main(["ica", str(data), "--q", "0", "--seed", "1", "--out", str(tmp_path / "o")]) == 2

    def test_missing_data_is_runtime_error(self, tmp_path):
        rc = main(["ica", str(tmp_path / "gone.rnm"), "--q", "2", "--seed", "1", "--out", str(tmp_path / "o")])
        assert rc == 1

    @pytest.mark.parametrize("fault, says", [
        ("another location count", "location count n, got [1500, 1500, 1400]"),
        ("bad magic", "bad magic"),
        ("a byte short", "expected 120012 bytes for 10x1500, got 120011"),
    ])
    def test_group_headers_are_checked_before_any_payload_is_read(self, tmp_path, capsys, monkeypatch, fault, says):
        # the first dataset's NaN would be found on reading it, so the
        # error names the last file's header only if every header is
        # checked first; no payload is read at all
        first = io.read_matrix(_ica_data(tmp_path, seed=2))
        first[4, 7] = np.nan
        _write_unchecked(first, tmp_path / "first.rnm")
        last = _ica_data(tmp_path, seed=4, n=1400 if fault == "another location count" else 1500)
        if fault == "bad magic":
            last.write_bytes(b"RNM0" + last.read_bytes()[4:])
        elif fault == "a byte short":
            last.write_bytes(last.read_bytes()[:-1])
        monkeypatch.setattr(io, "_read_rows", lambda *a, **k: pytest.fail("a payload was read"))
        out = tmp_path / "gica"
        rc = main(["ica", str(tmp_path / "first.rnm"), str(_ica_data(tmp_path, seed=3)), str(last),
                   "--q", "3", "--seed", "1", "--out", str(out)])
        assert rc == 1
        assert not out.exists()
        err = capsys.readouterr().err
        assert err.startswith("error: ") and err.count("\n") == 1
        assert says in err and "non-finite" not in err

    # the seeds of the datasets stacked above the bad one
    @pytest.mark.parametrize("group", [[], [1]])
    @pytest.mark.parametrize("value", [np.nan, np.inf])
    def test_non_finite_data_is_runtime_error(self, tmp_path, capsys, group, value):
        above = [str(_ica_data(tmp_path, seed=seed)) for seed in group]
        Y = io.read_matrix(_ica_data(tmp_path))
        Y[4, 7] = value
        _write_unchecked(Y, tmp_path / "bad.rnm")
        out = tmp_path / "o"
        rc = main(["ica", *above, str(tmp_path / "bad.rnm"), "--q", "3", "--seed", "1", "--out", str(out)])
        assert rc == 1
        assert not out.exists()
        assert "non-finite" in capsys.readouterr().err

    # SHA-256 of every file ica writes, one run and one group of two, at a
    # shape too small for BLAS to thread
    DIGESTS = {
        "single/components.rnm": "67e22edd41a42f76c95a219b51a6b6e4fe095d6dfb7972892c8d43a963796a9a",
        "single/mean.rnm": "c365ad63a624888b4ca3d9e2e4b893ce220489d92824d64452ae957a08ed5603",
        "single/mixing.rnm": "2008ee769e54b24580157a95d79a5d2993c0cd8cfb6a2b6b9e1d9acc42607c85",
        "single/model.txt": "72810d66a7cfd7be2fb1ac99ef4f99b428eb819152fa83da3ed39522edd3cc26",
        "group/components.rnm": "43e8f7fc5cf0ff0790b6c5c1cbbc530cca9fe3636467f0055b81d47de02c4d08",
        "group/mean.rnm": "045374627f8975807f2bb0f044914cbccacbd09ad89d3c2f350a3f78a02957b1",
        "group/mixing.rnm": "1c66bb6388bcad528afab11b69d10c9bdbf84f756b435d286cd78d225168ace8",
        "group/model.txt": "a3fae3086e16bcf3a2c6d0f9a2e2b34c900b030038267c07b49bdfe3b25bd8f2",
    }

    @pytest.mark.parametrize("mode", ["single", "group"])
    def test_output_bytes_are_pinned(self, tmp_path, mode):
        data = [_ica_data(tmp_path)] if mode == "single" else [
            _ica_data(tmp_path, seed=2), _ica_data(tmp_path, seed=3)]
        out = tmp_path / mode
        assert main(["ica", *map(str, data), "--q", "3", "--seed", "1", "--out", str(out)]) == 0
        written = {f"{mode}/{f.name}": hashlib.sha256(f.read_bytes()).hexdigest()
                   for f in sorted(out.iterdir())}
        assert written == {k: v for k, v in self.DIGESTS.items() if k.startswith(mode + "/")}

    def test_row_blocks_give_the_bytes_of_the_whole_file(self, tmp_path):
        # several data files are one stack: the file cut into 4 row blocks
        # fits and writes as the file itself, its mean included
        whole = _ica_data(tmp_path, seed=8, p=12)
        Y = io.read_matrix(whole)
        blocks = [tmp_path / f"block{i}.rnm" for i in range(4)]
        for i, block in enumerate(blocks):
            io.write_matrix(Y[3 * i : 3 * i + 3], block)
        for name, data in (("whole", [whole]), ("blocks", blocks)):
            assert main(["ica", *map(str, data), "--q", "3", "--seed", "1", "--out", str(tmp_path / name)]) == 0
        for f in sorted((tmp_path / "whole").iterdir()):
            assert _same_bytes(f, tmp_path / "blocks" / f.name), f.name

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

    def test_constant_maps_are_not_a_significant_set(self, tmp_path):
        # the first map of every run is all 0.1, whose mean over 2000
        # locations is an ulp off 0.1; those maps correlate 0 with every
        # map, so they do not match as a reproducible set
        maps = np.random.default_rng(0).standard_normal((5, 3, 2000))
        maps[:, 0] = 0.1
        names = [f"run{r}.rnm" for r in range(5)]
        for name, run in zip(names, maps):
            io.write_matrix(run, tmp_path / name)
        io.write_manifest(names, tmp_path / "manifest.txt")
        out = tmp_path / "rep"
        assert main(["raicarn", str(tmp_path / "manifest.txt"), "--R", "200", "--seed", "1", "--out", str(out)]) == 0
        report = io.read_report(out / "report.txt")
        assert not report.significant.any()
        assert max(mc.reproducibility for mc in report.matched) < 0.1

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

    def test_quantile_table_is_built_once_per_command(self, tmp_path, monkeypatch):
        # the significant components' maps share the location count n, and
        # so the table of normal quantiles that normalize_maps looks up
        from statistics import NormalDist

        from raicarn import mixture

        manifest, report = self._analysis(tmp_path)
        assert int(io.read_report(report).significant.sum()) >= 2
        built = []
        monkeypatch.setattr(mixture, "NormalDist", lambda: built.append(1) or NormalDist())
        mixture._quantile_table.cache_clear()
        rc = main(["mixture", "--report", report, "--manifest", manifest, "--out", str(tmp_path / "mix")])
        assert rc == 0
        assert len(built) == 1
        assert mixture._quantile_table.cache_info().currsize == 0  # not kept past the command

    def test_quantile_table_is_not_kept_past_a_failure(self, tmp_path):
        # a NaN in a member map of the second significant component fails
        # the command after the first component built the table
        from raicarn import mixture

        manifest, report = self._analysis(tmp_path)
        rep = io.read_report(report)
        second = [mc for mc, sig in zip(rep.matched, rep.significant) if sig][1]
        run, comp, _ = second.members[0]
        path = tmp_path / "sim" / f"run{run:02d}.rnm"
        maps = io.read_matrix(path)
        maps[comp, 17] = np.nan
        _write_unchecked(maps, path)
        mixture._quantile_table.cache_clear()
        rc = main(["mixture", "--report", report, "--manifest", manifest, "--out", str(tmp_path / "mix")])
        assert rc == 1
        assert mixture._quantile_table.cache_info().currsize == 0

    @pytest.mark.parametrize("flags", [["--max-iters", "0"], ["--tol", "-1"], ["--tol", "nan"]])
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

    def test_map_below_100_locations_is_degenerate(self, tmp_path, capsys):
        # fit_mixture needs 100 values; a smaller map exits 0 with every
        # location null, no histogram and the summary counting it degenerate
        manifest = _simulate(tmp_path / "sim", seed=0, K=10, nc=2, planted=2, overlap=0.9, n=60)
        assert main(["raicarn", manifest, "--R", "50", "--seed", "0", "--out", str(tmp_path / "rep")]) == 0
        assert io.read_report(tmp_path / "rep" / "report.txt").significant.all()
        capsys.readouterr()
        out = tmp_path / "mix"
        rc = main(["mixture", "--report", str(tmp_path / "rep" / "report.txt"),
                   "--manifest", manifest, "--out", str(out)])
        assert rc == 0
        for rank in ("01", "02"):
            assert "degenerate = true" in (out / f"comp{rank}_fit.txt").read_text()
            assert not io.read_matrix(out / f"comp{rank}_labels.rnm").any()
            assert not (out / f"comp{rank}_hist.rnm").exists()
        summary = capsys.readouterr().out
        assert "fitted 0 of 2 significant component(s)" in summary and "2 degenerate" in summary

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


def _python(code, *args):
    """Run ``code`` in a fresh interpreter that imports this checkout's
    package; returns its standard output."""
    src = str(Path(__file__).resolve().parents[1] / "src")
    env = {**os.environ, "PYTHONPATH": src + os.pathsep + os.environ.get("PYTHONPATH", "")}
    done = subprocess.run([sys.executable, "-c", code, *args], env=env, capture_output=True, text=True, check=True)
    return done.stdout


@pytest.mark.parametrize("module", ["scipy.stats", "scipy.optimize", "scipy.linalg", "scipy", "scipy.special"])
def test_cli_import_leaves_scipy_stats_unloaded(module):
    # scipy.stats alone adds about half a second to every command's start;
    # scipy.optimize and the scipy.linalg it loads add 24 MB, and
    # scipy.special with scipy 24 MB and 0.25 s. No command needs any of
    # them, so none (one process per ICA restart) pays for them.
    assert _python(f"import raicarn.cli, sys; print({module!r} in sys.modules)").strip() == "False"


def test_pipeline_runs_without_loading_scipy(tmp_path):
    code = (
        "import sys\n"
        "from raicarn.cli import main\n"
        "sim, rep, mix = sys.argv[1:]\n"
        "assert main(['simulate', '--K', '6', '--nc', '3', '--planted', '2', '--n', '600',\n"
        "             '--seed', '7', '--out', sim]) == 0\n"
        "assert main(['raicarn', sim + '/manifest.txt', '--R', '40', '--seed', '0', '--out', rep]) == 0\n"
        "assert main(['mixture', '--report', rep + '/report.txt', '--manifest', sim + '/manifest.txt',\n"
        "             '--out', mix]) == 0\n"
        "print(sorted(m for m in sys.modules if m.split('.')[0] == 'scipy'))\n"
    )
    dirs = [str(tmp_path / d) for d in ("sim", "rep", "mix")]
    assert _python(code, *dirs).splitlines()[-1] == "[]"
    assert any(name.endswith("_fit.txt") for name in os.listdir(dirs[2]))


def test_no_module_of_the_package_imports_scipy():
    package = Path(__file__).resolve().parents[1] / "src" / "raicarn"
    sources = sorted(package.rglob("*.py"))
    assert sources
    for source in sources:
        for node in ast.walk(ast.parse(source.read_text(), str(source))):
            if isinstance(node, ast.Import):
                names = [alias.name for alias in node.names]
            elif isinstance(node, ast.ImportFrom):
                names = [node.module or ""] if node.level == 0 else []
            else:
                continue
            assert not any(n.split(".")[0] == "scipy" for n in names), (source.name, node.lineno)


def _peak_growth_kb(*argv):
    """How far one command raises the peak RSS (VmHWM) of a fresh
    interpreter above what importing the package took, in kB. The peak is
    VmHWM, not ru_maxrss: exec carries the launching process's RSS into
    ru_maxrss, so under a large test process the growth would not show."""
    code = (
        "import re, sys\n"
        "import raicarn.cli\n"
        "rss = lambda: int(re.search(r'VmHWM:\\s*(\\d+) kB', open('/proc/self/status').read()).group(1))\n"
        "before = rss()\n"
        "assert raicarn.cli.main(sys.argv[1:]) == 0\n"
        "print(rss() - before)\n"
    )
    return int(_python(code, *argv).split()[-1])


def test_simulate_holds_one_run_at_a_time(tmp_path):
    # 32 runs of 4 x 62500 maps are 64 MB. Written as they are drawn, they
    # raised the peak by 14 MB; built as one run set first, by 74 MB.
    grown_kb = _peak_growth_kb("simulate", "--K", "32", "--nc", "4", "--planted", "1", "--n", "62500",
                               "--seed", "3", "--out", str(tmp_path / "sim"))
    run_set = 32 * 4 * 62_500 * 8
    assert sum(f.stat().st_size for f in (tmp_path / "sim").glob("run*.rnm")) > run_set
    assert grown_kb < run_set / 1024 / 2


def test_raicarn_holds_one_block_of_locations_at_a_time(tmp_path):
    # 64 runs of 2 x 125000 maps are 128 MB. Built over blocks of at most
    # 32 MB, the CRCM raised the peak by 39 MB; from one (128, 125000)
    # buffer of all the maps, by 128 MB.
    manifest = _simulate(tmp_path / "sim", K=64, nc=2, planted=1, n=125_000)
    grown_kb = _peak_growth_kb("raicarn", manifest, "--R", "5", "--seed", "1", "--out", str(tmp_path / "rep"))
    buffer = 64 * 2 * 125_000 * 8
    assert grown_kb < buffer / 1024 / 2


def test_raicarn_centres_each_run_in_place(tmp_path):
    # 2 runs of 64 x 125000 maps: one run is 64 MB, twice the 32 MB block
    # buffer. Centred in the array it was read into, the CRCM raised the
    # peak by 103 MB (the run, the buffer and the rest); with a centred
    # copy beside the run, by 166 MB.
    manifest = _simulate(tmp_path / "sim", K=2, nc=64, planted=1, n=125_000)
    grown_kb = _peak_growth_kb("raicarn", manifest, "--R", "5", "--seed", "1", "--out", str(tmp_path / "rep"))
    run = 64 * 125_000 * 8
    assert grown_kb < 2 * run / 1024


def test_mixture_holds_one_component_at_a_time(tmp_path):
    # 16 significant components of 32 maps of 15625 locations: each stack
    # is 4 MB, 64 MB in all. Read one at a time, keeping only the t-maps,
    # they raised the peak by 16 MB; read all before any fit, by 116 MB.
    manifest = _simulate(tmp_path / "sim", K=32, nc=18, planted=16, n=15_625)
    assert main(["raicarn", manifest, "--R", "20", "--seed", "1", "--out", str(tmp_path / "rep")]) == 0
    report = io.read_report(tmp_path / "rep" / "report.txt")
    n_sig = int(report.significant.sum())
    assert n_sig >= 4
    stacks = n_sig * 32 * 15_625 * 8
    assert stacks >= 64e6
    grown_kb = _peak_growth_kb("mixture", "--report", str(tmp_path / "rep" / "report.txt"),
                               "--manifest", manifest, "--out", str(tmp_path / "mix"))
    assert len(list((tmp_path / "mix").glob("*_fit.txt"))) == n_sig
    assert grown_kb < stacks / 1024 / 2


@pytest.mark.parametrize("group", [False, True], ids=["single", "group"])
def test_ica_holds_one_copy_of_its_data(tmp_path, group):
    # 64 rows of 62500 locations are 32 MB, read as one matrix or as four
    # datasets of 16 rows. Centred in the array it was read into, with the
    # residual formed a block of columns at a time, ica raised the peak by
    # 48 MB, and by the same over four datasets. With the data beside its
    # centred copy in the fit and beside A S in residual_sd, it raised it by
    # 77 MB; with a third copy in residual_sd, by 107 MB, and over four
    # datasets also held beside their stack, by 138 MB.
    S = gen_sources(4, 62_500, "laplacian", seed=40)
    parts = 4 if group else 1
    paths = []
    for i in range(parts):
        Y, _, _ = gen_mixture(S, p=64 // parts, sigma=1.0, seed=41 + i)
        paths.append(str(tmp_path / f"data{i}.rnm"))
        io.write_matrix(Y, paths[-1])
    del Y
    grown_kb = _peak_growth_kb("ica", *paths, "--q", "4",
                               "--max-iters", "10", "--seed", "1", "--out", str(tmp_path / "ica"))
    data = 64 * 62_500 * 8
    assert grown_kb < 2 * data / 1024


# report edits: (pattern, replacement) applied once to report.txt
REPORT_EDITS = {
    "member sign not + or -": (r"^(members = \d+:\d+):[+-]", r"\1:*"),
    "rank not the position": (r"^rank = 2$", "rank = 1"),
    "unknown report key": (r"^(rank = 2)$", r"\1\nfoo = bar"),
    "repeated report key": (r"^(rank = 1)$", r"\1\n\1"),
}


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
        if case in REPORT_EDITS or case.startswith("null sample"):
            assert main(["raicarn", manifest, "--R", "5", "--seed", "1", "--out", str(tmp_path / "rep")]) == 0
            report = tmp_path / "rep" / "report.txt"
            if case.startswith("null sample"):
                null = tmp_path / "rep" / "report.txt.null.rnm"
                pool = io.read_matrix(null)  # 1 x 10
                with_nan = pool.copy()
                with_nan[0, 3] = np.nan
                bad_pool = {"null sample of no rows": pool[:0], "null sample of two rows": np.vstack([pool, pool]),
                            "null sample of no values": pool[:, :0], "null sample with a NaN": with_nan}[case]
                _write_unchecked(bad_pool, null)
            else:
                text = report.read_text()
                edited = re.sub(*REPORT_EDITS[case], text, count=1, flags=re.M)
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
        if case == "second ica data file missing":
            return ["ica", str(sim / "run00.rnm"), str(sim / "gone.rnm"), "--q", "1", "--seed", "1"]
        if case == "ica without --q":
            return ["ica", str(sim / "run00.rnm"), "--seed", "1"]
        if case == "config value with '%'":
            bad.write_text("[ica]\nnonlinearity = tanh%\n")
            return ["ica", str(sim / "run00.rnm"), "--q", "1", "--seed", "1", "--config", str(bad)]
        if case == "config [DEFAULT] section":
            bad.write_text("[DEFAULT]\nR = 5\n")
            return ["raicarn", manifest, "--seed", "1", "--config", str(bad)]
        if case.startswith("negative seed to "):
            return {
                "ica": ["ica", str(sim / "run00.rnm"), "--q", "1"],
                "raicarn": ["raicarn", manifest, "--R", "5"],
                "simulate": ["simulate", "--K", "4", "--nc", "2", "--planted", "1", "--n", "200"],
                "plan-groups": ["plan-groups", "--N", "23", "--alpha", "0.05"],
            }[case.removeprefix("negative seed to ")] + ["--seed", "-1"]
        raise AssertionError(case)

    @pytest.mark.parametrize("case, code, says", [
        ("truncated matrix header", 1, "truncated header"),
        ("unknown manifest key", 1, "unknown manifest key 'colour'"),
        ("manifest without runs", 1, "lists no runs"),
        ("mask of two rows", 1, "1-row"),
        ("line without '='", 1, "malformed line"),
        ("member sign not + or -", 1, "sign must be + or -"),
        ("rank not the position", 1, "report.txt: component 2 has 'rank' = 1"),
        ("unknown report key", 1, "report.txt: unknown report key 'foo'"),
        ("repeated report key", 1, "report.txt: repeated key 'rank'"),
        ("null sample of no rows", 1, "report.txt.null.rnm: null sample must be one row of at least one value, got 0x10"),
        ("null sample of two rows", 1, "report.txt.null.rnm: null sample must be one row of at least one value, got 2x10"),
        ("null sample of no values", 1, "report.txt.null.rnm: null sample must be one row of at least one value, got 1x0"),
        ("null sample with a NaN", 1, "report.txt: null sample contains non-finite values"),
        ("two mask lines", 1, "bad.txt: manifest lists more than one mask"),
        ("mask not 0/1", 1, "mask.rnm: mask values must be 0 or 1"),
        ("NaN in a run", 1, "run02.rnm: map 2 contains non-finite values"),
        ("second ica data file missing", 1, "gone.rnm"),
        ("ica without --q", 2, "--q is required"),
        ("config value with '%'", 2, "nonlinearity must be one of"),
        ("config [DEFAULT] section", 2, "bad.txt: unknown section [DEFAULT]"),
        ("negative seed to ica", 2, "seed must be >= 0, got -1"),
        ("negative seed to raicarn", 2, "seed must be >= 0, got -1"),
        ("negative seed to simulate", 2, "seed must be >= 0, got -1"),
        ("negative seed to plan-groups", 2, "seed must be >= 0, got -1"),
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
        "mix/comp01_fit.txt": "8c163e572299ade44bd36c3c8ba11185d213afaff363469b9c69d62499ec66bd",
        "mix/comp01_hist.rnm": "9ac38a03fea3b64bc020c8a891e0460c308f1bb01a458c585425665cdc4e72c0",
        "mix/comp01_labels.rnm": "c61b261b3b2596ebd998df5c22781c43bec5fa0895776f43f4095ff14feb7372",
        "mix/comp01_tstat.rnm": "edd3e2bd40ee438a31ed531ea50ee90f75ba385c17ef3c4fd942e40c39d84356",
        "mix/comp02_fit.txt": "aa46d014c93c173cfb06f2734a4c3870333fb8c4cd087a66270057cf23332a56",
        "mix/comp02_hist.rnm": "b87ceb9911b9b6ee02a50b7586b029ee384f3eabbfa50db03b4864d070f8718c",
        "mix/comp02_labels.rnm": "1a114a505491788b2ff5eb84815f506664ba70cc7aef233bcd98812a31114ce9",
        "mix/comp02_tstat.rnm": "b27d9d62ebaacf2fb2d4c4c1f8881470107836fc744e551c3cc0cbba92f6fb07",
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
