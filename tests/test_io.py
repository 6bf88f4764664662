import struct

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st
from hypothesis.extra import numpy as nps

from raicarn import io
from raicarn.errors import (
    BadMagicError,
    IoFailureError,
    MaskLengthMismatchError,
    NonFiniteError,
    RaggedRunsError,
    ShapeMismatchError,
    TooFewRunsError,
)
from raicarn.null import NullConfig, run_raicar_n
from raicarn.synth import PlantSpec, planted_runset
from raicarn.types import ReproducibilityReport


class TestMatrixFormat:
    def test_round_trip(self, tmp_path):
        m = np.eye(2)
        path = tmp_path / "m.rnm"
        io.write_matrix(m, path)
        back = io.read_matrix(path)
        assert back.tobytes() == m.tobytes()

    def test_1x1_is_20_bytes(self, tmp_path):
        path = tmp_path / "m.rnm"
        io.write_matrix(np.array([[0.5]]), path)
        assert path.stat().st_size == 20

    def test_declared_shape(self, tmp_path):
        path = tmp_path / "m.rnm"
        io.write_matrix(np.arange(6.0).reshape(2, 3), path)
        assert io.read_matrix(path).shape == (2, 3)

    def test_truncated_payload(self, tmp_path):
        path = tmp_path / "m.rnm"
        io.write_matrix(np.arange(6.0).reshape(2, 3), path)
        path.write_bytes(path.read_bytes()[:-1])
        with pytest.raises(ShapeMismatchError):
            io.read_matrix(path)

    def test_trailing_bytes_rejected(self, tmp_path):
        path = tmp_path / "m.rnm"
        io.write_matrix(np.eye(2), path)
        path.write_bytes(path.read_bytes() + b"\x00")
        with pytest.raises(ShapeMismatchError):
            io.read_matrix(path)

    def test_header_checked_before_payload(self, tmp_path):
        # a header claiming 65535 x 65535 (32 GiB) on a short file is
        # rejected from the file size, naming the size it expected
        path = tmp_path / "m.rnm"
        path.write_bytes(struct.pack("<4sII", io.MAGIC, 65535, 65535) + bytes(8))
        expected = 12 + 8 * 65535 * 65535
        with pytest.raises(ShapeMismatchError, match=f"expected {expected} bytes"):
            io.read_matrix(path)

    def test_empty_matrix_round_trip(self, tmp_path):
        path = tmp_path / "m.rnm"
        io.write_matrix(np.empty((0, 3)), path)
        assert io.read_matrix(path).shape == (0, 3)

    def test_bad_magic(self, tmp_path):
        path = tmp_path / "m.rnm"
        io.write_matrix(np.eye(2), path)
        data = bytearray(path.read_bytes())
        data[:4] = b"XXXX"
        path.write_bytes(bytes(data))
        with pytest.raises(BadMagicError):
            io.read_matrix(path)

    def test_non_finite_rejected(self, tmp_path):
        with pytest.raises(NonFiniteError):
            io.write_matrix(np.array([[np.inf]]), tmp_path / "m.rnm")

    def test_missing_file(self, tmp_path):
        with pytest.raises(IoFailureError):
            io.read_matrix(tmp_path / "nope.rnm")

    @settings(max_examples=30, deadline=None)
    @given(
        m=nps.arrays(
            np.float64,
            nps.array_shapes(min_dims=2, max_dims=2, max_side=8),
            elements=st.floats(allow_nan=False, allow_infinity=False, width=64),
        )
    )
    def test_round_trip_property(self, m):
        import tempfile

        with tempfile.TemporaryDirectory() as d:
            path = f"{d}/m.rnm"
            io.write_matrix(m, path)
            assert io.read_matrix(path).tobytes() == np.ascontiguousarray(m).tobytes()


class TestManifest:
    def _write_runs(self, tmp_path, K=3, n_C=4, n=100, seed=0):
        rng = np.random.default_rng(seed)
        names = []
        for r in range(K):
            name = f"run{r}.rnm"
            io.write_matrix(rng.standard_normal((n_C, n)), tmp_path / name)
            names.append(name)
        return names

    def test_load_runs(self, tmp_path):
        names = self._write_runs(tmp_path)
        io.write_manifest(names, tmp_path / "manifest.txt")
        rc = io.load_runs(tmp_path / "manifest.txt")
        assert (rc.K, rc.n_C, rc.n) == (3, 4, 100)

    def test_mask_applied(self, tmp_path):
        names = self._write_runs(tmp_path)
        mask = np.zeros((1, 100))
        mask[0, :80] = 1.0
        io.write_matrix(mask, tmp_path / "mask.rnm")
        io.write_manifest(names, tmp_path / "manifest.txt", mask_path="mask.rnm")
        rc = io.load_runs(tmp_path / "manifest.txt")
        assert rc.n == 80

    def test_mask_length_mismatch(self, tmp_path):
        names = self._write_runs(tmp_path)
        io.write_matrix(np.ones((1, 99)), tmp_path / "mask.rnm")
        io.write_manifest(names, tmp_path / "manifest.txt", mask_path="mask.rnm")
        for load in (io.load_runs, io.open_runs):
            with pytest.raises(MaskLengthMismatchError):
                load(tmp_path / "manifest.txt")

    def test_runs_of_different_shapes(self, tmp_path):
        names = self._write_runs(tmp_path)
        io.write_matrix(np.zeros((3, 100)), tmp_path / names[1])
        io.write_manifest(names, tmp_path / "manifest.txt")
        for load in (io.load_runs, io.open_runs):
            with pytest.raises(RaggedRunsError, match=names[1]):
                load(tmp_path / "manifest.txt")

    def test_missing_run_file(self, tmp_path):
        io.write_manifest(["gone.rnm"], tmp_path / "manifest.txt")
        with pytest.raises(IoFailureError):
            io.load_runs(tmp_path / "manifest.txt")


class TestRunFiles:
    def _manifest(self, tmp_path, masked, K=3, n_C=4, n=100):
        names = TestManifest()._write_runs(tmp_path, K=K, n_C=n_C, n=n)
        mask_path = None
        if masked:
            mask = np.ones((1, n))
            mask[0, ::3] = 0.0
            io.write_matrix(mask, tmp_path / "mask.rnm")
            mask_path = "mask.rnm"
        io.write_manifest(names, tmp_path / "manifest.txt", mask_path=mask_path)
        return tmp_path / "manifest.txt", names

    @pytest.mark.parametrize("masked", [False, True])
    def test_rows_equal_loaded_maps(self, tmp_path, masked):
        manifest, names = self._manifest(tmp_path, masked)
        rc = io.load_runs(manifest)
        runs = io.open_runs(manifest)
        assert (runs.K, runs.n_C, runs.n) == (rc.K, rc.n_C, rc.n)
        stored = np.stack([io.read_matrix(tmp_path / name) for name in names])
        if masked:
            stored = stored[..., io.read_matrix(tmp_path / "mask.rnm")[0] == 1.0]
        assert rc.maps.tobytes() == stored.tobytes()
        index = [(2, 3), (0, 0), (1, 2), (2, 0), (0, 0)]
        rows = runs.rows(index)
        assert rows.tobytes() == np.stack([rc.maps[r, c] for r, c in index]).tobytes()
        assert runs.run(1).tobytes() == rc.maps[1].tobytes()

    def test_headers_only_are_read(self, tmp_path):
        # a NaN in the payload is not seen until its row is read
        manifest, names = self._manifest(tmp_path, masked=False)
        m = io.read_matrix(tmp_path / names[1])
        m[2, 5] = np.nan
        (tmp_path / names[1]).write_bytes(
            struct.pack("<4sII", io.MAGIC, *m.shape) + m.astype("<f8").tobytes()
        )
        runs = io.open_runs(manifest)
        assert np.isfinite(runs.rows([(1, 1), (1, 3), (0, 2)])).all()
        with pytest.raises(NonFiniteError, match=rf"{names[1]}: map 3 "):
            runs.rows([(0, 0), (1, 2)])
        assert np.isfinite(runs.run(0)).all()
        for read in (lambda: runs.run(1), lambda: io.load_runs(manifest)):
            with pytest.raises(NonFiniteError, match=rf"{names[1]}: map 3 "):
                read()

    @pytest.mark.parametrize("run, comp", [(-1, 0), (0, 4), (0, -1), (3, 0)])
    def test_out_of_range_map(self, tmp_path, run, comp):
        manifest, _ = self._manifest(tmp_path, masked=False)
        runs = io.open_runs(manifest)
        with pytest.raises(ShapeMismatchError, match=rf"no map \(run {run}, component {comp}\) in 3 runs of 4"):
            runs.rows([(0, 0), (run, comp)])
        if comp == 0:
            with pytest.raises(ShapeMismatchError, match="no map"):
                runs.run(run)

    def test_truncated_run(self, tmp_path):
        manifest, names = self._manifest(tmp_path, masked=False)
        path = tmp_path / names[2]
        path.write_bytes(path.read_bytes()[:-8])
        with pytest.raises(ShapeMismatchError, match="expected 3212 bytes"):
            io.open_runs(manifest)

    def test_one_run_is_too_few(self, tmp_path):
        manifest, _ = self._manifest(tmp_path, masked=False, K=1)
        with pytest.raises(TooFewRunsError):
            io.open_runs(manifest)


class TestReportFormat:
    def _report(self, n_C=2, K=3, null_len=200):
        rc, _ = planted_runset(PlantSpec(n=200, n_C=n_C, K=K, n_planted=1, seed=1))
        return run_raicar_n(rc, NullConfig(R=null_len // n_C, seed=0))

    def test_round_trip(self, tmp_path):
        report = self._report()
        io.write_report(report, tmp_path / "report.txt")
        back = io.read_report(tmp_path / "report.txt")
        assert back.p_crit == report.p_crit
        np.testing.assert_array_equal(back.null_sample, report.null_sample)
        np.testing.assert_array_equal(back.p_values, report.p_values)
        for a, b in zip(back.matched, report.matched):
            assert a.members == b.members
            assert a.reproducibility == b.reproducibility

    def test_null_companion_length(self, tmp_path):
        io.write_report(self._report(null_len=200), tmp_path / "report.txt")
        null = io.read_matrix(tmp_path / "report.txt.null.rnm")
        assert null.shape == (1, 200)

    def test_all_insignificant_is_valid(self, tmp_path):
        r = self._report()
        # every null value above every observed one: all p-values are 1
        r2 = ReproducibilityReport(r.matched, r.null_sample + 2.0, 0.05)
        io.write_report(r2, tmp_path / "report.txt")
        back = io.read_report(tmp_path / "report.txt")
        assert not back.significant.any()

    def test_p_value_not_following_from_the_null_is_rejected(self, tmp_path):
        report = self._report()
        path = tmp_path / "report.txt"
        io.write_report(report, path)
        p = float(report.p_values[0])
        wrong = float(np.nextafter(p, 0.0))  # one ulp off, still a valid-looking p-value
        path.write_text(path.read_text().replace(f"p_value = {p!r}", f"p_value = {wrong!r}", 1))
        with pytest.raises(IoFailureError, match="report.txt.null.rnm"):
            io.read_report(path)

    def _with_first_flag(self, tmp_path, flag=None):
        """A written report with rank 1's significance flag replaced by
        flag (default: its negation)."""
        report = self._report()
        path = tmp_path / "report.txt"
        io.write_report(report, path)
        old = "true" if report.significant[0] else "false"
        if flag is None:
            flag = "false" if report.significant[0] else "true"
        path.write_text(path.read_text().replace(f"significant = {old}", f"significant = {flag}", 1))
        return path

    def test_flipped_significance_flag_is_rejected(self, tmp_path):
        with pytest.raises(IoFailureError, match="significance flags"):
            io.read_report(self._with_first_flag(tmp_path))

    @pytest.mark.parametrize("flag", ["True", "1", "yes", ""])
    def test_garbled_significance_flag_is_rejected(self, tmp_path, flag):
        with pytest.raises(IoFailureError, match="'significant'"):
            io.read_report(self._with_first_flag(tmp_path, flag))

    def test_report_without_components_is_rejected(self, tmp_path):
        path = tmp_path / "report.txt"
        io.write_report(self._report(), path)
        text = path.read_text()
        path.write_text(text[: text.index("[component]")])
        with pytest.raises(IoFailureError, match="at least one"):
            io.read_report(path)
