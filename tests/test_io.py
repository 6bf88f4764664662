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
)


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
        with pytest.raises(MaskLengthMismatchError):
            io.load_runs(tmp_path / "manifest.txt")

    def test_runs_of_different_shapes(self, tmp_path):
        names = self._write_runs(tmp_path)
        io.write_matrix(np.zeros((3, 100)), tmp_path / names[1])
        io.write_manifest(names, tmp_path / "manifest.txt")
        with pytest.raises(RaggedRunsError, match=names[1]):
            io.load_runs(tmp_path / "manifest.txt")

    def test_missing_run_file(self, tmp_path):
        io.write_manifest(["gone.rnm"], tmp_path / "manifest.txt")
        with pytest.raises(IoFailureError):
            io.load_runs(tmp_path / "manifest.txt")


class TestReportFormat:
    def _report(self, n_C=2, K=3, null_len=200):
        from raicarn.types import MatchedComponent, ReproducibilityReport

        rng = np.random.default_rng(1)
        reps = sorted(rng.random(n_C), reverse=True)
        mcs = []
        for i, rep in enumerate(reps):
            members = tuple((r, (i + r) % n_C, 1 if r == 0 else -1) for r in range(K))
            mcs.append(MatchedComponent(members, members[0][:2], rep))
        null = rng.random(null_len)
        p = np.sort(rng.uniform(0.01, 0.99, n_C))
        return ReproducibilityReport(tuple(mcs), null, p, 0.05, p < 0.05)

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
        from raicarn.types import ReproducibilityReport

        r = self._report()
        p = np.array([0.5, 0.9])
        r2 = ReproducibilityReport(r.matched, r.null_sample, p, 0.05, p < 0.05)
        io.write_report(r2, tmp_path / "report.txt")
        back = io.read_report(tmp_path / "report.txt")
        assert not back.significant.any()
