import numpy as np
import pytest

from raicarn.errors import NonFiniteError, RaggedRunsError, TooFewRunsError
from raicarn.types import (
    Crcm,
    MatchedComponent,
    ReproducibilityReport,
    RunCollection,
    validate_run_collection,
)


def _runs(K=3, n_C=4, n=100, seed=0):
    rng = np.random.default_rng(seed)
    return [[rng.standard_normal(n) for _ in range(n_C)] for _ in range(K)]


class TestValidateRunCollection:
    def test_well_formed(self):
        rc = validate_run_collection(_runs(3, 4, 100))
        assert (rc.K, rc.n_C, rc.n) == (3, 4, 100)

    def test_ragged_component_counts(self):
        runs = _runs(3, 4, 100)
        del runs[2][3]
        with pytest.raises(RaggedRunsError):
            validate_run_collection(runs)

    def test_ragged_lengths(self):
        runs = _runs(3, 4, 100)
        runs[1][2] = runs[1][2][:-1]
        with pytest.raises(RaggedRunsError):
            validate_run_collection(runs)

    def test_non_finite(self):
        runs = _runs(3, 4, 100)
        runs[0][0][5] = np.nan
        with pytest.raises(NonFiniteError):
            validate_run_collection(runs)

    def test_too_few_runs(self):
        with pytest.raises(TooFewRunsError):
            validate_run_collection(_runs(1, 4, 100))

    def test_immutability(self):
        rc = validate_run_collection(_runs())
        with pytest.raises(ValueError):
            rc.maps[0, 0, 0] = 1.0


class TestCrcm:
    def test_rejects_asymmetry(self):
        m = np.zeros((4, 4))
        m[0, 2] = 0.5
        with pytest.raises(ValueError):
            Crcm(2, 2, m)

    def test_block_view(self):
        m = np.zeros((4, 4))
        m[0, 2] = m[2, 0] = 0.7
        G = Crcm(2, 2, m)
        assert G.block(0, 1)[0, 0] == 0.7

    def test_rejects_out_of_range(self):
        m = np.eye(4)
        m[0, 2] = m[2, 0] = -1.5
        with pytest.raises(ValueError):
            Crcm(2, 2, m)

    def test_absolute_views_derive_from_signed(self):
        m = np.eye(4)
        m[0, 1] = m[1, 0] = 0.3  # within run 0
        m[0, 2] = m[2, 0] = -0.7  # across runs
        G = Crcm(2, 2, m)
        np.testing.assert_array_equal(G.full, np.abs(m))
        expected = np.abs(m)
        expected[:2, :2] = expected[2:, 2:] = 0.0
        np.testing.assert_array_equal(G.matrix, expected)


class TestMatchedComponent:
    def test_rejects_duplicate_run(self):
        members = ((0, 0, 1), (0, 1, 1))
        with pytest.raises(ValueError):
            MatchedComponent(members, (0, 0), 0.0)

    def test_rejects_negative_anchor_sign(self):
        members = ((0, 0, -1), (1, 0, 1))
        with pytest.raises(ValueError):
            MatchedComponent(members, (0, 0), 0.0)

    def test_rejects_anchor_outside_members(self):
        members = ((0, 0, 1), (1, 0, 1))
        with pytest.raises(ValueError, match="anchor"):
            MatchedComponent(members, (0, 1), 0.0)

    def test_valid(self):
        members = ((0, 1, 1), (1, 0, -1), (2, 2, 1))
        mc = MatchedComponent(members, (0, 1), 0.5)
        assert mc.reproducibility == 0.5


class TestReport:
    def _mc(self, rep):
        return MatchedComponent(((0, 0, 1), (1, 0, 1)), (0, 0), rep)

    def test_flags_must_match_pvalues(self):
        mcs = (self._mc(0.9), self._mc(0.1))
        p = np.array([0.01, 0.5])
        with pytest.raises(ValueError):
            ReproducibilityReport(mcs, np.array([0.1]), p, 0.05, np.array([False, False]))

    def test_ordering_enforced(self):
        mcs = (self._mc(0.1), self._mc(0.9))
        p = np.array([0.5, 0.01])
        with pytest.raises(ValueError):
            ReproducibilityReport(mcs, np.array([0.1]), p, 0.05, np.array([False, True]))
