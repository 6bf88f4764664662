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

    def test_array_is_frozen_in_place(self):
        maps = np.asarray(_runs(), dtype=np.float64)
        rc = validate_run_collection(maps)
        assert rc.maps is maps and not maps.flags.writeable

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
        np.testing.assert_array_equal(G.signed, m)
        # row 0 of |m| is [1, 0.3, 0.7, 0]
        np.testing.assert_array_equal(G.row_order[0], [0, 2, 1, 3])

    def test_row_order_sorts_each_row_once(self):
        # 600 rows span two of the sort's row chunks
        rng = np.random.default_rng(0)
        U = np.round(rng.uniform(-1, 1, (600, 600)) * 4) / 4
        S = np.triu(U)
        G = Crcm(3, 200, S + np.triu(S, 1).T)
        order = G.row_order
        assert order.dtype == np.int16 and not order.flags.writeable
        assert G.row_order is order  # computed once per matrix
        np.testing.assert_array_equal(np.sort(order, axis=1), np.broadcast_to(np.arange(600), (600, 600)))
        ranked = np.take_along_axis(np.abs(G.signed), order.astype(np.int64), axis=1)
        assert (np.diff(ranked, axis=1) <= 0).all()


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

    def test_ordering_enforced(self):
        mcs = (self._mc(0.1), self._mc(0.9))
        with pytest.raises(ValueError, match="descending"):
            ReproducibilityReport(mcs, np.array([0.1]), 0.05)

    def test_p_values_and_flags_derive_from_the_null_sample(self):
        # oracle: 0 and 2 of the 4 null values are >= 0.9 and >= 0.5
        null = np.array([0.2, 0.4, 0.6, 0.8])
        report = ReproducibilityReport((self._mc(0.9), self._mc(0.5)), null, 0.3)
        np.testing.assert_array_equal(report.p_values, [1 / 5, 3 / 5])
        np.testing.assert_array_equal(report.significant, [True, False])
        assert not report.p_values.flags.writeable
        assert not report.null_sample.flags.writeable

    def test_needs_a_component(self):
        with pytest.raises(ValueError, match="at least one"):
            ReproducibilityReport((), np.array([0.1]), 0.05)

    def test_needs_a_null_sample(self):
        with pytest.raises(ValueError, match="non-empty"):
            ReproducibilityReport((self._mc(0.5),), np.array([]), 0.05)

    def test_null_sample_must_be_finite(self):
        # a NaN sorts last and would count as an exceedance of any observation
        with pytest.raises(ValueError, match="non-finite"):
            ReproducibilityReport((self._mc(0.5),), np.array([np.nan, 0.2, np.inf]), 0.05)

    @pytest.mark.parametrize("p_crit", [0.0, 1.0, -0.1, 1.5])
    def test_p_crit_must_lie_in_the_open_unit_interval(self, p_crit):
        with pytest.raises(ValueError, match="p_crit"):
            ReproducibilityReport((self._mc(0.5),), np.array([0.1]), p_crit)
