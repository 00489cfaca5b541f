import math

import numpy as np
import pytest

from matconc.bounds import (
    DifferenceBoundSet,
    display_clamp,
    dobrushin_constant,
    hoeffding_bound,
    laplace_infimum,
    tail_bound_dependent,
    tail_bound_independent,
    tropp_bound,
)
from matconc.hermitian import HermitianMatrix


class TestVarianceParameter:
    def test_identity_sum(self):
        s = DifferenceBoundSet([HermitianMatrix.identity(2)] * 3)
        assert s.sigma_sq == pytest.approx(3.0)

    def test_single_indefinite(self):
        s = DifferenceBoundSet([HermitianMatrix.diagonal([1.0, -2.0])])
        assert s.sigma_sq == pytest.approx(4.0)

    def test_two_matrix_example(self):
        # A1 = [[0,1],[1,0]], A2 = diag(1,0): sum of squares = diag(2,1)
        s = DifferenceBoundSet([HermitianMatrix([[0.0, 1.0], [1.0, 0.0]]),
                                HermitianMatrix.diagonal([1.0, 0.0])])
        assert np.allclose(s.sum_of_squares.mat, np.diag([2.0, 1.0]))
        assert s.sigma_sq == pytest.approx(2.0)

    def test_sigma_matches_norm_of_sum(self):
        rng = np.random.default_rng(4)
        mats = []
        for k in range(4):
            M = rng.normal(size=(3, 3)) + 1j * rng.normal(size=(3, 3))
            mats.append(HermitianMatrix((M + M.conj().T) / 2))
        s = DifferenceBoundSet(mats)
        total = sum(M.mat @ M.mat for M in mats)
        assert s.sigma_sq == pytest.approx(np.linalg.norm(total, 2), rel=1e-12)
        assert s.sigma_sq >= 0

    def test_unitary_conjugation_invariance(self):
        rng = np.random.default_rng(6)
        for trial in range(20):
            mats = []
            for k in range(3):
                M = rng.normal(size=(4, 4)) + 1j * rng.normal(size=(4, 4))
                mats.append(HermitianMatrix((M + M.conj().T) / 2))
            G = rng.normal(size=(4, 4)) + 1j * rng.normal(size=(4, 4))
            U = np.linalg.eigh((G + G.conj().T) / 2)[1]
            rotated = [HermitianMatrix(U @ M.mat @ U.conj().T) for M in mats]
            s0 = DifferenceBoundSet(mats).sigma_sq
            s1 = DifferenceBoundSet(rotated).sigma_sq
            assert abs(s0 - s1) <= 1e-10 * max(1.0, s0)

    def test_empty_rejected(self):
        with pytest.raises(ValueError):
            DifferenceBoundSet([])

    def test_dim_mismatch(self):
        with pytest.raises(ValueError):
            DifferenceBoundSet([HermitianMatrix.identity(2), HermitianMatrix.identity(3)])


class TestDobrushinConstant:
    def test_independent(self):
        assert dobrushin_constant(0.0, 0.0) == pytest.approx(1.0)

    def test_half_half(self):
        assert dobrushin_constant(0.5, 0.5) == pytest.approx(2.0)

    def test_asymmetric(self):
        assert dobrushin_constant(0.9, 0.0) == pytest.approx(5.5)

    def test_symmetric_in_arguments(self):
        assert dobrushin_constant(0.3, 0.7) == dobrushin_constant(0.7, 0.3)

    def test_equal_norms_closed_form(self):
        for a in (0.0, 0.2, 0.5, 0.9):
            assert dobrushin_constant(a, a) == pytest.approx(1.0 / (1.0 - a))

    def test_hypothesis_violation(self):
        with pytest.raises(ValueError):
            dobrushin_constant(1.0, 0.2)
        with pytest.raises(ValueError):
            dobrushin_constant(0.2, 1.3)


class TestTailBounds:
    def test_frozen_values(self):
        assert tail_bound_independent(2, 1.0, 2.0) == pytest.approx(2 * math.exp(-4), rel=1e-12)
        assert tail_bound_dependent(2, 1.0, 2.0, 2.0) == pytest.approx(2 * math.exp(-2), rel=1e-12)
        assert hoeffding_bound(2, 1.0, 2.0) == pytest.approx(2 * math.exp(-1), rel=1e-12)
        assert tropp_bound(2, 1.0, 2.0) == pytest.approx(2 * math.exp(-0.5), rel=1e-12)

    def test_t_zero_gives_d(self):
        for f in (tail_bound_independent, hoeffding_bound, tropp_bound):
            assert f(3, 1.7, 0.0) == pytest.approx(3.0)
        assert tail_bound_dependent(3, 1.7, 2.0, 0.0) == pytest.approx(3.0)

    def test_monotone_decreasing_in_t(self):
        ts = np.linspace(0, 4, 30)
        vals = [tail_bound_independent(2, 1.0, t) for t in ts]
        assert all(a >= b for a, b in zip(vals, vals[1:]))

    def test_monotone_increasing_in_sigma(self):
        assert tail_bound_independent(2, 2.0, 1.5) > tail_bound_independent(2, 1.0, 1.5)

    def test_monotone_increasing_in_c(self):
        assert tail_bound_dependent(2, 1.0, 3.0, 1.5) > tail_bound_dependent(2, 1.0, 1.5, 1.5)

    def test_dependent_c1_matches_independent(self):
        assert tail_bound_dependent(2, 1.3, 1.0, 0.7) == tail_bound_independent(2, 1.3, 0.7)

    def test_hoeffding_is_variance_substitution(self):
        assert hoeffding_bound(2, 1.0, 1.7) == tail_bound_independent(2, 4.0, 1.7)

    def test_tropp_dominates(self):
        for t in np.linspace(0, 3, 13):
            assert tropp_bound(2, 1.0, t) >= tail_bound_independent(2, 1.0, t)

    def test_exponent_ratio_eight(self):
        for t in (0.5, 1.0, 2.0):
            lo = math.log(tail_bound_independent(2, 1.0, t) / 2)
            hi = math.log(tropp_bound(2, 1.0, t) / 2)
            assert lo / hi == pytest.approx(8.0, rel=1e-12)

    def test_zero_variance(self):
        assert tail_bound_independent(2, 0.0, 1.0) == 0.0
        assert tail_bound_independent(2, 0.0, 0.0) == 2.0

    def test_negative_t_rejected(self):
        with pytest.raises(ValueError):
            tail_bound_independent(2, 1.0, -0.5)

    def test_bad_c_rejected(self):
        with pytest.raises(ValueError):
            tail_bound_dependent(2, 1.0, 0.5, 1.0)

    def test_nan_inputs_rejected(self):
        # NaN once slipped past the "< 0" and "< 1" checks and returned NaN bounds
        nan = float("nan")
        for call in (lambda: tail_bound_independent(2, 1.0, nan),
                     lambda: tail_bound_independent(2, nan, 1.0),
                     lambda: tail_bound_dependent(2, 1.0, nan, 1.0),
                     lambda: tail_bound_dependent(2, nan, 1.0, 1.0),
                     lambda: tropp_bound(2, nan, 1.0)):
            with pytest.raises(ValueError):
                call()

    @pytest.mark.parametrize("f", [tail_bound_independent, hoeffding_bound, tropp_bound,
                                   lambda d, v, t: tail_bound_dependent(d, v, 1.5, t)],
                             ids=["independent", "hoeffding", "tropp", "dependent"])
    def test_dimension_must_be_an_integer(self, f):
        # d = 1.5 once gave a bound of 0.5518 and d = True counted as 1
        for d in (1.5, True, np.float64(2.5)):
            with pytest.raises(ValueError, match="d must be an integer"):
                f(d, 1.0, 1.0)
        with pytest.raises(ValueError, match="d must be >= 1"):
            f(0, 1.0, 1.0)
        assert f(np.int64(2), 1.0, 1.0) == f(2.0, 1.0, 1.0) == f(2, 1.0, 1.0)

    def test_display_clamp(self):
        assert display_clamp(2 * math.exp(-0.5)) == 1.0
        assert display_clamp(0.25) == 0.25


class TestLaplaceInfimum:
    GRID = np.linspace(1e-3, 8.0, 4001)

    def test_quadratic_closed_form(self):
        # minimizing -theta t + theta^2 sigma^2 / 4 gives theta* = 2t/sigma^2
        res = laplace_infimum(1.0, 2.0, self.GRID, d=2)
        assert res.closed_form_theta == pytest.approx(4.0)
        assert res.closed_form_bound == pytest.approx(2 * math.exp(-4), rel=1e-12)
        assert res.bound == pytest.approx(2 * math.exp(-4), rel=1e-6)
        assert res.theta == pytest.approx(4.0, abs=0.01)

    def test_matches_tail_bound_over_grid(self):
        for t in np.linspace(0.1, 3.0, 16):
            res = laplace_infimum(1.0, float(t), self.GRID, d=2)
            assert res.bound == pytest.approx(tail_bound_independent(2, 1.0, float(t)),
                                              rel=1e-6)

    def test_t_zero(self):
        res = laplace_infimum(1.0, 0.0, self.GRID, d=3)
        assert res.bound == pytest.approx(3.0, rel=1e-5)
        assert res.closed_form_bound == pytest.approx(3.0)

    def test_grid_refinement_never_increases(self):
        coarse = laplace_infimum(1.0, 1.5, np.linspace(0.5, 5, 10), d=2)
        fine = laplace_infimum(1.0, 1.5, np.linspace(0.5, 5, 1000), d=2)
        assert fine.bound <= coarse.bound + 1e-15

    def test_negative_grid_mode(self):
        # smallest-eigenvalue tail: negative theta, negative t
        grid = -np.linspace(1e-3, 8.0, 2001)
        res = laplace_infimum(1.0, -2.0, grid, d=2)
        assert res.closed_form_theta == pytest.approx(-4.0)
        assert res.bound == pytest.approx(2 * math.exp(-4), rel=1e-5)

    def test_empty_grid(self):
        with pytest.raises(ValueError):
            laplace_infimum(1.0, 1.0, [], d=2)

    def test_mixed_sign_grid(self):
        with pytest.raises(ValueError):
            laplace_infimum(1.0, 1.0, [-1.0, 1.0], d=2)

    @pytest.mark.parametrize("variance", [math.nan, -1.0, -1e-300])
    def test_nan_or_negative_variance_refused(self, variance):
        with pytest.raises(ValueError, match="variance must be >= 0"):
            laplace_infimum(variance, 1.0, [1.0, 2.0], d=2)

    def test_zero_variance_has_no_closed_form(self):
        res = laplace_infimum(0.0, 1.0, [1.0, 2.0], d=2)
        assert res.bound == 2 * math.exp(-2.0) and res.theta == 2.0
        assert res.closed_form_bound is None and res.closed_form_theta is None

    @pytest.mark.parametrize("t, grid", [(math.nan, [1.0, 2.0]), (math.inf, [1.0, 2.0]),
                                         (1.0, [1.0, math.inf]), (1.0, [math.nan, 1.0]),
                                         (1.0, [-math.inf, -1.0])])
    def test_non_finite_t_or_grid_refused(self, t, grid):
        with pytest.raises(ValueError, match="finite"):
            laplace_infimum(1.0, t, grid, d=2)

    def test_dimension_must_be_an_integer(self):
        for d in (2.5, True):
            with pytest.raises(ValueError, match="d must be an integer"):
                laplace_infimum(1.0, 1.0, self.GRID, d=d)
        with pytest.raises(ValueError, match="d must be >= 1"):
            laplace_infimum(1.0, 1.0, self.GRID, d=0)
        assert (laplace_infimum(1.0, 1.0, self.GRID, d=2.0)
                == laplace_infimum(1.0, 1.0, self.GRID, d=2))
