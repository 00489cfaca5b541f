import json
import math
import warnings

import numpy as np
import pytest

from matconc import traceineq
from matconc.hermitian import (
    ENSEMBLE_KINDS,
    EnsembleSpec,
    HermitianMatrix,
    SpectralDomainError,
    _draw,
    _trial_grid,
    positive_part,
    sample_ensemble,
)
from matconc.traceineq import (
    FUZZ_CHUNK,
    INEQUALITY_IDS,
    _draw_trial,
    _evaluate_trials,
    _trials_in_order,
    fuzz_grid,
    gap_exchangeable,
    gap_exchangeable_scaled,
    gap_holder,
    gap_pair_exp,
    gap_power,
    gap_psd_cross,
    gap_symmetric_term,
    gap_trace_quad,
    save_fuzz_summary,
    _write_witness,
)


# ---------------------------------------------------------------------------
# Independent scalar oracles (plain float arithmetic, no numpy routing)

def oracle_exchangeable(a, b, c):
    lhs = c * (math.exp(a) - math.exp(b))
    rhs = ((c * c + (a - b) ** 2) / 2) * ((math.exp(a) + math.exp(b)) / 2)
    return lhs, rhs


def oracle_scaled(a, b, c, theta):
    lhs = c * (math.exp(theta * a) - math.exp(theta * b))
    core = ((c * c + (a - b) ** 2) / 2) * ((math.exp(theta * a) + math.exp(theta * b)) / 2)
    return lhs, theta * core


def oracle_pair_exp(x, xp, theta):
    lhs = (x - xp) * (math.exp(theta * x) - math.exp(theta * xp))
    rhs = (theta / 2) * (x - xp) ** 2 * (math.exp(theta * x) + math.exp(theta * xp))
    return lhs, rhs


def oracle_power(a, b, c, k):
    lhs = c * (a ** k - b ** k)
    rhs = k * ((c * c + (a - b) ** 2) / 4) * (a ** (k - 1) + b ** (k - 1))
    return lhs, rhs


def oracle_symmetric(a, b, c, k, n):
    lhs = c * (a ** k * (a - b) * b ** (n - k) + a ** (n - k) * (a - b) * b ** k)
    rhs = ((c * c + (a - b) ** 2) / 2) * (a ** n + b ** n)
    return lhs, rhs


def oracle_holder(a, b, c, d, p):
    lhs = c * a ** p * d * b ** (1 - p) + c * a ** (1 - p) * d * b ** p
    rhs = ((c * c + d * d) / 2) * (a + b)
    return lhs, rhs


def scalar(x):
    return HermitianMatrix([[float(x)]])


def draw(kind, dim, scale, seed):
    out = sample_ensemble(EnsembleSpec(kind, dim, scale, seed))
    return out[0] if isinstance(out, tuple) else out


class TestExchangeable:
    def test_equal_matrices(self):
        rng = np.random.default_rng(1)
        A = draw("gaussian-hermitian", 3, 1.0, 2)
        C = draw("gaussian-hermitian", 3, 1.0, 3)
        rep = gap_exchangeable(A, A, C)
        assert rep.lhs == pytest.approx(0.0, abs=1e-12)
        assert rep.rhs >= 0.0
        assert rep.gap >= 0.0

    def test_scalar_example(self):
        # frozen from the scalar oracle: lhs = e-1, rhs = (e+1)/2, gap = (3-e)/2
        rep = gap_exchangeable(scalar(1), scalar(0), scalar(1))
        assert rep.lhs == pytest.approx(1.718281828459045, rel=1e-12)
        assert rep.rhs == pytest.approx(1.8591409142295225, rel=1e-12)
        assert rep.gap == pytest.approx(0.14085908577047745, rel=1e-12)

    def test_scalar_oracle_sweep(self):
        rng = np.random.default_rng(5)
        for _ in range(50):
            a, b, c = rng.normal(size=3)
            lhs, rhs = oracle_exchangeable(a, b, c)
            rep = gap_exchangeable(scalar(a), scalar(b), scalar(c))
            assert rep.lhs == pytest.approx(lhs, rel=1e-12, abs=1e-15)
            assert rep.rhs == pytest.approx(rhs, rel=1e-12, abs=1e-15)

    @pytest.mark.parametrize("shift", [-1.0, 0.7])
    def test_exponential_shift_covariance(self, shift):
        rng = np.random.default_rng(9)
        for s in range(10):
            A = draw("gaussian-hermitian", 4, 1.0, 100 + s)
            B = draw("gaussian-hermitian", 4, 1.0, 200 + s)
            C = draw("gaussian-hermitian", 4, 1.0, 300 + s)
            base = gap_exchangeable(A, B, C)
            eye = np.eye(4)
            shifted = gap_exchangeable(HermitianMatrix(A.mat + shift * eye),
                                       HermitianMatrix(B.mat + shift * eye), C)
            assert shifted.gap == pytest.approx(math.exp(shift) * base.gap, rel=1e-9)

    def test_dimension_mismatch(self):
        with pytest.raises(ValueError):
            gap_exchangeable(HermitianMatrix.identity(2), HermitianMatrix.identity(3),
                             HermitianMatrix.identity(2))


class TestExchangeableScaled:
    def test_theta_one_matches_unscaled(self):
        A = draw("gaussian-hermitian", 3, 1.0, 11)
        B = draw("gaussian-hermitian", 3, 1.0, 12)
        C = draw("gaussian-hermitian", 3, 1.0, 13)
        assert gap_exchangeable_scaled(A, B, C, 1.0).gap == pytest.approx(
            gap_exchangeable(A, B, C).gap, rel=1e-12)

    def test_negative_theta_scalar_example(self):
        # a=1, b=0, c=1, theta=-1: lhs = 1/e - 1, theta*rhs = -(1/e+1)/2
        rep = gap_exchangeable_scaled(scalar(1), scalar(0), scalar(1), -1.0)
        assert rep.lhs == pytest.approx(math.exp(-1) - 1, rel=1e-12)
        assert rep.rhs == pytest.approx(-(math.exp(-1) + 1) / 2, rel=1e-12)
        assert rep.gap == pytest.approx(0.05181916175716344, rel=1e-9)
        assert rep.gap == rep.lhs - rep.rhs  # reversed orientation recorded exactly

    def test_scaling_identity(self):
        # substituting theta*A, theta*B, theta*C into the unscaled form gives
        # theta times the scaled gap (the theta-substitution proof route)
        rng = np.random.default_rng(15)
        for theta in (2.0, 0.5):
            A = draw("gaussian-hermitian", 4, 1.0, 21)
            B = draw("gaussian-hermitian", 4, 1.0, 22)
            C = draw("gaussian-hermitian", 4, 1.0, 23)
            scaled = gap_exchangeable_scaled(A, B, C, theta)
            sub = gap_exchangeable(HermitianMatrix(theta * A.mat),
                                   HermitianMatrix(theta * B.mat),
                                   HermitianMatrix(theta * C.mat))
            assert sub.gap == pytest.approx(theta * scaled.gap, rel=1e-10)

    def test_scalar_oracle_both_signs(self):
        rng = np.random.default_rng(31)
        for _ in range(40):
            a, b, c = rng.normal(size=3)
            theta = float(rng.choice([-1, 1]) * rng.uniform(0.1, 2.5))
            lhs, rhs = oracle_scaled(a, b, c, theta)
            rep = gap_exchangeable_scaled(scalar(a), scalar(b), scalar(c), theta)
            gap = rhs - lhs if theta > 0 else lhs - rhs
            assert rep.gap == pytest.approx(gap, rel=1e-12, abs=1e-14)
            assert rep.gap >= -1e-12 * rep.params["anchor"]

    def test_zero_theta(self):
        with pytest.raises(ValueError):
            gap_exchangeable_scaled(scalar(1), scalar(0), scalar(1), 0.0)


class TestPairExp:
    def test_equal_pair(self):
        X = draw("gaussian-hermitian", 3, 1.0, 41)
        rep = gap_pair_exp(X, X, 1.5)
        assert rep.gap == pytest.approx(0.0, abs=1e-12)

    def test_scalar_example(self):
        rep = gap_pair_exp(scalar(1), scalar(0), 1.0)
        assert rep.lhs == pytest.approx(math.e - 1, rel=1e-12)
        assert rep.rhs == pytest.approx((math.e + 1) / 2, rel=1e-12)
        assert rep.gap == pytest.approx(0.14085908577047745, rel=1e-12)

    def test_matches_scaled_form(self):
        # the scaled triple with C = X - X' is the identical expression
        rng = np.random.default_rng(55)
        for s in range(20):
            X = draw("gaussian-hermitian", 4, 1.0, 500 + s)
            Xp = draw("gaussian-hermitian", 4, 1.0, 600 + s)
            theta = float(rng.uniform(0.1, 3.0))
            rep = gap_pair_exp(X, Xp, theta)
            C = HermitianMatrix(X.mat - Xp.mat)
            other = gap_exchangeable_scaled(X, Xp, C, theta)
            anchor = rep.params["anchor"]
            assert abs(rep.gap - other.gap) <= 1e-10 * anchor

    def test_fuzz_small(self):
        rng = np.random.default_rng(77)
        for s in range(200):
            d = int(rng.integers(1, 7))
            X = draw("gaussian-hermitian", d, 1.0, 900 + s)
            Xp = draw("gaussian-hermitian", d, 1.0, 2900 + s)
            rep = gap_pair_exp(X, Xp, float(rng.uniform(0.01, 3.0)))
            assert rep.gap >= -1e-9 * rep.params["anchor"]

    def test_rejects_nonpositive_theta(self):
        with pytest.raises(ValueError):
            gap_pair_exp(scalar(1), scalar(0), -1.0)


class TestPower:
    def test_scalar_example(self):
        rep = gap_power(scalar(2), scalar(0), scalar(1), 1)
        assert rep.lhs == pytest.approx(2.0)
        assert rep.rhs == pytest.approx(2.5)
        assert rep.gap == pytest.approx(0.5)

    def test_equal_matrices(self):
        A = positive_part(draw("gaussian-hermitian", 3, 1.0, 61))
        rep = gap_power(A, A, draw("gaussian-hermitian", 3, 1.0, 62), 3)
        assert rep.lhs == pytest.approx(0.0, abs=1e-10)
        assert rep.rhs >= -1e-12

    def test_fuzz_with_difference_weight(self):
        for s in range(300):
            rng = np.random.default_rng(7000 + s)
            A = positive_part(draw("gaussian-hermitian", 4, 1.0, 7000 + s))
            B = positive_part(draw("gaussian-hermitian", 4, 1.0, 17000 + s))
            C = HermitianMatrix(A.mat - B.mat)
            rep = gap_power(A, B, C, 2)
            assert rep.gap >= -1e-9 * rep.params["anchor"]

    def test_scalar_oracle(self):
        rng = np.random.default_rng(91)
        for _ in range(40):
            a, b = rng.uniform(0, 2, size=2)
            c = rng.normal()
            k = int(rng.integers(1, 7))
            lhs, rhs = oracle_power(a, b, c, k)
            rep = gap_power(scalar(a), scalar(b), scalar(c), k)
            assert rep.gap == pytest.approx(rhs - lhs, rel=1e-12, abs=1e-13)

    def test_rejects_indefinite(self):
        with pytest.raises(ValueError):
            gap_power(HermitianMatrix.diagonal([1.0, -1.0]), HermitianMatrix.identity(2),
                      HermitianMatrix.identity(2), 2)

    def test_rejects_bad_k(self):
        with pytest.raises(ValueError):
            gap_power(HermitianMatrix.identity(2), HermitianMatrix.identity(2),
                      HermitianMatrix.identity(2), 0)


class TestSymmetricTerm:
    def test_scalar_equality_case(self):
        # a=2, b=1, c=1, n=2, k=0: lhs = 5, rhs = 5
        rep = gap_symmetric_term(scalar(2), scalar(1), scalar(1), 0, 2)
        assert rep.lhs == pytest.approx(5.0, rel=1e-12)
        assert rep.rhs == pytest.approx(5.0, rel=1e-12)
        assert rep.gap == pytest.approx(0.0, abs=1e-12)

    def test_equal_matrices_annihilate(self):
        A = HermitianMatrix(positive_part(draw("gaussian-hermitian", 3, 1.0, 71)).mat + np.eye(3))
        rep = gap_symmetric_term(A, A, draw("gaussian-hermitian", 3, 1.0, 72), 1, 3)
        assert rep.lhs == pytest.approx(0.0, abs=1e-9)

    def test_fuzz_positive_definite(self):
        for s in range(200):
            rng = np.random.default_rng(s)
            A = HermitianMatrix(positive_part(draw("gaussian-hermitian", 4, 1.0, 100 + s)).mat
                                + 0.1 * np.eye(4))
            B = HermitianMatrix(positive_part(draw("gaussian-hermitian", 4, 1.0, 300 + s)).mat
                                + 0.1 * np.eye(4))
            C = draw("gaussian-hermitian", 4, 1.0, 500 + s)
            n = int(rng.integers(0, 7))
            k = int(rng.integers(0, n + 1))
            rep = gap_symmetric_term(A, B, C, k, n)
            assert rep.gap >= -1e-9 * rep.params["anchor"]

    def test_scalar_oracle(self):
        rng = np.random.default_rng(121)
        for _ in range(40):
            a, b = rng.uniform(0.1, 2, size=2)
            c = rng.normal()
            n = int(rng.integers(0, 7))
            k = int(rng.integers(0, n + 1))
            lhs, rhs = oracle_symmetric(a, b, c, k, n)
            rep = gap_symmetric_term(scalar(a), scalar(b), scalar(c), k, n)
            assert rep.lhs == pytest.approx(lhs, rel=1e-12, abs=1e-13)
            assert rep.rhs == pytest.approx(rhs, rel=1e-12, abs=1e-13)

    def test_rejects_bad_kn(self):
        I2 = HermitianMatrix.identity(2)
        with pytest.raises(ValueError):
            gap_symmetric_term(I2, I2, I2, 3, 2)


class TestHolder:
    def test_equality_at_identity(self):
        I3 = HermitianMatrix.identity(3)
        C = draw("gaussian-hermitian", 3, 1.0, 81)
        rep = gap_holder(I3, I3, C, C, 0.5)
        assert rep.gap == pytest.approx(0.0, abs=1e-10)

    def test_p_symmetry(self):
        rng = np.random.default_rng(83)
        for s in range(20):
            A = positive_part(draw("gaussian-hermitian", 4, 1.0, 800 + s))
            B = positive_part(draw("gaussian-hermitian", 4, 1.0, 900 + s))
            C = draw("gaussian-hermitian", 4, 1.0, 1000 + s)
            D = draw("gaussian-hermitian", 4, 1.0, 1100 + s)
            p = float(rng.uniform(0, 1))
            r1 = gap_holder(A, B, C, D, p)
            r2 = gap_holder(A, B, C, D, 1.0 - p)
            assert abs(r1.gap - r2.gap) <= 1e-10 * r1.params["anchor"]

    def test_scalar_equality_example(self):
        # a=4, b=1, c=d=1, p=1: lhs = 5, rhs = 5
        rep = gap_holder(scalar(4), scalar(1), scalar(1), scalar(1), 1.0)
        assert rep.lhs == pytest.approx(5.0, rel=1e-12)
        assert rep.rhs == pytest.approx(5.0, rel=1e-12)

    def test_scalar_oracle(self):
        rng = np.random.default_rng(87)
        for _ in range(40):
            a, b = rng.uniform(0, 3, size=2)
            c, d = rng.normal(size=2)
            p = float(rng.uniform(0, 1))
            lhs, rhs = oracle_holder(a, b, c, d, p)
            rep = gap_holder(scalar(a), scalar(b), scalar(c), scalar(d), p)
            assert rep.lhs == pytest.approx(lhs, rel=1e-11, abs=1e-12)
            assert rep.rhs == pytest.approx(rhs, rel=1e-12, abs=1e-13)

    def test_rejects_bad_p(self):
        I2 = HermitianMatrix.identity(2)
        with pytest.raises(ValueError):
            gap_holder(I2, I2, I2, I2, 1.5)

    def test_rejects_negative_eigenvalue(self):
        I2 = HermitianMatrix.identity(2)
        with pytest.raises(ValueError):
            gap_holder(HermitianMatrix.diagonal([1.0, -1.0]), I2, I2, I2, 0.5)


class TestPsdCross:
    def test_equal_identity(self):
        rep = gap_psd_cross(np.eye(2), np.eye(2))
        assert rep.gap >= -1e-10 and rep.gap == pytest.approx(0.0, abs=1e-12)

    def test_adjoint_equality_case(self):
        rng = np.random.default_rng(101)
        P = rng.normal(size=(3, 3)) + 1j * rng.normal(size=(3, 3))
        rep = gap_psd_cross(P, P.conj().T)
        assert rep.gap == pytest.approx(0.0, abs=1e-12)

    def test_fuzz(self):
        rng = np.random.default_rng(103)
        for _ in range(500):
            P = rng.normal(size=(4, 4)) + 1j * rng.normal(size=(4, 4))
            Q = rng.normal(size=(4, 4)) + 1j * rng.normal(size=(4, 4))
            rep = gap_psd_cross(P, Q)
            assert rep.gap >= -1e-10 * rep.params["anchor"]

    def test_dimension_mismatch(self):
        with pytest.raises(ValueError):
            gap_psd_cross(np.eye(2), np.eye(3))


class TestTraceQuad:
    def test_identity_equality(self):
        I3 = HermitianMatrix.identity(3)
        rep = gap_trace_quad(I3, I3, I3, I3)
        assert rep.lhs == pytest.approx(3.0)
        assert rep.rhs == pytest.approx(3.0)

    def test_zero_first_factor(self):
        Z = HermitianMatrix.zeros(3)
        Q = draw("gaussian-hermitian", 3, 1.0, 111)
        rep = gap_trace_quad(Z, Q, Q, Q)
        assert rep.lhs == 0.0
        assert rep.rhs >= -1e-12

    def test_fuzz(self):
        for s in range(300):
            mats = [draw("gaussian-hermitian", 4, 1.0, 4000 + 4 * s + j) for j in range(4)]
            rep = gap_trace_quad(*mats)
            assert rep.gap >= -1e-9 * rep.params["anchor"]


class TestFuzzer:
    def test_deterministic_summaries(self, tmp_path):
        s1 = fuzz_grid("exchangeable", ("gaussian-hermitian",), (3,), 50, 1.0, 2024)
        s2 = fuzz_grid("exchangeable", ("gaussian-hermitian",), (3,), 50, 1.0, 2024)
        assert s1 == s2
        # serialized byte-identical
        from matconc.traceineq import save_fuzz_summary
        p1, p2 = tmp_path / "a.json", tmp_path / "b.json"
        save_fuzz_summary(p1, s1)
        save_fuzz_summary(p2, s2)
        assert p1.read_bytes() == p2.read_bytes()

    def test_scalar_draws_match_generator_choice(self):
        # _draw_trial indexes a tuple with rng.integers where it once called
        # rng.choice: the same scalars and the same generator state after them
        pool = traceineq._HOLDER_P_POOL
        for seed in range(1000):
            rng, ref = np.random.default_rng(seed), np.random.default_rng(seed)
            _, (theta,) = _draw_trial("exchangeable_scaled", "psd", 2, 1.0, rng)
            _draw("psd", 2, 1.0, ref, 3, 2)
            assert theta == float(ref.choice([-1.0, 1.0]) * ref.uniform(0.1, 3.0))
            _, (p,) = _draw_trial("holder", "psd", 2, 1.0, rng)
            _draw("psd", 2, 1.0, ref, 4, 2)
            ref_p = ref.choice(pool) if ref.random() < 0.5 else ref.uniform(0.0, 1.0)
            assert type(theta) is type(p) is float and p == float(ref_p)
            assert rng.random() == ref.random()

    def test_trial_bookkeeping(self):
        s = fuzz_grid("psd_cross", ("psd",), (2,), 1, 1.0, 5)
        assert s.trials == 1

    def test_unknown_id(self):
        with pytest.raises(ValueError):
            fuzz_grid("nope", ("psd",), (2,), 10, 1.0, 5)

    @pytest.mark.parametrize("change", [{"trials": True}, {"trials": 2.5}, {"seed": 3.9},
                                        {"dims": (2.7,)}])
    def test_non_integer_counts_refused(self, change):
        # trials=True wrote "trials": true; seed 3.9 and dim 2.7 ran as 3 and 2
        args = {"kinds": ("psd",), "dims": (2,), "trials": 3, "scale": 1.0, "seed": 3, **change}
        with pytest.raises(ValueError, match="must be an integer"):
            fuzz_grid("holder", **args)
        ints = fuzz_grid("holder", ("psd",), (2,), 3, 1.0, 3)
        assert fuzz_grid("holder", ("psd",), (2.0,), 3.0, 1.0, 3.0) == ints

    @pytest.mark.parametrize("ineq", ["trace_quad", "power", "symmetric_term"])
    def test_overflowing_gaps_refused(self, ineq):
        # every product overflows, so no gap is a number: not a clean pass
        with pytest.raises(ArithmeticError, match="not finite"):
            fuzz_grid(ineq, ("diagonal",), (2,), 20, 1e80, 1)

    @pytest.mark.parametrize("ineq", ["trace_quad", "power", "symmetric_term", "psd_cross"])
    def test_public_overflowing_gaps_refused_without_warnings(self, ineq):
        # the public calls evaluate as the fuzzer does: the refusal, no RuntimeWarning
        P = HermitianMatrix.diagonal([1e80, -1e80])
        A = HermitianMatrix.diagonal([1e80, 1e80])
        B = HermitianMatrix.diagonal([1e80, 2e80])
        huge = np.diag([1e230, -1e230])  # its squared norm, the anchor, overflows
        call = {"trace_quad": lambda: gap_trace_quad(P, P, P, P),
                "power": lambda: gap_power(A, B, P, 3),
                "symmetric_term": lambda: gap_symmetric_term(A, B, P, 1, 3),
                "psd_cross": lambda: gap_psd_cross(huge, huge)}[ineq]
        with warnings.catch_warnings():
            warnings.simplefilter("error")
            with pytest.raises(ArithmeticError, match=f"{ineq}: .* not finite"):
                call()

    def test_no_violations_on_gaussian(self):
        s = fuzz_grid("exchangeable", ("gaussian-hermitian",), (4,), 500, 1.0, 314)
        assert s.violations == 0

    def test_grid_covers_kinds_and_dims(self):
        s = fuzz_grid("trace_quad", ("diagonal", "psd"), (1, 2, 3), 30, 1.0, 8)
        assert s.trials == 30
        assert s.violations == 0
        assert s.ensemble["kinds"] == ["diagonal", "psd"]

    def test_witness_file_roundtrip(self, tmp_path):
        rep = gap_exchangeable(scalar(1), scalar(0), scalar(1))
        path = _write_witness(str(tmp_path), rep, 7,
                              matrices={"A": {"dim": 1, "entries": [[[1.0, 0.0]]]}})
        with open(path) as fh:
            obj = json.load(fh)
        assert obj["inequality_id"] == "exchangeable"
        assert obj["gap"] == pytest.approx(rep.gap)
        assert obj["matrices"]["A"]["dim"] == 1

    def test_violations_persist_full_inputs(self, tmp_path, monkeypatch):
        # an impossible tolerance forces every trial to "violate", which must
        # leave replayable witness files carrying the input matrices
        from matconc.hermitian import matrix_from_obj
        monkeypatch.setattr(traceineq, "FUZZ_TOL", -10.0)
        s = fuzz_grid("exchangeable", ("gaussian-hermitian",), (3,), 5, 1.0, 404,
                      witness_dir=str(tmp_path))
        assert s.violations == 5
        files = sorted(tmp_path.iterdir())
        assert len(files) == 5
        obj = json.loads(files[0].read_text())
        for name in ("A", "B", "C"):
            M = matrix_from_obj(obj["matrices"][name])
            assert M.dim == 3
        # replaying the persisted inputs reproduces the recorded gap
        rep = gap_exchangeable(matrix_from_obj(obj["matrices"]["A"]),
                               matrix_from_obj(obj["matrices"]["B"]),
                               matrix_from_obj(obj["matrices"]["C"]))
        assert rep.gap == pytest.approx(obj["gap"], rel=1e-12)

    def test_all_ids_registered(self):
        assert len(INEQUALITY_IDS) == 8


# the public evaluator of each inequality, called with one trial's inputs and scalars
PUBLIC_GAPS = {
    "exchangeable": lambda m, p: gap_exchangeable(*m),
    "exchangeable_scaled": lambda m, p: gap_exchangeable_scaled(*m, p["theta"]),
    "pair_exp": lambda m, p: gap_pair_exp(*m, p["theta"]),
    "power": lambda m, p: gap_power(*m, p["k"]),
    "symmetric_term": lambda m, p: gap_symmetric_term(*m, p["k"], p["n"]),
    "holder": lambda m, p: gap_holder(*m, p["p"]),
    "psd_cross": lambda m, p: gap_psd_cross(*m),
    "trace_quad": lambda m, p: gap_trace_quad(*m),
}


class TestStackedFuzz:
    @pytest.mark.pinned
    @pytest.mark.parametrize("ineq", INEQUALITY_IDS)
    def test_summary_bytes_pinned(self, ineq, tmp_path, assert_pinned):
        # the bytes of the saved summary, recorded from RNG stream 3 (one
        # generator per run) and output format 2 (compact JSON)
        assert 300 > FUZZ_CHUNK  # the run spans two stacked blocks
        summary = fuzz_grid(ineq, ENSEMBLE_KINDS, range(1, 9), 300, 1.0, 4242)
        path = tmp_path / "summary.json"
        save_fuzz_summary(path, summary)
        assert_pinned(f"fuzz-summary/{ineq}", path.read_bytes())

    @pytest.mark.parametrize("ineq", INEQUALITY_IDS)
    def test_stacked_trials_match_public_gaps(self, ineq, monkeypatch):
        # every kind at every dim 1..8, three trials per cell in one stack
        trials = []

        def recording(*args):
            for trial in _trials_in_order(*args):
                trials.append(trial)
                yield trial

        monkeypatch.setattr(traceineq, "_trials_in_order", recording)
        for dim in range(1, 9):
            for kind in ENSEMBLE_KINDS:
                fuzz_grid(ineq, (kind,), (dim,), 3, 1.0, 31)
        assert len(trials) == 3 * 8 * len(ENSEMBLE_KINDS)
        for _, kind, dim, gaps, i in trials:
            assert len(gaps.gap) == 3
            stacked = gaps.report(i)
            inputs = [M[i] for M in gaps.inputs.values()]
            public = PUBLIC_GAPS[ineq](inputs, gaps.params[i])
            assert (public.lhs, public.rhs, public.gap) == \
                (stacked.lhs, stacked.rhs, stacked.gap), (kind, dim, i)
            assert public.inputs_digest == stacked.inputs_digest
            assert public.params == stacked.params

    def test_refusal_is_the_first_in_trial_order(self, seeded_trials):
        # trial 0 (dim 2) is the first refused, but the evaluation of the whole
        # dim-2 stack raises a different error, for a later trial
        kinds, dims = _trial_grid(ENSEMBLE_KINDS, [2, 3], 300.0)
        trials = list(seeded_trials(76, kinds, dims, 24, lambda kind, dim, rng:
                                    _draw_trial("exchangeable", kind, dim, 300.0, rng)))
        expected = None
        for t, _, _, (mats, _) in trials:
            try:
                gap_exchangeable(*mats)
            except (ValueError, ArithmeticError) as err:
                expected = (t, type(err), str(err))
                break
        assert expected is not None and expected[0] == 0
        with pytest.raises((ValueError, ArithmeticError)) as whole:
            _evaluate_trials("exchangeable", 300.0, [x for _, _, dim, x in trials if dim == 2])
        assert (type(whole.value), str(whole.value)) != expected[1:]
        with pytest.raises((ValueError, ArithmeticError)) as exc:
            fuzz_grid("exchangeable", ENSEMBLE_KINDS, [2, 3], 24, 300.0, 76)
        assert (type(exc.value), str(exc.value)) == expected[1:]

    def test_exp_overflow_is_a_domain_error_without_warnings(self):
        big = HermitianMatrix.diagonal([1.0, 800.0])
        one = HermitianMatrix.identity(2)
        with warnings.catch_warnings():
            warnings.simplefilter("error")
            with pytest.raises(SpectralDomainError):
                gap_exchangeable(big, one, one)
            with pytest.raises(SpectralDomainError):
                gap_pair_exp(one, big, 1.0)
            with pytest.raises(SpectralDomainError):
                fuzz_grid("exchangeable", ENSEMBLE_KINDS, [4], 3, 1000.0, 0)
