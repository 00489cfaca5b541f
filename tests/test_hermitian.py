import builtins
import cmath
import errno
import json
import math
import os
import re
import stat
import warnings

import numpy as np
import pytest

from matconc.bounds import DifferenceBoundSet
from matconc.conjectures import gap_conjecture_exp
from matconc.coupling import RademacherSumObservable
from matconc.hermitian import (
    ENSEMBLE_KINDS,
    EnsembleSpec,
    HermiticityError,
    HermitianMatrix,
    SpectralDomainError,
    _apply_scalar,
    _certify,
    _decompose,
    _draw,
    _exp,
    _from_params,
    _hermitian_part,
    _lambda_max_against,
    _object,
    _spectral_norm,
    _to_params,
    _trial_grid,
    _upper_indices,
    _write_bytes,
    _write_json,
    hermitian_from_params,
    hermitian_to_params,
    inputs_digest,
    matrix_from_obj,
    matrix_function,
    matrix_to_obj,
    negative_part,
    pos_neg_parts,
    positive_part,
    sample_ensemble,
    spectral_decompose,
)
from matconc import hermitian
from matconc.traceineq import gap_exchangeable
from oracles import complex_apply_scalar, draw_oracle, listcomp_matrix_to_obj, old_write_json


def random_hermitian(d, rng, scale=1.0):
    M = rng.normal(size=(d, d)) + 1j * rng.normal(size=(d, d))
    return HermitianMatrix(scale * (M + M.conj().T) / 2)


class TestConstruction:
    def test_rejects_asymmetric(self):
        with pytest.raises(HermiticityError) as exc:
            HermitianMatrix([[0.0, 1.0], [0.0, 0.0]])
        assert exc.value.max_asymmetry == pytest.approx(1.0)

    def test_symmetrizes_tiny_asymmetry(self):
        A = np.array([[1.0, 0.5 + 1e-14], [0.5, 2.0]], dtype=complex)
        H = HermitianMatrix(A)
        assert np.allclose(H.mat, H.mat.conj().T)

    def test_rejects_nonsquare(self):
        with pytest.raises(ValueError):
            HermitianMatrix(np.zeros((2, 3)))

    @pytest.mark.parametrize("entries", [[[math.nan]], [[math.inf]], [[1.0, math.nan], [math.nan, 1.0]],
                                         [[1.0, -math.inf], [-math.inf, 2.0]]])
    def test_rejects_non_finite_entries(self, entries):
        with warnings.catch_warnings():
            warnings.simplefilter("error")
            with pytest.raises(HermiticityError):
                HermitianMatrix(entries)

    @pytest.mark.parametrize("inf", [math.inf, -math.inf, complex(0.0, math.inf)])
    @pytest.mark.parametrize("transpose", [False, True], ids=["upper", "lower"])
    def test_rejects_infinite_entry_with_finite_mirror(self, inf, transpose):
        # max |A - A*| = inf was within the tolerance 1e-12 * max|entry| = inf
        A = np.array([[1.0, inf], [0.0, 1.0]], dtype=complex)
        with pytest.raises(HermiticityError):
            HermitianMatrix(A.T if transpose else A)

    def test_entry_above_half_max_certified(self):
        # (A + A*)/2 overflowed in the sum and stored inf
        with warnings.catch_warnings():
            warnings.simplefilter("error")
            H = HermitianMatrix([[1.5e308, -1e308 + 1.2e308j], [-1e308 - 1.2e308j, 1.0]])
        assert H.mat[0, 0] == 1.5e308 and H.mat[1, 0] == -1e308 - 1.2e308j

    def test_hermitian_part_keeps_the_bits_of_halving_the_sum(self):
        rng = np.random.default_rng(8)
        M = rng.standard_normal((50, 3, 3, 2)).view(complex)[..., 0]
        M[:, 0, 1] = -0.0  # signed zeros meet +0.0 and -0.0 mirrors
        M[:10, 1, 0] = 0.0
        summed = (M + np.swapaxes(M.conj(), -1, -2)) / 2.0
        assert _hermitian_part(M).tobytes() == summed.tobytes()

    def test_overflowing_modulus_refused_with_its_own_message(self):
        # a finite Hermitian matrix whose entry modulus overflows was "not
        # Hermitian: max |A - A*| = 0.000000e+00 exceeds tolerance inf"
        z = 1.5e308 + 1.5e308j
        with pytest.raises(ValueError) as exc:
            HermitianMatrix([[1.0, z], [z.conjugate(), 1.0]])
        assert str(exc.value) == \
            "matrix entry (1.5e+308+1.5e+308j) has a modulus above the float range"
        assert not isinstance(exc.value, HermiticityError)

    def test_overflowing_asymmetry_refused_without_a_warning(self):
        # A - A* overflows to inf, which no tolerance admits
        with warnings.catch_warnings():
            warnings.simplefilter("error")
            with pytest.raises(HermiticityError, match=r"max \|A - A\*\| = inf "):
                HermitianMatrix([[0.0, 1.5e308], [-1.5e308, 0.0]])

    def test_immutable(self):
        H = HermitianMatrix.identity(2)
        with pytest.raises(ValueError):
            H.mat[0, 0] = 5.0


class TestSpectralDecompose:
    def test_diagonal(self):
        dec = spectral_decompose(HermitianMatrix.diagonal([2.0, -1.0]))
        assert np.allclose(dec.eigenvalues, [-1.0, 2.0])
        # eigenvectors are a permutation of identity columns
        assert np.allclose(np.abs(dec.eigenvectors), [[0, 1], [1, 0]])

    def test_identity(self):
        dec = spectral_decompose(HermitianMatrix.identity(3))
        assert np.allclose(dec.eigenvalues, [1.0, 1.0, 1.0])

    def test_offdiagonal_pauli(self):
        # characteristic polynomial x^2 - 1 by hand
        dec = spectral_decompose(HermitianMatrix([[0.0, 1.0], [1.0, 0.0]]))
        assert np.allclose(dec.eigenvalues, [-1.0, 1.0])

    def test_reconstruction_sweep(self):
        # 1000 seeded samples across d = 1..8
        count = 0
        for d in range(1, 9):
            for s in range(125):
                rng = np.random.default_rng(1000 * d + s)
                A = random_hermitian(d, rng)
                dec = spectral_decompose(A)
                bound = 1e-10 * d * max(_spectral_norm(A.mat), 1e-300)
                assert np.abs(dec.reconstruct() - A.mat).max() <= bound
                count += 1
        assert count == 1000

    def test_unitary_columns(self):
        rng = np.random.default_rng(3)
        dec = spectral_decompose(random_hermitian(5, rng))
        U = dec.eigenvectors
        assert np.abs(U.conj().T @ U - np.eye(5)).max() <= 1e-10

    @staticmethod
    def perturbed_eigh(monkeypatch, eps):
        eigh = np.linalg.eigh
        monkeypatch.setattr(np.linalg, "eigh", lambda M: (eigh(M)[0], eigh(M)[1] + eps))

    def test_reconstruction_failure_is_refused(self, monkeypatch):
        A = random_hermitian(4, np.random.default_rng(5)).mat
        self.perturbed_eigh(monkeypatch, 1e-6)
        with pytest.raises(ArithmeticError,
                           match=r"^spectral reconstruction error \S+ exceeds \S+$") as exc:
            _decompose(A[None])
        err, bound = (float(x) for x in str(exc.value).split()[3::2])
        assert err > bound == float(f"{4e-10 * np.abs(np.linalg.eigvalsh(A)).max():.3e}")
        with pytest.raises(ArithmeticError, match="spectral reconstruction error"):
            spectral_decompose(A)

    def test_bound_is_finite_past_max_over_d(self, monkeypatch):
        # RTOL * (d * max|w|) overflowed once max|w| passed max/d: a RuntimeWarning
        # (an error under the suite's filter) and an unchecked reconstruction
        big = np.finfo(float).max / 3.0
        M = np.diag([big, 1.0, -2.0, 0.5]).astype(complex)[None]
        w, _ = _decompose(M)
        assert w[0, -1] == big
        self.perturbed_eigh(monkeypatch, 1e-6)
        with pytest.raises(ArithmeticError, match=re.escape(f"exceeds {4e-10 * big:.3e}") + "$"):
            _decompose(M)


class TestMatrixFunction:
    def test_exp_of_diagonal(self):
        out = matrix_function(HermitianMatrix.diagonal([0.0, math.log(2)]), np.exp)
        assert np.allclose(out.mat, np.diag([1.0, 2.0]))

    def test_cube_of_identity(self):
        out = matrix_function(HermitianMatrix.identity(2), lambda x: x ** 3)
        assert np.allclose(out.mat, np.eye(2))

    def test_sqrt_of_diagonal(self):
        out = matrix_function(HermitianMatrix.diagonal([4.0, 9.0]), np.sqrt)
        assert np.allclose(out.mat, np.diag([2.0, 3.0]))

    def test_domain_error_names_eigenvalue(self):
        with pytest.raises(SpectralDomainError) as exc:
            matrix_function(HermitianMatrix.diagonal([-1.0, 4.0]), np.sqrt)
        assert exc.value.eigenvalue == pytest.approx(-1.0)

    def test_scalar_only_function_applied_per_eigenvalue(self):
        # math.exp and cmath.exp refuse an array, so each eigenvalue goes through
        # them on its own; a complex value with no imaginary part is accepted
        A = HermitianMatrix([[0.5, 0.25j], [-0.25j, -1.0]])
        ref = matrix_function(A, np.exp).mat
        for f in (math.exp, cmath.exp):
            assert np.abs(matrix_function(A, f).mat - ref).max() <= 1e-15
        with pytest.raises(SpectralDomainError, match="math domain error") as exc:
            matrix_function(HermitianMatrix.diagonal([2.0, -1.0]), math.log)
        assert exc.value.eigenvalue == -1.0

    def test_complex_values_are_domain_errors(self):
        for f in (cmath.sqrt, lambda x: np.emath.sqrt(x)):  # per eigenvalue, then vectorized
            with pytest.raises(SpectralDomainError, match="complex value") as exc:
                matrix_function(HermitianMatrix.diagonal([4.0, -1.0]), f)
            assert exc.value.eigenvalue == -1.0

    def test_values_above_quarter_max_are_domain_errors(self):
        # U diag(w^4) U* would overflow; values above max/4 are refused outright
        A = HermitianMatrix([[1e77, 1e76], [1e76, 9e76]])
        with warnings.catch_warnings():
            warnings.simplefilter("error")
            with pytest.raises(SpectralDomainError):
                matrix_function(A, lambda x: x ** 4)
            assert np.isfinite(matrix_function(A, lambda x: x ** 2).mat).all()

    def test_composition_homomorphism(self):
        funcs = {"exp": np.exp, "square": lambda x: x * x, "shift": lambda x: x + 1.0}
        rng = np.random.default_rng(11)
        for _ in range(20):
            A = random_hermitian(4, rng, scale=0.5)
            for f in funcs.values():
                for g in funcs.values():
                    via_comp = matrix_function(A, lambda x: f(g(x)))
                    via_chain = matrix_function(matrix_function(A, g), f)
                    scale = max(1.0, _spectral_norm(via_comp.mat))
                    assert np.abs(via_comp.mat - via_chain.mat).max() <= 1e-9 * scale


def outcome(fn, *args):
    """What ``fn(*args)`` gives: its exception's type and message, or the
    dtype, shape and bytes of its array."""
    try:
        out = fn(*args)
    except Exception as exc:
        return type(exc).__name__, str(exc)
    return out.dtype.str, out.shape, np.ascontiguousarray(out).tobytes()


class TestApplyScalarOracle:
    # eigenvalue stacks with signed zeros, a subnormal, exp overflow and values
    # whose powers or products pass max/4
    EVALS = (np.array([-2.5, -0.0, 0.0, 1e-310, 3.0]),
             np.random.default_rng(4).normal(size=(2, 3, 4)) * 3.0,
             np.array([[700.0, 710.0]]),
             np.array([1e100, -1e100]),
             np.array([0.5, 60.0]),
             np.array([[-1.0], [4.0]]))
    REAL = (np.exp, np.sqrt, np.log, lambda x: x ** 2, lambda x: 2.0 * x,
            lambda x: x ** 3, lambda x: 3.0 * x ** 2, lambda x: x ** 4,
            lambda x: 4.0 * x ** 3, lambda x: x * 1e306,
            lambda x: np.full_like(x, np.nan), lambda x: -np.abs(x) / 0.0,
            lambda x: x.astype(np.float32) * 3, lambda x: np.round(x).astype(np.int64),
            lambda x: x > 0, lambda x: (x > 0).astype(np.uint16),
            lambda x: np.asarray(x, dtype=np.longdouble) ** 2, lambda x: list(np.ravel(x)))
    COMPLEX = (lambda x: x + 0j, lambda x: x * (1.0 + 1e-14j), lambda x: x + 1j,
               np.emath.sqrt, np.emath.log, lambda x: np.full(x.shape, complex(np.inf, 0.0)),
               lambda x: np.full(x.shape, complex(0.0, np.nan)),
               lambda x: x * complex(0.0, 1e306), lambda x: x.astype(object))
    SCALAR_ONLY = (math.exp, math.log, math.sqrt, cmath.sqrt, cmath.exp,
                   lambda x: float(x) ** 2)
    RESHAPING = (lambda x: x.sum(), lambda x: np.concatenate([x.ravel(), x.ravel()]),
                 lambda x: x[..., None], lambda x: x.ravel(), lambda x: x.astype(str))

    @pytest.mark.parametrize("group", ["REAL", "COMPLEX", "SCALAR_ONLY", "RESHAPING"])
    def test_values_and_messages_equal_the_oracle(self, group):
        for f in getattr(self, group):
            for evals in self.EVALS:
                assert outcome(_apply_scalar, f, evals) == outcome(complex_apply_scalar, f, evals)


class TestMatrixToObjOracle:
    SPECIAL = (-0.0, 0.0, 5e-324, -2.2e-308, 1e-310, math.inf, -math.inf, math.nan, 1.5)

    def test_json_bytes_equal_the_oracle(self):
        rng = np.random.default_rng(12)
        mats = [np.array([[complex(a, b) for b in self.SPECIAL] for a in self.SPECIAL]),
                np.array([[-0.0, 5e-324], [math.nan, -math.inf]]),
                np.array([[1, -2], [3, 4]]), np.array([[True]]),
                random_hermitian(4, rng), random_hermitian(1, rng).mat]
        for _ in range(5):
            vals = rng.choice(self.SPECIAL, size=(2, 3, 3))
            mats.append(hermitian._complex(vals[0], vals[1]))
        for M in mats:
            new, old = matrix_to_obj(M), listcomp_matrix_to_obj(M)
            assert json.dumps(new, sort_keys=True) == json.dumps(old, sort_keys=True)
            assert all(type(x) is float for row in new["entries"] for cell in row for x in cell)

    def test_refusal_equals_the_oracle(self):
        for M in (np.zeros((2, 3)), np.zeros(3), np.zeros((1, 2, 2))):
            assert outcome(matrix_to_obj, M) == outcome(listcomp_matrix_to_obj, M)


def exp_of(A):
    """exp of one certified matrix through the stacked spectral core."""
    return _exp(*_decompose(A.mat))


class TestMatrixExp:
    def test_zero(self):
        assert np.allclose(exp_of(HermitianMatrix.zeros(2)), np.eye(2))

    def test_diagonal(self):
        out = exp_of(HermitianMatrix.diagonal([1.0, -1.0]))
        assert np.allclose(out, np.diag([math.e, 1 / math.e]))

    def test_pauli_x(self):
        # spectral evaluation via eigenvalues +-1 gives cosh/sinh entries
        out = exp_of(HermitianMatrix([[0.0, 1.0], [1.0, 0.0]]))
        expect = [[math.cosh(1), math.sinh(1)], [math.sinh(1), math.cosh(1)]]
        assert np.allclose(out, expect)

    def test_overflow_is_a_domain_error_without_warnings(self):
        with warnings.catch_warnings():
            warnings.simplefilter("error")
            assert np.isfinite(exp_of(HermitianMatrix.diagonal([708.0, 0.0]))).all()
            with pytest.raises(SpectralDomainError) as exc:
                exp_of(HermitianMatrix.diagonal([0.0, 709.5]))
        assert exc.value.eigenvalue == 709.5


class TestParts:
    def test_diagonal_split(self):
        A = HermitianMatrix.diagonal([1.0, -2.0])
        assert np.allclose(positive_part(A).mat, np.diag([1.0, 0.0]))
        assert np.allclose(negative_part(A).mat, np.diag([0.0, 2.0]))

    def test_psd_input(self):
        A = HermitianMatrix.diagonal([0.5, 3.0])
        assert np.allclose(positive_part(A).mat, A.mat)
        assert np.allclose(negative_part(A).mat, 0.0)

    def test_pauli_projection(self):
        # spectral projection onto eigenvalue +1 of [[0,1],[1,0]]
        pos = positive_part(HermitianMatrix([[0.0, 1.0], [1.0, 0.0]]))
        assert np.allclose(pos.mat, 0.5 * np.ones((2, 2)))

    def test_split_and_annihilation(self):
        rng = np.random.default_rng(7)
        for _ in range(25):
            A = random_hermitian(5, rng)
            P, N = pos_neg_parts(A)
            scale = max(1.0, _spectral_norm(A.mat))
            assert np.abs(P.mat - N.mat - A.mat).max() <= 1e-9 * scale
            assert np.abs(P.mat @ N.mat).max() <= 1e-9 * scale ** 2
            assert np.linalg.eigvalsh(P.mat)[0] >= -1e-10 * scale
            assert np.linalg.eigvalsh(N.mat)[0] >= -1e-10 * scale


class TestNormsAndTrace:
    def test_spectral_norm_examples(self):
        assert _spectral_norm(np.diag([-3.0, 2.0])) == pytest.approx(3.0)
        assert _spectral_norm(np.array([[0.0, 2.0], [2.0, 0.0]])) == pytest.approx(2.0)
        # the largest over a stack, of each matrix's Hermitian part
        stack = np.array([np.diag([1.0, -0.5]), [[0.0, 4.0], [0.0, 0.0]]])
        assert _spectral_norm(stack) == pytest.approx(2.0)


def lambda_max_stacks(rng, count=400):
    """Named d = 2 stacks for the lambda_max kernel: Gaussian,
    integer-entry and near-degenerate Hermitian stacks at scales 1e-300 to
    1e150, and stacks whose upper triangle is not the conjugate of their lower
    one or whose diagonal is imaginary (LAPACK reads neither)."""
    cases = []
    for scale in (1e-300, 1e-150, 1e-8, 1.0, 1e8, 1e150):
        cases.append((f"gaussian-{scale:g}", _draw("gaussian-hermitian", 2, scale, rng, count)))
        a = scale * rng.standard_normal(count)
        degenerate = np.zeros((count, 2, 2), dtype=complex)
        degenerate[:, 0, 0] = degenerate[:, 1, 1] = a  # b = 0, a = d
        cases.append((f"scalar-{scale:g}", degenerate))
        split = degenerate.copy()
        split[:, 1, 1] = a * (1 + 1e-15 * rng.standard_normal(count))  # b = 0, a ~ d
        cases.append((f"diagonal-{scale:g}", split))
        tiny = degenerate.copy()
        tiny[:, 1, 0] = 1e-9 * a * rng.standard_normal(count)  # a = d, b ~ 0
        tiny[:, 0, 1] = tiny[:, 1, 0].conj()
        cases.append((f"tiny-b-{scale:g}", tiny))
    for m in (1, 3, 50):
        cases.append((f"integer-entry-{m}", _draw("integer-entry", 2, m, rng, count)))
    skew = _draw("gaussian-hermitian", 2, 1.0, rng, count)
    skew[:, 0, 1] = rng.standard_normal(count) + 1j * rng.standard_normal(count)
    cases.append(("upper-not-conjugate", skew))
    imaginary = _draw("gaussian-hermitian", 2, 1.0, rng, count)
    imaginary[:, [0, 1], [0, 1]] += 1j * rng.standard_normal((count, 2))
    cases.append(("imaginary-diagonal", imaginary))
    return dict(cases)


LAMBDA_MAX_STACKS = lambda_max_stacks(np.random.default_rng(29))


class TestLambdaMaxAgainst:
    @pytest.mark.parametrize("name", LAMBDA_MAX_STACKS)
    def test_sides_match_eigvalsh(self, name):
        stack = LAMBDA_MAX_STACKS[name]
        # every grid point that could split the two values: LAPACK's own
        # values and their neighbours either side
        eig = np.linalg.eigvalsh(stack)[:, -1]
        grid = np.concatenate([eig, np.nextafter(eig, -np.inf), np.nextafter(eig, np.inf)])
        lam = _lambda_max_against(stack, grid)
        assert np.array_equal(lam[:, None] >= grid, eig[:, None] >= grid)
        # the closed form itself: decided against no grid point, no row is confirmed
        closed = _lambda_max_against(stack, [])
        size = np.abs(stack[:, 0, 0].real) + np.abs(stack[:, 1, 1].real) + np.abs(stack[:, 1, 0])
        assert (np.abs(closed - eig) <= 2.0 ** -40 * size).all()

    def test_confirms_only_near_rows(self, monkeypatch):
        stack = _draw("gaussian-hermitian", 2, 1.0, np.random.default_rng(3), 500)
        eig = np.linalg.eigvalsh(stack)[:, -1]
        confirmed = []

        def spy(M):
            confirmed.append(len(M))
            return eigvalsh(M)

        eigvalsh = np.linalg.eigvalsh
        monkeypatch.setattr(np.linalg, "eigvalsh", spy)
        far = [eig.min() - 1.0, eig.max() + 1.0]
        assert np.array_equal(_lambda_max_against(stack, far), _lambda_max_against(stack, []))
        assert confirmed == []
        lam = _lambda_max_against(stack, eig[:3])
        assert confirmed == [3] and np.array_equal(lam[:3], eig[:3])

    def test_other_dims_are_eigvalsh(self):
        rng = np.random.default_rng(5)
        for d in (1, 3, 4):
            stack = _draw("gaussian-hermitian", d, 1.0, rng, 50)
            assert np.array_equal(_lambda_max_against(stack, [0.0]),
                                  np.linalg.eigvalsh(stack)[:, -1])

    @pytest.mark.parametrize("d", [2, 3])
    @pytest.mark.parametrize("bad", [math.nan, math.inf, complex(0.0, -math.inf)])
    def test_non_finite_entry_refused(self, d, bad):
        stack = np.zeros((4, d, d), dtype=complex)
        stack[2, d - 1, 0] = bad
        with pytest.raises(ArithmeticError, match="matrix 2 of the stack has a non-finite entry"):
            _lambda_max_against(stack, [0.0])

    @pytest.mark.parametrize("d", [2, 3])
    def test_overflowing_value_refused(self, d):
        # finite entries whose lambda_max overflows: eigvalsh returns NaN for it
        big = np.finfo(float).max
        stack = np.zeros((3, d, d), dtype=complex)
        stack[1] = big * np.eye(d)
        stack[1, 1, 0], stack[1, 0, 1] = big * (0.75 + 0.75j), big * (0.75 - 0.75j)
        assert np.isnan(np.linalg.eigvalsh(stack[1])[-1])
        with pytest.raises(ArithmeticError, match="lambda_max of matrix 1 of the stack overflows"):
            _lambda_max_against(stack, [0.0])

    def test_near_max_value_confirmed(self):
        # lambda_max up to the largest float, where |a| + |d| + |b| overflows:
        # the margin is infinite, and eigvalsh decides every row
        big = np.finfo(float).max
        stack = np.zeros((2, 2, 2), dtype=complex)
        stack[:, 0, 0] = stack[:, 1, 1] = big / 2
        stack[:, 1, 0] = stack[:, 0, 1] = [big / 2, big / 4]
        eig = np.linalg.eigvalsh(stack)[:, -1]
        assert np.isfinite(eig).all()
        assert np.array_equal(_lambda_max_against(stack, [0.0]), eig)


class TestEnsembles:
    def test_determinism(self):
        spec = EnsembleSpec("diagonal", 2, 1.0, 99)
        A, B = sample_ensemble(spec), sample_ensemble(spec)
        assert A == B

    def test_diagonal_kind(self):
        A = sample_ensemble(EnsembleSpec("diagonal", 3, 1.0, 5))
        assert np.abs(A.mat - np.diag(np.diagonal(A.mat))).max() == 0.0

    def test_psd_kind(self):
        for s in range(20):
            A = sample_ensemble(EnsembleSpec("psd", 4, 2.0, s))
            assert np.linalg.eigvalsh(A.mat)[0] >= -1e-12 * 2.0

    def test_commuting_pair(self):
        for s in range(10):
            A, B = sample_ensemble(EnsembleSpec("commuting-pair", 5, 2.0, s))
            comm = A.mat @ B.mat - B.mat @ A.mat
            assert np.abs(comm).max() <= 1e-10 * 2.0 ** 2

    def test_integer_entries(self):
        A = sample_ensemble(EnsembleSpec("integer-entry", 4, 3.0, 17))
        assert np.allclose(A.mat.real, np.round(A.mat.real))
        assert np.allclose(A.mat.imag, np.round(A.mat.imag))

    def test_integer_entry_assembly(self):
        # the masked assembly gives the bytes of the triangular-part assembly,
        # for every matrix of a batched draw
        for d in range(1, 9):
            for count in range(1, 5):
                for s in range(10):
                    rng = np.random.default_rng(s)
                    S = rng.integers(-2, 3, size=(count, d, d))
                    K = rng.integers(-2, 3, size=(count, d, d))
                    got = _draw("integer-entry", d, 2.0, np.random.default_rng(s), count)
                    assert got.shape == (count, d, d)
                    for k in range(count):
                        real = np.triu(S[k]) + np.triu(S[k], 1).T
                        imag = np.triu(K[k], 1) - np.triu(K[k], 1).T
                        expect = real.astype(float) + 1j * imag.astype(float)
                        assert got[k].tobytes() == expect.tobytes()

    def test_low_rank(self):
        A = sample_ensemble(EnsembleSpec("low-rank", 6, 1.0, 23))
        rank = int(np.sum(np.abs(np.linalg.eigvalsh(A.mat)) > 1e-9))
        assert rank <= 3

    def test_different_seeds_differ(self):
        A = sample_ensemble(EnsembleSpec("gaussian-hermitian", 3, 1.0, 1))
        B = sample_ensemble(EnsembleSpec("gaussian-hermitian", 3, 1.0, 2))
        assert not A == B

    @pytest.mark.parametrize("kind", ENSEMBLE_KINDS)
    def test_all_kinds_hermitian(self, kind):
        out = sample_ensemble(EnsembleSpec(kind, 4, 1.5, 31))
        mats = out if isinstance(out, tuple) else (out,)
        for M in mats:
            assert np.abs(M.mat - M.mat.conj().T).max() == 0.0

    def test_bad_spec(self):
        with pytest.raises(ValueError):
            EnsembleSpec("bogus", 2)
        with pytest.raises(ValueError):
            EnsembleSpec("psd", 0)
        with pytest.raises(ValueError):
            EnsembleSpec("psd", 2, scale=-1.0)

    @pytest.mark.parametrize("dim,seed", [(2.5, 7), (True, 7), (2, 7.9), (2, "7")])
    def test_non_integer_dim_or_seed_refused(self, dim, seed):
        # seed 7.9 drew seed 7; dim 2.5 was accepted and failed in the draw
        with pytest.raises(ValueError, match="must be an integer"):
            EnsembleSpec("psd", dim, 1.0, seed)

    def test_integral_floats_read_as_integers(self):
        spec = EnsembleSpec("psd", 3.0, 1.5, 7.0)
        assert type(spec.dim) is type(spec.seed) is int
        assert sample_ensemble(spec) == sample_ensemble(EnsembleSpec("psd", 3, 1.5, 7))

    def test_infinite_scale_refused(self):
        with pytest.raises(ValueError, match="scale must be finite and > 0, got inf"):
            EnsembleSpec("psd", 2, scale=math.inf)

    def test_overflowing_draw_refused(self):
        # a finite scale whose draw is not finite: a numerical refusal, not a
        # non-Hermitian input, and no RuntimeWarning
        with pytest.raises(ArithmeticError, match=r"^psd draw at scale 1e\+308 is not finite$"):
            sample_ensemble(EnsembleSpec("psd", 3, 1e308, 0))

    def test_trial_grid_refuses_non_integer_dims(self):
        # dim 2.7 ran as dim 2
        with pytest.raises(ValueError, match="dim must be an integer, got 2.7"):
            _trial_grid(("psd",), (2.7,), 1.0)
        assert _trial_grid(("psd",), (2.0, 3), 1.0) == (("psd",), (2, 3))


class TestBatchedDraw:
    """Each kind keeps its law in a batched draw of any count."""

    SEEDS = (0, 7, 2**63 + 5)

    @staticmethod
    def draws(kind, scale=1.5):
        for d in range(1, 9):
            for count in range(1, 5):
                for s in TestBatchedDraw.SEEDS:
                    X = _draw(kind, d, scale, np.random.default_rng(s), count)
                    assert X.shape == (count, d, d) and X.dtype == np.complex128
                    yield d, count, X

    @pytest.mark.parametrize("kind", ENSEMBLE_KINDS)
    def test_hermitian(self, kind):
        for _, _, X in self.draws(kind):
            _certify(X)  # raises for a matrix beyond HERMITICITY_RTOL

    def test_diagonal_off_diagonal_zero(self):
        for d, _, X in self.draws("diagonal"):
            assert not X[:, ~np.eye(d, dtype=bool)].any()

    def test_psd_spectra(self):
        for _, _, X in self.draws("psd"):
            w = np.linalg.eigvalsh(_certify(X))
            assert (w[:, 0] >= -1e-12 * np.maximum(1.0, np.abs(w).max(axis=-1))).all()

    def test_low_rank_rank(self):
        for d, _, X in self.draws("low-rank"):
            w = np.abs(np.linalg.eigvalsh(_certify(X)))
            rank = (w > 1e-9 * np.maximum(1.0, w.max(axis=-1, keepdims=True))).sum(axis=-1)
            assert (rank <= max(1, d // 2)).all()

    def test_commuting_pair_shares_a_basis(self):
        def comm(A, B):
            return np.abs(A @ B - B @ A).max()

        for d, count, X in self.draws("commuting-pair"):
            for i in range(count):
                for j in range(i):
                    assert comm(X[i], X[j]) <= 1e-10 * 1.5 ** 2
        # shared=2: A and B commute; every further matrix has its own basis
        for d in range(2, 9):
            for s in self.SEEDS:
                X = _draw("commuting-pair", d, 1.5, np.random.default_rng(s), 4, 2)
                assert comm(X[0], X[1]) <= 1e-10 * 1.5 ** 2
                for i, j in ((2, 0), (3, 0), (3, 2)):
                    assert comm(X[i], X[j]) > 1e-6

    def test_integer_entry_parts(self):
        for scale in (1.0, 2.0, 3.4):
            m = max(1, int(round(scale)))
            for _, _, X in self.draws("integer-entry", scale):
                for part in (X.real, X.imag):
                    assert (part == np.round(part)).all() and np.abs(part).max() <= m
                assert np.array_equal(X, np.swapaxes(X.conj(), -1, -2))

    @pytest.mark.parametrize("chunk", [1, 5, 256])
    def test_trial_draws_replay_under_any_grouping(self, chunk, monkeypatch, seeded_trials):
        import matconc.conjectures as conjectures
        import matconc.traceineq as traceineq

        monkeypatch.setattr(traceineq, "FUZZ_CHUNK", chunk)
        kinds, dims = ENSEMBLE_KINDS, (1, 3, 8)
        for ineq in traceineq.INEQUALITY_IDS:
            seen = []
            draw_trial = traceineq._draw_trial

            def recorded(ineq, kind, dim, scale, rng):
                seen.append(draw_trial(ineq, kind, dim, scale, rng))
                return seen[-1]

            monkeypatch.setattr(traceineq, "_draw_trial", recorded)
            summary = traceineq.fuzz_grid(ineq, kinds, dims, 40, 1.0, 11)
            monkeypatch.setattr(traceineq, "_draw_trial", draw_trial)
            assert summary == traceineq.fuzz_grid(ineq, kinds, dims, 40, 1.0, 11)
            assert len(seen) == 40
            fresh = seeded_trials(11, kinds, dims, 40, lambda kind, dim, rng:
                                  draw_trial(ineq, kind, dim, 1.0, rng))
            for (mats, scalars), (_, _, _, (ref, ref_scalars)) in zip(seen, fresh):
                assert mats.tobytes() == ref.tobytes() and scalars == ref_scalars
        seen = []
        draw = conjectures._draw
        monkeypatch.setattr(conjectures, "_draw",
                            lambda *args: seen.append(draw(*args)) or seen[-1])
        conjectures.counterexample_search("expconj", dims, 40, 11, descent_budget=0)
        assert len(seen) == 40
        fresh = seeded_trials(11, kinds, dims, 40,
                              lambda kind, dim, rng: draw(kind, dim, 1.0, rng, 3))
        for X, (_, _, _, ref) in zip(seen, fresh):
            assert X.tobytes() == ref.tobytes()


SAMPLE_SEEDS = (0, 1, 31, 2**63 + 5)


@pytest.mark.pinned
@pytest.mark.parametrize("kind", ENSEMBLE_KINDS)
def test_sample_ensemble_bytes_pinned(kind, assert_pinned):
    # the bytes of every sample_ensemble draw of a kind at scale 1.5, dims 1..8
    # and seeds SAMPLE_SEEDS (both matrices of a commuting pair), in that order;
    # mc-tail generates its observables through sample_ensemble
    data = []
    for d in range(1, 9):
        for s in SAMPLE_SEEDS:
            out = sample_ensemble(EnsembleSpec(kind, d, 1.5, s))
            data += [M.mat.tobytes() for M in (out if isinstance(out, tuple) else (out,))]
    assert_pinned(f"sample/{kind}", b"".join(data))


class TestSerialization:
    def test_save_matrix_bytes_pinned(self, tmp_path):
        # a matrix object written compact: sorted keys, one trailing newline
        path = tmp_path / "m.json"
        _write_json(path, matrix_to_obj(HermitianMatrix([[1.0, 2.0 - 1.0j], [2.0 + 1.0j, -0.5]])))
        assert path.read_bytes() == (b'{"dim": 2, "entries": [[[1.0, 0.0], [2.0, -1.0]], '
                                     b'[[2.0, 1.0], [-0.5, 0.0]]]}\n')

    def test_roundtrip(self, tmp_path):
        rng = np.random.default_rng(19)
        A = random_hermitian(3, rng)
        path = tmp_path / "m.json"
        _write_json(path, matrix_to_obj(A))
        B = matrix_from_obj(json.loads(path.read_text()))
        assert np.abs(A.mat - B.mat).max() <= 1e-15

    def test_obj_shape(self):
        obj = matrix_to_obj(HermitianMatrix.identity(2))
        assert obj["dim"] == 2
        assert obj["entries"][0][0] == [1.0, 0.0]

    def test_obj_of_any_square_array(self):
        P = np.array([[1.0, 2.0 + 1.0j], [0.0, -3.0j]])
        obj = matrix_to_obj(P)
        assert obj["entries"][0][1] == [2.0, 1.0] and obj["entries"][1][1] == [0.0, -3.0]
        with pytest.raises(HermiticityError):
            matrix_from_obj(obj)
        with pytest.raises(ValueError):
            matrix_to_obj(np.zeros((2, 3)))

    def test_reader_rejects_non_finite_tokens(self):
        obj = json.loads('{"dim": 1, "entries": [[[NaN, 0.0]]]}')
        with pytest.raises(HermiticityError):
            matrix_from_obj(obj)

    def test_reader_validates(self):
        obj = {"dim": 2, "entries": [[[0, 0], [1, 0]], [[0, 0], [0, 0]]]}
        with pytest.raises(HermiticityError):
            matrix_from_obj(obj)

    @pytest.mark.parametrize("obj,match", [
        ([1], "matrix must be an object"),
        ({"dim": 1}, "matrix needs key 'entries'"),
        ({"dim": 1, "entries": [[[1.0, 0.0]]], "scale": 2}, "unknown key 'scale'"),
        ({"dim": 1.5, "entries": [[[1.0, 0.0]]]}, "matrix dim must be an integer"),
        ({"dim": 1, "entries": [[[1.0]]]}, r"\[re, im\] pair"),
        ({"dim": 1, "entries": [[5]]}, r"\[re, im\] pair"),
        ({"dim": 1, "entries": [[["1", 0.0]]]}, r"\[re, im\] pair"),
        ({"dim": 2, "entries": [[[1.0, 0.0]]]}, "not a 2 x 2 array")])
    def test_reader_refuses_malformed_objects(self, obj, match):
        with pytest.raises(ValueError, match=match):
            matrix_from_obj(obj)

    def test_object_key_rule(self):
        obj = {"a": 1, "b": 2}
        assert _object("thing", obj, ("a",), ("b", "c")) is obj
        for bad, match in ((5, "thing must be an object, got 5"),
                           ({"b": 2}, "thing needs key 'a'"),
                           ({"a": 1, "d": 4}, r"thing: unknown key 'd' \(known: a, b, c\)")):
            with pytest.raises(ValueError, match=match):
                _object("thing", bad, ("a",), ("b", "c"))

    def test_params_roundtrip(self):
        rng = np.random.default_rng(29)
        A = random_hermitian(4, rng)
        B = hermitian_from_params(4, hermitian_to_params(A))
        assert np.abs(A.mat - B.mat).max() <= 1e-15

    def test_stacked_params_match_certified_assembly(self):
        # symmetrizing the assembly reproduces certification bit for bit
        for kind in ENSEMBLE_KINDS:
            for d in range(1, 7):
                X = np.stack([sample_ensemble(EnsembleSpec(kind, d, 1.5, 10 * d + k))
                              for k in range(3)] if kind != "commuting-pair" else
                             sample_ensemble(EnsembleSpec(kind, d, 1.5, d)))
                params = _to_params(X)
                assert params.tobytes() == np.stack([hermitian_to_params(M) for M in X]).tobytes()
                built = _hermitian_part(_from_params(d, params))
                for M, p in zip(built, params):
                    assert M.tobytes() == hermitian_from_params(d, p).mat.tobytes()

    def test_upper_indices_cached_read_only(self):
        for d in range(0, 8):
            iu = _upper_indices(d)
            assert iu is _upper_indices(d)
            for got, want in zip(iu, np.triu_indices(d, 1)):
                assert got.dtype == want.dtype and got.tobytes() == want.tobytes()
                assert not got.flags.writeable

    def test_digest_stable(self):
        A = HermitianMatrix.identity(2)
        assert inputs_digest([A]) == inputs_digest([A])
        assert inputs_digest([A]) != inputs_digest([A], {"k": 2})


class TestWriteBytes:
    LONG, SHORT = b'{"gap": -1.25e-07, "trials": 12345}\n', b'{"k": 0.5}\n'

    def test_rewrite_shorter_then_longer_leaves_new_bytes(self, tmp_path):
        path = tmp_path / "f.json"
        for data in (self.LONG, self.SHORT, self.LONG, b""):
            _write_bytes(path, data)
            assert path.read_bytes() == data

    def test_json_bytes_equal_the_old_writer(self, tmp_path):
        objs = [{"b": [1.5, np.float64(-2.0e-300)], "a": {"z": None, "y": "\u00e9"}},
                matrix_to_obj(HermitianMatrix([[1.0, 2.0 - 1.0j], [2.0 + 1.0j, -0.5]])),
                {"k": 1}]
        new, old = tmp_path / "new.json", tmp_path / "old.json"
        for obj in objs:  # each rewrite shorter than the last
            _write_json(new, obj)
            old_write_json(old, obj)
            assert new.read_bytes() == old.read_bytes()

    def test_symlink_writes_through_to_its_target(self, tmp_path):
        target, link = tmp_path / "target.json", tmp_path / "link.json"
        target.write_bytes(self.LONG)
        link.symlink_to(target)
        _write_bytes(link, self.SHORT)
        assert link.is_symlink() and target.read_bytes() == self.SHORT

    def test_hard_link_sees_the_new_bytes(self, tmp_path):
        path, other = tmp_path / "f.json", tmp_path / "g.json"
        path.write_bytes(self.LONG)
        os.link(path, other)
        _write_bytes(path, self.SHORT)
        assert other.read_bytes() == self.SHORT
        assert os.stat(path).st_ino == os.stat(other).st_ino

    def test_existing_file_keeps_its_mode(self, tmp_path):
        path = tmp_path / "f.json"
        path.write_bytes(self.LONG)
        path.chmod(0o600)
        _write_bytes(path, self.SHORT)
        assert stat.S_IMODE(os.stat(path).st_mode) == 0o600
        assert path.read_bytes() == self.SHORT

    def test_device_and_pipe_outputs(self, tmp_path):
        _write_json(os.devnull, {"k": 1})
        fifo = tmp_path / "fifo"
        os.mkfifo(fifo)
        reader = os.open(fifo, os.O_RDONLY | os.O_NONBLOCK)
        try:
            _write_bytes(fifo, self.SHORT)
            assert os.read(reader, 100) == self.SHORT
        finally:
            os.close(reader)

    def test_interrupted_write_leaves_no_old_byte(self, tmp_path, monkeypatch):
        # the file is truncated to zero before the new bytes go in, so a write
        # cut after 4 bytes leaves a prefix of them that does not parse, never
        # the new bytes over the old file's tail
        path = tmp_path / "f.json"
        path.write_bytes(self.LONG)

        class CutShort:
            def __init__(self, fh):
                self.fh = fh

            def __enter__(self):
                return self

            def __exit__(self, *exc):
                self.fh.close()

            def write(self, data):
                self.fh.write(data[:4])
                self.fh.flush()
                raise OSError(errno.ENOSPC, os.strerror(errno.ENOSPC))

            def __getattr__(self, name):
                return getattr(self.fh, name)

        monkeypatch.setattr(hermitian, "open",
                            lambda file, mode: CutShort(builtins.open(file, mode)), raising=False)
        with pytest.raises(OSError):
            _write_bytes(path, self.SHORT)
        assert path.read_bytes() == self.SHORT[:4]
        with pytest.raises(json.JSONDecodeError):
            json.loads(path.read_bytes())


@pytest.mark.parametrize("kind", ENSEMBLE_KINDS)
def test_draw_matches_its_oracle_bit_for_bit(kind):
    # values, signed zeros included, and the generator state after the draw
    for d in range(1, 7):
        for count, shared in ((1, None), (3, 2), (4, 1), (4, None)):
            for scale in (0.3, 1.0, 2.6):
                for seed in range(3):
                    rng, ref = np.random.default_rng(seed), np.random.default_rng(seed)
                    got = _draw(kind, d, scale, rng, count, shared)
                    want = draw_oracle(kind, d, scale, ref, count, shared)
                    assert got.dtype == want.dtype and got.tobytes() == want.tobytes(), \
                        (d, count, shared, scale, seed)
                    assert rng.random() == ref.random()


class TestSharedBoundaryHelpers:
    """Certified input lists and the seeded trial scheme have one definition each."""

    ENTRY_POINTS = {
        "traceineq": lambda ms: gap_exchangeable(*ms),
        "conjectures": lambda ms: gap_conjecture_exp(*ms),
        "DifferenceBoundSet": lambda ms: DifferenceBoundSet(ms).sum_of_squares.mat.tobytes(),
        "RademacherSumObservable":
            lambda ms: RademacherSumObservable(ms).batch([[1.0, -1.0, 1.0]]).tobytes(),
    }

    @pytest.mark.parametrize("entry", sorted(ENTRY_POINTS))
    def test_entry_points_certify_alike(self, entry):
        fn = self.ENTRY_POINTS[entry]
        rng = np.random.default_rng(61)
        mats = [random_hermitian(3, rng, 0.5) for _ in range(3)]
        assert fn(mats) == fn([np.array(M.mat) for M in mats])
        with pytest.raises(ValueError, match="dimension mismatch: 3 vs 2"):
            fn(mats[:2] + [random_hermitian(2, rng)])
        with pytest.raises(ValueError, match="dimension mismatch: 3 vs 2"):
            fn([np.array(M.mat) for M in mats[:2]] + [np.eye(2)])
        with pytest.raises(HermiticityError):
            fn(mats[:2] + [[[0.0, 1.0, 0.0], [0.0, 0.0, 0.0], [0.0, 0.0, 0.0]]])

    def test_trial_generator_and_cell(self, seeded_trials):
        # trial t draws from the run's one generator, in the state the plain
        # trial-by-trial stream leaves it, on its grid cell
        from matconc.traceineq import _trials_in_order

        kinds, dims = ENSEMBLE_KINDS, (2, 3, 5)

        def draw(kind, dim, scale, rng):
            return str(rng.bit_generator.state), _draw(kind, dim, scale, rng, 2)

        run = [(t, kind, dim, gaps[i]) for t, kind, dim, gaps, i in _trials_in_order(
            77, 40, kinds, dims, 1.0, draw, lambda xs: xs)]
        ref = list(seeded_trials(77, kinds, dims, 40,
                                 lambda kind, dim, rng: draw(kind, dim, 1.0, rng)))
        assert [r[:3] for r in run] == [r[:3] for r in ref]
        assert all((r[1], r[2]) == (kinds[r[0] % 6], dims[(r[0] // 6) % 3]) for r in run)
        for (_, _, _, (state, X)), (_, _, _, (ref_state, ref_X)) in zip(run, ref):
            assert state == ref_state and X.tobytes() == ref_X.tobytes()

    def test_fuzzer_and_search_derive_trial_t_alike(self, monkeypatch, seeded_trials):
        import matconc.conjectures as conjectures
        import matconc.traceineq as traceineq

        for name in ("_trials_in_order", "_trial_grid", "_draw"):
            assert getattr(traceineq, name) is getattr(conjectures, name)
        seen = {"fuzz": [], "search": []}
        draws = {}
        driver = traceineq._trials_in_order

        def recording(key):
            def trials_in_order(seed, trials, kinds, dims, scale, draw, evaluate):
                draws[key] = draw, scale

                def recorded_draw(kind, dim, scale, rng):
                    state = str(rng.bit_generator.state)
                    seen[key].append((len(seen[key]), kind, dim, state))
                    return draw(kind, dim, scale, rng)
                for trial in driver(seed, trials, kinds, dims, scale, recorded_draw, evaluate):
                    assert trial[:3] == seen[key][trial[0]][:3]
                    yield trial
            return trials_in_order

        monkeypatch.setattr(traceineq, "_trials_in_order", recording("fuzz"))
        monkeypatch.setattr(conjectures, "_trials_in_order", recording("search"))
        traceineq.fuzz_grid("exchangeable", ENSEMBLE_KINDS, (2, 3), 20, 1.0, 5)
        conjectures.counterexample_search("expconj", (2, 3), 20, 5, descent_budget=0)
        for key in ("fuzz", "search"):
            def stated(kind, dim, rng, drawn=draws[key]):
                state = str(rng.bit_generator.state)
                draw, scale = drawn
                draw(kind, dim, scale, rng)
                return state
            ref = seeded_trials(5, ENSEMBLE_KINDS, (2, 3), 20, stated)
            assert seen[key] == list(ref)
