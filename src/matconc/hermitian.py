"""Certified dense Hermitian matrices and their spectral calculus.

Construction validates hermiticity once; everything downstream (spectral
functions, norms, traces) can then rely on real spectra.
All operations are pure functions of immutable inputs and are safe to
share across parallel workers.
"""

from __future__ import annotations

import functools
import hashlib
import json
import math
import numbers
from dataclasses import dataclass
from typing import Callable, Sequence

import numpy as np

HERMITICITY_RTOL = 1e-12     # asymmetry tolerance, relative to max |entry|
RECONSTRUCTION_RTOL = 1e-10  # U diag(w) U* accuracy, relative to d * max |w|
STREAM_VERSION = 4           # the RNG stream of seeded draws, recorded in every manifest
FORMAT_VERSION = 2           # the bytes of CSV and JSON data files, recorded in every manifest

ENSEMBLE_KINDS = (
    "gaussian-hermitian",
    "diagonal",
    "psd",
    "low-rank",
    "commuting-pair",
    "integer-entry",
)


class HermiticityError(ValueError):
    """Raised when an input matrix is not Hermitian within tolerance."""

    def __init__(self, max_asymmetry: float, tolerance: float):
        self.max_asymmetry = float(max_asymmetry)
        self.tolerance = float(tolerance)
        super().__init__(
            f"matrix is not Hermitian: max |A - A*| = {self.max_asymmetry:.6e} "
            f"exceeds tolerance {self.tolerance:.6e}"
        )


class SpectralDomainError(ArithmeticError):
    """Raised when a scalar function is undefined at an eigenvalue."""

    def __init__(self, eigenvalue: float, detail: str = ""):
        self.eigenvalue = float(eigenvalue)
        msg = f"scalar function undefined at eigenvalue {self.eigenvalue!r}"
        if detail:
            msg += f" ({detail})"
        super().__init__(msg)


class HermitianMatrix:
    """Dense complex square matrix certified Hermitian at construction.

    Entries with asymmetry below ``HERMITICITY_RTOL * max|entry|`` are
    symmetrized to (A + A*)/2; anything worse is rejected so that real-trace
    extraction stays honest downstream.  The stored array is read-only.
    """

    __slots__ = ("mat",)

    def __init__(self, entries):
        arr = np.array(entries, dtype=np.complex128, copy=True)
        if arr.ndim != 2 or arr.shape[0] != arr.shape[1]:
            raise ValueError(f"expected a square matrix, got shape {arr.shape}")
        if arr.shape[0] < 1:
            raise ValueError("dimension must be >= 1")
        sym = _certify(arr)
        sym.setflags(write=False)
        self.mat = sym

    @property
    def dim(self) -> int:
        return self.mat.shape[0]

    def __array__(self, dtype=None, copy=None):
        if dtype is not None:
            return np.asarray(self.mat, dtype=dtype)
        return self.mat

    def __eq__(self, other):
        if not isinstance(other, HermitianMatrix):
            return NotImplemented
        return self.mat.shape == other.mat.shape and bool(np.array_equal(self.mat, other.mat))

    __hash__ = None

    def __repr__(self):
        return f"HermitianMatrix(dim={self.dim})"

    @classmethod
    def identity(cls, dim: int) -> "HermitianMatrix":
        return cls(np.eye(dim))

    @classmethod
    def zeros(cls, dim: int) -> "HermitianMatrix":
        return cls(np.zeros((dim, dim)))

    @classmethod
    def diagonal(cls, values) -> "HermitianMatrix":
        return cls(np.diag(np.asarray(values, dtype=float)))


def _coerce(A) -> HermitianMatrix:
    return A if isinstance(A, HermitianMatrix) else HermitianMatrix(A)


def _coerce_all(mats) -> tuple[HermitianMatrix, ...]:
    """Public matrices certified Hermitian: a nonempty list of one dimension."""
    mats = tuple(_coerce(M) for M in mats)
    if not mats:
        raise ValueError("need at least one matrix")
    for M in mats[1:]:
        if M.dim != mats[0].dim:
            raise ValueError(f"dimension mismatch: {mats[0].dim} vs {M.dim}")
    return mats


def _integer(name: str, value) -> int:
    """A public integer argument as an int; a bool, a non-number or a
    non-integral number is refused with ``ValueError``."""
    integral = isinstance(value, numbers.Integral) or (
        isinstance(value, numbers.Real) and math.isfinite(value) and value == int(value))
    if isinstance(value, (bool, np.bool_)) or not integral:
        raise ValueError(f"{name} must be an integer, got {value!r}")
    return int(value)


def _is_real(x) -> bool:
    """A real number that is not a bool."""
    return isinstance(x, numbers.Real) and not isinstance(x, (bool, np.bool_))


def _object(where: str, obj, required=(), optional=()) -> dict:
    """``obj`` if it is a JSON object with every ``required`` key and no key
    outside ``required`` and ``optional``; otherwise a ``ValueError`` naming
    ``where`` and the key.  Every config and file object is read through it."""
    if not isinstance(obj, dict):
        raise ValueError(f"{where} must be an object, got {obj!r}")
    missing = [k for k in required if k not in obj]
    if missing:
        raise ValueError(f"{where} needs key {missing[0]!r}")
    unknown = sorted(set(obj) - set(required) - set(optional))
    if unknown:
        raise ValueError(f"{where}: unknown key {unknown[0]!r} "
                         f"(known: {', '.join([*required, *optional]) or 'none'})")
    return obj


# ---------------------------------------------------------------------------
# Spectral core on raw (..., d, d) stacks.  Inputs are certified once where
# they enter the library; these kernels trust them and re-check nothing but
# the eigensolver, so one decomposition serves every function of a matrix.

# Spectral values up to max/4 keep U diag(f) U* (entries bounded by the
# largest |f|, as U is unitary) and its symmetrization finite; e^w stays below
# that bound for w up to _EXP_MAX.
_SPECTRAL_MAX = np.finfo(float).max / 4.0
_EXP_MAX = math.log(_SPECTRAL_MAX)


def _hermitian_part(M: np.ndarray) -> np.ndarray:
    """(M + M*)/2, halved before the sum so that no finite entry overflows;
    outside the subnormal range halving is exact, so these are the bits of
    halving the sum."""
    H = M / 2.0
    return H + np.swapaxes(H.conj(), -1, -2)


def _certify(arr: np.ndarray) -> np.ndarray:
    """Hermitian part of a stack whose asymmetry is within HERMITICITY_RTOL.

    Raises :class:`HermiticityError` for the first matrix of the stack whose
    max |A - A*| exceeds ``HERMITICITY_RTOL * max|entry|`` or has a
    non-finite entry, and ``ValueError`` for one whose entries are finite but
    one of whose moduli overflows (no tolerance can be formed for it).
    """
    scale = np.abs(arr).max(axis=(-2, -1))
    with np.errstate(over="ignore", invalid="ignore"):  # inf - inf: rejected below as NaN
        asym = np.abs(arr - np.swapaxes(arr.conj(), -1, -2)).max(axis=(-2, -1))
    tol = HERMITICITY_RTOL * scale
    # NaN catches non-finite entries, except an inf whose mirror is finite (inf <= inf)
    bad = ~(asym <= tol) | np.isinf(scale)
    if bad.any():
        i = int(np.argmax(bad))
        A = arr.reshape(-1, *arr.shape[-2:])[i]
        if np.isinf(np.ravel(scale)[i]) and np.isfinite(A).all():
            z = A.flat[int(np.argmax(np.isinf(np.abs(A))))]
            raise ValueError(f"matrix entry {z} has a modulus above the float range")
        raise HermiticityError(np.ravel(asym)[i], np.ravel(tol)[i])
    return _hermitian_part(arr)


def _spectral(U: np.ndarray, f: np.ndarray) -> np.ndarray:
    """U diag(f) U* over a stack; f holds real values per eigenvalue."""
    return (U * f[..., None, :]) @ np.swapaxes(U.conj(), -1, -2)


def _decompose(M: np.ndarray) -> tuple[np.ndarray, np.ndarray]:
    """Ascending eigenvalues and eigenvectors of a Hermitian stack.

    Raises ``ArithmeticError`` if a matrix fails the reconstruction bound
    ``|U diag(w) U* - A| <= RECONSTRUCTION_RTOL * d * max|w|``.
    """
    w, U = np.linalg.eigh(M)
    err = np.abs(_spectral(U, w) - M).max(axis=(-2, -1))
    # RTOL * d first, so that the bound is finite for every finite spectrum
    bound = (RECONSTRUCTION_RTOL * M.shape[-1]) * np.maximum(1e-300, np.abs(w).max(axis=-1))
    bad = err > bound
    if bad.any():
        i = int(np.argmax(bad))
        raise ArithmeticError(f"spectral reconstruction error {np.ravel(err)[i]:.3e} "
                              f"exceeds {np.ravel(bound)[i]:.3e}")
    return w, U


def _exp(w: np.ndarray, U: np.ndarray) -> np.ndarray:
    """exp of a decomposed stack; an eigenvalue whose exp would overflow is an error."""
    over = ~(w <= _EXP_MAX)  # also catches NaN
    if over.any():
        raise SpectralDomainError(w[over][0], "matrix exponential overflows")
    return _hermitian_part(_spectral(U, np.exp(w)))


def _positive_part(w: np.ndarray, U: np.ndarray) -> np.ndarray:
    """Positive part of a decomposed stack; ``(-w, U)`` gives the negative part."""
    return _hermitian_part(_spectral(U, np.clip(w, 0.0, None)))


def _psd_powers(w: np.ndarray, U: np.ndarray, ps) -> np.ndarray:
    """M_i^{p_i} over a decomposed PSD stack, eigenvalues clipped at the PSD boundary.

    Each row is raised to its Python float exponent on its own: numpy gives
    some scalar exponents a fast path (0.5 is a square root) whose last bits
    differ from a broadcast exponent array.
    """
    base = np.clip(w, 0.0, None)
    return _spectral(U, np.stack([row ** float(p) for row, p in zip(base, ps)]))


def _trace(X: np.ndarray, Y: np.ndarray) -> np.ndarray:
    """Real parts of Tr(X Y) over a stack, without forming X @ Y (traces of
    Hermitian products are real)."""
    return np.einsum("...ij,...ji->...", X, Y).real


def _spectral_norm(M: np.ndarray) -> float:
    """Largest |eigenvalue| of the Hermitian part over a stack of matrices."""
    return float(np.abs(np.linalg.eigvalsh(_hermitian_part(M))).max())


def _lambda_max_against(stack: np.ndarray, t_grid) -> np.ndarray:
    """lambda_max of each matrix of a Hermitian (..., d, d) stack, exact on
    the side of every grid point: ``lam >= t`` holds just where it holds for
    ``np.linalg.eigvalsh(stack)[..., -1]``, for each t in ``t_grid``.

    Reads what LAPACK reads: the lower triangle and the real part of the
    diagonal.  For d = 2 the closed form (a + d)/2 + hypot((a - d)/2, |b|),
    with a, d the real diagonal and b = A[1, 0], decides every matrix whose
    value lies more than a margin from each grid point; only the others are
    confirmed by ``eigvalsh``, whose value they then take.

    The margin is 2^-30 (|a| + |d| + |b|) + 2^-1000.  The closed form makes
    a handful of roundings, each of at most an ulp of a value no larger than
    |a| + |d| + |b|, so it is within a few eps (|a| + |d| + |b|) of the exact
    lambda_max; LAPACK's computed eigenvalues are within p(n) eps ||A||_2 of
    the exact ones, p(n) a modest function of n (LAPACK Users' Guide,
    section 4.7), and ||A||_2 <= |a| + |d| + |b|.  The two values therefore
    differ by far less than the relative term, and a value decided by the
    closed form lies on the same side of each t as LAPACK's.  The absolute
    term sends every matrix near the subnormal range, where halving rounds,
    to ``eigvalsh``.  A row is near t when ``not (|lam - t| > margin)``, and
    a lambda_max that overflows is near every t.  For d != 2 every matrix
    goes to ``eigvalsh``.  Extra memory is O(number of matrices), whatever
    the grid length.

    Raises ``ArithmeticError`` if the stack has a non-finite entry, or if a
    lambda_max is not finite (``eigvalsh`` returns NaN for one that overflows).
    """
    if not np.isfinite(stack).all():
        i = int(np.argmin(np.isfinite(stack).all(axis=(-2, -1)).ravel()))
        raise ArithmeticError(f"lambda_max undefined: matrix {i} of the stack "
                              "has a non-finite entry")
    if stack.shape[-1] != 2:
        lam = np.linalg.eigvalsh(stack)[..., -1]
    else:
        a, d = stack[..., 0, 0].real, stack[..., 1, 1].real
        with np.errstate(over="ignore", invalid="ignore"):  # an overflowed row is near
            b = np.abs(stack[..., 1, 0])
            margin = 2.0 ** -30 * (np.abs(a) + np.abs(d) + b) + 2.0 ** -1000
            a, d = a / 2.0, d / 2.0  # halved first, so that a + d cannot overflow
            # hypot(a - d, |b|) as the modulus of a complex array: numpy's complex
            # abs is a scaled hypot, as accurate and several times faster
            lam = (a + d) + np.abs(_complex(a - d, b))
            near = ~np.isfinite(lam)
            for t in np.ravel(t_grid):
                near |= ~(np.abs(lam - t) > margin)
        if near.any():
            lam[near] = np.linalg.eigvalsh(stack[near])[:, -1]
    if not np.isfinite(lam).all():
        i = int(np.argmin(np.isfinite(lam).ravel()))
        raise ArithmeticError(f"lambda_max of matrix {i} of the stack overflows")
    return lam


@dataclass(frozen=True)
class SpectralDecomposition:
    """Eigen-decomposition A = U diag(eigenvalues) U*, eigenvalues ascending."""

    eigenvalues: np.ndarray
    eigenvectors: np.ndarray

    def reconstruct(self) -> np.ndarray:
        return _spectral(self.eigenvectors, self.eigenvalues)


def spectral_decompose(A) -> SpectralDecomposition:
    """Decompose a Hermitian matrix; the reconstruction invariant is re-checked.

    Raises
    ------
    HermiticityError
        If the input is not Hermitian within tolerance.
    ArithmeticError
        If the eigensolver output fails the reconstruction bound
        ``|U diag(w) U* - A| <= RECONSTRUCTION_RTOL * d * max|w|``.
    """
    return SpectralDecomposition(*_decompose(_coerce(A).mat))


def _apply_scalar(f: Callable, evals: np.ndarray) -> np.ndarray:
    """Apply a real scalar function to eigenvalues, policing its domain.

    A value that is not finite, or above max/4 (where U diag(f) U* could
    overflow), is a :class:`SpectralDomainError`.  A vectorised f with real
    values of the eigenvalues' shape is checked as float64, the real part of
    its complex128 cast; other results go through complex128.
    """
    vals = None
    with np.errstate(all="ignore"):
        try:
            cand = np.asarray(f(evals))
            if cand.shape == evals.shape:
                vals = cand.astype(np.float64 if cand.dtype.kind in "biuf" else np.complex128)
        except (TypeError, ValueError, ZeroDivisionError, OverflowError):
            vals = None
        if vals is None:
            out = []
            for lam in evals.ravel():
                try:
                    out.append(complex(f(float(lam))))
                except (TypeError, ValueError, ZeroDivisionError, OverflowError) as exc:
                    raise SpectralDomainError(lam, str(exc)) from exc
            vals = np.asarray(out, dtype=np.complex128).reshape(evals.shape)
    real = vals.dtype == np.float64
    bounded = (np.abs(vals) <= _SPECTRAL_MAX if real else
               (np.abs(vals.real) <= _SPECTRAL_MAX) & (np.abs(vals.imag) <= _SPECTRAL_MAX))
    if not bounded.all():  # also catches inf and NaN
        bad = int(np.argmin(bounded))
        raise SpectralDomainError(np.ravel(evals)[bad], "value not finite or above max/4")
    if real:
        return vals
    imag_tol = 1e-12 * np.maximum(1.0, np.abs(vals))
    complex_out = np.abs(vals.imag) > imag_tol
    if complex_out.any():
        bad = int(np.argmax(complex_out))
        raise SpectralDomainError(np.ravel(evals)[bad], "complex value")
    return vals.real


def matrix_function(A, f: Callable) -> HermitianMatrix:
    """Spectral calculus: U diag(f(w)) U* for Hermitian A = U diag(w) U*.

    ``f`` must be defined (real and finite) on every eigenvalue of A;
    a violation raises :class:`SpectralDomainError` naming the eigenvalue.
    """
    w, U = _decompose(_coerce(A).mat)
    return HermitianMatrix(_spectral(U, _apply_scalar(f, w)))


def positive_part(A) -> HermitianMatrix:
    """Spectral truncation to nonnegative eigenvalues (PSD)."""
    return HermitianMatrix(_positive_part(*_decompose(_coerce(A).mat)))


def negative_part(A) -> HermitianMatrix:
    """PSD matrix N with A = positive_part(A) - N; N = U diag(max(-w,0)) U*."""
    w, U = _decompose(_coerce(A).mat)
    return HermitianMatrix(_positive_part(-w, U))


def pos_neg_parts(A) -> tuple[HermitianMatrix, HermitianMatrix]:
    """Both spectral parts from a single decomposition (so they commute exactly)."""
    w, U = _decompose(_coerce(A).mat)
    return HermitianMatrix(_positive_part(w, U)), HermitianMatrix(_positive_part(-w, U))


@dataclass(frozen=True)
class EnsembleSpec:
    """Seeded random-matrix ensemble specification.

    kind : one of ENSEMBLE_KINDS
    dim : matrix dimension d >= 1
    scale : positive magnitude parameter
    seed : 64-bit unsigned seed; output is a deterministic function of it
    """

    kind: str
    dim: int
    scale: float = 1.0
    seed: int = 0

    def __post_init__(self):
        if self.kind not in ENSEMBLE_KINDS:
            raise ValueError(f"unknown ensemble kind {self.kind!r}")
        object.__setattr__(self, "dim", _integer("dim", self.dim))
        object.__setattr__(self, "seed", _integer("seed", self.seed))
        if self.dim < 1:
            raise ValueError("dim must be >= 1")
        if not 0 < self.scale < math.inf:
            raise ValueError(f"scale must be finite and > 0, got {self.scale!r}")
        if not 0 <= self.seed < 2**64:
            raise ValueError("seed must fit in 64 unsigned bits")


def _complex(re: np.ndarray, im: np.ndarray) -> np.ndarray:
    """The complex array re + i im, assembled in place (no 1j * im temporary)."""
    out = np.empty(re.shape, dtype=np.complex128)
    out.real, out.imag = re, im
    return out


def _gaussian_hermitian(rng, shape: tuple, scale: float) -> np.ndarray:
    M = _complex(*rng.standard_normal(size=(2, *shape)))
    return scale * (M + M.conj().swapaxes(-1, -2)) / 2.0


def _draw(kind: str, d: int, scale: float, rng: np.random.Generator, count: int,
          shared: int | None = None) -> np.ndarray:
    """(count, d, d) complex stack of uncertified draws of one kind, from one
    set of vectorized calls on ``rng``: all real then all imaginary Gaussian
    parts, a diagonal per matrix, r = max(1, d//2) rank-one terms per matrix
    (d real parts, d imaginary parts and a weight each), or all symmetric then
    all antisymmetric integer parts.  For ``commuting-pair`` the first
    ``shared`` matrices (default: all) share one random eigenbasis and each
    further one has its own; the bases are drawn first, then the spectra.
    Real and imaginary parts come from one ``rng`` call of twice the size,
    which gives the values of two calls in a row.
    """
    shape = (count, d, d)
    if kind == "gaussian-hermitian":
        return _gaussian_hermitian(rng, shape, scale)
    if kind == "diagonal":
        out = np.zeros(shape, dtype=np.complex128)
        out.reshape(count, d * d)[:, ::d + 1] = scale * rng.standard_normal(size=(count, d))
        return out
    if kind == "psd":
        X = _complex(*rng.standard_normal(size=(2, *shape))) / np.sqrt(2.0)
        return scale * (X @ X.conj().swapaxes(-1, -2)) / d
    if kind == "low-rank":
        r = max(1, d // 2)
        Z = rng.standard_normal(size=(count, r, 2 * d + 1))
        v = _complex(Z[..., :d], Z[..., d:2 * d])
        # |v|^2 as np.linalg.norm takes it for one vector: the dot of the real
        # parts plus the dot of the imaginary parts
        re, im = v.real[..., None, :], v.imag[..., None, :]
        v /= np.sqrt(re @ re.swapaxes(-1, -2) + im @ im.swapaxes(-1, -2))[..., 0]
        w = scale * Z[..., 2 * d]
        H = np.zeros(shape, dtype=np.complex128)
        for j in range(r):  # summed term by term, from zero
            H += w[:, j, None, None] * (v[:, j, :, None] * v[:, j, None, :].conj())
        return (H + H.conj().swapaxes(-1, -2)) / 2.0
    if kind == "commuting-pair":
        shared = count if shared is None else shared
        bases = np.linalg.eigh(_gaussian_hermitian(rng, (1 + count - shared, d, d), 1.0))[1]
        U = bases[np.maximum(np.arange(count) - shared + 1, 0)]
        w = scale * rng.standard_normal(size=(count, d))
        return (U * w[:, None, :]) @ U.conj().swapaxes(-1, -2)
    if kind == "integer-entry":
        m = max(1, int(round(scale)))
        S, K = rng.integers(-m, m + 1, size=(2, *shape))
        lower = np.tri(d, k=-1, dtype=bool)  # strictly below the diagonal
        K = np.where(lower.T, K, 0)
        return _complex(np.where(lower, S.swapaxes(-1, -2), S), K - K.swapaxes(-1, -2))
    raise ValueError(f"unknown ensemble kind {kind!r}")


def _trial_grid(kinds, dims, scale: float) -> tuple[tuple, tuple]:
    """The (kind, dim) grid of a seeded trial run; every cell must be a valid ensemble."""
    kinds, dims = tuple(kinds), tuple(_integer("dim", d) for d in dims)
    if not kinds or not dims:
        raise ValueError("kinds and dims must be nonempty")
    for kind in kinds:
        for dim in dims:
            EnsembleSpec(kind, dim, scale)
    return kinds, dims


def _refuse_overflow(kind: str, scale: float, draw) -> None:
    """Raise ``ArithmeticError`` naming ``kind`` and ``scale`` if ``draw`` (a stack, or
    stacks and scalars), having failed certification, holds a value that is not finite."""
    if not all(np.isfinite(part).all() for part in draw):
        raise ArithmeticError(f"{kind} draw at scale {scale!r} is not finite")


def sample_ensemble(spec: EnsembleSpec):
    """Draw from the ensemble; ``commuting-pair`` returns a pair sharing a basis."""
    count = 2 if spec.kind == "commuting-pair" else 1
    with np.errstate(over="ignore", invalid="ignore"):  # refused when certified
        X = _draw(spec.kind, spec.dim, spec.scale, np.random.default_rng(spec.seed), count)
    try:
        mats = tuple(HermitianMatrix(M) for M in X)
    except HermiticityError:
        _refuse_overflow(spec.kind, spec.scale, X)
        raise
    return mats if count == 2 else mats[0]


@functools.lru_cache(maxsize=64)
def _upper_indices(dim: int) -> tuple[np.ndarray, np.ndarray]:
    """Read-only ``np.triu_indices(dim, 1)``, built once per dim."""
    iu = np.triu_indices(dim, 1)
    for a in iu:
        a.setflags(write=False)
    return iu


def _to_params(M: np.ndarray) -> np.ndarray:
    """Real degrees of freedom of a (..., d, d) stack: diagonal, Re(upper), Im(upper)."""
    iu = _upper_indices(M.shape[-1])
    upper = M[..., iu[0], iu[1]]
    return np.concatenate([M.diagonal(axis1=-2, axis2=-1).real, upper.real, upper.imag],
                          axis=-1)


def _from_params(dim: int, params) -> np.ndarray:
    """Inverse of :func:`_to_params` over leading axes; exactly Hermitian, but only
    :func:`_hermitian_part` of it has the signed zeros that certification gives."""
    params = np.asarray(params, dtype=float)
    n_off = dim * (dim - 1) // 2
    if params.shape[-1:] != (dim + 2 * n_off,):
        raise ValueError("parameter vector has wrong length")
    mat = np.zeros(params.shape[:-1] + (dim, dim), dtype=np.complex128)
    diag = np.arange(dim)
    mat[..., diag, diag] = params[..., :dim]
    iu = _upper_indices(dim)
    upper = params[..., dim:dim + n_off] + 1j * params[..., dim + n_off:]
    mat[..., iu[0], iu[1]] = upper
    mat[..., iu[1], iu[0]] = upper.conj()
    return mat


def hermitian_to_params(A) -> np.ndarray:
    """Flatten the real degrees of freedom: diagonal, Re(upper), Im(upper)."""
    return _to_params(_coerce(A).mat)


def hermitian_from_params(dim: int, params) -> HermitianMatrix:
    """Inverse of :func:`hermitian_to_params`; re-certifies hermiticity."""
    return HermitianMatrix(_from_params(dim, params))


def matrix_to_obj(A) -> dict:
    """Structured-text form: {"dim": d, "entries": [[[re, im], ...], ...]}.

    Serializes any square complex array (the cross-square inputs are not
    Hermitian); :func:`matrix_from_obj` certifies what it reads back.
    """
    mat = np.asarray(A, dtype=np.complex128)
    if mat.ndim != 2 or mat.shape[0] != mat.shape[1]:
        raise ValueError(f"expected a square matrix, got shape {mat.shape}")
    entries = np.stack([mat.real, mat.imag], axis=-1).tolist()
    return {"dim": int(mat.shape[0]), "entries": entries}


def matrix_from_obj(obj: dict) -> HermitianMatrix:
    """Parse and validate the structured-text matrix form."""
    _object("matrix", obj, ("dim", "entries"))
    d, entries = _integer("matrix dim", obj["dim"]), obj["entries"]
    if not (isinstance(entries, list) and len(entries) == d
            and all(isinstance(row, list) and len(row) == d for row in entries)):
        raise ValueError(f"matrix entries are not a {d} x {d} array")
    if not all(isinstance(cell, list) and len(cell) == 2 and all(map(_is_real, cell))
               for row in entries for cell in row):
        raise ValueError("matrix entries: each cell must be a [re, im] pair of numbers")
    return HermitianMatrix([[complex(*cell) for cell in row] for row in entries])


def _write_bytes(path, data: bytes) -> None:
    """Make ``data`` the whole content of the file at ``path``: the one writer
    of every data file, CSV and manifest.  The file is opened with
    ``open(path, "wb")``, so an existing file is truncated to zero before the
    new bytes go in; a write interrupted part way leaves a prefix of them."""
    with open(path, "wb") as fh:
        fh.write(data)


def _write_json(path, obj) -> None:
    """Write a JSON data file: compact, sorted keys, floats for numpy scalars,
    a trailing newline."""
    _write_bytes(path, (json.dumps(obj, sort_keys=True, default=float) + "\n").encode())


def inputs_digest(matrices: Sequence, params: dict | None = None) -> str:
    """Short stable hash of matrix inputs plus scalar parameters."""
    h = hashlib.sha256()
    for M in matrices:
        arr = np.ascontiguousarray(np.asarray(M, dtype=np.complex128))
        h.update(repr(arr.shape).encode())
        h.update(arr.tobytes())
    if params:
        h.update(json.dumps(params, sort_keys=True, default=float).encode())
    return h.hexdigest()[:16]
