"""Certified dense Hermitian matrices and their spectral calculus.

Construction validates hermiticity once; everything downstream (spectral
functions, Loewner-order tests, traces) can then rely on real spectra.
All operations are pure functions of immutable inputs and are safe to
share across parallel workers.
"""

from __future__ import annotations

import hashlib
import json
import math
from dataclasses import dataclass
from typing import Callable, NamedTuple, Sequence

import numpy as np

HERMITICITY_RTOL = 1e-12     # asymmetry tolerance, relative to max |entry|
RECONSTRUCTION_RTOL = 1e-10  # U diag(w) U* accuracy, relative to d * max |w|
TRACE_IMAG_RTOL = 1e-10      # imaginary residue allowed when extracting a real trace

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


class SpectralDomainError(ValueError):
    """Raised when a scalar function is undefined at an eigenvalue."""

    def __init__(self, eigenvalue: float, detail: str = ""):
        self.eigenvalue = float(eigenvalue)
        msg = f"scalar function undefined at eigenvalue {self.eigenvalue!r}"
        if detail:
            msg += f" ({detail})"
        super().__init__(msg)


class LoewnerCheck(NamedTuple):
    """Outcome of a semidefinite-order test; min_eigenvalue certifies failures."""

    holds: bool
    min_eigenvalue: float


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
    return (M + np.swapaxes(M.conj(), -1, -2)) / 2.0


def _certify(arr: np.ndarray) -> np.ndarray:
    """Hermitian part of a stack whose asymmetry is within HERMITICITY_RTOL.

    Raises :class:`HermiticityError` for the first matrix of the stack whose
    max |A - A*| exceeds ``HERMITICITY_RTOL * max|entry|`` or has a
    non-finite entry.
    """
    scale = np.abs(arr).max(axis=(-2, -1))
    with np.errstate(invalid="ignore"):  # inf - inf: rejected below as NaN
        asym = np.abs(arr - np.swapaxes(arr.conj(), -1, -2)).max(axis=(-2, -1))
    tol = HERMITICITY_RTOL * scale
    bad = ~(asym <= tol)  # also catches NaN, so non-finite entries are rejected
    if bad.any():
        i = int(np.argmax(bad))
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
    bound = RECONSTRUCTION_RTOL * (M.shape[-1] * np.maximum(1e-300, np.abs(w).max(axis=-1)))
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
    differ from a broadcast exponent array.  A negative eigenvalue beyond
    rounding is an error.
    """
    tol = 1e-10 * np.maximum(1.0, np.abs(w).max(axis=-1))
    bad = w[:, 0] < -tol
    if bad.any():
        raise ValueError(f"negative eigenvalue {w[bad][0, 0]:.6e} in fractional power base")
    base = np.clip(w, 0.0, None)
    return _spectral(U, np.stack([row ** float(p) for row, p in zip(base, ps)]))


def _trace(M: np.ndarray) -> np.ndarray:
    """Real parts of the traces of a stack (traces of Hermitian products are real)."""
    return np.trace(M, axis1=-2, axis2=-1).real


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
    overflow), is a :class:`SpectralDomainError`.
    """
    vals = None
    with np.errstate(all="ignore"):
        try:
            cand = np.asarray(f(evals))
            if cand.shape == evals.shape:
                vals = cand.astype(np.complex128)
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
    bounded = (np.abs(vals.real) <= _SPECTRAL_MAX) & (np.abs(vals.imag) <= _SPECTRAL_MAX)
    if not bounded.all():  # also catches inf and NaN
        bad = int(np.argmin(bounded))
        raise SpectralDomainError(np.ravel(evals)[bad], "value not finite or above max/4")
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


def matrix_exp(A) -> HermitianMatrix:
    """Matrix exponential of a Hermitian matrix via spectral calculus."""
    return HermitianMatrix(_exp(*_decompose(_coerce(A).mat)))


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


def psd_order_leq(A, B, tol: float = 1e-10) -> LoewnerCheck:
    """Test A <= B in the Loewner order: holds iff lambda_min(B - A) >= -tol."""
    A, B = _coerce(A), _coerce(B)
    if A.dim != B.dim:
        raise ValueError(f"dimension mismatch: {A.dim} vs {B.dim}")
    lam_min = float(np.linalg.eigvalsh(B.mat - A.mat)[0])
    return LoewnerCheck(lam_min >= -tol, lam_min)


def spectral_norm(A) -> float:
    """Largest absolute eigenvalue."""
    A = _coerce(A)
    evals = np.linalg.eigvalsh(A.mat)
    return float(np.abs(evals).max())


def trace_real(A) -> float:
    """Real trace; imaginary residue above TRACE_IMAG_RTOL (anchored) is an error."""
    mat = np.asarray(A, dtype=np.complex128)
    tr = complex(np.trace(mat))
    anchor = max(1.0, float(np.abs(np.diagonal(mat)).sum()))
    if abs(tr.imag) > TRACE_IMAG_RTOL * anchor:
        raise ValueError(f"trace has imaginary residue {tr.imag:.3e} beyond tolerance")
    return tr.real


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
        if self.dim < 1:
            raise ValueError("dim must be >= 1")
        if not self.scale > 0:
            raise ValueError("scale must be > 0")
        if not 0 <= int(self.seed) < 2**64:
            raise ValueError("seed must fit in 64 unsigned bits")


def _gaussian_hermitian(rng, d: int, scale: float) -> np.ndarray:
    M = rng.normal(size=(d, d)) + 1j * rng.normal(size=(d, d))
    return scale * (M + M.conj().T) / 2.0


def _commuting(rng, d: int, scale: float, k: int) -> np.ndarray:
    """k uncertified matrices sharing one random eigenbasis, as a (k, d, d) stack."""
    basis = np.linalg.eigh(_gaussian_hermitian(rng, d, 1.0))[1]
    spectra = [scale * rng.normal(size=d) for _ in range(k)]
    return np.stack([(basis * w) @ basis.conj().T for w in spectra])


def _draw(kind: str, d: int, scale: float, rng: np.random.Generator):
    """One uncertified draw: an array, or a (2, d, d) stack for ``commuting-pair``."""
    if kind == "gaussian-hermitian":
        return _gaussian_hermitian(rng, d, scale)
    if kind == "diagonal":
        return np.diag(scale * rng.normal(size=d))
    if kind == "psd":
        X = (rng.normal(size=(d, d)) + 1j * rng.normal(size=(d, d))) / np.sqrt(2.0)
        return scale * (X @ X.conj().T) / d
    if kind == "low-rank":
        r = max(1, d // 2)
        H = np.zeros((d, d), dtype=np.complex128)
        for _ in range(r):
            v = rng.normal(size=d) + 1j * rng.normal(size=d)
            v /= np.linalg.norm(v)
            H += (scale * rng.normal()) * np.outer(v, v.conj())
        return (H + H.conj().T) / 2.0
    if kind == "commuting-pair":
        return _commuting(rng, d, scale, 2)
    if kind == "integer-entry":
        m = max(1, int(round(scale)))
        S = rng.integers(-m, m + 1, size=(d, d))
        K = rng.integers(-m, m + 1, size=(d, d))
        lower = np.tri(d, k=-1, dtype=bool)  # strictly below the diagonal
        real = np.where(lower, S.T, S)
        imag = np.where(lower, -K.T, np.where(lower.T, K, 0))
        return real.astype(float) + 1j * imag.astype(float)
    raise ValueError(f"unknown ensemble kind {kind!r}")


def sample_ensemble(spec: EnsembleSpec):
    """Draw from the ensemble; ``commuting-pair`` returns a pair sharing a basis."""
    out = _draw(spec.kind, spec.dim, spec.scale, np.random.default_rng(int(spec.seed)))
    if spec.kind == "commuting-pair":
        return HermitianMatrix(out[0]), HermitianMatrix(out[1])
    return HermitianMatrix(out)


def _to_params(M: np.ndarray) -> np.ndarray:
    """Real degrees of freedom of a (..., d, d) stack: diagonal, Re(upper), Im(upper)."""
    iu = np.triu_indices(M.shape[-1], 1)
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
    iu = np.triu_indices(dim, 1)
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
    entries = [[[float(z.real), float(z.imag)] for z in row] for row in mat]
    return {"dim": int(mat.shape[0]), "entries": entries}


def matrix_from_obj(obj: dict) -> HermitianMatrix:
    """Parse and validate the structured-text matrix form."""
    d = int(obj["dim"])
    entries = obj["entries"]
    if len(entries) != d or any(len(row) != d for row in entries):
        raise ValueError("entries are not a d x d array")
    arr = np.array(
        [[complex(cell[0], cell[1]) for cell in row] for row in entries],
        dtype=np.complex128,
    )
    return HermitianMatrix(arr)


def save_matrix(path, A) -> None:
    with open(path, "w") as fh:
        json.dump(matrix_to_obj(A), fh, sort_keys=True)
        fh.write("\n")


def load_matrix(path) -> HermitianMatrix:
    with open(path) as fh:
        return matrix_from_obj(json.load(fh))


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
