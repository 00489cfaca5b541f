"""Evidence gathering for the conjectured split-part trace inequalities.

Evaluates the conjectured bounds that split the quadratic weights by spectral
sign (positive parts weighting e^A / f'(A), negative parts weighting
e^B / f'(B)), generalizes them over a catalog of monotone convex functions,
checks the matrix self-bounding conditions exhaustively on discrete models,
and searches for counterexamples by seeded random sampling followed by
coordinate-descent gap minimization.

A counterexample verdict requires the gap to be more negative than a
certified evaluation-error bound, so float noise is never reported as a
refutation.
"""

from __future__ import annotations

import math
from dataclasses import dataclass
from typing import Callable

import numpy as np

from .coupling import MatrixObservable, _observable_values
from .dobrushin import DiscreteModel, EnumerationCapError, site_neighbours
from .hermitian import (
    ENSEMBLE_KINDS,
    HermitianMatrix,
    SpectralDomainError,
    _apply_scalar,
    _certify,
    _coerce_all,
    _commuting,
    _decompose,
    _draw,
    _from_params,
    _hermitian_part,
    _positive_part,
    _spectral,
    _sub_rng,
    _to_params,
    _trace,
    _trial,
    _trial_grid,
    _write_json,
    inputs_digest,
    matrix_to_obj,
)
from .traceineq import TraceGapReport, _anchor


@dataclass(frozen=True)
class ConvexCatalogEntry:
    """A monotone increasing convex function with a closed-form derivative."""

    name: str
    f: Callable
    f_prime: Callable
    domain: tuple[float, float]


CATALOG: dict[str, ConvexCatalogEntry] = {
    "exp": ConvexCatalogEntry("exp", np.exp, np.exp, (-math.inf, math.inf)),
    "square": ConvexCatalogEntry("square", lambda x: x ** 2, lambda x: 2.0 * x, (0.0, math.inf)),
    "cube": ConvexCatalogEntry("cube", lambda x: x ** 3, lambda x: 3.0 * x ** 2, (0.0, math.inf)),
    "quartic": ConvexCatalogEntry("quartic", lambda x: x ** 4, lambda x: 4.0 * x ** 3, (0.0, math.inf)),
}


def catalog_entry(name: str) -> ConvexCatalogEntry:
    try:
        return CATALOG[name]
    except KeyError:
        raise ValueError(f"unknown catalog entry {name!r}") from None


def _split_gap(X: np.ndarray, entry: ConvexCatalogEntry) -> tuple[float, float]:
    """(lhs, rhs) of the split-part bound for ``entry`` on the certified stack (A, B, C).

    One decomposition of (A, B, C, D = A - B) gives f(A), f(B), f'(A), f'(B)
    and the spectral parts of C and D; the weights are (C+^2 + D+^2)/2 on
    f'(A) and (C-^2 + D-^2)/2 on f'(B).  The difference of two certified
    matrices is its own Hermitian part, bit for bit, so D needs no
    certification.  Spectra of A, B outside the entry's domain, f or f'
    values that could overflow, and a lhs or rhs that is not finite raise
    :class:`SpectralDomainError`; the eigenvalue it names is the one of
    largest modulus.
    """
    M = np.concatenate([X, X[:1] - X[1:2]])
    w, U = _decompose(M)
    lo, hi = entry.domain
    for label, evals in zip("AB", w[:2]):
        tol = 1e-12 * max(1.0, float(np.abs(evals).max()))
        if evals[0] < lo - tol or evals[-1] > hi + tol:
            bad = evals[0] if evals[0] < lo - tol else evals[-1]
            raise SpectralDomainError(bad, f"eigenvalue of {label} outside domain of {entry.name}")
    fAB = _hermitian_part(_spectral(U[:2], _apply_scalar(entry.f, w[:2])))
    fpAB = _hermitian_part(_spectral(U[:2], _apply_scalar(entry.f_prime, w[:2])))
    Cp, Dp = _positive_part(w[2:], U[2:])
    Cm, Dm = _positive_part(-w[2:], U[2:])
    with np.errstate(over="ignore", invalid="ignore"):  # refused below instead
        w_pos = (Cp @ Cp + Dp @ Dp) / 2.0
        w_neg = (Cm @ Cm + Dm @ Dm) / 2.0
        lhs = float(_trace(M[2] @ (fAB[0] - fAB[1])))
        rhs = float(_trace(w_pos @ fpAB[0]) + _trace(w_neg @ fpAB[1]))
    if not (math.isfinite(lhs) and math.isfinite(rhs)):
        big = w.flat[int(np.abs(w).argmax())]
        raise SpectralDomainError(big, "split-part bound not finite")
    return lhs, rhs


def _report(inequality_id: str, entry: ConvexCatalogEntry, X: np.ndarray, lhs: float,
            rhs: float, seed=None) -> TraceGapReport:
    """Label an evaluated stack: ``expconj`` digests A, B, C alone, ``fconj`` adds the entry."""
    extra = {} if inequality_id == "expconj" else {"entry": entry.name}
    label = inequality_id if inequality_id == "expconj" else f"fconj:{entry.name}"
    return TraceGapReport(label, lhs, rhs, rhs - lhs, inputs_digest(X, extra), seed,
                          {"anchor": _anchor(lhs, rhs), **extra})


def gap_conjecture_exp(A, B, C, seed=None) -> TraceGapReport:
    """Split-part exponential trace bound; gap >= 0 means the instance holds.

    The ``CATALOG["exp"]`` case of :func:`gap_conjecture_f`, labelled ``expconj``.
    """
    X = np.stack([M.mat for M in _coerce_all((A, B, C))])
    return _report("expconj", CATALOG["exp"], X, *_split_gap(X, CATALOG["exp"]), seed)


def gap_conjecture_f(A, B, C, entry: ConvexCatalogEntry, seed=None) -> TraceGapReport:
    """Split-part bound for a monotone convex f with spectra inside its domain."""
    X = np.stack([M.mat for M in _coerce_all((A, B, C))])
    return _report("fconj", entry, X, *_split_gap(X, entry), seed)


def scalar_gap_f(a, b, c, entry: ConvexCatalogEntry) -> float:
    """Scalar reduction of the general-f conjecture over eigenvalue tuples."""
    a = np.asarray(a, dtype=float)
    b = np.asarray(b, dtype=float)
    c = np.asarray(c, dtype=float)
    lhs = c * (entry.f(a) - entry.f(b))
    d = a - b
    rhs = ((np.clip(c, 0, None) ** 2 + np.clip(d, 0, None) ** 2) / 2.0) * entry.f_prime(a) \
        + ((np.clip(-c, 0, None) ** 2 + np.clip(-d, 0, None) ** 2) / 2.0) * entry.f_prime(b)
    return float(np.sum(rhs - lhs))


def scalar_gap_exp(a, b, c) -> float:
    """Scalar reduction of the exponential conjecture: the ``CATALOG["exp"]`` case.

    For commuting inputs the matrix gap equals this sum over joint eigenvalue
    triples in the shared basis.
    """
    return scalar_gap_f(a, b, c, CATALOG["exp"])


# ---------------------------------------------------------------------------
# Matrix self-bounding definition checker

@dataclass(frozen=True)
class SelfBoundingReport:
    """Worst-case Loewner slacks of the self-bounding conditions."""

    mode: str
    a: float
    b: float
    certified: bool
    increment_slack: float | None  # min eig of I - (H(z) - H(z_i -> v)); strong only
    sum_slack: float               # min eig of aH(z) + bI - sum_i (...)
    configs_checked: int


def check_self_bounding(H: MatrixObservable, model: DiscreteModel, a: float, b: float,
                        mode: str = "strong", tol: float = 1e-9) -> SelfBoundingReport:
    """Exhaustively certify the (a, b) self-bounding conditions on a model.

    Strong mode checks every single-coordinate decrement against the identity
    and the summed positive parts against a H(z) + b I over all replacement
    vectors; weak mode checks the summed squared positive parts instead.
    """
    if mode not in ("strong", "weak"):
        raise ValueError(f"unknown mode {mode!r}")
    S, n = model.size, model.n
    if S * S > model.enum_cap:
        raise EnumerationCapError("too many configuration pairs for exhaustive check")
    d = H.dim
    H_all = _observable_values(model, H)

    # positive parts of all single-coordinate decrements, indexed [z, i, v]
    parts = np.empty((S, n, max(model.sizes), d, d), dtype=np.complex128)
    inc_slack = math.inf
    for i in range(n):
        _, variants = site_neighbours(model, i)
        evals, vecs = _decompose(_hermitian_part(H_all[:, None] - H_all[variants]))
        inc_slack = min(inc_slack, 1.0 - float(evals[..., -1].max()))
        pos = _positive_part(evals, vecs)
        parts[:, i, : model.sizes[i]] = pos @ pos if mode == "weak" else pos
    if mode == "strong" and inc_slack < -tol:
        return SelfBoundingReport(mode, a, b, False, inc_slack, math.inf, S)

    # every replacement vector z' (all S of them) against every z
    digits = np.unravel_index(np.arange(S), model.sizes)
    sum_slack = math.inf
    for s in range(S):
        total = sum(parts[s, i, digits[i]] for i in range(n))
        slack = _hermitian_part(a * H_all[s] + b * np.eye(d) - total)
        sum_slack = min(sum_slack, float(np.linalg.eigvalsh(slack)[..., 0].min()))
    certified = sum_slack >= -tol and (mode == "weak" or inc_slack >= -tol)
    return SelfBoundingReport(mode, a, b, certified,
                              inc_slack if mode == "strong" else None, sum_slack, S)


# ---------------------------------------------------------------------------
# Counterexample search

@dataclass(frozen=True)
class SearchResult:
    """Outcome of a seeded random + descent gap-minimization run."""

    inequality_id: str
    verdict: str                 # "supported" | "counterexample-candidate"
    best_gap: float
    best_gap_normalized: float
    certified_error: float
    witness: dict
    trajectory: dict
    dims: tuple
    budget: int
    seed: int


def _commuting_triple(dim: int, scale: float, seed: int):
    """Three certified matrices sharing one eigenbasis (the ``commuting-pair`` draw)."""
    return tuple(HermitianMatrix(M) for M in
                 _commuting(np.random.default_rng(int(seed)), dim, scale, 3))


def _random_instance(kind: str, dim: int, scale: float, rng) -> np.ndarray:
    """Certified (3, d, d) stack (A, B, C) of one random search instance."""
    if kind == "commuting-pair":
        X = _commuting(_sub_rng(rng), dim, scale, 3)
    else:
        X = np.stack([_draw(kind, dim, scale, _sub_rng(rng)) for _ in range(3)])
    return _certify(X.astype(np.complex128))


def counterexample_search(inequality_id: str, dims, budget: int, seed: int,
                          scale: float = 1.0, entry: ConvexCatalogEntry | None = None,
                          descent_budget: int | None = None) -> SearchResult:
    """Two-phase gap minimization: seeded random sampling, then coordinate descent.

    Phase one spends ``budget`` evaluations cycling over all ensemble kinds and
    requested dimensions.  Phase two perturbs the Hermitian degrees of freedom
    of the worst instance coordinate by coordinate with halving step sizes,
    until stationarity or the descent budget runs out.  Drawn inputs are
    certified once; descent candidates are assembled exactly Hermitian from
    their parameters.  Fully reproducible from the seed.
    """
    if inequality_id not in ("expconj", "fconj"):
        raise ValueError(f"unknown conjecture id {inequality_id!r}")
    if budget < 1:
        raise ValueError("budget must be >= 1")
    if inequality_id == "fconj" and entry is None:
        raise ValueError("fconj search needs a catalog entry")
    kinds, dims = _trial_grid(ENSEMBLE_KINDS, dims, scale)
    descent_budget = budget if descent_budget is None else int(descent_budget)
    if inequality_id == "expconj":
        entry = CATALOG["exp"]
    positive = entry.domain[0] > -math.inf  # A and B enter as their positive parts

    def evaluate(X):
        if positive:
            X = np.concatenate([_positive_part(*_decompose(X[:2])), X[2:]])
        lhs, rhs = _split_gap(X, entry)
        return (rhs - lhs) / _anchor(lhs, rhs), lhs, rhs, X

    best = None  # (norm_gap, lhs, rhs, (A, B, C))
    for t in range(budget):
        rng, kind, dim = _trial(seed, t, kinds, dims)
        cand = evaluate(_random_instance(kind, dim, scale, rng))
        if best is None or cand[0] < best[0]:
            best = cand
    best_random = best[0]

    # coordinate-wise perturbation descent from the worst random instance
    dim = best[3].shape[-1]
    current = _to_params(best[3]).ravel()

    def rebuild(vec):
        # the symmetrization that certification applies, without its check
        return _hermitian_part(_from_params(dim, vec.reshape(3, -1)))

    evals_used = 0
    sweeps = 0
    step = 0.25 * scale
    if descent_budget > 0:
        base = evaluate(rebuild(current))
        evals_used += 1
        if base[0] < best[0]:
            best = base
        while step >= 1e-6 * scale and evals_used < descent_budget:
            improved = False
            for idx in range(current.size):
                if evals_used >= descent_budget:
                    break
                for sign in (1.0, -1.0):
                    if evals_used >= descent_budget:
                        break
                    vec = current.copy()
                    vec[idx] += sign * step
                    cand = evaluate(rebuild(vec))
                    evals_used += 1
                    if cand[0] < best[0]:
                        best = cand
                        current = vec
                        improved = True
                        break
            sweeps += 1
            if not improved:
                step /= 2.0

    norm_gap, lhs, rhs, X = best
    rep = _report(inequality_id, entry, X, lhs, rhs)
    err = 1e-10 * dim * rep.params["anchor"]  # conservative evaluation-error bound
    verdict = "counterexample-candidate" if rep.gap < -err else "supported"
    witness = {
        "A": matrix_to_obj(X[0]),
        "B": matrix_to_obj(X[1]),
        "C": matrix_to_obj(X[2]),
        "gap": rep.gap,
        "lhs": rep.lhs,
        "rhs": rep.rhs,
        "params": dict(rep.params),
        "inputs_digest": rep.inputs_digest,
    }
    trajectory = {
        "random_evals": budget,
        "descent_evals": evals_used,
        "best_random_gap_normalized": best_random,
        "best_final_gap_normalized": norm_gap,
        "sweeps": sweeps,
        "final_step": step,
    }
    return SearchResult(rep.inequality_id, verdict, float(rep.gap), float(norm_gap),
                        float(err), witness, trajectory, dims, budget, int(seed))


def search_result_to_obj(result: SearchResult) -> dict:
    return {
        "inequality_id": result.inequality_id,
        "verdict": result.verdict,
        "best_gap": result.best_gap,
        "best_gap_normalized": result.best_gap_normalized,
        "certified_error": result.certified_error,
        "witness": result.witness,
        "trajectory": result.trajectory,
        "dims": list(result.dims),
        "budget": result.budget,
        "seed": result.seed,
    }


def save_search_result(path, result: SearchResult) -> None:
    _write_json(path, search_result_to_obj(result), indent=2)
