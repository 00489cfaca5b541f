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

import json
import math
from dataclasses import dataclass
from typing import Callable

import numpy as np

from .coupling import MatrixObservable, _observable_values
from .dobrushin import DiscreteModel, EnumerationCapError, site_neighbours
from .hermitian import (
    ENSEMBLE_KINDS,
    EnsembleSpec,
    HermitianMatrix,
    SpectralDomainError,
    _apply_scalar,
    _coerce,
    _decompose,
    _exp,
    _hermitian_part,
    _positive_part,
    _spectral,
    _trace,
    hermitian_from_params,
    hermitian_to_params,
    inputs_digest,
    matrix_to_obj,
    positive_part,
    sample_ensemble,
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


def _certified_triple(A, B, C) -> np.ndarray:
    """Certified A, B, C and D = A - B as one (4, d, d) stack.

    The difference of two certified matrices is its own Hermitian part, bit
    for bit, so D needs no certification of its own.
    """
    A, B, C = _coerce(A), _coerce(B), _coerce(C)
    if not A.dim == B.dim == C.dim:
        raise ValueError("dimension mismatch")
    return np.stack([A.mat, B.mat, C.mat, A.mat - B.mat])


def _split_gap(M: np.ndarray, w: np.ndarray, U: np.ndarray, fAB: np.ndarray,
               fpAB: np.ndarray) -> tuple[float, float]:
    """(lhs, rhs) of a split-part bound from the decomposed stack (A, B, C, D).

    The weights are (C+^2 + D+^2)/2 on f'(A) and (C-^2 + D-^2)/2 on f'(B),
    with the parts of C and D taken from their single decompositions.
    """
    Cp, Dp = _positive_part(w[2:], U[2:])
    Cm, Dm = _positive_part(-w[2:], U[2:])
    w_pos = (Cp @ Cp + Dp @ Dp) / 2.0
    w_neg = (Cm @ Cm + Dm @ Dm) / 2.0
    lhs = float(_trace(M[2] @ (fAB[0] - fAB[1])))
    rhs = float(_trace(w_pos @ fpAB[0]) + _trace(w_neg @ fpAB[1]))
    return lhs, rhs


def gap_conjecture_exp(A, B, C, seed=None) -> TraceGapReport:
    """Split-part exponential trace bound; gap >= 0 means the instance holds."""
    M = _certified_triple(A, B, C)
    w, U = _decompose(M)
    eAB = _exp(w[:2], U[:2])
    lhs, rhs = _split_gap(M, w, U, eAB, eAB)
    params = {"anchor": _anchor(lhs, rhs)}
    digest = inputs_digest(M[:3])
    return TraceGapReport("expconj", lhs, rhs, rhs - lhs, digest, seed, params)


def gap_conjecture_f(A, B, C, entry: ConvexCatalogEntry, seed=None) -> TraceGapReport:
    """Split-part bound for a monotone convex f with spectra inside its domain."""
    M = _certified_triple(A, B, C)
    w, U = _decompose(M)
    lo, hi = entry.domain
    for label, evals in zip("AB", w[:2]):
        tol = 1e-12 * max(1.0, float(np.abs(evals).max()))
        if evals[0] < lo - tol or evals[-1] > hi + tol:
            bad = evals[0] if evals[0] < lo - tol else evals[-1]
            raise SpectralDomainError(bad, f"eigenvalue of {label} outside domain of {entry.name}")
    fAB = _hermitian_part(_spectral(U[:2], _apply_scalar(entry.f, w[:2])))
    fpAB = _hermitian_part(_spectral(U[:2], _apply_scalar(entry.f_prime, w[:2])))
    lhs, rhs = _split_gap(M, w, U, fAB, fpAB)
    params = {"anchor": _anchor(lhs, rhs), "entry": entry.name}
    digest = inputs_digest(M[:3], {"entry": entry.name})
    return TraceGapReport(f"fconj:{entry.name}", lhs, rhs, rhs - lhs, digest, seed, params)


def scalar_gap_exp(a, b, c) -> float:
    """Scalar reduction of the exponential conjecture, summed over tuples.

    For commuting inputs the matrix gap equals this sum over joint eigenvalue
    triples in the shared basis.
    """
    a = np.asarray(a, dtype=float)
    b = np.asarray(b, dtype=float)
    c = np.asarray(c, dtype=float)
    lhs = c * (np.exp(a) - np.exp(b))
    d = a - b
    rhs = ((np.clip(c, 0, None) ** 2 + np.clip(d, 0, None) ** 2) / 2.0) * np.exp(a) \
        + ((np.clip(-c, 0, None) ** 2 + np.clip(-d, 0, None) ** 2) / 2.0) * np.exp(b)
    return float(np.sum(rhs - lhs))


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
        evals, vecs = np.linalg.eigh(_hermitian_part(H_all[:, None] - H_all[variants]))
        inc_slack = min(inc_slack, 1.0 - float(evals[..., -1].max()))
        pos = _spectral(vecs, np.clip(evals, 0.0, None))
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


def _certified_error(dim: int, anchor: float) -> float:
    # conservative double-precision evaluation error for spectral trace gaps
    return 1e-10 * dim * anchor


def _commuting_triple(dim: int, scale: float, seed: int):
    rng = np.random.default_rng(int(seed))
    M = rng.normal(size=(dim, dim)) + 1j * rng.normal(size=(dim, dim))
    basis = np.linalg.eigh((M + M.conj().T) / 2.0)[1]
    mats = []
    for _ in range(3):
        w = scale * rng.normal(size=dim)
        mats.append(HermitianMatrix((basis * w) @ basis.conj().T))
    return tuple(mats)


def _search_eval(inequality_id: str, entry, A, B, C, seed=None) -> TraceGapReport:
    if inequality_id == "expconj":
        return gap_conjecture_exp(A, B, C, seed=seed)
    if inequality_id == "fconj":
        return gap_conjecture_f(A, B, C, entry, seed=seed)
    raise ValueError(f"unknown conjecture id {inequality_id!r}")


def _random_instance(inequality_id, entry, kind, dim, scale, rng):
    def subseed():
        return int(rng.integers(0, 2**63, dtype=np.int64))

    if kind == "commuting-pair":
        A, B, C = _commuting_triple(dim, scale, subseed())
    else:
        draws = []
        for _ in range(3):
            out = sample_ensemble(EnsembleSpec(kind, dim, scale, subseed()))
            draws.append(out[0] if isinstance(out, tuple) else out)
        A, B, C = draws
    if inequality_id == "fconj" and entry.domain[0] > -math.inf:
        A, B = positive_part(A), positive_part(B)
    return A, B, C


def counterexample_search(inequality_id: str, dims, budget: int, seed: int,
                          scale: float = 1.0, entry: ConvexCatalogEntry | None = None,
                          descent_budget: int | None = None) -> SearchResult:
    """Two-phase gap minimization: seeded random sampling, then coordinate descent.

    Phase one spends ``budget`` evaluations cycling over all ensemble kinds and
    requested dimensions.  Phase two perturbs the Hermitian degrees of freedom
    of the worst instance coordinate by coordinate with halving step sizes,
    re-certifying hermiticity at every candidate, until stationarity or the
    descent budget runs out.  Fully reproducible from the seed.
    """
    if budget < 1:
        raise ValueError("budget must be >= 1")
    if inequality_id == "fconj" and entry is None:
        raise ValueError("fconj search needs a catalog entry")
    dims = tuple(int(d) for d in dims)
    if not dims:
        raise ValueError("dims must be nonempty")
    descent_budget = budget if descent_budget is None else int(descent_budget)

    best = None  # (norm_gap, report, (A, B, C))
    for t in range(budget):
        rng = np.random.default_rng(np.random.SeedSequence(entropy=int(seed), spawn_key=(t,)))
        kind = ENSEMBLE_KINDS[t % len(ENSEMBLE_KINDS)]
        dim = dims[(t // len(ENSEMBLE_KINDS)) % len(dims)]
        A, B, C = _random_instance(inequality_id, entry, kind, dim, scale, rng)
        rep = _search_eval(inequality_id, entry, A, B, C, seed=t)
        norm_gap = rep.gap / rep.params["anchor"]
        if best is None or norm_gap < best[0]:
            best = (norm_gap, rep, (A, B, C))
    best_random = best[0]

    # coordinate-wise perturbation descent from the worst random instance
    A, B, C = best[2]
    dim = A.dim
    current = np.concatenate([hermitian_to_params(M) for M in (A, B, C)])
    block = current.size // 3

    def rebuild(vec):
        mats = [hermitian_from_params(dim, vec[k * block:(k + 1) * block]) for k in range(3)]
        if inequality_id == "fconj" and entry.domain[0] > -math.inf:
            mats[0], mats[1] = positive_part(mats[0]), positive_part(mats[1])
        return mats

    def evaluate(vec):
        A2, B2, C2 = rebuild(vec)
        rep = _search_eval(inequality_id, entry, A2, B2, C2)
        return rep.gap / rep.params["anchor"], rep, (A2, B2, C2)

    evals_used = 0
    sweeps = 0
    step = 0.25 * scale
    if descent_budget > 0:
        base_norm, base_rep, base_mats = evaluate(current)
        evals_used += 1
        if base_norm < best[0]:
            best = (base_norm, base_rep, base_mats)
        while step >= 1e-6 * scale and evals_used < descent_budget:
            improved = False
            for idx in range(current.size):
                if evals_used >= descent_budget:
                    break
                for sign in (1.0, -1.0):
                    if evals_used >= descent_budget:
                        break
                    cand = current.copy()
                    cand[idx] += sign * step
                    norm_gap, rep, mats = evaluate(cand)
                    evals_used += 1
                    if norm_gap < best[0]:
                        best = (norm_gap, rep, mats)
                        current = cand
                        improved = True
                        break
            sweeps += 1
            if not improved:
                step /= 2.0

    norm_gap, rep, mats = best
    err = _certified_error(mats[0].dim, rep.params["anchor"])
    verdict = "counterexample-candidate" if rep.gap < -err else "supported"
    witness = {
        "A": matrix_to_obj(mats[0]),
        "B": matrix_to_obj(mats[1]),
        "C": matrix_to_obj(mats[2]),
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
    ineq_label = rep.inequality_id
    return SearchResult(ineq_label, verdict, float(rep.gap), float(norm_gap),
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
    with open(path, "w") as fh:
        json.dump(search_result_to_obj(result), fh, sort_keys=True, indent=2, default=float)
        fh.write("\n")
