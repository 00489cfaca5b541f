"""Evidence gathering for the conjectured split-part trace inequalities.

Evaluates the conjectured bounds that split the quadratic weights by spectral
sign (positive parts weighting e^A / f'(A), negative parts weighting
e^B / f'(B)), generalizes them over a catalog of monotone convex functions,
and searches for counterexamples by seeded random sampling followed by
coordinate-descent gap minimization.

A counterexample verdict requires the gap to be more negative than a
certified evaluation-error bound, so float noise is never reported as a
refutation.
"""

from __future__ import annotations

import functools
import math
from dataclasses import dataclass
from typing import Callable, NamedTuple

import numpy as np

from .hermitian import (
    ENSEMBLE_KINDS,
    SpectralDomainError,
    _apply_scalar,
    _certify,
    _decompose,
    _draw,
    _from_params,
    _hermitian_part,
    _integer,
    _positive_part,
    _spectral,
    _to_params,
    _trace,
    _trial_grid,
    _write_json,
    matrix_to_obj,
)
from .traceineq import TraceGapReport, _certified, _Gaps, _gaps_in_order, _trials_in_order


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
    except (KeyError, TypeError):
        raise ValueError(f"unknown catalog entry {name!r}") from None


def _split_gap(inequality_id: str, entry: ConvexCatalogEntry, X: np.ndarray,
               AB: tuple[np.ndarray, np.ndarray] | None = None) -> _Gaps:
    """Gaps of the split-part bound for ``entry`` on a certified (N, 3, d, d)
    stack of (A, B, C) instances, labelled ``expconj`` (digesting A, B, C
    alone) or ``fconj:<entry>`` (digesting the entry too).

    One ``_decompose`` call on (A, B, C, D = A - B) gives the eigenpairs
    (``eigh`` decomposes a stack one matrix at a time: those of separate
    calls, bit for bit); given the (A, B) eigenpairs ``AB = (w, U)``, only
    (C, D) is decomposed.  D is its own Hermitian part bit for bit.  The
    (A, B) eigenpairs give f(A), f(B), f'(A) and f'(B), and the (C, D)
    eigenpairs the spectral parts of C and D; the weights are
    (C+^2 + D+^2)/2 on f'(A) and (C-^2 + D-^2)/2 on f'(B).  Spectra of A, B
    outside the entry's domain, f or f' values that could overflow, and a
    lhs or rhs that is not finite (as a (C, D) eigenpair that is not finite,
    decomposed without warnings, makes the rhs) raise
    :class:`SpectralDomainError` for the first such instance, in that order;
    the eigenvalue it names is the one of largest modulus.  Each instance's
    values are the bits of a stack of one.
    """
    with np.errstate(over="ignore", invalid="ignore"):  # refused below instead
        D = X[:, :1] - X[:, 1:2]
        if AB is None:
            w, U = _decompose(np.concatenate([X, D], axis=1))
            AB, CD = (w[:, :2], U[:, :2]), (w[:, 2:], U[:, 2:])
        else:
            CD = _decompose(np.concatenate([X[:, 2:], D], axis=1))
    (wAB, UAB), (wCD, UCD) = AB, CD
    lo, hi = entry.domain
    tol = 1e-12 * np.maximum(1.0, np.abs(wAB).max(axis=-1))
    below = wAB[..., 0] < lo - tol
    outside = below | (wAB[..., -1] > hi + tol)
    if outside.any():
        i, k = np.unravel_index(int(np.argmax(outside)), outside.shape)
        bad = wAB[i, k, 0] if below[i, k] else wAB[i, k, -1]
        raise SpectralDomainError(bad, f"eigenvalue of {'AB'[k]} outside domain of {entry.name}")
    f = _apply_scalar(entry.f, wAB)
    fp = f if entry.f_prime is entry.f else _apply_scalar(entry.f_prime, wAB)
    # f(A), f(B), f'(A), f'(B), C+, D+, C-, D- from one stacked product
    vals = np.concatenate([f, fp, np.clip(wCD, 0.0, None), np.clip(-wCD, 0.0, None)], axis=1)
    S = _hermitian_part(_spectral(np.concatenate([UAB, UAB, UCD, UCD], axis=1), vals))
    with np.errstate(over="ignore", invalid="ignore"):  # refused below instead
        sq = S[:, 4:] @ S[:, 4:]
        w_pos = (sq[:, 0] + sq[:, 1]) / 2.0
        w_neg = (sq[:, 2] + sq[:, 3]) / 2.0
        lhs = _trace(X[:, 2], S[:, 0] - S[:, 1])
        rhs = _trace(w_pos, S[:, 2]) + _trace(w_neg, S[:, 3])
        gap = rhs - lhs  # may round to inf, as a float would
    bad = ~(np.isfinite(lhs) & np.isfinite(rhs))
    if bad.any():
        wi = np.concatenate([wAB, wCD], axis=1)[int(np.argmax(bad))]
        raise SpectralDomainError(wi.flat[int(np.abs(wi).argmax())], "split-part bound not finite")
    label, params = (("expconj", {}) if inequality_id == "expconj"
                     else (f"fconj:{entry.name}", {"entry": entry.name}))
    return _Gaps(label, lhs, rhs, gap, dict(zip("ABC", X.swapaxes(0, 1))), [params] * len(X))


def _gap_of_one(inequality_id: str, mats, entry: ConvexCatalogEntry) -> TraceGapReport:
    """Report of the split-part kernel on a stack of one certified (A, B, C)."""
    return _split_gap(inequality_id, entry, np.stack(_certified(*mats), axis=1)).report(0)


def gap_conjecture_exp(A, B, C) -> TraceGapReport:
    """Split-part exponential trace bound; gap >= 0 means the instance holds.

    The ``CATALOG["exp"]`` case of :func:`gap_conjecture_f`, labelled ``expconj``.
    """
    return _gap_of_one("expconj", (A, B, C), CATALOG["exp"])


def gap_conjecture_f(A, B, C, entry: ConvexCatalogEntry) -> TraceGapReport:
    """Split-part bound for a monotone convex f with spectra inside its domain."""
    return _gap_of_one("fconj", (A, B, C), entry)


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


def _search_gaps(inequality_id: str, entry: ConvexCatalogEntry, X: np.ndarray) -> _Gaps:
    """Gaps of a certified (N, 3, d, d) stack of search instances.

    An entry whose domain is the whole line takes the instances as they
    are.  An entry whose domain has a finite lower end takes A and B as
    their positive parts: (A, B) is decomposed here, and the kernel gets the
    eigenpairs (clip(w, 0), U) that define those parts.
    """
    if entry.domain[0] == -math.inf:
        return _split_gap(inequality_id, entry, X)
    w, U = _decompose(X[:, :2])
    w = np.clip(w, 0.0, None)
    X = np.concatenate([_positive_part(w, U), X[:, 2:]], axis=1)
    return _split_gap(inequality_id, entry, X, (w, U))


class _Scan(NamedTuple):
    """Position of the coordinate-descent scan: the next candidate moves
    coordinate ``idx`` by ``_SIGNS[sign] * step``."""

    idx: int
    sign: int
    step: float
    improved: bool  # whether the current sweep has accepted a move
    sweeps: int


_SIGNS = (1.0, -1.0)
_DESCENT_BLOCKS = (8, 64)  # first and largest number of descent candidates per stack


def _end_sweep(pos: _Scan) -> _Scan:
    """Count the sweep; a sweep without an accepted move halves the step."""
    return _Scan(0, 0, pos.step if pos.improved else pos.step / 2.0, False, pos.sweeps + 1)


def _advance(pos: _Scan, n_params: int, moved: bool) -> _Scan:
    """The scan position after the candidate at ``pos``: an accepted move or
    a rejected - goes on to the next coordinate, a rejected + to the - of
    the same coordinate."""
    if moved or pos.sign == 1:
        pos = _Scan(pos.idx + 1, 0, pos.step, pos.improved or moved, pos.sweeps)
    else:
        pos = pos._replace(sign=1)
    return _end_sweep(pos) if pos.idx == n_params else pos


def counterexample_search(inequality_id: str, dims, budget: int, seed: int,
                          scale: float = 1.0, entry: ConvexCatalogEntry | None = None,
                          descent_budget: int | None = None) -> SearchResult:
    """Two-phase gap minimization: seeded random sampling, then coordinate descent.

    Phase one spends ``budget`` evaluations cycling over all ensemble kinds and
    requested dimensions.  Phase two perturbs the Hermitian degrees of freedom
    of the worst instance coordinate by coordinate with halving step sizes,
    until stationarity or the descent budget runs out.  Drawn inputs are
    certified once, as one stack per dim; descent candidates are assembled
    exactly Hermitian from their parameters.  Fully reproducible from the seed.
    fconj needs a catalog ``entry``; expconj, the exp entry's bound, takes none.

    Both phases evaluate stacks and give the bytes of an instance-by-instance
    search.  Random trials come from :func:`_trials_in_order` (the earliest
    minimum wins).  The descent evaluates the scan's next candidates,
    assuming none improves, as one stack (the first stack also holds the
    starting point), accepts the first that improves and discards the rest;
    the block doubles while nothing improves and starts over after a move.
    ``descent_evals`` and ``sweeps`` count the sequential scan, not the
    discarded candidates.  A refused instance raises the error of the first
    refusal in scan order.
    """
    if inequality_id not in ("expconj", "fconj"):
        raise ValueError(f"unknown conjecture id {inequality_id!r}")
    budget, seed = _integer("budget", budget), _integer("seed", seed)
    if budget < 1:
        raise ValueError("budget must be >= 1")
    if (inequality_id == "fconj") != (entry is not None):
        raise ValueError("fconj search needs a catalog entry" if entry is None
                         else "expconj search takes no catalog entry (it is the exp entry)")
    kinds, dims = _trial_grid(ENSEMBLE_KINDS, dims, scale)
    descent_budget = _integer("descent_budget",
                              budget if descent_budget is None else descent_budget)
    if inequality_id == "expconj":
        entry = CATALOG["exp"]
    evaluate = functools.partial(_search_gaps, inequality_id, entry)

    best = None  # (normalized gap, its _Gaps, index in them)
    for _, _, _, gaps, i in _trials_in_order(
            seed, budget, kinds, dims, scale, lambda k, d, s, rng: _draw(k, d, s, rng, 3),
            lambda draws: evaluate(_certify(np.stack(draws)))):
        if best is None or gaps.normalized(i) < best[0]:
            best = gaps.normalized(i), gaps, i
    best_random = best[0]

    # coordinate-wise perturbation descent from the worst random instance
    dim = best[1].inputs["A"].shape[-1]
    current = _to_params(np.stack([M[best[2]] for M in best[1].inputs.values()])).ravel()
    floor = 1e-6 * scale
    pos = _Scan(0, 0, 0.25 * scale, False, 0)
    size = _DESCENT_BLOCKS[0]
    with_base = descent_budget > 0  # the first stack evaluates the starting point too
    evals_used = int(with_base)
    while with_base or (evals_used < descent_budget and pos.step >= floor):
        ahead = []  # the next scan positions if no candidate improves
        after = pos
        while len(ahead) < min(size, descent_budget - evals_used) and after.step >= floor:
            ahead.append(after)
            after = _advance(after, current.size, False)
        V = np.repeat(current[None], with_base + len(ahead), axis=0)
        for row, p in enumerate(ahead, start=with_base):
            V[row, p.idx] += _SIGNS[p.sign] * p.step
        # the symmetrization that certification applies, without its check
        X = _hermitian_part(_from_params(dim, V.reshape(len(V), 3, -1)))
        stack = _gaps_in_order(evaluate, X)
        if with_base:
            gaps, i = next(stack)
            if gaps.normalized(i) < best[0]:
                best = gaps.normalized(i), gaps, i
        for k, (gaps, i) in enumerate(stack):
            if gaps.normalized(i) < best[0]:
                best, current = (gaps.normalized(i), gaps, i), V[with_base + k]
                pos, size = _advance(ahead[k], current.size, True), _DESCENT_BLOCKS[0]
                evals_used += k + 1
                break
        else:
            pos, size = after, min(2 * size, _DESCENT_BLOCKS[1])
            evals_used += len(ahead)
        with_base = False
    if pos.idx or pos.sign:  # the budget ran out mid-sweep
        pos = _end_sweep(pos)

    norm_gap, gaps, i = best
    rep = gaps.report(i)
    err = 1e-10 * dim * rep.params["anchor"]  # conservative evaluation-error bound
    verdict = "counterexample-candidate" if rep.gap < -err else "supported"
    witness = {name: matrix_to_obj(M[i]) for name, M in gaps.inputs.items()}
    witness.update(gap=rep.gap, lhs=rep.lhs, rhs=rep.rhs, params=rep.params,
                   inputs_digest=rep.inputs_digest)
    trajectory = {
        "random_evals": budget,
        "descent_evals": evals_used,
        "best_random_gap_normalized": best_random,
        "best_final_gap_normalized": norm_gap,
        "sweeps": pos.sweeps,
        "final_step": pos.step,
    }
    return SearchResult(rep.inequality_id, verdict, rep.gap, norm_gap, err, witness,
                        trajectory, dims, budget, seed)


def save_search_result(path, result: SearchResult) -> None:
    _write_json(path, vars(result))
