"""Signed-gap evaluation of exponential/power/Hoelder trace inequalities.

Every evaluator returns a TraceGapReport oriented so that gap >= 0 means the
inequality holds on that instance, including the reversed branch for negative
exponent scale.  A seeded fuzzer drives the evaluators over the random
ensembles and persists any violating input as a replayable witness file.
"""

from __future__ import annotations

import functools
import math
import os
from dataclasses import dataclass, field

import numpy as np

from .hermitian import (
    HermiticityError,
    _certify,
    _coerce_all,
    _decompose,
    _draw,
    _exp,
    _hermitian_part,
    _integer,
    _positive_part,
    _psd_powers,
    _refuse_overflow,
    _trace,
    _trial_grid,
    _write_json,
    inputs_digest,
    matrix_to_obj,
)

INEQUALITY_IDS = (
    "exchangeable",         # Tr(C(e^A-e^B)) <= Tr(((C^2+(A-B)^2)/2)((e^A+e^B)/2))
    "exchangeable_scaled",  # theta-scaled variant, reversed for theta < 0
    "pair_exp",             # Tr((X-X')(e^tX-e^tX')) <= (t/2)Tr((X-X')^2(e^tX+e^tX'))
    "power",                # Tr(C(A^k-B^k)) <= k Tr(((C^2+(A-B)^2)/4)(A^(k-1)+B^(k-1)))
    "symmetric_term",       # Re Tr(C(A^k(A-B)B^(n-k)+A^(n-k)(A-B)B^k)) <= Tr(((C^2+(A-B)^2)/2)(A^n+B^n))
    "holder",               # Re Tr(CA^pDB^(1-p)+CA^(1-p)DB^p) <= Tr(((C^2+D^2)/2)(A+B))
    "psd_cross",            # PQ + Q*P* <= PP* + Q*Q
    "trace_quad",           # Re Tr(PQRS) <= Tr((P^2+R^2)(Q^2+S^2))/4
)

@dataclass(frozen=True)
class TraceGapReport:
    """One evaluated inequality instance; gap is the oriented rhs/lhs difference."""

    inequality_id: str
    lhs: float
    rhs: float
    gap: float
    inputs_digest: str
    params: dict = field(default_factory=dict)


@dataclass(frozen=True)
class FuzzSummary:
    """Aggregate of a fuzzing run; min_gap is normalized by the per-trial anchor."""

    inequality_id: str
    trials: int
    min_gap: float
    min_gap_raw: float
    argmin_digest: str
    violations: int
    tolerance: float
    ensemble: dict = field(default_factory=dict)


# Overflow inside a gap evaluation is refused by _Gaps (ArithmeticError), not warned about.
_refusing_overflow = np.errstate(over="ignore", invalid="ignore")


def _certified(*mats) -> list[np.ndarray]:
    """Public inputs certified Hermitian, of one dimension, as stacks of one."""
    return [M.mat[None] for M in _coerce_all(mats)]


class _Gaps:
    """Evaluated instances of one inequality or conjecture over a stack of inputs.

    ``inputs`` maps each input name to its (n, d, d) stack, in the order the
    digest hashes them; ``params[i]`` are the scalars digested with instance
    i.  ``anchors`` defaults to max(1, |lhs|, |rhs|) per instance.  A lhs,
    rhs or given anchor that is not finite (the inputs overflowed) raises
    ``ArithmeticError``.
    """

    def __init__(self, inequality_id, lhs, rhs, gap, inputs, params, anchors=None):
        bad = ~(np.isfinite(lhs) & np.isfinite(rhs) & np.isfinite(anchors or 0.0))
        if bad.any():
            i = int(np.argmax(bad))
            raise ArithmeticError(f"{inequality_id}: lhs {np.ravel(lhs)[i]:.3e} or rhs "
                                  f"{np.ravel(rhs)[i]:.3e} (or its anchor) is not finite")
        self.inequality_id = inequality_id
        self.lhs, self.rhs, self.gap = (np.asarray(v, dtype=float).tolist()
                                        for v in (lhs, rhs, gap))
        self.inputs = inputs
        self.params = params
        self.anchors = anchors if anchors is not None else \
            [max(1.0, abs(lo), abs(hi)) for lo, hi in zip(self.lhs, self.rhs)]

    def normalized(self, i: int) -> float:
        return self.gap[i] / self.anchors[i]

    def report(self, i: int) -> TraceGapReport:
        params = dict(self.params[i])
        digest = inputs_digest([M[i] for M in self.inputs.values()], params)
        params["anchor"] = self.anchors[i]
        return TraceGapReport(self.inequality_id, self.lhs[i], self.rhs[i], self.gap[i],
                              digest, params)


def _exp_scaled(theta: np.ndarray, A: np.ndarray, B: np.ndarray):
    """(e^{theta A}, e^{theta B}) over a stack, from one decomposition of each.

    The scaled matrices are symmetrized as their certified form was, which
    may flip the sign of a zero imaginary part.
    """
    t = theta[:, None, None]
    E = _exp(*_decompose(_hermitian_part(np.concatenate([t * A, t * B]))))
    return E[:len(A)], E[len(A):]


def _matrix_powers(M: np.ndarray, exps) -> np.ndarray:
    """M[i] ** exps[i] over a stack, with the products of np.linalg.matrix_power."""
    exps = np.asarray(exps)
    out = np.empty_like(M)
    for e in np.unique(exps):
        sel = exps == e
        out[sel] = np.linalg.matrix_power(M[sel], int(e))
    return out


def _exp_difference(C, D, eA, eB, theta):
    """(lhs, rhs, gap) of Tr(C(e^tA - e^tB)) <= t Tr(((C^2 + D^2)/2)((e^tA + e^tB)/2))
    over a stack, from e^tA, e^tB and t = theta; the inequality reverses for
    theta < 0, and the gap is oriented so that gap >= 0 where it holds."""
    lhs = _trace(C, eA - eB)
    rhs = theta * _trace((C @ C + D @ D) / 2.0, (eA + eB) / 2.0)
    return lhs, rhs, np.where(theta > 0, rhs - lhs, lhs - rhs)


def _exchangeable(A, B, C) -> _Gaps:
    n = len(A)
    return _Gaps("exchangeable", *_exp_difference(C, A - B, *_exp_scaled(np.ones(n), A, B), 1.0),
                 {"A": A, "B": B, "C": C}, [{}] * n)


def _exchangeable_scaled(A, B, C, theta: np.ndarray) -> _Gaps:
    gaps = _exp_difference(C, A - B, *_exp_scaled(theta, A, B), theta)
    params = [{"theta": th, "orientation": "leq" if th > 0 else "geq"}
              for th in theta.tolist()]
    return _Gaps("exchangeable_scaled", *gaps, {"A": A, "B": B, "C": C}, params)


def _pair_exp(X, Xp, theta: np.ndarray) -> _Gaps:
    """The scaled bound with C = D = X - X'."""
    D = X - Xp
    return _Gaps("pair_exp", *_exp_difference(D, D, *_exp_scaled(theta, X, Xp), theta),
                 {"X": X, "Xp": Xp}, [{"theta": th} for th in theta.tolist()])


def _power(A, B, C, k: np.ndarray) -> _Gaps:
    n = len(A)
    AB, kk = np.concatenate([A, B]), np.concatenate([k, k])
    P, Pm1 = _matrix_powers(AB, kk), _matrix_powers(AB, kk - 1)
    D = A - B
    lhs = _trace(C, P[:n] - P[n:])
    rhs = k * _trace((C @ C + D @ D) / 4.0, Pm1[:n] + Pm1[n:])
    return _Gaps("power", lhs, rhs, rhs - lhs, {"A": A, "B": B, "C": C},
                 [{"k": e} for e in k.tolist()])


def _symmetric_term(A, B, C, k: np.ndarray, n_pow: np.ndarray) -> _Gaps:
    n = len(A)
    AB = np.concatenate([A, B])
    Pk = _matrix_powers(AB, np.concatenate([k, k]))
    Pnk = _matrix_powers(AB, np.concatenate([n_pow - k, n_pow - k]))
    Pn = _matrix_powers(AB, np.concatenate([n_pow, n_pow]))
    D = A - B
    lhs = _trace(C, Pk[:n] @ D @ Pnk[n:] + Pnk[:n] @ D @ Pk[n:])
    rhs = _trace((C @ C + D @ D) / 2.0, Pn[:n] + Pn[n:])
    params = [{"k": a, "n": b} for a, b in zip(k.tolist(), n_pow.tolist())]
    return _Gaps("symmetric_term", lhs, rhs, rhs - lhs, {"A": A, "B": B, "C": C}, params)


def _holder(A, B, C, D, p: list) -> _Gaps:
    n = len(A)
    w, U = _decompose(np.concatenate([A, B]))
    Pp = _psd_powers(w, U, p + p)
    P1p = _psd_powers(w, U, [1.0 - x for x in p + p])
    lhs = _trace(C @ Pp[:n] @ D, P1p[n:]) + _trace(C @ P1p[:n] @ D, Pp[n:])
    rhs = _trace((C @ C + D @ D) / 2.0, A + B)
    return _Gaps("holder", lhs, rhs, rhs - lhs, {"A": A, "B": B, "C": C, "D": D},
                 [{"p": x} for x in p])


def _cross_square(P, Q) -> np.ndarray:
    Ph, Qh = (np.swapaxes(M.conj(), -1, -2) for M in (P, Q))
    return _hermitian_part(P @ Ph + Qh @ Q - P @ Q - Qh @ Ph)


def _psd_cross(P, Q) -> _Gaps:
    lam_min = np.linalg.eigvalsh(_cross_square(P, Q))[..., 0]
    norm = np.maximum(*(np.linalg.norm(M, 2, axis=(-2, -1)) for M in (P, Q)))
    anchors = np.maximum(1.0, norm ** 2).tolist()  # an overflow to inf is refused
    return _Gaps("psd_cross", np.zeros(len(P)), lam_min, lam_min, {"P": P, "Q": Q},
                 [{}] * len(P), anchors)


def _trace_quad(P, Q, R, S) -> _Gaps:
    lhs = _trace(P @ Q @ R, S)
    rhs = _trace(P @ P + R @ R, Q @ Q + S @ S) / 4.0
    return _Gaps("trace_quad", lhs, rhs, rhs - lhs, {"P": P, "Q": Q, "R": R, "S": S},
                 [{}] * len(P))


def _certified_psd(*mats) -> list[np.ndarray]:
    """:func:`_certified` inputs whose first two, A and B, are PSD within
    rounding: no eigenvalue below -1e-10 max(1, max |eigenvalue|)."""
    mats = _certified(*mats)
    for name, w in zip("AB", np.linalg.eigvalsh(np.concatenate(mats[:2]))):
        if w[0] < -1e-10 * max(1.0, float(np.abs(w).max())):
            raise ValueError(f"{name} is not positive semidefinite: min eigenvalue {w[0]:.6e}")
    return mats


@_refusing_overflow
def gap_exchangeable(A, B, C) -> TraceGapReport:
    """Exponential-difference trace bound for a Hermitian triple (gap = rhs - lhs)."""
    return _exchangeable(*_certified(A, B, C)).report(0)


@_refusing_overflow
def gap_exchangeable_scaled(A, B, C, theta: float) -> TraceGapReport:
    """Scaled variant; the inequality reverses for theta < 0, gap stays oriented >= 0."""
    if not (theta != 0 and math.isfinite(theta)):
        raise ValueError(f"theta must be finite and nonzero, got {theta!r}")
    return _exchangeable_scaled(*_certified(A, B, C), np.array([float(theta)])).report(0)


@_refusing_overflow
def gap_pair_exp(X, Xp, theta: float) -> TraceGapReport:
    """Exchangeable-pair exponential bound with C = X - X' folded in (theta > 0)."""
    if not 0 < theta < math.inf:
        raise ValueError(f"theta must be finite and > 0, got {theta!r}")
    return _pair_exp(*_certified(X, Xp), np.array([float(theta)])).report(0)


@_refusing_overflow
def gap_power(A, B, C, k: int) -> TraceGapReport:
    """Power-difference trace bound for PSD A, B and integer k >= 1."""
    k = _integer("k", k)
    if k < 1:
        raise ValueError(f"k must be >= 1, got {k}")
    return _power(*_certified_psd(A, B, C), np.array([k])).report(0)


@_refusing_overflow
def gap_symmetric_term(A, B, C, k: int, n: int) -> TraceGapReport:
    """Symmetric pair of power terms, PSD A, B and integers 0 <= k <= n."""
    k, n = _integer("k", k), _integer("n", n)
    if not 0 <= k <= n:
        raise ValueError(f"need 0 <= k <= n, got k = {k}, n = {n}")
    return _symmetric_term(*_certified_psd(A, B, C), np.array([k]), np.array([n])).report(0)


@_refusing_overflow
def gap_holder(A, B, C, D, p: float) -> TraceGapReport:
    """Hoelder-type interpolation bound, PSD A, B and exponent p in [0, 1]."""
    if not 0.0 <= p <= 1.0:
        raise ValueError(f"p must lie in [0, 1], got {p}")
    return _holder(*_certified_psd(A, B, C, D), [float(p)]).report(0)


@_refusing_overflow
def gap_psd_cross(P, Q) -> TraceGapReport:
    """Loewner test of PQ + Q*P* <= PP* + Q*Q for complex P, Q of one square shape:
    gap = lambda_min of the slack PP* + Q*Q - PQ - Q*P*."""
    P = np.asarray(P, dtype=np.complex128)
    Q = np.asarray(Q, dtype=np.complex128)
    if P.shape != Q.shape or P.ndim != 2 or P.shape[0] != P.shape[1]:
        raise ValueError(f"expected two square matrices of one shape, got {P.shape}, {Q.shape}")
    return _psd_cross(P[None], Q[None]).report(0)


@_refusing_overflow
def gap_trace_quad(P, Q, R, S) -> TraceGapReport:
    """Re Tr(PQRS) <= Tr((P^2+R^2)(Q^2+S^2))/4 for a Hermitian quadruple."""
    return _trace_quad(*_certified(P, Q, R, S)).report(0)


# ---------------------------------------------------------------------------
# Seeded trials, shared with the counterexample search

FUZZ_CHUNK = 256  # consecutive random trials drawn, then evaluated as one stack per dim
FUZZ_TOL = 1e-8   # a fuzz trial violates when its normalized gap is below -FUZZ_TOL


def _gaps_in_order(evaluate, stack):
    """Yield ``(gaps, i)`` for each instance of ``stack`` in order, from ``evaluate(stack)``.

    If the stack is refused, its instances are evaluated again one at a time
    as they are reached, so the first refused instance raises its own error
    and no later one is evaluated.
    """
    try:
        gaps = evaluate(stack)
    except (ValueError, ArithmeticError):
        for i in range(len(stack)):
            yield evaluate(stack[i:i + 1]), 0
        return
    for i in range(len(stack)):
        yield gaps, i


def _trials_in_order(seed, trials: int, kinds: tuple, dims: tuple, scale, draw, evaluate):
    """Yield ``(t, kind, dim, gaps, i)`` for trials 0..trials-1 in trial order.

    One generator, seeded with ``seed``, serves the whole run: trial t takes
    ``draw(kind, dim, scale, rng)`` from it after trial t-1, on the grid cell
    that cycles kinds fastest, then dims.  Each block of FUZZ_CHUNK
    consecutive trials is drawn, stacked per dim as a list of draws and
    consumed lazily through :func:`_gaps_in_order`, so every yielded gap and
    every error is the one a trial-by-trial run gives, whatever FUZZ_CHUNK
    is; a refused draw raises after every earlier trial has been yielded, and
    an overflowed one when its certification fails (:func:`_refuse_overflow`).
    """
    rng = np.random.default_rng(seed)
    for start in range(0, trials, FUZZ_CHUNK):
        drawn, refused = [], None
        with np.errstate(over="ignore", invalid="ignore"):  # refused when certified
            for t in range(start, min(trials, start + FUZZ_CHUNK)):
                kind, dim = kinds[t % len(kinds)], dims[(t // len(kinds)) % len(dims)]
                try:
                    drawn.append((t, kind, dim, draw(kind, dim, scale, rng)))
                except (ValueError, ArithmeticError) as exc:
                    refused = exc
                    break
        stacks = {}
        for _, _, dim, x in drawn:
            stacks.setdefault(dim, []).append(x)
        gaps = {dim: _gaps_in_order(evaluate, xs) for dim, xs in stacks.items()}
        for t, kind, dim, x in drawn:
            try:
                item = next(gaps[dim])
            except HermiticityError:
                _refuse_overflow(kind, scale, x)
                raise
            yield (t, kind, dim, *item)
        if refused is not None:
            raise refused


# ---------------------------------------------------------------------------
# Seeded fuzzing

_HOLDER_P_POOL = (0.0, 0.25, 0.5, 0.75, 1.0, 0.7071067811865476)
# matrices drawn per fuzz trial; A and B come first where the inequality has them
_TRIAL_MATRICES = {"exchangeable": 3, "exchangeable_scaled": 3, "pair_exp": 2, "power": 3,
                   "symmetric_term": 3, "holder": 4, "psd_cross": 4, "trace_quad": 4}


def _draw_trial(inequality_id: str, kind: str, dim: int, scale: float,
                rng: np.random.Generator):
    """Uncertified (n, d, d) input stack and scalar parameters of one fuzz trial.

    The run's generator makes one batched draw of the trial's matrices
    (:func:`_draw`), then draws its scalars.  For ``commuting-pair`` A and B
    share one basis and every further matrix has its own; the four matrices
    of ``psd_cross`` and ``trace_quad`` each have their own.
    """
    shared = 1 if inequality_id in ("psd_cross", "trace_quad") else 2
    mats = _draw(kind, dim, scale, rng, _TRIAL_MATRICES[inequality_id], shared)
    if inequality_id == "exchangeable_scaled":
        return mats, ((-1.0, 1.0)[int(rng.integers(2))] * float(rng.uniform(0.1, 3.0)),)
    if inequality_id == "pair_exp":
        return mats, (float(rng.uniform(0.05, 3.0)),)
    if inequality_id == "power":
        return mats, (int(rng.integers(1, 7)),)
    if inequality_id == "symmetric_term":
        n_pow = int(rng.integers(0, 7))
        return mats, (int(rng.integers(0, n_pow + 1)), n_pow)
    if inequality_id == "holder":
        if rng.random() < 0.5:
            return mats, (_HOLDER_P_POOL[int(rng.integers(len(_HOLDER_P_POOL)))],)
        return mats, (float(rng.uniform(0.0, 1.0)),)
    return mats, ()


@_refusing_overflow
def _evaluate_trials(inequality_id: str, scale: float, drawn: list) -> _Gaps:
    """Gaps of fuzz trials from their ``(matrices, scalars)`` draws, certified as stacks.

    ``power`` and ``holder`` take the positive parts of the drawn A, B;
    ``symmetric_term`` shifts those by 0.1 * scale * I; ``psd_cross`` forms
    P = H1 + i H2 and Q = H3 + i H4.
    """
    mats, scalars = zip(*drawn)
    mats = list(np.swapaxes(_certify(np.stack(mats)), 0, 1))
    scalars = list(zip(*scalars))
    if inequality_id == "exchangeable":
        return _exchangeable(*mats)
    if inequality_id == "exchangeable_scaled":
        return _exchangeable_scaled(*mats, np.array(scalars[0]))
    if inequality_id == "pair_exp":
        return _pair_exp(*mats, np.array(scalars[0]))
    if inequality_id == "psd_cross":
        H1, H2, H3, H4 = mats
        return _psd_cross(H1 + 1j * H2, H3 + 1j * H4)
    if inequality_id == "trace_quad":
        return _trace_quad(*mats)
    n = len(mats[0])
    AB = _positive_part(*_decompose(np.concatenate(mats[:2])))
    if inequality_id == "power":
        return _power(AB[:n], AB[n:], mats[2], np.array(scalars[0]))
    if inequality_id == "symmetric_term":
        AB = _hermitian_part(AB + 0.1 * scale * np.eye(AB.shape[-1]))
        return _symmetric_term(AB[:n], AB[n:], mats[2], np.array(scalars[0]),
                               np.array(scalars[1]))
    return _holder(AB[:n], AB[n:], mats[2], mats[3], list(scalars[0]))


def _write_witness(witness_dir: str, rep: TraceGapReport, trial: int, matrices: dict) -> str:
    """A witness file: the report's fields, the trial number and the input matrices."""
    os.makedirs(witness_dir, exist_ok=True)
    path = os.path.join(witness_dir, f"witness-{rep.inequality_id}-{trial:06d}.json")
    _write_json(path, {**vars(rep), "trial": trial, "matrices": matrices})
    return path


def fuzz_grid(inequality_id: str, kinds, dims, trials: int, scale: float,
              seed: int, witness_dir: str | None = None) -> FuzzSummary:
    """Fuzz with trials spread round-robin over a (kind, dim) grid.

    Trials come from :func:`_trials_in_order`, so results do not depend on
    how trials are grouped.  A trial violates when gap < -FUZZ_TOL * anchor
    (FUZZ_TOL = 1e-8, recorded as the summary's ``tolerance``); violating
    inputs are persisted to ``witness_dir``.
    """
    if inequality_id not in INEQUALITY_IDS:
        raise ValueError(f"unknown inequality id {inequality_id!r}")
    trials, seed = _integer("trials", trials), _integer("seed", seed)
    if trials < 1:
        raise ValueError("trials must be >= 1")
    kinds, dims = _trial_grid(kinds, dims, scale)
    min_norm = np.inf
    argmin = None  # (gaps, i) of the running minimum; only the final one is hashed
    violations = 0
    for t, kind, dim, gaps, i in _trials_in_order(
            seed, trials, kinds, dims, scale, functools.partial(_draw_trial, inequality_id),
            functools.partial(_evaluate_trials, inequality_id, scale)):
        norm_gap = gaps.normalized(i)
        if norm_gap < min_norm:
            min_norm = norm_gap
            argmin = gaps, i
        if norm_gap < -FUZZ_TOL:
            violations += 1
            if witness_dir is not None:
                rep = gaps.report(i)
                rep.params.update({"kind": kind, "dim": dim})
                mats = {name: matrix_to_obj(M[i]) for name, M in gaps.inputs.items()}
                _write_witness(witness_dir, rep, t, matrices=mats)
    min_raw, argmin_digest = np.inf, ""
    if argmin is not None:
        gaps, i = argmin
        min_raw, argmin_digest = gaps.gap[i], gaps.report(i).inputs_digest
    meta = {"kinds": list(kinds), "dims": list(dims), "scale": scale, "seed": seed}
    return FuzzSummary(inequality_id, trials, float(min_norm), float(min_raw),
                       argmin_digest, violations, FUZZ_TOL, meta)


def save_fuzz_summary(path, summary: FuzzSummary) -> None:
    _write_json(path, vars(summary))
