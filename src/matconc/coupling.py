"""Coupled Gibbs chains on discrete models and Monte Carlo tail estimation.

Implements the single-site resampling pair construction, the synchronized
refresh coupling for independent components, the greedy maximal coupling for
dependent ones, exact pair-distribution evolution for exhaustive identity
verification (antisymmetric chain sums, the marginal-law property, Stein-pair
residuals), and the empirical-tail estimator compared against the closed-form
bounds.

Randomness discipline: every Monte Carlo entry point takes a master seed and
derives per-run streams through SeedSequence spawn keys, so runs can execute
in parallel and aggregate order independently.
"""

from __future__ import annotations

import itertools
import math
from dataclasses import dataclass
from typing import Sequence

import numpy as np

from .bounds import DifferenceBoundSet
from .dobrushin import (
    DiscreteModel,
    EnumerationCapError,
    conditional_table,
    other_axes_strides,
    site_neighbours,
)
from .hermitian import HermitianMatrix, _certify, _coerce, _hermitian_part

WILSON_Z95 = 1.959963984540054
PAIR_STATE_CAP = 4096  # max S^2 for exhaustive pair-space loops


class TruncationError(RuntimeError):
    """Chain-sum truncation could not certify the requested tail tolerance."""


def wilson_interval(successes: int, trials: int, z: float = WILSON_Z95) -> tuple[float, float]:
    """Wilson score interval for a binomial proportion."""
    if trials < 1:
        raise ValueError("trials must be >= 1")
    p = successes / trials
    denom = 1.0 + z * z / trials
    center = (p + z * z / (2 * trials)) / denom
    half = z * math.sqrt(p * (1 - p) / trials + z * z / (4 * trials * trials)) / denom
    lo = 0.0 if successes == 0 else max(0.0, center - half)
    hi = 1.0 if successes == trials else min(1.0, center + half)
    return lo, hi


def coupon_collector_survival(n: int, k: int) -> float:
    """(1 - 1/n)^k: chance a given site is never refreshed in k uniform updates."""
    if n < 1 or k < 0:
        raise ValueError("need n >= 1 and k >= 0")
    return (1.0 - 1.0 / n) ** k


def coupon_collector_weighted(n: int, k: int) -> float:
    """(1/n)(1 - 1/n)^k; the weighted form summing to 1 over k >= 0."""
    return coupon_collector_survival(n, k) / n


# ---------------------------------------------------------------------------
# Matrix observables

class MatrixObservable:
    """Maps a site-value configuration to a fixed-dimension Hermitian matrix.

    ``bound_set`` optionally carries per-site difference bounds A_k with
    (H(..., z_k, ...) - H(..., z_k', ...))^2 <= A_k^2 over all single-site
    swaps; see :func:`check_hamming` for the exhaustive validation.
    """

    dim: int
    bound_set: DifferenceBoundSet | None = None

    def __call__(self, values) -> np.ndarray:
        raise NotImplementedError

    def batch(self, values_matrix: np.ndarray) -> np.ndarray:
        return np.stack([self(tuple(row)) for row in values_matrix])

    def exact_mean(self, model: DiscreteModel) -> np.ndarray | None:
        return None


class RademacherSumObservable(MatrixObservable):
    """H(z) = sum_k z_k A_k for a fixed list of Hermitian coefficients."""

    def __init__(self, matrices: Sequence, bound_set: DifferenceBoundSet | None = None):
        mats = [_coerce(M) for M in matrices]
        if not mats:
            raise ValueError("need at least one coefficient matrix")
        self.dim = mats[0].dim
        if any(M.dim != self.dim for M in mats):
            raise ValueError("coefficient matrices must share one dimension")
        self.matrices = tuple(mats)
        self._stack = np.stack([M.mat for M in mats])
        self.bound_set = bound_set

    def __call__(self, values) -> np.ndarray:
        vals = np.asarray(values, dtype=float)
        return np.einsum("n,nij->ij", vals, self._stack)

    def batch(self, values_matrix: np.ndarray) -> np.ndarray:
        return np.einsum("bn,nij->bij", np.asarray(values_matrix, dtype=float), self._stack)

    def exact_mean(self, model: DiscreteModel) -> np.ndarray:
        means = [float(np.dot(p, model.alphabets[i]))
                 for i, p in enumerate(model.site_marginals())]
        return np.einsum("n,nij->ij", np.asarray(means), self._stack)

    def hamming_bounds(self, model: DiscreteModel) -> DifferenceBoundSet:
        """Single-swap bounds w_k A_k with w_k the value range of site k."""
        widths = [max(a) - min(a) for a in model.alphabets]
        return DifferenceBoundSet([HermitianMatrix(w * M.mat)
                                   for w, M in zip(widths, self.matrices)])


class TableObservable(MatrixObservable):
    """Observable given by an explicit value-configuration -> matrix mapping."""

    def __init__(self, mapping: dict, dim: int, bound_set: DifferenceBoundSet | None = None):
        self.dim = int(dim)
        self._map = {tuple(k): np.asarray(v, dtype=np.complex128) for k, v in mapping.items()}
        for v in self._map.values():
            if v.shape != (self.dim, self.dim):
                raise ValueError("table entries must be dim x dim")
        self.bound_set = bound_set

    def __call__(self, values) -> np.ndarray:
        return self._map[tuple(values)]


def derive_hamming_bounds(observable: MatrixObservable,
                          model: DiscreteModel) -> DifferenceBoundSet:
    """Exhaustive scalar single-swap bounds c_k I with c_k the worst swap norm.

    Valid (diff^2 <= |diff|^2 I <= c_k^2 I) though generally looser than
    structure-aware bounds; useful for table observables.
    """
    H = _observable_values(model, observable)
    worst = [_spectral_norm_raw(H[:, None] - H[site_neighbours(model, i)[1]])
             for i in range(model.n)]
    return DifferenceBoundSet([HermitianMatrix(c * np.eye(observable.dim)) for c in worst])


def check_hamming(observable: MatrixObservable, model: DiscreteModel,
                  bound_set: DifferenceBoundSet, tol: float = 1e-10):
    """Exhaustively validate (H(z) - H(z_i -> v))^2 <= A_i^2 over all swaps.

    Returns the worst Loewner slack (min eigenvalue of A_i^2 - diff^2).
    """
    if len(bound_set.matrices) != model.n:
        raise ValueError("need one difference bound per site")
    H = _observable_values(model, observable)
    _certify(H)  # the observable's values are outside input: certify them once
    worst = math.inf
    for i in range(model.n):
        Ai = bound_set.matrices[i].mat
        _, variants = site_neighbours(model, i)
        diff = H[:, None] - H[variants]
        slack = _hermitian_part(HermitianMatrix(Ai @ Ai).mat - diff @ diff)
        worst = min(worst, float(np.linalg.eigvalsh(slack)[..., 0].min()))
    return worst >= -tol, worst


# ---------------------------------------------------------------------------
# Maximal coupling

def _sample_rows(P: np.ndarray, u: np.ndarray) -> np.ndarray:
    """One index per row of P (unnormalized pmfs): the first whose cdf reaches u * total."""
    cdf = np.cumsum(P, axis=1)
    idx = (cdf < (u * cdf[:, -1])[:, None]).sum(axis=1)
    return np.minimum(idx, P.shape[1] - 1)


def _maximal_coupling_rows(P, Q, u_same, u_min, u_p, u_q):
    """Maximal coupling of each row pair of P, Q from four uniforms per row (law:
    :func:`maximal_coupling_joint`)."""
    mins = np.minimum(P, Q)
    omega = mins.sum(axis=1)
    same = u_same < omega
    idx_same = _sample_rows(mins, u_min)
    z = 1.0 - omega
    zsafe = np.where(z > 1e-15, z, 1.0)
    a_diff = _sample_rows((P - mins) / zsafe[:, None], u_p)
    b_diff = _sample_rows((Q - mins) / zsafe[:, None], u_q)
    a = np.where(same, idx_same, a_diff)
    b = np.where(same, idx_same, b_diff)
    return a, b


def maximal_coupling(p, q, rng) -> tuple[int, int]:
    """Sample (a, b) with marginals p, q and P(a = b) = 1 - TV(p, q).

    Draws from the overlap min(p, q) with probability 1 - TV, otherwise
    independently from the normalized residuals; a one-row
    :func:`_maximal_coupling_rows` call on four uniforms.
    """
    p = np.asarray(p, dtype=float)
    q = np.asarray(q, dtype=float)
    if p.shape != q.shape:
        raise ValueError("support mismatch")
    a, b = _maximal_coupling_rows(p[None], q[None], *rng.random((4, 1)))
    return int(a[0]), int(b[0])


def maximal_coupling_joint(p, q) -> np.ndarray:
    """Exact joint law of the maximal coupling: diag overlap + residual product.

    Broadcasts over leading axes: pmfs of shape (..., m) give joints of shape
    (..., m, m).
    """
    p = np.asarray(p, dtype=float)
    q = np.asarray(q, dtype=float)
    if p.shape[-1:] != q.shape[-1:]:
        raise ValueError("support mismatch")
    mins = np.minimum(p, q)
    z = 1.0 - mins.sum(axis=-1)
    zsafe = np.where(z > 1e-15, z, np.inf)[..., None, None]  # no residual mass left
    J = (p - mins)[..., :, None] * (q - mins)[..., None, :] / zsafe
    m = mins.shape[-1]
    J[..., np.arange(m), np.arange(m)] += mins
    return J


# ---------------------------------------------------------------------------
# The exchangeable pair and single-chain coupled steps

def make_exchangeable_pair(model: DiscreteModel, rng) -> tuple[tuple, tuple]:
    """Draw (X, X'): X from the model, X' a uniform-site conditional resample."""
    rng = np.random.default_rng(rng) if not isinstance(rng, np.random.Generator) else rng
    x = tuple(int(v) for v in model.sample(rng, 1)[0])
    i = int(rng.integers(model.n))
    vec = model.conditional(i, x)
    y = list(x)
    y[i] = int(_sample_rows(vec[None], rng.random(1))[0])
    return x, tuple(y)


def gibbs_kernel(model: DiscreteModel) -> np.ndarray:
    """Dense single-site Gibbs transition matrix on flat configuration indices."""
    _require_pairable(model)
    G = np.zeros((model.size, model.size))
    states = np.arange(model.size)[:, None]
    for i in range(model.n):
        cond, variants = site_neighbours(model, i)
        G[states, variants] += cond / model.n
    return G


def exchangeable_pair_joint(model: DiscreteModel) -> np.ndarray:
    """Exact joint law of (X, X'); symmetric because the Gibbs kernel is reversible."""
    G = gibbs_kernel(model)
    return model.flat_pmf()[:, None] * G


@dataclass(frozen=True)
class CouplingState:
    """Paired chain configurations with the picked-site history."""

    step: int
    x: tuple
    y: tuple
    history: tuple = ()

    @property
    def disagreement(self) -> tuple:
        return tuple(int(a != b) for a, b in zip(self.x, self.y))


def initial_state(x, y) -> CouplingState:
    return CouplingState(0, tuple(int(v) for v in x), tuple(int(v) for v in y))


def step_independent(state: CouplingState, model: DiscreteModel, rng) -> CouplingState:
    """Synchronized refresh: both chains receive the same fresh site value.

    Only valid when the model's components are independent; the disagreement
    set can then never grow.
    """
    if not model.is_product():
        raise ValueError("synchronized refresh requires independent components")
    i = int(rng.integers(model.n))
    v = int(_sample_rows(model.conditional(i, state.x)[None], rng.random(1))[0])
    x = list(state.x)
    y = list(state.y)
    x[i] = v
    y[i] = v
    return CouplingState(state.step + 1, tuple(x), tuple(y), state.history + (i,))


def step_greedy(state: CouplingState, model: DiscreteModel, rng) -> CouplingState:
    """Greedy coupling: one site, both conditionals, maximally coupled values."""
    i = int(rng.integers(model.n))
    p = model.conditional(i, state.x)
    q = model.conditional(i, state.y)
    a, b = maximal_coupling(p, q, rng)
    x = list(state.x)
    y = list(state.y)
    x[i] = a
    y[i] = b
    return CouplingState(state.step + 1, tuple(x), tuple(y), state.history + (i,))


# ---------------------------------------------------------------------------
# Exact pair-distribution evolution

def _require_pairable(model: DiscreteModel):
    if model.size * model.size > 1_000_000:
        raise EnumerationCapError(
            f"pair space {model.size}^2 too large for exhaustive evolution"
        )


class PairEvolver:
    """Exact one-step operator on pair distributions nu(x, y) as (S, S) arrays.

    For the greedy coupling each site carries the exact maximal-coupling joint
    of the two conditionals; for the synchronized-refresh coupling both chains
    receive one shared fresh value.
    """

    def __init__(self, model: DiscreteModel, coupling: str = "greedy"):
        if coupling not in ("greedy", "independent"):
            raise ValueError(f"unknown coupling {coupling!r}")
        if coupling == "independent" and not model.is_product():
            raise ValueError("synchronized refresh requires independent components")
        _require_pairable(model)
        if model.size > 512:  # per-site joint tensors hold S^2 entries
            raise EnumerationCapError("model too large for exact pair evolution")
        self.model = model
        self.coupling = coupling
        self._joints = []
        for i in range(model.n):
            rows = conditional_table(model, i)  # (K, m)
            if coupling == "independent":  # one shared value: the pmf coupled with itself
                K, m = rows.shape
                J = np.broadcast_to(maximal_coupling_joint(rows[0], rows[0]), (K, K, m, m))
            else:
                J = maximal_coupling_joint(rows[:, None, :], rows[None, :, :])
            self._joints.append(J)

    def step(self, nu: np.ndarray) -> np.ndarray:
        """One coupled Gibbs step, averaged over the uniformly picked site."""
        model = self.model
        n = model.n
        tensor = nu.reshape(model.sizes + model.sizes)
        out = np.zeros_like(tensor)
        for i in range(n):
            m = model.sizes[i]
            K = model.size // m
            T = np.moveaxis(tensor, (i, n + i), (2 * n - 2, 2 * n - 1))
            lead_shape = T.shape[:-2]
            mass = T.reshape(K, K, m, m).sum(axis=(2, 3))
            new = (mass[:, :, None, None] * self._joints[i]).reshape(lead_shape + (m, m))
            out += np.moveaxis(new, (2 * n - 2, 2 * n - 1), (i, n + i))
        return (out / n).reshape(model.size, model.size)

    def delta(self, x_flat: int, y_flat: int) -> np.ndarray:
        nu = np.zeros((self.model.size, self.model.size))
        nu[x_flat, y_flat] = 1.0
        return nu


@dataclass(frozen=True)
class PropertyPReport:
    """Do coupled-chain marginals depend only on their own start?"""

    holds: bool
    max_deviation: float
    steps: int
    coupling: str


def verify_property_P(model: DiscreteModel, steps: int,
                      coupling: str = "greedy", tol: float = 1e-12) -> PropertyPReport:
    """Exhaustively compare coupled marginals with single-chain Gibbs marginals.

    For every start pair (x, y) and every k <= steps, the X-marginal of the
    coupled pair distribution must equal the k-step Gibbs law from x (and
    symmetrically for X'), which certifies that each marginal depends only on
    its own starting point.
    """
    if model.size * model.size > PAIR_STATE_CAP:
        raise EnumerationCapError("pair-state space too large for exhaustive check")
    evolver = PairEvolver(model, coupling)
    G = gibbs_kernel(model)
    powers = [np.eye(model.size)]
    for _ in range(steps):
        powers.append(powers[-1] @ G)
    max_dev = 0.0
    for x in range(model.size):
        for y in range(model.size):
            nu = evolver.delta(x, y)
            for k in range(1, steps + 1):
                nu = evolver.step(nu)
                dev_x = float(np.abs(nu.sum(axis=1) - powers[k][x]).max())
                dev_y = float(np.abs(nu.sum(axis=0) - powers[k][y]).max())
                max_dev = max(max_dev, dev_x, dev_y)
    return PropertyPReport(max_dev <= tol, max_dev, steps, coupling)


def _observable_values(model: DiscreteModel, f) -> np.ndarray:
    """Evaluate an observable on every configuration, shape (S, d, d).

    ``itertools.product`` over the alphabets runs through the value tuples in
    flat (C) order.
    """
    return np.stack([np.asarray(f(vals), dtype=np.complex128)
                     for vals in itertools.product(*model.alphabets)])


def _centered_values(model: DiscreteModel, f) -> np.ndarray:
    vals = _observable_values(model, f)
    mean = np.einsum("s,sij->ij", model.flat_pmf(), vals)
    return vals - mean


def _spectral_norm_raw(M: np.ndarray) -> float:
    """Largest spectral norm of the Hermitian part over a stack of matrices."""
    return float(np.abs(np.linalg.eigvalsh(_hermitian_part(M))).max())


def _antisym_sum(evolver: PairEvolver, fc: np.ndarray, x_flat: int, y_flat: int,
                 truncation: int | None, tol: float, max_steps: int) -> np.ndarray:
    """sum_k E(f(X(k)) - f(X'(k)) | starts), truncated with a certified tail."""
    nu = evolver.delta(x_flat, y_flat)
    F = np.zeros_like(fc[0])
    norms: list[float] = []
    k = 0
    while True:
        term = (np.einsum("s,sij->ij", nu.sum(axis=1), fc)
                - np.einsum("s,sij->ij", nu.sum(axis=0), fc))
        F += term
        norms.append(_spectral_norm_raw(term))
        coupled = float(np.trace(nu))
        if 1.0 - coupled <= 1e-300:
            return F  # chains have met; all later terms vanish exactly
        if truncation is not None and k >= truncation:
            _certify_tail(norms, tol)
            return F
        if truncation is None and k >= 8:
            try:
                _certify_tail(norms, tol)
                return F
            except TruncationError:
                pass
        if k >= max_steps:
            _certify_tail(norms, tol)  # raises with the measured tail
            return F
        nu = evolver.step(nu)
        k += 1


def _certify_tail(norms: list[float], tol: float, safety: float = 10.0):
    """Geometric tail estimate from the trailing decay; raises if uncertified."""
    if len(norms) < 4:
        raise TruncationError("too few terms to estimate the geometric tail")
    last, prev = norms[-1], norms[-4]
    if last == 0.0:
        return
    if prev <= 0.0 or last >= prev:
        raise TruncationError("chain-sum terms are not decaying geometrically")
    r = (last / prev) ** (1.0 / 3.0)
    tail = last * r / (1.0 - r)
    if tail * safety >= tol:
        raise TruncationError(
            f"geometric tail estimate {tail:.3e} (x{safety:g} safety) exceeds {tol:.3e}"
        )


def antisymmetric_F(model: DiscreteModel, f, x, y, truncation: int | None = None,
                    tol: float = 1e-8, coupling: str = "greedy",
                    max_steps: int = 10_000) -> HermitianMatrix:
    """Antisymmetric chain sum F(x, y) for a centered matrix observable.

    The observable is centered internally.  With ``truncation=None`` the cut
    is chosen adaptively from the measured geometric decay of the terms with
    a 10x safety factor against ``tol``; an explicit truncation is honored but
    still has its tail certified.
    """
    evolver = PairEvolver(model, coupling)
    fc = _centered_values(model, f)
    xf = model.flat_from_config(x)
    yf = model.flat_from_config(y)
    F = _antisym_sum(evolver, fc, xf, yf, truncation, tol, max_steps)
    return HermitianMatrix((F + F.conj().T) / 2.0)


@dataclass(frozen=True)
class SteinIdentityReport:
    """Exhaustive check of antisymmetry and the conditional-mean identity."""

    max_residual: float
    max_antisymmetry_defect: float
    pairs_checked: int
    holds: bool


def stein_identity_check(model: DiscreteModel, f, tol: float = 1e-8,
                         coupling: str = "greedy") -> SteinIdentityReport:
    """Verify F(x,y) = -F(y,x) and E(F(X,X')|X) = f(X) - E f(X) exhaustively.

    Runs over every pair (x, y) reachable by the single-site resampling pair
    construction on an enumerable model.
    """
    if model.size * model.size > PAIR_STATE_CAP:
        raise EnumerationCapError("model too large for exhaustive identity check")
    evolver = PairEvolver(model, coupling)
    fc = _centered_values(model, f)
    G = gibbs_kernel(model)
    term_tol = tol / 10.0
    cache: dict[tuple[int, int], np.ndarray] = {}

    def F_of(a: int, b: int) -> np.ndarray:
        if (a, b) not in cache:
            cache[(a, b)] = _antisym_sum(evolver, fc, a, b, None, term_tol, 10_000)
        return cache[(a, b)]

    max_res = 0.0
    max_anti = 0.0
    pairs = 0
    for z in range(model.size):
        acc = np.zeros_like(fc[0])
        for z2 in range(model.size):
            if G[z, z2] <= 0.0:
                continue
            Fzz = F_of(z, z2)
            acc += G[z, z2] * Fzz
            max_anti = max(max_anti, _spectral_norm_raw(Fzz + F_of(z2, z)))
            pairs += 1
        max_res = max(max_res, _spectral_norm_raw(acc - fc[z]))
    holds = max_res <= tol and max_anti <= tol
    return SteinIdentityReport(max_res, max_anti, pairs, holds)


# ---------------------------------------------------------------------------
# Stein pairs

@dataclass(frozen=True)
class SteinPairSpec:
    """Model + observable under the single-site Gibbs resampling pair."""

    model: DiscreteModel
    observable: MatrixObservable
    alpha: float | None = None  # claimed scale factor

    def __post_init__(self):
        if self.alpha is not None and not 0.0 < self.alpha <= 1.0:
            raise ValueError("claimed scale factor must lie in (0, 1]")


@dataclass(frozen=True)
class SteinPairReport:
    alpha_hat: float | None
    residual: float
    degenerate: bool
    claimed_alpha: float | None
    is_stein: bool


def verify_stein_pair(spec: SteinPairSpec, tol: float = 1e-8) -> SteinPairReport:
    """Fit the scale factor of E(X - X' | Z) = alpha X exactly over all states.

    The observable is centered before fitting; the report carries the worst
    spectral-norm residual max_z |E(X - X'|z) - alpha_hat X(z)| and flags
    degenerate (constant) observables.
    """
    model = spec.model
    psi = _centered_values(model, spec.observable)
    G = gibbs_kernel(model)
    T = psi - np.einsum("st,tij->sij", G, psi)
    mu = model.flat_pmf()
    denom = float(np.einsum("s,sij->", mu, np.abs(psi) ** 2).real)
    scale = max(1.0, float(np.abs(psi).max()) ** 2)
    if denom <= 1e-15 * scale:
        return SteinPairReport(None, 0.0, True, spec.alpha, False)
    num = float(np.einsum("s,sij,sij->", mu, T.conj(), psi).real)
    alpha_hat = num / denom
    residual = _spectral_norm_raw(T - alpha_hat * psi)
    anchor = max(1.0, _spectral_norm_raw(psi))
    return SteinPairReport(alpha_hat, residual, False, spec.alpha,
                           residual <= tol * anchor)


def telescoping_decomposition(f, x_vals, y_vals) -> list[np.ndarray]:
    """Per-site terms Z_i with sum_i Z_i = f(x) - f(y) exactly.

    Z_i = f(x_1..x_i, y_{i+1}..y_n) - f(x_1..x_{i-1}, y_i..y_n); sites where
    the configurations agree contribute exact zeros.
    """
    x = tuple(x_vals)
    y = tuple(y_vals)
    if len(x) != len(y):
        raise ValueError("configurations must have the same length")
    terms = []
    for i in range(len(x)):
        hi = np.asarray(f(x[: i + 1] + y[i + 1:]), dtype=np.complex128)
        lo = np.asarray(f(x[:i] + y[i:]), dtype=np.complex128)
        terms.append(hi - lo)
    return terms


# ---------------------------------------------------------------------------
# Monte Carlo tail estimation

@dataclass(frozen=True)
class TailEstimate:
    """Empirical tail of lambda_max(H(Z) - E H) with 95% Wilson intervals."""

    t_grid: tuple
    empirical: tuple
    ci_low: tuple
    ci_high: tuple
    samples: int
    mean_source: str


def _values_matrix(model: DiscreteModel, configs: np.ndarray) -> np.ndarray:
    cols = [np.asarray(model.alphabets[i], dtype=float)[configs[:, i]]
            for i in range(model.n)]
    return np.stack(cols, axis=1)


def _enumerated_mean(model: DiscreteModel, observable: MatrixObservable) -> np.ndarray:
    vals = _observable_values(model, observable)
    return np.einsum("s,sij->ij", model.flat_pmf(), vals)


def mc_tail_estimate(model: DiscreteModel, observable: MatrixObservable, t_grid,
                     samples: int, seed: int,
                     mean_enum_cap: int = 65536) -> TailEstimate:
    """Estimate P(lambda_max(H(Z) - E H) >= t) over a t grid.

    The centering mean comes from the observable's exact form when available,
    exact enumeration on small models, or an independent pilot sample (never
    the estimation sample itself).  Deterministic given the seed.
    """
    if samples < 1:
        raise ValueError("samples must be >= 1")
    ss = np.random.SeedSequence(int(seed))
    pilot_ss, main_ss = ss.spawn(2)
    mean = observable.exact_mean(model)
    source = "observable-exact"
    if mean is None:
        if model.size <= min(model.enum_cap, mean_enum_cap):
            mean = _enumerated_mean(model, observable)
            source = "enumeration"
        else:
            rng_pilot = np.random.default_rng(pilot_ss)
            n_pilot = max(1000, samples // 10)
            cfgs = model.sample(rng_pilot, n_pilot)
            mean = observable.batch(_values_matrix(model, cfgs)).mean(axis=0)
            source = "pilot"
    rng = np.random.default_rng(main_ss)
    cfgs = model.sample(rng, samples)
    Hs = observable.batch(_values_matrix(model, cfgs))
    lam = np.linalg.eigvalsh(Hs - np.asarray(mean))[..., -1]
    t_arr = np.asarray(t_grid, dtype=float)
    emp, lo, hi = [], [], []
    for t in t_arr:
        k = int((lam >= t).sum())
        emp.append(k / samples)
        w = wilson_interval(k, samples)
        lo.append(w[0])
        hi.append(w[1])
    return TailEstimate(tuple(float(t) for t in t_arr), tuple(emp), tuple(lo),
                        tuple(hi), samples, source)


def exhaustive_tail(model: DiscreteModel, observable: MatrixObservable,
                    t_grid) -> TailEstimate:
    """Exact tail probabilities by full enumeration of an enumerable model.

    The confidence interval collapses to the exact value at every grid point.
    """
    vals = _observable_values(model, observable)
    mean = np.einsum("s,sij->ij", model.flat_pmf(), vals)
    lam = np.linalg.eigvalsh(_hermitian_part(vals - mean))[..., -1]
    mu = model.flat_pmf()
    t_arr = np.asarray(t_grid, dtype=float)
    probs = [float(mu[lam >= t].sum()) for t in t_arr]
    return TailEstimate(tuple(float(t) for t in t_arr), tuple(probs),
                        tuple(probs), tuple(probs), model.size, "exhaustive")


# ---------------------------------------------------------------------------
# Vectorized greedy-coupling disagreement runs

@dataclass(frozen=True)
class DisagreementMC:
    """Empirical disagreement frequencies E L_i(k) from coupled runs."""

    site: int
    kmax: int
    runs: int
    means: np.ndarray       # (kmax + 1, n)
    std_errors: np.ndarray  # (kmax + 1, n)


def greedy_disagreement_mc(model: DiscreteModel, site: int, kmax: int,
                           runs: int, seed: int) -> DisagreementMC:
    """Monte Carlo of greedy-coupled chains started from a site resample.

    Each run draws X from the model, resamples ``site`` conditionally to get
    X', and then runs ``kmax`` greedy-coupled steps, recording the per-site
    disagreement indicators after every step.
    """
    if not 0 <= site < model.n:
        raise ValueError("site out of range")
    rng = np.random.default_rng(np.random.SeedSequence(int(seed)))
    n = model.n
    cond = [conditional_table(model, i) for i in range(n)]
    strides = [other_axes_strides(model.sizes, i) for i in range(n)]
    other_cols = [np.asarray([j for j in range(n) if j != i], dtype=int) for i in range(n)]

    X = model.sample(rng, runs)
    Y = X.copy()
    rows = X[:, other_cols[site]] @ strides[site] if n > 1 else np.zeros(runs, dtype=int)
    Y[:, site] = _sample_rows(cond[site][rows], rng.random(runs))

    means = np.empty((kmax + 1, n))
    ses = np.empty((kmax + 1, n))

    def record(k):
        L = (X != Y).astype(float)
        p = L.mean(axis=0)
        means[k] = p
        ses[k] = np.sqrt(p * (1.0 - p) / runs)

    record(0)
    for k in range(1, kmax + 1):
        picks = rng.integers(0, n, size=runs)
        U = rng.random((runs, 4))
        for i in range(n):
            mask = picks == i
            if not mask.any():
                continue
            if n > 1:
                rx = X[mask][:, other_cols[i]] @ strides[i]
                ry = Y[mask][:, other_cols[i]] @ strides[i]
            else:
                rx = ry = np.zeros(int(mask.sum()), dtype=int)
            a, b = _maximal_coupling_rows(cond[i][rx], cond[i][ry],
                                          U[mask, 0], U[mask, 1], U[mask, 2], U[mask, 3])
            X[mask, i] = a
            Y[mask, i] = b
        record(k)
    return DisagreementMC(site, kmax, runs, means, ses)
