"""Coupled Gibbs chains on discrete models and Monte Carlo tail estimation.

Implements the single-site resampling pair construction with one coupling law,
the greedy (maximal) coupling of the two chains' conditionals (the synchronized
refresh where they are equal, as on a product model), through one sampler
(``_maximal_coupling_rows``) and one exact joint kernel (``_joint_blocks``);
Monte Carlo over stacks of coupled runs; exact pair-distribution evolution;
the marginal-law property P, checked as one identity of the joint kernel's
row and column sums; antisymmetric chain sums and Stein-pair residuals from
one Poisson solve with the Gibbs kernel over all states (exact by property
P); and the empirical-tail estimator compared against the bounds.

Randomness discipline: every Monte Carlo entry point takes a master seed and
is deterministic given it; ``mc_tail_estimate`` draws its pilot and main
samples from two streams spawned from that seed.
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
    _DIFF_FLOATS,
    _site_split,
    conditional_table,
    site_neighbours,
)
from .hermitian import (
    STREAM_VERSION,
    HermitianMatrix,
    _certify,
    _coerce_all,
    _hermitian_part,
    _integer,
    _lambda_max_against,
    _spectral_norm,
    _to_params,
    _upper_indices,
)

WILSON_Z95 = 1.959963984540054
MEAN_ENUM_CAP = 65536  # max states for an enumerated (not piloted) centering mean


def wilson_interval(successes: int, trials: int) -> tuple[float, float]:
    """95% Wilson score interval (z = WILSON_Z95) for a binomial proportion."""
    successes, trials = _integer("successes", successes), _integer("trials", trials)
    if trials < 1:
        raise ValueError("trials must be >= 1")
    if not 0 <= successes <= trials:
        raise ValueError(f"successes must lie in [0, trials], got {successes}")
    z = WILSON_Z95
    p = successes / trials
    denom = 1.0 + z * z / trials
    center = (p + z * z / (2 * trials)) / denom
    half = z * math.sqrt(p * (1 - p) / trials + z * z / (4 * trials * trials)) / denom
    lo = 0.0 if successes == 0 else max(0.0, center - half)
    hi = 1.0 if successes == trials else min(1.0, center + half)
    return lo, hi


# ---------------------------------------------------------------------------
# Matrix observables

class MatrixObservable:
    """Maps a site-value configuration to a fixed-dimension Hermitian matrix.

    A subclass implements ``batch``, which maps a (b, n) array of value rows
    to a (b, d, d) stack; a call on one configuration is ``batch`` on one row.
    """

    dim: int

    def __call__(self, values) -> np.ndarray:
        return self.batch(np.asarray(values, dtype=float)[None])[0]

    def batch(self, values_matrix: np.ndarray) -> np.ndarray:
        raise NotImplementedError

    def exact_mean(self, model: DiscreteModel) -> np.ndarray | None:
        return None

    def hamming_bounds(self, model: DiscreteModel) -> DifferenceBoundSet:
        """Single-swap bounds c_k I, c_k the worst swap norm at site k over every
        state: valid (diff^2 <= c_k^2 I), though looser than structural ones."""
        worst = [_spectral_norm(diff) for diff in _swap_differences(model, self)]
        return DifferenceBoundSet([HermitianMatrix(c * np.eye(self.dim)) for c in worst])


class RademacherSumObservable(MatrixObservable):
    """H(z) = sum_k z_k A_k for a fixed list of Hermitian coefficients."""

    def __init__(self, matrices: Sequence):
        self.matrices = _coerce_all(matrices)
        self.dim = self.matrices[0].dim
        self._stack = np.stack([M.mat for M in self.matrices])
        # each coefficient's d^2 independent reals, (n, d^2), in _to_params's
        # layout: the diagonal, then the real and the imaginary upper triangle
        self._parts = _to_params(self._stack)

    def batch(self, values_matrix: np.ndarray) -> np.ndarray:
        """H of every (b, n) value row, shape (b, d, d): einsum's products of
        the d^2 independent reals, added in site order to +0.0, value-major,
        then written to both triangles.

        A +0.0 start makes every zero sum +0.0, whatever the signs of the
        zero products.  The coefficients are exactly Hermitian, so each lower
        entry's products are the upper one's, the imaginary ones negated, and
        their sums are too: a lower imaginary part is ``0.0 - x``, which keeps
        a zero sum +0.0, and a diagonal one is +0.0.  So the bytes are those
        of ``np.einsum("bn,nij->bij", values, stack)``.
        """
        values = np.asarray(values_matrix, dtype=float)
        n, d = len(self._stack), self.dim
        if values.ndim != 2 or values.shape[1] != n:
            raise ValueError(f"values must have shape (b, {n}), got {values.shape}")
        sums = np.zeros((d * d, len(values)))
        for f, v in zip(self._parts, values.T):
            sums += f[:, None] * v
        (i, j), k = _upper_indices(d), np.arange(d)
        upper_re, upper_im = sums[d:d + len(i)], sums[d + len(i):]
        out = np.empty((len(values), d, d), dtype=np.complex128)
        H = out.transpose(1, 2, 0)  # (d, d, b) view
        re, im = H.real, H.imag
        re[k, k], im[k, k] = sums[:d], 0.0
        re[i, j] = re[j, i] = upper_re
        im[i, j] = upper_im
        im[j, i] = np.subtract(0.0, upper_im, out=upper_im)  # over the sums' own rows
        return out

    def _check_sites(self, n: int) -> None:
        if n != len(self.matrices):
            raise ValueError(f"observable has {len(self.matrices)} coefficient matrices "
                             f"for a {n}-site model")

    def exact_mean(self, model: DiscreteModel) -> np.ndarray:
        self._check_sites(model.n)
        means = [float(np.dot(p, model.alphabets[i]))
                 for i, p in enumerate(model.site_marginals())]
        return np.einsum("n,nij->ij", np.asarray(means), self._stack)

    def hamming_bounds(self, model: DiscreteModel) -> DifferenceBoundSet:
        """Single-swap bounds w_k A_k with w_k the value range of site k."""
        self._check_sites(model.n)
        widths = [max(a) - min(a) for a in model.alphabets]
        return DifferenceBoundSet([HermitianMatrix(w * M.mat)
                                   for w, M in zip(widths, self.matrices)])


class TableObservable(MatrixObservable):
    """Explicit value-configuration -> matrix mapping, each entry certified Hermitian."""

    def __init__(self, mapping: dict, dim: int):
        self.dim = _integer("dim", dim)
        if self.dim < 1:
            raise ValueError(f"dim must be >= 1, got {self.dim}")
        self._map = {}
        for k, v in mapping.items():
            v = np.asarray(v, dtype=np.complex128)
            if v.shape != (self.dim, self.dim):
                raise ValueError("table entries must be dim x dim")
            self._map[tuple(k)] = _certify(v)

    def batch(self, values_matrix: np.ndarray) -> np.ndarray:
        """The entry of each value row: one dictionary lookup per distinct
        row, then one ``take``.  Rows are told apart by their bytes (a sort
        of one void scalar per row); rows equal as numbers but not as bytes,
        +0.0 and -0.0, are looked up apart and find the same entry.  A row
        with no entry is refused, the first such row in row order named."""
        rows = np.ascontiguousarray(values_matrix, dtype=float)
        keys = rows.view(np.dtype((np.void, rows.itemsize * rows.shape[-1])))
        _, first, inverse = np.unique(keys.ravel(), return_index=True, return_inverse=True)
        entries = [self._map.get(tuple(row)) for row in rows[first].tolist()]
        missing = [u for u, entry in enumerate(entries) if entry is None]
        if missing:
            row = rows[first[missing].min()].tolist()
            raise ValueError(f"table observable has no entry for the values {row}")
        return np.stack(entries).take(inverse.reshape(-1), axis=0)


def check_hamming(observable: MatrixObservable, model: DiscreteModel,
                  bound_set: DifferenceBoundSet):
    """Exhaustively validate (H(z) - H(z_i -> v))^2 <= A_i^2 over all swaps.

    Returns (holds, worst Loewner slack), the slack being the min eigenvalue
    of A_i^2 - diff^2; the bounds hold when it is >= -1e-10 (absolute).
    """
    if len(bound_set.matrices) != model.n:
        raise ValueError("need one difference bound per site")
    worst = math.inf
    for A, diff in zip(bound_set.matrices, _swap_differences(model, observable)):
        slack = _hermitian_part(_hermitian_part(A.mat @ A.mat) - diff @ diff)
        worst = min(worst, float(np.linalg.eigvalsh(slack)[..., 0].min()))
    return worst >= -1e-10, worst


# ---------------------------------------------------------------------------
# Maximal coupling

def _ordered_sum(terms) -> np.ndarray:
    """Elementwise sum of equally shaped arrays, added one at a time in the given order."""
    terms = iter(terms)
    total = np.array(next(terms), dtype=float)
    for t in terms:
        total += t
    return total


def _sample_rows(P: np.ndarray, u: np.ndarray) -> np.ndarray:
    """One index per column of the value-first (m, ...) unnormalized pmfs P: the
    first value whose cdf reaches u * total.  Trailing zero values, as in a
    padded alphabet, have cdf = total and are never counted."""
    cdf = list(itertools.accumulate(P))  # the cumsum over values, one row at a time
    threshold = u * cdf[-1]
    if len(cdf) == 1:  # one value: every index is 0
        return np.zeros(threshold.shape, dtype=np.int64)
    # cdf[-1] < threshold only if every value counts: skipping it clamps
    idx = (cdf[0] < threshold).astype(np.int64)
    for c in cdf[1:-1]:
        idx += c < threshold
    return idx


def _maximal_coupling_rows(R, U):
    """Maximal coupling of each column of the value-first (m, 2, A) pair rows R,
    the pmfs ``R[:, 0]`` and ``R[:, 1]`` of the two chains, from the four
    uniforms ``U[:, r] = (u_same, u_min, u_0, u_1)`` of each column; returns the
    (2, A) values of the two chains (law: :func:`maximal_coupling_joint`).

    The overlap mass sums the values in order 0, ..., m - 1, as in
    :func:`_joint_blocks`; trailing zero values add only +0.0.  The overlap
    pmf and both chains' residuals ``(R - mins) / zsafe`` are one value-first
    (m, 3, A) stack, so that one :func:`_sample_rows` call on ``U[1:]`` gives
    the overlap draw and both residual draws.
    """
    P = np.empty((R.shape[0], 3) + R.shape[2:])
    mins = np.minimum(R[:, 0], R[:, 1], out=P[:, 0])
    omega = _ordered_sum(mins)
    z = 1.0 - omega
    zsafe = np.where(z > 1e-15, z, 1.0)
    residuals = np.subtract(R, mins[:, None], out=P[:, 1:])
    residuals /= zsafe
    idx = _sample_rows(P, U[1:])
    return np.where(U[0] < omega, idx[0], idx[1:])


def _joint_blocks(p, q) -> np.ndarray:
    """Maximal-coupling joint of value-first pmfs, value-major: shape (m, m, ...).

    ``p[a]`` and ``q[a]`` broadcast against each other.  Block ``[a, a]`` is
    the overlap min(p, q)[a], since the residual product (p - min)(q - min) is
    exactly 0 at equal values; block ``[a, b]`` is (p - min)[a] (q - min)[b] / z
    with z = 1 - overlap mass, the mass summing the values in order 0, ..., m - 1.
    """
    m = p.shape[0]
    shape = np.broadcast_shapes(p.shape[1:], q.shape[1:])
    J = np.empty((m, m) + shape)
    # J[a, b, ...] is a view even when the blocks are 0-d
    mins = [np.minimum(p[a], q[a], out=J[a, a, ...]) for a in range(m)]
    z = _ordered_sum(mins)  # the overlap mass, then 1 - overlap in place
    np.subtract(1.0, z, out=z)
    z[~(z > 1e-15)] = np.inf  # no residual mass left
    rq = np.empty(shape)
    for b in range(m):
        np.subtract(q[b], mins[b], out=rq)
        for a in range(m):
            if a != b:
                block = np.subtract(p[a], mins[a], out=J[a, b, ...])
                block *= rq
                block /= z
    return J


def maximal_coupling_joint(p, q) -> np.ndarray:
    """Exact joint law of the maximal coupling: diag overlap + residual product.

    Broadcasts over leading axes: pmfs of shape (..., m) give joints of shape
    (..., m, m), a view of one :func:`_joint_blocks` array.
    """
    p = np.asarray(p, dtype=float)
    q = np.asarray(q, dtype=float)
    if p.shape[-1:] != q.shape[-1:]:
        raise ValueError("support mismatch")
    J = _joint_blocks(np.moveaxis(p, -1, 0), np.moveaxis(q, -1, 0))
    return np.moveaxis(J, (0, 1), (-2, -1))


# ---------------------------------------------------------------------------
# The exchangeable pair

def _check_pair_cap(model: DiscreteModel, what: str) -> None:
    if model.size * model.size > 1_000_000:
        raise EnumerationCapError(f"{model.size}^2 entries too large for {what}")


def gibbs_kernel(model: DiscreteModel) -> np.ndarray:
    """Dense single-site Gibbs transition matrix on flat configuration indices.

    Site i moves state (h, x_i, l) to (h, v, l), in the C-order split of
    :func:`_site_split`, with probability P(x_i = v | row h * low + l) / n.
    Those entries of G are the writeable diagonal view
    ``einsum("halhbl->halb", G.reshape(high, m, low, high, m, low))``; each
    site adds its :func:`conditional_table` / n into that view, sites in order.
    """
    _check_pair_cap(model, "a dense Gibbs kernel")
    G = np.zeros((model.size, model.size))
    for i in range(model.n):
        high, m, low = _site_split(model, i)
        block = np.einsum("halhbl->halb", G.reshape(high, m, low, high, m, low))
        block += (conditional_table(model, i) / model.n).reshape(high, 1, low, m)
    return G


# ---------------------------------------------------------------------------
# Exact pair-distribution evolution

class PairEvolver:
    """Exact one-step operator on pair distributions nu(x, y) as (S, S) arrays.

    Each site carries the exact maximal-coupling joint of the two chains'
    conditionals (:func:`_joint_blocks`); on a product model it is the
    synchronized refresh.  The evolver keeps every site's conditional table,
    zero-padded to the largest alphabet M, and never builds the n joints of
    all row pairs (n S^2 floats).  Models are capped at S <= 512, because a
    step from a full-support ``nu`` sorts n S^2 keys.

    ``step`` reads only the nonzero entries of ``nu`` and has no loop over
    sites: one key per (site, base row state, base column state), a base
    state having value 0 at the site, names the pairs of conditional rows
    that carry mass; :func:`_joint_blocks`, which works row pair by row pair,
    couples those pairs only, on the zero-padded tables; and one
    ``np.bincount``, which adds in input order, accumulates the products
    site by site into the same entries.
    """

    def __init__(self, model: DiscreteModel):
        if model.size > 512:
            raise EnumerationCapError("model too large for exact pair evolution")
        self.model = model
        # the lookups, indexed by site * S + state: the state's value at the
        # site, its base state (value 0 there) and its conditional, zero-padded
        # to the largest alphabet M and value-first, shape (M, n S)
        S, M = model.size, max(model.sizes)
        cond = np.zeros((M, model.n, S))
        low = np.zeros(model.n, dtype=np.int64)
        for i in range(model.n):  # rt[a, h * low + l] for every state (h, x_i, l)
            high, m, low[i] = _site_split(model, i)
            rt = conditional_table(model, i).T
            cond[:m, i].reshape(m, high, m, low[i])[...] = rt.reshape(m, high, 1, low[i])
        self._cond = cond.reshape(M, -1)
        value = np.indices(model.sizes).reshape(model.n, S)
        self._value = value.ravel()
        self._base = (np.arange(S) - value * low[:, None]).ravel()
        # (n, M): value a's offset a * low; a padded value's offset is 0, so its
        # products, exact zeros, are added at the base state
        real = np.arange(M) < np.array(model.sizes)[:, None]
        self._steps = np.multiply.outer(low, np.arange(M)) * real

    def step(self, nu: np.ndarray) -> np.ndarray:
        """One coupled Gibbs step, averaged over the uniformly picked site.

        At site i the mass of each pair of conditional rows sums its (M, M)
        value slots in a-major (a, b) order, the slots of zero entries and of
        padded values adding exact zeros; the padded values' products are
        exact zeros too.  Sites are accumulated in order and only the rows
        that a product reaches are divided by n; entries that no row pair
        with mass reaches stay +0.0, so a zero ``nu`` steps to float zeros.
        """
        S, n = self.model.size, self.model.n
        nu = np.asarray(nu)
        if nu.shape != (S, S):
            raise ValueError(f"nu must have shape ({S}, {S}), got {nu.shape}")
        M = len(self._cond)
        entries = np.flatnonzero(nu != 0)  # on floats, flatnonzero is ~20x slower at S = 512
        x, y = np.divmod(entries, S)
        at = np.arange(0, n * S, S)[:, None]  # site * S, the lookups' site offsets
        rx, ry = at + x, at + y  # (n, entries)
        key = (at + self._base.take(rx)) * S + self._base.take(ry)
        keys, group = np.unique(key.ravel(), return_inverse=True)
        slot = self._value.take(rx) * M + self._value.take(ry)  # a * M + b
        slots = np.zeros((M * M, len(keys)))  # put repeats the values once per site
        slots.put(slot * len(keys) + group.reshape(n, -1), nu.take(entries))
        mass = _ordered_sum(slots)
        sx, by = np.divmod(keys, S)  # sx = site * S + base row state
        site = sx // S
        J = _joint_blocks(self._cond.take(sx, axis=1), self._cond.take(site * S + by, axis=1))
        J *= mass
        steps = self._steps.take(site, axis=0)  # (groups, M)
        tx, ty = (sx % S)[:, None] + steps, by[:, None] + steps
        # group-major order is site-major: np.unique sorted the keys by site first
        idx, J = (tx * S)[:, :, None] + ty[:, None, :], J.transpose(2, 0, 1)
        # bincount returns int64 for empty weights (a zero nu): make it float
        out = np.bincount(idx.ravel(), J.ravel(), minlength=S * S).astype(float, copy=False)
        out = out.reshape(S, S)
        reached = np.zeros(S, dtype=bool)
        reached[tx] = True
        out[reached] /= n  # the other rows are +0.0 and stay unwritten
        return out

    def delta(self, x_flat: int, y_flat: int) -> np.ndarray:
        S = self.model.size
        x_flat, y_flat = _integer("x_flat", x_flat), _integer("y_flat", y_flat)
        if not (0 <= x_flat < S and 0 <= y_flat < S):
            raise ValueError(f"flat states must lie in [0, {S}), got ({x_flat}, {y_flat})")
        nu = np.zeros((S, S))
        nu[x_flat, y_flat] = 1.0
        return nu


@dataclass(frozen=True)
class PropertyPReport:
    """Does each chain of the coupled pair keep its own Gibbs law?"""

    holds: bool
    max_deviation: float


def verify_property_P(model: DiscreteModel) -> PropertyPReport:
    """Check that each coupled chain keeps its own Gibbs law, from every start
    pair and after every number of steps, through one per-site identity.

    A coupled step picks site i with probability 1/n and moves the pair (x, y)
    to (x_i <- a, y_i <- b) with probability J(a, b), the maximal-coupling
    joint (:func:`_joint_blocks`) of the conditionals p = P(x_i = . | x) and
    q = P(y_i = . | y).  The identity: for every site and every pair of its
    conditional rows, J has p as its row sums and q as its column sums.

    Induction on k.  By the identity, the X-marginal of one step from the
    point mass at (x, y) is (1/n) sum_i p_i, which is the Gibbs row G(x, .);
    the Y-marginal is G(y, .).  The step is linear in the pair law nu, so
    from any nu the one-step marginals are (X-marginal of nu) G and
    (Y-marginal of nu) G.  If after k steps from (x, y) the marginals are
    G^k(x, .) and G^k(y, .), one more step makes them G^(k+1)(x, .) and
    G^(k+1)(y, .).  So the identity gives property P for every start law and
    every k.

    The joints are built in row blocks of at most ``_DIFF_FLOATS`` (value,
    row pair) entries, so a block's (m, m, rows, K) joint holds m times that.
    ``max_deviation`` is the largest absolute difference between a row or
    column sum and its conditional; the property holds when it is <= 1e-12.
    Models with S^2 > 10^6 pairs of states are refused, as by
    :func:`gibbs_kernel`.
    """
    _check_pair_cap(model, "the property-P identity")
    max_dev = 0.0
    for i in range(model.n):
        rt = conditional_table(model, i).T  # (m, K): column r is row r's conditional
        m, K = rt.shape
        q = rt[:, None, :]
        block = max(1, _DIFF_FLOATS // (m * K))
        for first in range(0, K, block):
            p = rt[:, first:first + block, None]
            J = _joint_blocks(p, q)  # (m, m, rows, K)
            dev = max(np.abs(J.sum(axis=1) - p).max(), np.abs(J.sum(axis=0) - q).max())
            max_dev = max(max_dev, float(dev))
    return PropertyPReport(max_dev <= 1e-12, max_dev)


def _certified(H) -> np.ndarray:
    """The Hermitian part of the (R, d, d) observable values H, certified by
    ``_certify``, in their own dtype (that of exactly Hermitian values is
    their own bits); a non-finite entry is refused first (``ArithmeticError``)."""
    H = np.asarray(H)
    if not np.isfinite(H).all():
        raise ArithmeticError("an observable value has a non-finite entry")
    return _certify(H)


def _enumerated(model: DiscreteModel, f: MatrixObservable) -> tuple[np.ndarray, np.ndarray]:
    """The values of every configuration, shape (S, d, d), from one ``f.batch``
    call on the value rows in flat (C) order, written over the int64
    ``np.indices`` buffer that ``_values_matrix`` consumes, and their mean
    under the model.  Non-finite values are refused (``ArithmeticError``);
    finite ones, outside input, are certified Hermitian before the mean."""
    configs = np.indices(model.sizes, dtype=np.int64).reshape(model.n, -1).T
    H = _certified(np.asarray(f.batch(_values_matrix(model, configs)), dtype=np.complex128))
    return H, np.einsum("s,sij->ij", model.flat_pmf(), H)


def _swap_differences(model: DiscreteModel, f: MatrixObservable):
    """H(z) - H(z_i -> v) of every state z, shape (S, m_i, d, d), for each site i
    in order, from the certified enumeration."""
    H, _ = _enumerated(model, f)
    return (H[:, None] - H[site_neighbours(model, i)] for i in range(model.n))


def _step_difference(G: np.ndarray, v: np.ndarray) -> np.ndarray:
    """E[v(X) - v(X') | X = x] = (v - G v)(x) for every state x, over a (S, d, d) stack."""
    return v - np.einsum("st,tij->sij", G, v)


def _chain_sum(model: DiscreteModel, G: np.ndarray, fc: np.ndarray) -> np.ndarray:
    """g = sum_k G^k fc over every state, so that F(x, y) = g[x] - g[y].

    By property P each chain of the coupled pair keeps its own single-chain
    law, so the k-th term from starts (x, y) is (G^k fc)[x] - (G^k fc)[y].
    The series solves the Poisson equation (I - G) g = fc with pi . g = 0,
    which is one dense solve of (I - G + 1 pi^T) g = fc: positive weights make
    G irreducible, so that matrix is nonsingular, and pi^T (I - G + 1 pi^T) =
    pi^T gives pi . g = pi . fc = 0.
    """
    A = np.eye(len(G)) - G + model.flat_pmf()  # + pi_j in column j of every row
    # real and imaginary parts side by side: one real solve for all d^2 entries
    g = np.linalg.solve(A, fc.reshape(len(G), -1).view(float))
    return np.ascontiguousarray(g).view(complex).reshape(fc.shape)


@dataclass(frozen=True)
class SteinIdentityReport:
    """Exhaustive check of the conditional-mean identity."""

    max_residual: float
    pairs_checked: int
    holds: bool


def stein_identity_check(model: DiscreteModel, f) -> SteinIdentityReport:
    """Verify E(F(X,X')|X) = f(X) - E f(X) exhaustively.

    Every F(x, y) = g[x] - g[y] comes from one chain sum g, so that
    E(F(X,X')|X) is the Gibbs-step difference (I - G) g; ``max_residual`` is
    max_x |((I - G) g - f_c)(x)|, which certifies the Poisson solve, and
    ``pairs_checked`` counts the pairs (x, y) with G(x, y) > 0.  The identity
    holds when that spectral-norm defect is <= 1e-8 (absolute).
    """
    H, mean = _enumerated(model, f)
    fc = H - mean
    G = gibbs_kernel(model)
    max_res = _spectral_norm(_step_difference(G, _chain_sum(model, G, fc)) - fc)
    return SteinIdentityReport(max_res, int(np.count_nonzero(G)), max_res <= 1e-8)


# ---------------------------------------------------------------------------
# Stein pairs

@dataclass(frozen=True)
class SteinPairReport:
    alpha_hat: float | None
    residual: float
    degenerate: bool
    is_stein: bool


def verify_stein_pair(model: DiscreteModel, observable: MatrixObservable) -> SteinPairReport:
    """Fit the scale factor of E(X - X' | Z) = alpha X exactly over all states
    of the single-site Gibbs resampling pair.

    The observable is centered before fitting; the report carries the worst
    spectral-norm residual max_z |E(X - X'|z) - alpha_hat X(z)| and flags
    degenerate (constant) observables.  The pair is a Stein pair when that
    residual is <= 1e-8 max(1, max_z |X(z)|) for the centered X (relative).
    """
    H, mean = _enumerated(model, observable)
    psi = H - mean
    T = _step_difference(gibbs_kernel(model), psi)
    mu = model.flat_pmf()
    denom = float(np.einsum("s,sij->", mu, np.abs(psi) ** 2).real)
    scale = max(1.0, float(np.abs(psi).max()) ** 2)
    if denom <= 1e-15 * scale:
        return SteinPairReport(None, 0.0, True, False)
    num = float(np.einsum("s,sij,sij->", mu, T.conj(), psi).real)
    alpha_hat = num / denom
    residual = _spectral_norm(T - alpha_hat * psi)
    anchor = max(1.0, _spectral_norm(psi))
    return SteinPairReport(alpha_hat, residual, False, residual <= 1e-8 * anchor)


def telescoping_decomposition(f: MatrixObservable, x_vals, y_vals) -> list[np.ndarray]:
    """Per-site terms Z_i with sum_i Z_i = f(x) - f(y) exactly.

    Z_i = f(x_1..x_i, y_{i+1}..y_n) - f(x_1..x_{i-1}, y_i..y_n), the differences
    of one ``f.batch`` call on the n + 1 rows x_1..x_k, y_{k+1}..y_n; sites
    where the configurations agree give equal rows, hence exact zeros.
    """
    x = np.asarray(x_vals, dtype=float)
    y = np.asarray(y_vals, dtype=float)
    if x.shape != y.shape:
        raise ValueError("configurations must have the same length")
    rows = np.where(np.tri(len(x) + 1, len(x), -1, dtype=bool), x, y)  # row k: x before site k
    return list(np.diff(np.asarray(f.batch(rows), dtype=np.complex128), axis=0))


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
    """Site values of (R, n) index configurations, written over them: ``configs``
    is the transposed view of a C-ordered, site-major (n, R) int64 buffer,
    which is consumed.  Site i's values, ``alphabet_i.take(configs[:, i])``,
    replace row i through the buffer's float64 view, whose (R, n) transposed
    view is returned; ``batch`` reads its site rows.  ``take`` in mode "clip"
    (the indices are in range) reads each index before it writes its value."""
    out = configs.T.view(float)
    for i, a in enumerate(model.alphabets):
        np.asarray(a, dtype=float).take(configs[:, i], out=out[i], mode="clip")
    return out.T


def mc_tail_estimate(model: DiscreteModel, observable: MatrixObservable, t_grid,
                     samples: int, seed: int) -> TailEstimate:
    """Estimate P(lambda_max(H(Z) - E H) >= t) over a t grid.

    The centering mean comes from the observable's exact form when available,
    exact enumeration on small models, or an independent pilot sample (never
    the estimation sample itself).  Deterministic given the seed; ``samples``
    and ``seed`` must be integers (not bools).

    Each draw, pilot and main, lives in the one (n, size) buffer that
    ``model.sample`` returns; ``_values_matrix`` consumes it, writing the
    site values that ``batch`` reads over their indices.  A pilot mean is
    taken from certified values, and the values centred against it are
    certified too, as enumerated ones are; against an exact or enumerated
    mean the main batch is read as it is.  Every grid point's count comes
    from one sort of the lambda_max values.
    """
    samples, seed = _integer("samples", samples), _integer("seed", seed)
    if samples < 1:
        raise ValueError("samples must be >= 1")
    pilot_ss, main_ss = np.random.SeedSequence(seed).spawn(2)
    with np.errstate(over="ignore", invalid="ignore"):  # refused by _lambda_max_against
        mean = observable.exact_mean(model)
        source = "observable-exact"
        if mean is None:
            if model.size <= MEAN_ENUM_CAP:
                mean = _enumerated(model, observable)[1]
                source = "enumeration"
            else:
                n_pilot = max(1000, samples // 10)
                pilot = model.sample(np.random.default_rng(pilot_ss), n_pilot)
                mean = _certified(observable.batch(_values_matrix(model, pilot))).mean(axis=0)
                source = "pilot"
        H = observable.batch(_values_matrix(
            model, model.sample(np.random.default_rng(main_ss), samples)))
        if source == "pilot":
            H = _certified(H)
        centered = H - np.asarray(mean)
    t_arr = np.asarray(t_grid, dtype=float)
    lam = _lambda_max_against(centered, t_arr)
    counts = (len(lam) - np.searchsorted(np.sort(lam), t_arr, side="left")).tolist()
    cis = [wilson_interval(k, samples) for k in counts]
    return TailEstimate(tuple(float(t) for t in t_arr), tuple(k / samples for k in counts),
                        tuple(lo for lo, _ in cis), tuple(hi for _, hi in cis), samples, source)


def exhaustive_tail(model: DiscreteModel, observable: MatrixObservable,
                    t_grid) -> TailEstimate:
    """Exact tail probabilities by full enumeration of an enumerable model.

    The confidence interval collapses to the exact value at every grid point.
    """
    with np.errstate(over="ignore", invalid="ignore"):  # refused by _lambda_max_against
        H, mean = _enumerated(model, observable)
        centered = H - mean
    t_arr = np.asarray(t_grid, dtype=float)
    lam = _lambda_max_against(centered, t_arr)
    mu = model.flat_pmf()
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
    stream_version: int     # hermitian.STREAM_VERSION of the draws: greedy runs write no manifest


def _coupled_step(model: DiscreteModel, Z, picks, U) -> None:
    """One greedy-coupled Gibbs step of the (2, n, runs) pair stack Z, in place.

    ``Z[0]`` and ``Z[1]`` are the two chains.  Run r resamples site ``picks[r]``
    in both from the maximal coupling of the two conditional rows, on the four
    uniforms ``U[r]``.  One ``model._conditional_rows`` gather of both chains'
    rows, one :func:`_maximal_coupling_rows` call and one scatter to
    ``Z[:, picks, r]`` serve every run.  Where the two rows are equal (always,
    on a product model) both chains receive one shared value: the
    synchronized refresh.
    """
    rows = model._conditional_rows(picks, Z)
    Z[:, picks, np.arange(Z.shape[2])] = _maximal_coupling_rows(rows, U.T)


def greedy_disagreement_mc(model: DiscreteModel, site: int, kmax: int,
                           runs: int, seed: int) -> DisagreementMC:
    """Monte Carlo of greedy-coupled chains started from a site resample.

    Each run draws X from the model, resamples ``site`` conditionally to get
    X', and then runs ``kmax`` greedy-coupled steps, recording the per-site
    disagreement indicators after every step.  ``site``, ``kmax``, ``runs``
    and ``seed`` must be integers (not bools).

    Both chains of every run live in one (2, n, A) int64 pair stack, chain
    0 the draw X and chain 1 its resample X', so that each step gathers,
    couples and scatters both chains at once (:func:`_coupled_step`).
    Coalescence is absorbing: a run whose two chains agree at every site
    gathers the same conditional column for both, so the coupling draws one
    shared value (``_maximal_coupling_rows`` returns equal values) and the
    chains agree again after the step.  Such a run adds nothing to any later
    count.  So only the active runs, those with a disagreement left, are
    kept, compressed with one ``take`` along the run axis in run order: the
    runs that differ at ``site`` after the resample, less every run that
    coalesces after a step.  ``counts[k]`` is the number of runs that differ
    at each site after step k.

    RNG stream 4: each step draws ``rng.integers(0, n, A)`` picks and then
    ``rng.random((A, 4))`` uniforms for the A active runs only, row r of each
    going to the r-th active run.  The loop stops once no run is active.
    """
    site, kmax, runs, seed = (_integer(name, v) for name, v in
                              (("site", site), ("kmax", kmax), ("runs", runs), ("seed", seed)))
    if not 0 <= site < model.n:
        raise ValueError("site out of range")
    if runs < 1 or kmax < 0:
        raise ValueError("need runs >= 1 and kmax >= 0")
    rng = np.random.default_rng(np.random.SeedSequence(seed))
    n = model.n
    X = model.sample(rng, runs).T  # (n, runs): one row per site
    Z = np.stack((X, X))
    Z[1, site] = _sample_rows(model._conditional_rows(np.full(runs, site), X), rng.random(runs))

    counts = np.zeros((kmax + 1, n), dtype=np.int64)
    differ = Z[0, site] != Z[1, site]  # the chains agree off site
    counts[0, site] = differ.sum()
    Z = Z.take(differ.nonzero()[0], axis=2)  # the runs that disagree
    for k in range(1, kmax + 1):
        active = Z.shape[2]
        if not active:
            break
        _coupled_step(model, Z, rng.integers(0, n, size=active), rng.random((active, 4)))
        differ = Z[0] != Z[1]
        counts[k] = differ.sum(axis=1)
        Z = Z.take(differ.any(axis=0).nonzero()[0], axis=2)
    means = counts / runs
    return DisagreementMC(site, kmax, runs, means, np.sqrt(means * (1.0 - means) / runs),
                          STREAM_VERSION)
