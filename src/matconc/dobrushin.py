"""Exact Dobrushin interdependence matrices for small finite discrete models.

A DiscreteModel is an n-site model with per-site finite alphabets and a
strictly positive joint weight, normalized internally to a pmf.  Everything
here is exact enumeration: conditionals, total-variation sensitivities, the
entrywise-tight interdependence matrix, and the contraction matrix
B = (1 - 1/n) I + (1/n) D used by the coupling analysis.  Models too large to
enumerate raise EnumerationCapError rather than silently degrading to
sampling.
"""

from __future__ import annotations

import functools
import json
from bisect import bisect_left, bisect_right
from dataclasses import dataclass
from itertools import combinations
from math import prod

import numpy as np

from .hermitian import _integer, _is_real, _object, _write_json

DEFAULT_ENUM_CAP = 1_000_000
# floats in the single-swap differences of one block of sites in dobrushin_matrix
# (256 KB): at 18 sites, every site of a side at once (17 MB, the stack streamed
# once per column) took about 1.25x the time of one site's table at a time; also
# the floats in one row block of coupled joints in coupling.verify_property_P
_DIFF_FLOATS = 1 << 15


class EnumerationCapError(ValueError):
    """Raised when an exact enumeration would exceed the configured cap."""


def _check_cap(size: int, enum_cap) -> int:
    """``enum_cap`` read as an integer, once ``size`` states are within it."""
    enum_cap = _integer("enum_cap", enum_cap)
    if size > enum_cap:
        raise EnumerationCapError(f"product space has {size} states, above cap {enum_cap}")
    return enum_cap


def _weights(what: str, weights, shape: tuple) -> np.ndarray:
    """``weights`` of ``shape`` as a read-only pmf, ``w / w.sum()``: every
    weight strictly positive, their sum finite and no share of it underflowing
    to 0, or a ``ValueError``."""
    w = np.asarray(weights, dtype=float)
    if w.shape != shape:
        raise ValueError(f"{what} shape {w.shape} != sizes {shape}")
    with np.errstate(over="ignore", invalid="ignore"):
        total = w.sum()
    if not ((w > 0).all() and np.isfinite(total)):
        raise ValueError(f"{what} weights must be strictly positive with a finite sum")
    pmf = w / total
    if not (pmf > 0).all():
        raise ValueError(f"{what} weights span too wide a range: the share of the least, "
                         f"{float(w.min())!r} of {float(total)!r}, underflows to 0")
    pmf.setflags(write=False)
    return pmf


class DiscreteModel:
    """n-site finite-alphabet model with exact conditional distributions.

    Two backends: a dense weight table over the product space (for generic or
    Ising-style weights) and a factorized product form that never materializes
    the table (so product models with large n still support sampling,
    ``conditional`` and the coupled-chain gather, though not the dense table,
    nor :func:`conditional_table` once a stack of it passes numpy's largest
    array).  The product-space size is always checked against ``enum_cap``.

    Every site's :func:`conditional_table` is built once, on first use, into
    ``_conditional_stacks``: one read-only (n_m, S / m, m) stack per alphabet
    size m, its m-value sites in order.  A table model keeps those n S floats
    for its lifetime; a product model's stacks broadcast each site pmf over
    its rows and hold only the pmfs.  The coupled chains gather their rows from
    ``_row_table``, also built once, a product model's from its pmfs alone,
    and a table model samples through ``_flat_cdf``, also built once.
    """

    def __init__(self, alphabets, *, table=None, site_pmfs=None,
                 enum_cap: int = DEFAULT_ENUM_CAP):
        self.alphabets = tuple(tuple(a) for a in alphabets)
        if not self.alphabets or any(len(a) < 1 for a in self.alphabets):
            raise ValueError("each site needs a nonempty alphabet")
        self.n = len(self.alphabets)
        self.sizes = tuple(len(a) for a in self.alphabets)
        self.size = prod(self.sizes)
        self.enum_cap = _check_cap(self.size, enum_cap)
        if (table is None) == (site_pmfs is None):
            raise ValueError("provide exactly one of table / site_pmfs")
        if site_pmfs is not None and len(site_pmfs) != self.n:
            raise ValueError(f"model has {self.n} alphabets but {len(site_pmfs)} pmfs")
        self._table = None if table is None else _weights("table", table, self.sizes)
        self._site_pmfs = None if site_pmfs is None else tuple(
            _weights(f"site {i} pmf", site_pmfs[i], (m,)) for i, m in enumerate(self.sizes))

    # -- constructors ------------------------------------------------------

    @classmethod
    def from_table(cls, alphabets, weights, enum_cap: int = DEFAULT_ENUM_CAP):
        return cls(alphabets, table=weights, enum_cap=enum_cap)

    @classmethod
    def from_product(cls, alphabets, site_pmfs, enum_cap: int = DEFAULT_ENUM_CAP):
        return cls(alphabets, site_pmfs=site_pmfs, enum_cap=enum_cap)

    @classmethod
    def from_ising(cls, coupling, field=None, values=(-1.0, 1.0),
                   enum_cap: int = DEFAULT_ENUM_CAP):
        """Pairwise model with weight exp(sum_{i<j} J_ij v_i v_j + sum_i h_i v_i).

        J must be finite, equal to its transpose and zero on the diagonal, and
        h finite; anything else is a ``ValueError``, since the weight reads
        only the upper triangle.  Row i of ``values.take(np.indices(...))``
        holds site i's value in every C-order state; the energy adds
        h_i v_i, then J_ij v_i v_j for j > i, site by site.
        """
        J = np.asarray(coupling, dtype=float)
        if J.ndim != 2 or J.shape[0] != J.shape[1]:
            raise ValueError("coupling must be a square matrix")
        n = J.shape[0]
        h = np.zeros(n) if field is None else np.asarray(field, dtype=float)
        if h.shape != (n,):
            raise ValueError("field has wrong length")
        if not (np.isfinite(J).all() and np.isfinite(h).all()):
            raise ValueError("coupling and field must be finite")
        if not np.array_equal(J, J.T):
            raise ValueError("coupling must equal its transpose")
        if np.diagonal(J).any():
            raise ValueError("coupling must have a zero diagonal")
        alphabets = [tuple(values)] * n
        sizes = (len(values),) * n
        _check_cap(prod(sizes), enum_cap)
        x = np.asarray(values, dtype=float).take(np.indices(sizes).reshape(n, -1))
        energy = np.zeros(x.shape[1])
        for i in range(n):
            energy += h[i] * x[i]
            for term in J[i, i + 1:, None] * x[i] * x[i + 1:]:
                energy += term
        energy -= energy.max()
        table = np.exp(energy).reshape(sizes)
        if not table.min() / table.sum() > 0:  # the share that _weights would refuse
            raise ValueError(f"coupling and field span an energy range of {-energy.min():.6g}: "
                             "the least likely state's share of the weight underflows to 0")
        return cls(alphabets, table=table, enum_cap=enum_cap)

    # -- basic access ------------------------------------------------------

    @functools.cached_property
    def _conditional_stacks(self) -> dict[int, np.ndarray]:
        """m -> the read-only (n_m, S / m, m) stack of the m-value sites' conditional tables.

        A table site's rows are its (high, m, low) split with the value axis
        moved last, each divided by its sum over that contiguous axis.
        """
        groups = {}
        for i, m in enumerate(self.sizes):
            groups.setdefault(m, []).append(i)
        stacks = {}
        for m, sites in groups.items():
            if len(sites) * self.size * 8 > np.iinfo(np.intp).max:  # numpy's largest array
                raise EnumerationCapError(f"the conditional tables of the {len(sites)} "
                                          f"{m}-value sites have {self.size // m} rows each, "
                                          "beyond numpy's largest array")
            if self._site_pmfs is not None:
                pmfs = np.stack([self._site_pmfs[i] for i in sites])[:, None]
                stacks[m] = np.broadcast_to(pmfs, (len(sites), self.size // m, m))
                continue
            stack = np.empty((len(sites), self.size // m, m))
            for rows, i in zip(stack, sites):
                high, _, low = _site_split(self, i)
                rows.reshape(high, low, m)[...] = \
                    self._table.reshape(high, m, low).transpose(0, 2, 1)
                rows /= _value_sum(rows)[:, None]
            stack.setflags(write=False)
            stacks[m] = stack
        return stacks

    @functools.cached_property
    def _row_table(self) -> tuple[np.ndarray, np.ndarray, np.ndarray]:
        """``(T, offsets, W)``: every site's conditional rows in one value-first table.

        Column ``offsets[i] + r`` of T is row r of site i's :func:`conditional_table`,
        zero-padded to the largest alphabet, sites in order; ``W[:, i]`` is site i's
        :func:`conditional_row_weights`.  A product site keeps one row, its pmf, with
        zero weights.
        """
        if self._site_pmfs is not None:
            tables = [p[None] for p in self._site_pmfs]
            W = np.zeros((self.n, self.n), dtype=np.int64)
        else:
            tables = [conditional_table(self, i) for i in range(self.n)]
            W = np.stack([conditional_row_weights(self.sizes, i) for i in range(self.n)], axis=1)
        rows = [len(t) for t in tables]
        offsets = np.cumsum([0] + rows[:-1])
        T = np.zeros((max(self.sizes), sum(rows)))
        for t, o in zip(tables, offsets):
            T[:t.shape[1], o:o + len(t)] = t.T
        return T, offsets, W

    def _conditional_rows(self, sites, Z) -> np.ndarray:
        """The value-first (max m, ..., R) conditional pmfs of site ``sites[r]``
        given column r of the (..., n, R) index configurations Z, zero-padded:
        one gather from ``_row_table`` at ``offsets[i] + W[:, i] @ Z[..., :, r]``,
        the row weights summed over the site axis.  A (2, n, R) pair stack gives
        both chains' rows, (max m, 2, R), in one ``take``."""
        T, offsets, W = self._row_table
        return T.take(offsets.take(sites) + (W.take(sites, axis=1) * Z).sum(axis=-2), axis=1)

    @property
    def table(self) -> np.ndarray:
        """Dense joint pmf; materialized on demand for product models."""
        if self._table is not None:
            return self._table
        tab = self._site_pmfs[0]
        for p in self._site_pmfs[1:]:
            tab = np.multiply.outer(tab, p)
        tab.setflags(write=False)
        return tab

    def site_marginals(self) -> list[np.ndarray]:
        if self._site_pmfs is not None:
            return [p.copy() for p in self._site_pmfs]
        out = []
        for i in range(self.n):
            axes = tuple(j for j in range(self.n) if j != i)
            out.append(self.table.sum(axis=axes))
        return out

    def values(self, config) -> tuple:
        """Map an index configuration to the site values it encodes."""
        return tuple(self.alphabets[i][int(c)] for i, c in enumerate(config))

    def flat_pmf(self) -> np.ndarray:
        return self.table.reshape(-1)

    def conditional(self, i: int, config) -> np.ndarray:
        """Conditional pmf of site i given the other coordinates of ``config``."""
        if self._site_pmfs is not None:
            return self._site_pmfs[i].copy()
        slicer = tuple(slice(None) if j == i else int(config[j]) for j in range(self.n))
        vec = self._table[slicer]
        return vec / vec.sum()

    @functools.cached_property
    def _flat_cdf(self) -> np.ndarray:
        """The read-only cdf ``c / c[-1]`` (c = ``flat_pmf().cumsum()``) that
        ``Generator.choice`` builds from ``p=flat_pmf()`` on every call."""
        c = self.flat_pmf().cumsum()
        cdf = c / c[-1]
        cdf.setflags(write=False)
        return cdf

    def sample(self, rng, size: int) -> np.ndarray:
        """Draw ``size`` index configurations, shape (size, n).

        Both branches map uniforms as ``Generator.choice`` does, from a cdf
        ``c / c[-1]`` (c = p.cumsum()): the index is the number of cdf entries
        that are <= u.  ``choice``'s checks on p cannot fire, since every pmf
        is strictly positive and normalized at construction.  The result is
        the transposed view of a C-ordered, site-major (n, size) int64 array,
        which the caller owns.

        A product model draws all sites from one ``rng.random((n, size))``
        call, the doubles that n per-site ``rng.choice(m_i, size, p=p_i)``
        calls would take in turn, and writes each site's index row over its
        own uniform row, through the int64 view of that one buffer: the
        result is that view.  A table model maps one ``rng.random(size)``
        call through the cached flat cdf ``_flat_cdf`` with
        ``searchsorted(side="right")``, the doubles and flat indices of
        ``rng.choice(self.size, size, p=flat_pmf())``, and unravels them
        into a new array.
        """
        rng = np.random.default_rng(rng) if not isinstance(rng, np.random.Generator) else rng
        if self._site_pmfs is not None:
            u = rng.random((self.n, size))
            idx = u.view(np.int64)
            for p, row, out in zip(self._site_pmfs, u, idx):
                c = p.cumsum()
                cdf = c[:-1] / c[-1]  # the last entry, 1.0, no u < 1 reaches
                # a binary site's count is its one comparison, cast as it is written
                out[...] = cdf[0] <= row if len(cdf) == 1 else sum(col <= row for col in cdf)
            return idx.T
        flat = self._flat_cdf.searchsorted(rng.random(size), side="right")
        return np.array(np.unravel_index(flat, self.sizes)).T


# ---------------------------------------------------------------------------
# Conditional tables (shared with the coupling machinery)

def _value_sum(x: np.ndarray) -> np.ndarray:
    """x summed over its last axis, a site's values, with the bits of
    ``x.sum(axis=-1)``: below 8 values NumPy adds each row in order, which the
    value slices added in order do in one pass each, where NumPy's reduction
    loop runs once per row; from 8 values NumPy sums pairwise, and that is kept."""
    m = x.shape[-1]
    if m >= 8:
        return x.sum(axis=-1)
    total = x[..., 0].copy() if m == 1 else x[..., 0] + x[..., 1]
    for k in range(2, m):
        total += x[..., k]
    return total


def conditional_row_weights(sizes, i: int) -> np.ndarray:
    """Site i's row weights: C-order strides of the other sites, 0 at site i.

    ``config @ w`` is the :func:`conditional_table` row of an index
    configuration (or of each row of an (R, n) stack of them).
    """
    w = np.zeros(len(sizes), dtype=np.int64)
    stride = 1
    for j in range(len(sizes) - 1, -1, -1):
        if j != i:
            w[j] = stride
            stride *= sizes[j]
    return w


def conditional_table(model: DiscreteModel, i: int) -> np.ndarray:
    """All conditionals of site i at once, shape (prod(other sizes), m_i).

    The row of an index configuration is the C-order flattening of its other
    coordinates, ``config @ conditional_row_weights(model.sizes, i)``.  The
    table is a read-only view into the model's cached (n_m, S / m, m) stack
    of its m-value sites, m = m_i (see :class:`DiscreteModel`).  The first
    call on a model builds every site's table, n S floats for a table model,
    kept for the model's lifetime; later calls build nothing.  A product
    model's rows are broadcasts of the site pmf.
    """
    m = model.sizes[i]
    return model._conditional_stacks[m][model.sizes[:i].count(m)]


def _site_split(model: DiscreteModel, i: int) -> tuple[int, int, int]:
    """(high, m_i, low): flat state s = (h, x_i, l) in C order, h < high, l < low.

    The site-i conditional row of s is ``h * low + l``, whatever x_i is.
    """
    m = model.sizes[i]
    high = prod(model.sizes[:i])
    return high, m, model.size // (high * m)


def site_neighbours(model: DiscreteModel, i: int) -> np.ndarray:
    """Single-site variants of every flat state, shape (S, m_i).

    ``variants[s, v]`` is the flat index of s with site i set to v.  Memory
    is O(S m_i).
    """
    high, m, low = _site_split(model, i)  # low is the C-order stride of site i
    base = np.arange(0, model.size, m * low)[:, None] + np.arange(low)  # x_i = 0
    variants = np.broadcast_to(base[:, None, :, None] + low * np.arange(m), (high, m, low, m))
    return variants.reshape(model.size, m)


# ---------------------------------------------------------------------------
# Total variation and the interdependence matrix

def tv_distance(p, q) -> float:
    """Half the l1 distance between two pmfs on the same support."""
    p = np.asarray(p, dtype=float)
    q = np.asarray(q, dtype=float)
    if p.shape != q.shape:
        raise ValueError("support mismatch")
    return 0.5 * float(np.abs(p - q).sum())


@dataclass(frozen=True)
class InterdependenceMatrix:
    """Nonnegative n x n sensitivity matrix with zero diagonal, entries in [0,1]."""

    entries: np.ndarray

    def __post_init__(self):
        D = np.asarray(self.entries, dtype=float)
        if D.ndim != 2 or D.shape[0] != D.shape[1]:
            raise ValueError("entries must be square")
        if not np.isfinite(D).all():
            raise ValueError("entries must be finite")
        if np.abs(np.diagonal(D)).max(initial=0.0) != 0.0:
            raise ValueError("diagonal must be zero")
        if (D < 0).any() or (D > 1 + 1e-12).any():
            raise ValueError("entries must lie in [0, 1]")
        D = D.copy()
        D.setflags(write=False)
        object.__setattr__(self, "entries", D)


def dobrushin_matrix(model: DiscreteModel) -> InterdependenceMatrix:
    """Entrywise-tight interdependence matrix from single-swap sensitivities.

    d_ij is the max total-variation change of the conditional at site i over
    configuration pairs differing only at site j.  It is read from the
    model's cached (n_m, S / m, m) stacks of conditional tables (see
    :func:`conditional_table`: built on first use, n S floats kept for the
    model's lifetime), column by column for a block of sites of one alphabet
    size m on one side of j at once.  In site i's rows, site j's stride w
    (its :func:`conditional_row_weights` entry) is prod(sizes[j+1:]) when
    i < j and that divided by m when i > j, so such a block
    ``stack[lo:hi]``, reshaped to (hi - lo, -1, m_j, w, m), has site j's
    value on axis 2, and the single-swap pairs are the slice views
    ``[:, :, a]`` and ``[:, :, b]`` for a < b.  An entry is the max over rows
    and value pairs of |p - q| summed over site i's values (the contiguous
    last axis), times 0.5 once at the end: rounding is monotone, so this is
    the max of the halved sums bit for bit.

    A block holds every site of one size up to 10 binary sites (S = 1024) and
    one site from 16 on, and goes through every column before the next, so a
    large model's site table stays in cache over its row of D; the memory
    beyond the stack is one block's differences, at most ``_DIFF_FLOATS``
    floats or one site's S / 2.  A product model's conditionals ignore the
    other sites: its D is zero, and no table is read.  The defining
    multi-site inequality follows from these entries by the triangle
    inequality along a path of single-site changes, so it is not re-checked
    at run time; the tests keep an all-pairs oracle for it.
    """
    n, sizes = model.n, model.sizes
    D = np.zeros((n, n))
    if model._site_pmfs is None:
        block = max(1, 2 * _DIFF_FLOATS // model.size)  # a site's differences: S / m_j
        for m, stack in model._conditional_stacks.items():
            sites = [i for i in range(n) if sizes[i] == m]
            worst = np.zeros((n, len(sites)))  # worst[j, k] = 2 d_ij for i = sites[k]
            for first in range(0, len(sites), block):
                chunk = sites[first:first + block]
                for j in range(n):
                    after = prod(sizes[j + 1:])
                    lo, hi = bisect_left(chunk, j), bisect_right(chunk, j)
                    for start, stop, w in ((0, lo, after), (hi, len(chunk), after // m)):
                        if start == stop:
                            continue
                        part = slice(first + start, first + stop)
                        view = stack[part].reshape(stop - start, -1, sizes[j], w, m)
                        for a, b in combinations(range(sizes[j]), 2):
                            diff = view[:, :, a] - view[:, :, b]
                            np.abs(diff, out=diff)
                            np.maximum(worst[j, part], _value_sum(diff).max(axis=(1, 2)),
                                       out=worst[j, part])
            D[sites] = worst.T
    D *= 0.5
    return InterdependenceMatrix(np.clip(D, 0.0, 1.0))


def matrix_norms(D) -> tuple[float, float]:
    """(max column absolute sum, max row absolute sum)."""
    arr = D.entries if isinstance(D, InterdependenceMatrix) else np.asarray(D, dtype=float)
    norm1 = float(np.abs(arr).sum(axis=0).max())
    norm_inf = float(np.abs(arr).sum(axis=1).max())
    return norm1, norm_inf


@dataclass(frozen=True)
class BMatrix:
    """Contraction matrix B = (1 - 1/n) I + (1/n) D."""

    entries: np.ndarray
    n: int

    def __post_init__(self):
        E = np.asarray(self.entries, dtype=float)
        if (E < 0).any():
            raise ValueError("entries must be nonnegative")
        E = E.copy()
        E.setflags(write=False)
        object.__setattr__(self, "entries", E)


def b_matrix(D, n: int) -> BMatrix:
    arr = D.entries if isinstance(D, InterdependenceMatrix) else np.asarray(D, dtype=float)
    if arr.shape != (n, n):
        raise ValueError(f"D must be {n} x {n}")
    return BMatrix((1.0 - 1.0 / n) * np.eye(n) + arr / n, n)


@dataclass(frozen=True)
class BPowerColumn:
    """B^k e(j) with its l1 norm and the geometric bound (|B|_1)^k."""

    vector: np.ndarray
    norm1: float
    norm1_bound: float


def b_power_column(B, k: int, j: int) -> BPowerColumn:
    """Column vector B^k e(j) by repeated multiplication; k >= 0."""
    k, j = _integer("k", k), _integer("j", j)
    if k < 0:
        raise ValueError("k must be >= 0")
    arr = B.entries if isinstance(B, BMatrix) else np.asarray(B, dtype=float)
    n = arr.shape[0]
    if not 0 <= j < n:
        raise ValueError("column index out of range")
    v = np.zeros(n)
    v[j] = 1.0
    for _ in range(k):
        v = arr @ v
    bnorm1 = matrix_norms(arr)[0]
    return BPowerColumn(v, float(np.abs(v).sum()), bnorm1 ** k)


@dataclass(frozen=True)
class NormRecursionReport:
    """Partial geometric sums of |B| norms against the closed-form limit."""

    b_norm1: float
    b_norm_inf: float
    partial_sum: float
    limit: float
    tail_bound_1: float
    tail_bound_inf: float
    kmax: int


def norm_recursion_check(D, n: int, kmax: int) -> NormRecursionReport:
    """Check sum_k (|B|_1^k + |B|_inf^k) against n(1/(1-|D|_1) + 1/(1-|D|_inf)).

    Requires both interdependence norms < 1.  The report carries geometric
    tail bounds |B|^(kmax+1) / (1 - |B|) for each norm.
    """
    kmax = _integer("kmax", kmax)
    if kmax < 0:
        raise ValueError("kmax must be >= 0")
    d1, dinf = matrix_norms(D)
    if not max(d1, dinf) < 1.0:  # a NaN entry makes both norms NaN
        raise ValueError("norm recursion requires max interdependence norm < 1")
    B = b_matrix(D, n)
    b1, binf = matrix_norms(B.entries)
    ks = np.arange(kmax + 1)
    partial = float((b1 ** ks).sum() + (binf ** ks).sum())
    limit = n * (1.0 / (1.0 - d1) + 1.0 / (1.0 - dinf))
    tail1 = b1 ** (kmax + 1) / (1.0 - b1)
    tail_inf = binf ** (kmax + 1) / (1.0 - binf)
    return NormRecursionReport(b1, binf, partial, limit, float(tail1), float(tail_inf), kmax)


# ---------------------------------------------------------------------------
# Model file format

def model_to_obj(model: DiscreteModel) -> dict:
    obj = {"n": model.n, "alphabets": [list(a) for a in model.alphabets]}
    if model._site_pmfs is not None:
        obj["weight"] = {"kind": "product",
                         "pmfs": [[float(x) for x in p] for p in model._site_pmfs]}
    else:
        obj["weight"] = {"kind": "table",
                         "values": [float(x) for x in model.table.reshape(-1)]}
    return obj


def _is_number_list(value) -> bool:
    """A list whose items are real numbers or, at any depth, lists of them."""
    return isinstance(value, list) and all(
        _is_number_list(v) if isinstance(v, list) else _is_real(v) for v in value)


def model_from_obj(obj: dict, enum_cap: int = DEFAULT_ENUM_CAP) -> DiscreteModel:
    _object("model", obj, ("alphabets", "weight"), ("n",))
    alphabets = obj["alphabets"]
    if not (isinstance(alphabets, list)
            and all(isinstance(a, list) and all(map(_is_real, a)) for a in alphabets)):
        raise ValueError(f"model alphabets must be lists of numbers, got {alphabets!r}")
    alphabets = [tuple(a) for a in alphabets]
    if obj.get("n", len(alphabets)) != len(alphabets):
        raise ValueError(f"model has n = {obj['n']} but {len(alphabets)} alphabets")
    weight = _object("model weight", obj["weight"], ("kind",),
                     ("values", "pmfs", "coupling", "field"))
    kind, keys = weight["kind"], {"table": "values", "product": "pmfs", "ising": "coupling"}
    if not isinstance(kind, str) or kind not in keys:
        raise ValueError(f"unknown weight kind {kind!r}")
    _object(f"{kind} model weight", weight, ("kind", keys[kind]),
            ("field",) if kind == "ising" else ())
    for key, value in weight.items():  # a null ising field means zeros
        if key != "kind" and not (key == "field" and value is None) \
                and not _is_number_list(value):
            raise ValueError(f"model weight {key} must be a list of numbers (or of such "
                             f"lists), got {value!r}")
    if kind == "table":
        sizes = tuple(len(a) for a in alphabets)
        table = np.asarray(weight["values"], dtype=float).reshape(sizes)
        return DiscreteModel.from_table(alphabets, table, enum_cap=enum_cap)
    if kind == "product":
        return DiscreteModel.from_product(alphabets, weight["pmfs"], enum_cap=enum_cap)
    if len(alphabets) != len(weight["coupling"]) or len(set(alphabets)) > 1:
        raise ValueError("an ising model needs one alphabet repeated once per coupling row")
    values = alphabets[0] if alphabets else (-1.0, 1.0)
    return DiscreteModel.from_ising(weight["coupling"], weight.get("field"),
                                    values=values, enum_cap=enum_cap)


def save_model(path, model: DiscreteModel) -> None:
    _write_json(path, model_to_obj(model))


def load_model(path, enum_cap: int = DEFAULT_ENUM_CAP) -> DiscreteModel:
    with open(path) as fh:
        return model_from_obj(json.load(fh), enum_cap=enum_cap)
