"""Plain implementations kept as test oracles.

Each function is the code a faster or simpler kernel replaced, or the
plainest statement of an RNG stream the kernel must follow, so that tests
can compare the kernel's output with it byte for byte.  Its docstring names
the code it guards.  ``commuting_triple`` is the one shared test input draw.
"""

import csv
import json

import numpy as np

from matconc.coupling import _joint_blocks, _ordered_sum
from matconc.dobrushin import _site_split, conditional_row_weights, conditional_table
from matconc.hermitian import _SPECTRAL_MAX, HermitianMatrix, SpectralDomainError, _draw


# The per-site coupled step and its row-major kernels as they stood before the
# one-call step, and on them stream 4 of ``greedy_disagreement_mc``.

def rowwise_sample_rows(P, u):
    """One index per row of the row-major (R, m) pmfs P, from a cumsum along
    each row.  Guards ``coupling._sample_rows``, the value-first sampler."""
    cdf = np.cumsum(P, axis=1)
    idx = (cdf < (u * cdf[:, -1])[:, None]).sum(axis=1)
    return np.minimum(idx, P.shape[1] - 1)


def rowwise_maximal_coupling_rows(P, Q, u_same, u_min, u_p, u_q):
    """Maximal coupling of each row pair of the row-major (R, m) pmfs P, Q, the
    overlap mass from NumPy's row sum.  Guards
    ``coupling._maximal_coupling_rows``, which sums the overlap in value order:
    the two agree while the row sum adds in order (m < 8)."""
    mins = np.minimum(P, Q)
    omega = mins.sum(axis=1)
    same = u_same < omega
    idx_same = rowwise_sample_rows(mins, u_min)
    z = 1.0 - omega
    zsafe = np.where(z > 1e-15, z, 1.0)
    a_diff = rowwise_sample_rows((P - mins) / zsafe[:, None], u_p)
    b_diff = rowwise_sample_rows((Q - mins) / zsafe[:, None], u_q)
    a = np.where(same, idx_same, a_diff)
    b = np.where(same, idx_same, b_diff)
    return a, b


def per_site_coupled_step(tables, weights, X, Y, picks, U):
    """One coupled step of the (runs, n) stacks X, Y, in place, one coupling
    call per picked site and every run stepped.  Guards
    ``coupling._coupled_step``, one gather, coupling call and scatter for
    both chains of all runs."""
    for i, (table, w) in enumerate(zip(tables, weights)):
        mask = picks == i
        if not mask.any():
            continue
        X[mask, i], Y[mask, i] = rowwise_maximal_coupling_rows(
            table[X[mask] @ w], table[Y[mask] @ w], *U[mask].T)


def per_site_greedy_mc(model, site, kmax, runs, seed):
    """(means, std_errors) of ``greedy_disagreement_mc`` on (runs, n) stacks
    from ``choice_sample`` draws, the definition of RNG stream 4.

    Keeps every run; at each step the runs that still disagree somewhere,
    found anew in run order, draw their picks and then their uniforms, and
    only they are stepped, one coupling call per picked site.  The rates of
    all runs are recorded after each step.  Guards
    ``coupling.greedy_disagreement_mc``: its pair stack, its integer counts,
    its active sub-stacks and its stop once every run has coalesced."""
    rng = np.random.default_rng(np.random.SeedSequence(int(seed)))
    n = model.n
    tables = [conditional_table(model, i) for i in range(n)]
    weights = [conditional_row_weights(model.sizes, i) for i in range(n)]
    X = choice_sample(model, rng, runs)
    Y = X.copy()
    Y[:, site] = rowwise_sample_rows(tables[site][X @ weights[site]], rng.random(runs))
    means = np.empty((kmax + 1, n))
    ses = np.empty((kmax + 1, n))

    def record(k):
        p = (X != Y).astype(float).mean(axis=0)
        means[k] = p
        ses[k] = np.sqrt(p * (1.0 - p) / runs)

    record(0)
    for k in range(1, kmax + 1):
        moving = np.flatnonzero((X != Y).any(axis=1))
        Xa, Ya = X[moving], Y[moving]
        per_site_coupled_step(tables, weights, Xa, Ya, rng.integers(0, n, size=len(moving)),
                              rng.random((len(moving), 4)))
        X[moving], Y[moving] = Xa, Ya
        record(k)
    return means, ses


# The Monte Carlo tail path as it stood before the one-draw sampler and the
# value-major batch: ``Generator.choice`` draws, per-site value columns and
# one ``einsum``.

def choice_sample(model, rng, size):
    """(size, n) index configurations from one ``rng.choice`` per site of a
    product model, site after site, or from one ``rng.choice`` over the flat
    pmf of a table model, unravelled.  Guards ``DiscreteModel.sample``, whose
    product branch makes one uniform draw for all sites and counts cdf
    entries <= u, and whose table branch maps its uniforms through a cached
    flat cdf."""
    if model._site_pmfs is None:
        flat = rng.choice(model.size, size, p=model.flat_pmf())
        return np.stack(np.unravel_index(flat, model.sizes), axis=1)
    cols = [rng.choice(model.sizes[i], size=size, p=model._site_pmfs[i])
            for i in range(model.n)]
    return np.stack(cols, axis=1)


def column_values(model, configs):
    """The (R, n) site values of index configurations, one alphabet lookup
    per site.  Guards ``coupling._values_matrix``, which writes each site's
    ``take`` over its index row."""
    cols = [np.asarray(model.alphabets[i], dtype=float)[configs[:, i]]
            for i in range(model.n)]
    return np.stack(cols, axis=1)


def einsum_batch(obs, values):
    """H of every value row by one ``einsum``.  Guards
    ``RademacherSumObservable.batch``, which adds value-major in site order."""
    return np.einsum("bn,nij->bij", np.asarray(values, dtype=float), obs._stack)


# The exact pair step as it stood before ``PairEvolver`` read only the
# nonzero entries of the pair law.

def site_joints(model):
    """Site i's maximal-coupling joint over every pair of its conditional
    rows, value-major (m, m, K, K): block [a, b] holds P(x_i <- a, y_i <- b)
    for each row pair (r_x, r_y)."""
    tables = [conditional_table(model, i).T for i in range(model.n)]
    return [_joint_blocks(rt[:, :, None], rt[:, None, :]) for rt in tables]


def dense_step_oracle(model, nu):
    """One coupled step of the (S, S) pair law nu on strided views over every
    row pair, one add per (a, b) value slice, sites in order.  Guards
    ``coupling.PairEvolver.step``, which keys the nonzero entries of nu and
    accumulates with one ``np.bincount``."""
    out = np.zeros((model.size, model.size))
    for i, J in enumerate(site_joints(model)):
        high, m, low = _site_split(model, i)
        shape = (high, m, low, high, m, low)
        v, w = nu.reshape(shape), out.reshape(shape)
        Jv = J.reshape(m, m, high, low, high, low)
        pairs = [(a, b) for a in range(m) for b in range(m)]
        mass = _ordered_sum(v[:, a, :, :, b, :] for a, b in pairs)
        for a, b in pairs:
            w[:, a, :, :, b, :] += mass * Jv[a, b]
    out /= model.n
    return out


# The spectral-function and serializer kernels of ``hermitian`` as they stood
# before real values skipped the complex round trip and entries came from one
# ``tolist``.

def complex_apply_scalar(f, evals):
    """f of the eigenvalues ``evals``, every result cast to complex128 and
    checked there: each part at most max/4, the imaginary part within
    1e-12 max(1, |value|).  A callable that raises or changes the shape is
    applied one float eigenvalue at a time.  Guards
    ``hermitian._apply_scalar``, which checks a real result of the
    eigenvalues' shape as float64."""
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


def listcomp_matrix_to_obj(A):
    """The structured-text form of a square complex array, one
    ``[float(re), float(im)]`` pair per entry from a list comprehension.
    Guards ``hermitian.matrix_to_obj``, which takes the pairs from one
    ``tolist`` of the stacked real and imaginary parts."""
    mat = np.asarray(A, dtype=np.complex128)
    if mat.ndim != 2 or mat.shape[0] != mat.shape[1]:
        raise ValueError(f"expected a square matrix, got shape {mat.shape}")
    entries = [[[float(z.real), float(z.imag)] for z in row] for row in mat]
    return {"dim": int(mat.shape[0]), "entries": entries}


# The JSON and CSV writers before every data file went through
# ``hermitian._write_bytes``.

def old_write_json(path, obj):
    """Compact JSON with sorted keys and a trailing newline, written to a
    file opened in text mode.  Guards ``hermitian._write_json``, which
    writes the same bytes with ``hermitian._write_bytes``."""
    text = json.dumps(obj, sort_keys=True, default=float)
    with open(path, "w") as fh:
        fh.write(text + "\n")


def old_write_csv(path, header, rows):
    """A header and rows written by ``csv.writer`` with "\\n" line ends to a
    file opened in text mode.  Guards ``cli._write_csv``, which builds the
    same bytes in memory and writes them with ``hermitian._write_bytes``."""
    with open(path, "w", newline="") as fh:
        writer = csv.writer(fh, lineterminator="\n")
        writer.writerow(header)
        writer.writerows(rows)


def commuting_triple(dim, scale, seed):
    """Three certified matrices sharing one eigenbasis (the ``commuting-pair``
    draw): test inputs on which a matrix gap equals its scalar gap over the
    joint eigenvalues."""
    return tuple(HermitianMatrix(M) for M in
                 _draw("commuting-pair", dim, scale, np.random.default_rng(int(seed)), 3))


# The seeded draws before real and imaginary parts came from one ``rng`` call.

def draw_oracle(kind, d, scale, rng, count, shared=None):
    """A (count, d, d) stack of draws of one kind, real and imaginary parts
    from separate ``rng.normal`` calls.  Guards ``hermitian._draw``, whose
    values and generator stream it must give, with each pair of parts from
    one ``rng`` call of twice the size."""
    shape = (count, d, d)

    def gaussian_hermitian(shape, scale):
        M = rng.normal(size=shape) + 1j * rng.normal(size=shape)
        return scale * (M + np.swapaxes(M.conj(), -1, -2)) / 2.0

    if kind == "gaussian-hermitian":
        return gaussian_hermitian(shape, scale)
    if kind == "diagonal":
        out = np.zeros(shape, dtype=np.complex128)
        out[:, np.arange(d), np.arange(d)] = scale * rng.normal(size=(count, d))
        return out
    if kind == "psd":
        X = (rng.normal(size=shape) + 1j * rng.normal(size=shape)) / np.sqrt(2.0)
        return scale * (X @ np.swapaxes(X.conj(), -1, -2)) / d
    if kind == "low-rank":
        r = max(1, d // 2)
        Z = rng.normal(size=(count, r, 2 * d + 1))
        v = Z[..., :d] + 1j * Z[..., d:2 * d]
        re, im = v.real[..., None, :], v.imag[..., None, :]
        v /= np.sqrt(re @ np.swapaxes(re, -1, -2) + im @ np.swapaxes(im, -1, -2))[..., 0]
        w = scale * Z[..., 2 * d]
        H = np.zeros(shape, dtype=np.complex128)
        for j in range(r):
            H += w[:, j, None, None] * (v[:, j, :, None] * v[:, j, None, :].conj())
        return (H + np.swapaxes(H.conj(), -1, -2)) / 2.0
    if kind == "commuting-pair":
        shared = count if shared is None else shared
        bases = np.linalg.eigh(gaussian_hermitian((1 + count - shared, d, d), 1.0))[1]
        U = bases[np.maximum(np.arange(count) - shared + 1, 0)]
        w = scale * rng.normal(size=(count, d))
        return (U * w[:, None, :]) @ np.swapaxes(U.conj(), -1, -2)
    m = max(1, int(round(scale)))
    S = rng.integers(-m, m + 1, size=shape)
    K = rng.integers(-m, m + 1, size=shape)
    lower = np.tri(d, k=-1, dtype=bool)
    real = np.where(lower, np.swapaxes(S, -1, -2), S)
    imag = np.where(lower, -np.swapaxes(K, -1, -2), np.where(lower.T, K, 0))
    return real.astype(float) + 1j * imag.astype(float)
