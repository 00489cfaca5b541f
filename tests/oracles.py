"""Old implementations kept as test oracles.

Each function is the code a faster or simpler kernel replaced, kept as it
stood so that tests can compare the kernel's output with it byte for byte.
Its docstring names the code it guards.
"""

import numpy as np

from matconc.dobrushin import conditional_row_weights, conditional_table


# The per-site coupled step and its row-major kernels as they stood before the
# one-call step: the byte oracle of ``greedy_disagreement_mc``.

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
    ``coupling._coupled_step``, one gather, coupling call and scatter for all
    runs."""
    for i, (table, w) in enumerate(zip(tables, weights)):
        mask = picks == i
        if not mask.any():
            continue
        X[mask, i], Y[mask, i] = rowwise_maximal_coupling_rows(
            table[X[mask] @ w], table[Y[mask] @ w], *U[mask].T)


def per_site_greedy_mc(model, site, kmax, runs, seed):
    """(means, std_errors) of ``greedy_disagreement_mc`` on (runs, n) stacks.

    Steps every run at every step, coalesced or not, and records the rates
    after each step.  Guards ``coupling.greedy_disagreement_mc``, which steps
    only the runs that still disagree and stops when none is left."""
    rng = np.random.default_rng(np.random.SeedSequence(int(seed)))
    n = model.n
    tables = [conditional_table(model, i) for i in range(n)]
    weights = [conditional_row_weights(model.sizes, i) for i in range(n)]
    X = model.sample(rng, runs)
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
        per_site_coupled_step(tables, weights, X, Y, rng.integers(0, n, size=runs),
                              rng.random((runs, 4)))
        record(k)
    return means, ses
