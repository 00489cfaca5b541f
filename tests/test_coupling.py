import functools
import itertools
import math

import numpy as np
import pytest

from matconc.bounds import DifferenceBoundSet, hoeffding_bound
from matconc.coupling import (
    MatrixObservable,
    PairEvolver,
    RademacherSumObservable,
    TableObservable,
    check_hamming,
    coupon_collector_survival,
    derive_hamming_bounds,
    exhaustive_tail,
    gibbs_kernel,
    greedy_disagreement_mc,
    maximal_coupling_joint,
    mc_tail_estimate,
    stein_identity_check,
    telescoping_decomposition,
    verify_property_P,
    verify_stein_pair,
    wilson_interval,
    _centered_values,
    _chain_sum,
    _coupled_step,
    _joint_blocks,
    _maximal_coupling_rows,
    _observable_values,
    _ordered_sum,
    _sample_rows,
    _site_rules,
    _values_matrix,
)
from matconc.dobrushin import (
    DiscreteModel,
    EnumerationCapError,
    b_matrix,
    b_power_column,
    conditional_row_weights,
    conditional_table,
    dobrushin_matrix,
    _site_split,
)
from matconc.hermitian import EnsembleSpec, HermitianMatrix, HermiticityError, sample_ensemble


def ising2(beta=0.25):
    return DiscreteModel.from_ising([[0.0, beta], [beta, 0.0]])


def ising4_field():
    J = np.zeros((4, 4))
    for i, j, c in [(0, 1, 0.3), (1, 2, -0.25), (2, 3, 0.2), (0, 3, 0.15), (0, 2, -0.1)]:
        J[i, j] = J[j, i] = c
    return DiscreteModel.from_ising(J, [0.2, -0.1, 0.05, -0.3])


def ising3_field():
    J = np.zeros((3, 3))
    J[0, 1] = J[1, 0] = 0.3
    J[1, 2] = J[2, 1] = -0.2
    return DiscreteModel.from_ising(J, [0.2, -0.1, 0.15])


def mixed_table():
    rng = np.random.default_rng(11)
    return DiscreteModel.from_table([(0, 1, 2), (0, 1), (0, 1, 2, 3)],
                                    rng.uniform(0.1, 2.0, (3, 2, 4)))


def alphabet9():
    # 9 values: past the length where NumPy's own sums stop adding in order
    rng = np.random.default_rng(4)
    return DiscreteModel.from_table([tuple(range(9)), (0, 1)], rng.uniform(0.1, 2.0, (9, 2)))


def product3():
    return DiscreteModel.from_product([(0, 1, 2), (0, 1), (0, 1, 2)],
                                      [[0.2, 0.3, 0.5], [0.6, 0.4], [0.1, 0.6, 0.3]])


def product9():
    # a 9-value alphabet beside a 2-value one
    rng = np.random.default_rng(6)
    return DiscreteModel.from_product([tuple(range(9)), (0, 1)],
                                      [rng.dirichlet(np.ones(9)), [0.3, 0.7]])


def ternary_ising():
    # three 3-value sites
    J = np.array([[0.0, 0.3, 0.1], [0.3, 0.0, -0.2], [0.1, -0.2, 0.0]])
    return DiscreteModel.from_ising(J, [0.1, -0.2, 0.0], values=(-1.0, 0.0, 1.0))


def product2():
    return DiscreteModel.from_product([(-1.0, 1.0)] * 2, [[0.5, 0.5]] * 2)


def single_site():
    return DiscreteModel.from_product([(0, 1, 2)], [[0.2, 0.3, 0.5]])


def draw(dim, seed, scale=1.0):
    return sample_ensemble(EnsembleSpec("gaussian-hermitian", dim, scale, seed))


def couple_rows(p, q, draws, seed):
    """``draws`` maximally coupled (a, b) index pairs of the pmfs p, q, one
    value-first column each."""
    P, Q = (np.tile(np.asarray(v, dtype=float)[:, None], (1, draws)) for v in (p, q))
    return _maximal_coupling_rows(P, Q, *np.random.default_rng(seed).random((4, draws)))


def coupled_step(model, X, Y, rng):
    """One ``_coupled_step`` of the (n, runs) stacks X, Y; returns the picked sites.

    Draws the picks and then the (runs, 4) uniforms from ``rng``, in the order
    ``greedy_disagreement_mc`` uses.
    """
    runs = X.shape[1]
    picks = rng.integers(0, model.n, size=runs)
    _coupled_step(_site_rules(model), X, Y, picks, rng.random((runs, 4)))
    return picks


def stacks(x, y, runs):
    """(n, runs) copies of the index configurations x and y."""
    return (np.tile(np.asarray(v)[:, None], (1, runs)) for v in (x, y))


class TestMaximalCoupling:
    def test_identical_always_equal(self):
        a, b = couple_rows([0.3, 0.7], [0.3, 0.7], 200, seed=1)
        assert np.array_equal(a, b)

    def test_disjoint_never_equal(self):
        a, b = couple_rows([1.0, 0.0], [0.0, 1.0], 200, seed=2)
        assert (a == 0).all() and (b == 1).all()

    def test_bernoulli_meeting_probability(self):
        # TV(Bern(.8), Bern(.5)) = 0.3, so P(a = b) = 0.7
        n = 100000
        a, b = couple_rows([0.2, 0.8], [0.5, 0.5], n, seed=3)
        se = math.sqrt(0.7 * 0.3 / n)
        assert abs((a == b).mean() - 0.7) <= 3 * se

    def test_marginals_preserved(self):
        p = np.array([0.1, 0.5, 0.4])
        q = np.array([0.6, 0.2, 0.2])
        n = 100000
        a, b = couple_rows(p, q, n, seed=4)
        assert np.abs(np.bincount(a, minlength=3) / n - p).max() <= 0.01
        assert np.abs(np.bincount(b, minlength=3) / n - q).max() <= 0.01

    def test_joint_law_exact(self):
        p = np.array([0.2, 0.8])
        q = np.array([0.5, 0.5])
        J = maximal_coupling_joint(p, q)
        assert J.sum() == pytest.approx(1.0)
        assert np.allclose(J.sum(axis=1), p)
        assert np.allclose(J.sum(axis=0), q)
        assert np.trace(J) == pytest.approx(0.7)

    def test_joint_broadcasts_over_rows(self):
        rng = np.random.default_rng(8)
        P = rng.dirichlet(np.ones(3), size=(4, 1))
        Q = rng.dirichlet(np.ones(3), size=(1, 5))
        Q[0, 0] = P[0, 0]  # an identical pair: no residual mass
        J = maximal_coupling_joint(P, Q)
        assert J.shape == (4, 5, 3, 3)
        for a in range(4):
            for b in range(5):
                assert np.array_equal(J[a, b], maximal_coupling_joint(P[a, 0], Q[0, b]))
        assert np.array_equal(J[0, 0], np.diag(P[0, 0]))

    @pytest.mark.parametrize("m", range(2, 13))
    def test_joint_matches_broadcast_expression_bits(self, m):
        # the residual product and diag(overlap) as one broadcast expression,
        # the overlap mass summed over values in order 0, 1, ..., m - 1
        def vectorized_joint(p, q):
            mins = np.minimum(p, q)
            z = 1.0 - functools.reduce(np.add, np.moveaxis(mins, -1, 0))
            zsafe = np.where(z > 1e-15, z, np.inf)[..., None, None]
            J = (p - mins)[..., :, None] * (q - mins)[..., None, :] / zsafe
            J[..., np.arange(m), np.arange(m)] += mins
            return J

        rng = np.random.default_rng(100 + m)
        P = rng.dirichlet(np.ones(m), size=(4, 1))
        Q = rng.dirichlet(np.ones(m), size=(1, 5))
        Q[0, 0] = P[0, 0]  # an identical pair: no residual mass
        P[1, 0, 0] = 0.0  # a value outside one support
        P[1, 0] /= P[1, 0].sum()
        R = rng.dirichlet(np.ones(m), size=(2, 3))
        near = P[3, 0].copy()  # one ulp apart in two values: residual mass below 1e-15
        near[0], near[1] = np.nextafter(near[0], 2.0), np.nextafter(near[1], -1.0)
        for p, q in [(P, Q), (Q, P), (P[0, 0], Q), (R, R[::-1]), (R, R), (P[2, 0], Q[0, 3]),
                     (P[3, 0], near)]:
            assert np.array_equal(maximal_coupling_joint(p, q), vectorized_joint(p, q))

    def test_sampled_rows_match_joint(self):
        # three row pairs (one identical, one with disjoint support) sampled at once
        P = np.array([[0.1, 0.5, 0.4], [0.3, 0.3, 0.4], [1.0, 0.0, 0.0]])
        Q = np.array([[0.6, 0.2, 0.2], [0.3, 0.3, 0.4], [0.0, 0.5, 0.5]])
        n = 60000
        rows = np.repeat(np.arange(3), n)
        u = np.random.default_rng(12).random((4, rows.size))
        a, b = _maximal_coupling_rows(P[rows].T, Q[rows].T, *u)
        for r in range(3):
            J = maximal_coupling_joint(P[r], Q[r])
            counts = np.zeros((3, 3))
            np.add.at(counts, (a[rows == r], b[rows == r]), 1.0)
            se = np.sqrt(J * (1.0 - J) / n)
            assert np.all(np.abs(counts / n - J) <= 5.0 * se + 1e-12), (r, counts / n, J)

    def test_support_mismatch(self):
        with pytest.raises(ValueError):
            maximal_coupling_joint([1.0], [0.5, 0.5])


class TestGibbsKernel:
    def test_mixed_alphabets_match_per_state_loop(self):
        rng = np.random.default_rng(11)
        m = DiscreteModel.from_table([(0, 1, 2), (0, 1), (0, 1, 2, 3)],
                                     rng.uniform(0.1, 2.0, (3, 2, 4)))
        brute = np.zeros((m.size, m.size))
        for s in range(m.size):
            cfg = [int(c) for c in np.unravel_index(s, m.sizes)]
            for i in range(m.n):
                vec = m.conditional(i, cfg)
                keep = cfg[i]
                for v in range(m.sizes[i]):
                    cfg[i] = v
                    brute[s, np.ravel_multi_index(cfg, m.sizes)] += vec[v] / m.n
                cfg[i] = keep
        assert np.array_equal(gibbs_kernel(m), brute)


class TestExchangeablePair:
    # detailed balance: the joint law pi[x] G[x, y] of (X, X') is symmetric,
    # which the Poisson solve of the chain sums relies on
    def test_joint_symmetric_ising(self):
        m = ising2(0.25)
        J = m.flat_pmf()[:, None] * gibbs_kernel(m)
        assert np.abs(J - J.T).max() <= 1e-12

    def test_joint_symmetric_three_site(self):
        J3 = np.zeros((3, 3))
        J3[0, 1] = J3[1, 0] = J3[1, 2] = J3[2, 1] = 0.3
        m = DiscreteModel.from_ising(J3)
        J = m.flat_pmf()[:, None] * gibbs_kernel(m)
        assert np.abs(J - J.T).max() <= 1e-12

    def test_single_site_model(self):
        # one site: the resample is a fresh draw, and the first coupled step
        # (which always picks that site) refreshes both chains with one value
        mc = greedy_disagreement_mc(single_site(), 0, 3, 2000, seed=5)
        assert mc.means.shape == (4, 1)
        assert mc.means[0, 0] > 0.0
        assert (mc.means[1:] == 0.0).all()

    def test_pair_differs_at_most_one_site(self):
        for m in (product2(), mixed_table()):
            for site in range(m.n):
                mc = greedy_disagreement_mc(m, site, 0, 2000, seed=6)
                assert (np.delete(mc.means[0], site) == 0.0).all()

    def test_sampled_joint_matches_exact(self):
        # P(X_site != X'_site) of the sampled pair against the exact
        # sum_x pi(x) (1 - P(x_site | x_rest))
        runs = 50000
        for m in (ising4_field(), mixed_table(), single_site()):
            for site in range(m.n):
                other = tuple(s for j, s in enumerate(m.sizes) if j != site)
                stay = np.moveaxis(conditional_table(m, site).reshape(other + (m.sizes[site],)),
                                   -1, site)
                exact = float(m.flat_pmf() @ (1.0 - stay.reshape(-1)))
                got = greedy_disagreement_mc(m, site, 0, runs, seed=7).means[0, site]
                se = math.sqrt(exact * (1.0 - exact) / runs)
                assert abs(got - exact) <= 4 * se, (m.sizes, site, got, exact)


class TestSteps:
    def test_independent_refreshed_site_stays_agreed(self):
        # on a product model both rows of every coupled pair are one pmf
        m = product2()
        rng = np.random.default_rng(8)
        X, Y = stacks((0, 0), (1, 1), 100)
        refreshed = np.zeros(X.shape, dtype=bool)
        for _ in range(50):
            picks = coupled_step(m, X, Y, rng)
            refreshed[picks, np.arange(X.shape[1])] = True
            assert np.array_equal(X[refreshed], Y[refreshed])

    def test_disagreement_never_grows(self):
        m = product2()
        rng = np.random.default_rng(9)
        X, Y = stacks((0, 1), (1, 1), 100)
        prev = (X != Y).sum(axis=0)
        for _ in range(30):
            coupled_step(m, X, Y, rng)
            cur = (X != Y).sum(axis=0)
            assert (cur <= prev).all()
            prev = cur

    def test_survival_probability(self):
        # P(site 0 never refreshed in k steps) = (1 - 1/n)^k
        m = product2()
        k, runs = 4, 20000
        rng = np.random.default_rng(1000)
        X, Y = stacks((0, 0), (1, 0), runs)  # differ at site 0
        never = np.ones(runs, dtype=bool)
        for _ in range(k):
            never &= coupled_step(m, X, Y, rng) != 0
        assert np.array_equal(X[0] != Y[0], never)
        expect = coupon_collector_survival(2, k)
        se = math.sqrt(expect * (1 - expect) / runs)
        assert abs(never.mean() - expect) <= 4 * se

    @pytest.mark.parametrize("make", [mixed_table, ising4_field, single_site])
    def test_matches_per_run_rows(self, make):
        # each run: a one-row maximal coupling of its own two conditionals
        m = make()
        rng = np.random.default_rng(17)
        X0, Y0 = m.sample(rng, 300).T, m.sample(rng, 300).T
        picks, U = rng.integers(0, m.n, size=300), rng.random((300, 4))
        X, Y = X0.copy(), Y0.copy()
        _coupled_step(_site_rules(m), X, Y, picks, U)
        for r, i in enumerate(picks):
            p, q = m.conditional(i, X0[:, r]), m.conditional(i, Y0[:, r])
            a, b = _maximal_coupling_rows(p[:, None], q[:, None], *U[r][:, None])
            x, y = X0[:, r].copy(), Y0[:, r].copy()
            x[i], y[i] = a[0], b[0]
            assert np.array_equal(X[:, r], x) and np.array_equal(Y[:, r], y), r

    def test_greedy_equal_states_stay_equal(self):
        m = ising2(0.5)
        rng = np.random.default_rng(10)
        X, Y = stacks((0, 1), (0, 1), 100)
        for _ in range(40):
            coupled_step(m, X, Y, rng)
            assert np.array_equal(X, Y)


def one_value_site():
    # S = 18 with a site that can take one value only
    rng = np.random.default_rng(14)
    return DiscreteModel.from_table([(0, 1, 2), (0,), (0, 1), (0, 1, 2)],
                                    rng.uniform(0.1, 2.0, (3, 1, 2, 3)))


def small_mixed_table():
    # S = 12 with a 3-value site between two 2-value ones
    rng = np.random.default_rng(17)
    return DiscreteModel.from_table([(0, 1), (0, 1, 2), (0, 1)], rng.uniform(0.1, 2.0, (2, 3, 2)))


class TestPropertyP:
    def test_independent_2site_K3(self):
        m = product2()
        rep = verify_property_P(m)
        assert rep.holds
        assert rep.max_deviation <= 1e-12

    def test_greedy_ising_K2(self):
        rep = verify_property_P(ising2(0.25))
        assert rep.holds

    def test_greedy_threesite_K3(self):
        J = np.zeros((3, 3))
        J[0, 1] = J[1, 0] = J[1, 2] = J[2, 1] = 0.25
        rep = verify_property_P(DiscreteModel.from_ising(J))
        assert rep.holds

    def test_greedy_marginal_is_gibbs_kernel(self):
        # the evolved pair law from every start pair: after k <= 3 steps each
        # chain's marginal is its own k-step Gibbs law
        for m in (ising2(0.4), ising4_field(), small_mixed_table()):
            ev = PairEvolver(m)
            G = gibbs_kernel(m)
            powers = [G, G @ G, G @ G @ G]
            for x in range(m.size):
                for y in range(m.size):
                    nu = ev.delta(x, y)
                    for Gk in powers:
                        nu = ev.step(nu)
                        assert np.abs(nu.sum(axis=1) - Gk[x]).max() <= 1e-12
                        assert np.abs(nu.sum(axis=0) - Gk[y]).max() <= 1e-12

    @pytest.mark.parametrize("make", [mixed_table, one_value_site, alphabet9, product3],
                             ids=["mixed", "one_value", "alphabet9", "product3"])
    @pytest.mark.parametrize("moved", [(0, 1), (1, 0)], ids=["row_kept", "column_kept"])
    def test_broken_joint_block_fails(self, make, moved, monkeypatch):
        # 1e-9 moved from the diagonal block [0, 0] into the off-diagonal block
        # `moved` keeps one of its row and column sums and breaks the other
        # (a one-value site has no off-diagonal block)
        assert verify_property_P(make()).holds

        def broken(p, q):
            J = _joint_blocks(p, q)
            if len(J) > 1:
                J[moved] += 1e-9
                J[0, 0] -= 1e-9
            return J

        monkeypatch.setattr("matconc.coupling._joint_blocks", broken)
        rep = verify_property_P(make())
        assert not rep.holds and rep.max_deviation >= 1e-9 / 2

    def test_thousand_state_table(self):
        # S = 1000, three 10-value sites; one more state is past the S^2 <= 10^6 cap
        rng = np.random.default_rng(21)
        model = DiscreteModel.from_table([tuple(range(10))] * 3,
                                         rng.uniform(0.1, 2.0, (10, 10, 10)))
        rep = verify_property_P(model)
        assert rep.holds and rep.max_deviation <= 1e-12
        big = DiscreteModel.from_table([tuple(range(7)), tuple(range(11)), tuple(range(13))],
                                       np.ones((7, 11, 13)))  # S = 1001
        with pytest.raises(EnumerationCapError):
            verify_property_P(big)
        with pytest.raises(EnumerationCapError):
            gibbs_kernel(big)


def random_pair_pmf(model, seed):
    nu = np.random.default_rng(seed).random((model.size, model.size))
    return nu / nu.sum()


def ising_chain(n):
    J = np.diag(np.linspace(0.2, 0.4, n - 1), 1)
    return DiscreteModel.from_ising(J + J.T, np.linspace(-0.3, 0.3, n))


def wide_table():
    # S = 144 with 3- and 4-value sites
    rng = np.random.default_rng(12)
    return DiscreteModel.from_table([(0, 1, 2), (0, 1), (0, 1, 2, 3), (0, 1), (0, 1, 2)],
                                    rng.uniform(0.1, 2.0, (3, 2, 4, 2, 3)))


def site_joints(model):
    # site i's joint over every pair of conditional rows, value-major (m, m, K, K):
    # block [a, b] holds P(x_i <- a, y_i <- b) for each row pair (r_x, r_y)
    tables = [conditional_table(model, i).T for i in range(model.n)]
    return [_joint_blocks(rt[:, :, None], rt[:, None, :]) for rt in tables]


def dense_step_oracle(model, nu):
    # the strided-view step over every row pair, with one add per (a, b) value slice
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


class TestPairEvolver:
    CASES = [mixed_table, ising4_field, product3]

    @pytest.mark.parametrize("make", CASES, ids=["mixed", "ising4", "product3"])
    def test_matches_per_state_loop(self, make):
        # nu'[x <- a, y <- b] += nu[x, y] J_i(x, y)[a, b] / n, one state pair at a time
        model = make()
        nu = random_pair_pmf(model, 3)
        expect = np.zeros_like(nu)
        for x in range(model.size):
            for y in range(model.size):
                cx, cy = np.unravel_index(x, model.sizes), np.unravel_index(y, model.sizes)
                for i in range(model.n):
                    p, q = model.conditional(i, cx), model.conditional(i, cy)
                    J = maximal_coupling_joint(p, q)
                    for a in range(model.sizes[i]):
                        for b in range(model.sizes[i]):
                            xa, yb = list(cx), list(cy)
                            xa[i], yb[i] = a, b
                            expect[np.ravel_multi_index(xa, model.sizes),
                                   np.ravel_multi_index(yb, model.sizes)] += \
                                nu[x, y] * J[a, b] / model.n
        got = PairEvolver(model).step(nu)
        assert np.abs(got - expect).max() <= 4 * model.n * np.finfo(float).eps

    @pytest.mark.parametrize("make", CASES + [alphabet9],
                             ids=["mixed", "ising4", "product3", "alphabet9"])
    def test_joint_blocks_are_maximal_coupling_bits(self, make):
        model = make()
        for i, J in enumerate(site_joints(model)):
            rows = conditional_table(model, i)
            K, m = rows.shape
            assert J.shape == (m, m, K, K)
            for rx in range(K):
                for ry in range(K):
                    assert np.array_equal(J[:, :, rx, ry],
                                          maximal_coupling_joint(rows[rx], rows[ry]))

    @pytest.mark.parametrize("make", [product2, product3, single_site, product9],
                             ids=["product2", "product3", "single_site", "product9"])
    def test_product_joint_is_synchronized_refresh(self, make):
        # equal conditionals: every block is delta_ab p_a, one shared fresh value
        model = make()
        for i, J in enumerate(site_joints(model)):
            p = model.site_marginals()[i]
            m, K = len(p), model.size // len(p)
            for a in range(m):
                for b in range(m):
                    assert np.array_equal(J[a, b], np.full((K, K), p[a] if a == b else 0.0))

    @pytest.mark.parametrize("make", CASES, ids=["mixed", "ising4", "product3"])
    def test_step_sums_in_documented_order(self, make):
        # per site: mass of each row pair added over (a, b) in a-major order,
        # then mass * J[a, b] added into the pair's slot; sites in order, / n once
        model = make()
        joints = site_joints(model)
        nu = random_pair_pmf(model, 5)
        out = np.zeros_like(nu)
        for i in range(model.n):
            m = model.sizes[i]
            K = model.size // m
            low = math.prod(model.sizes[i + 1:])
            # flat state x = (h, x_i, l) -> (its conditional row h * low + l, x_i)
            rows = {x: ((x // (m * low)) * low + x % low, (x // low) % m)
                    for x in range(model.size)}
            mass = np.zeros((K, K))
            for a in range(m):
                for b in range(m):
                    for x in range(model.size):
                        for y in range(model.size):
                            (rx, ax), (ry, by) = rows[x], rows[y]
                            if (ax, by) == (a, b):
                                mass[rx, ry] = mass[rx, ry] + nu[x, y]
            for x in range(model.size):
                rx, a = rows[x]
                for y in range(model.size):
                    ry, b = rows[y]
                    out[x, y] = out[x, y] + mass[rx, ry] * joints[i][a, b, rx, ry]
        assert np.array_equal(PairEvolver(model).step(nu), out / model.n)

    def test_state_cap(self):
        J = np.full((10, 10), 0.05) - 0.05 * np.eye(10)
        with pytest.raises(EnumerationCapError):
            PairEvolver(DiscreteModel.from_ising(J))  # 1024 states
        ev = PairEvolver(DiscreteModel.from_ising(J[:9, :9]))
        assert ev.step(ev.delta(0, 511)).shape == (512, 512)

    def test_bad_state_or_shape_refused(self):
        # delta(-1, 0) once put the mass on state S - 1; a flat or (S, S, 1)
        # nu was silently reshaped
        ev = PairEvolver(ising2())
        for x, y in [(-1, 0), (0, -1), (4, 0), (0, 4)]:
            with pytest.raises(ValueError, match="flat states"):
                ev.delta(x, y)
        for shape in [(16,), (4, 4, 1), (2, 8), (4, 5)]:
            with pytest.raises(ValueError, match="shape"):
                ev.step(np.full(shape, 1.0 / 16))

    def test_non_integer_state_refused(self):
        # delta(True, 0) was once accepted as state 1
        ev = PairEvolver(ising2())
        for x, y, name in [(True, 0, "x_flat"), (0, np.bool_(True), "y_flat"),
                           (1.5, 0, "x_flat"), (0, "1", "y_flat")]:
            with pytest.raises(ValueError, match=f"{name} must be an integer"):
                ev.delta(x, y)
        assert np.array_equal(ev.delta(1.0, np.int64(2)), ev.delta(1, 2))

    @pytest.mark.parametrize("make", [lambda: ising_chain(2), lambda: ising_chain(4),
                                      lambda: ising_chain(9), small_mixed_table, mixed_table],
                             ids=["ising2", "ising4", "ising9", "small_mixed", "mixed"])
    def test_zero_pair_law_steps_to_float_zeros(self, make):
        # at S >= 16 a zero nu once raised UFuncTypeError: bincount without
        # weights counts in int64, and the rows reached were divided in place
        model = make()
        out = PairEvolver(model).step(np.zeros((model.size, model.size)))
        assert out.dtype == np.float64 and out.shape == (model.size, model.size)
        assert not out.any() and not np.signbit(out).any()

    @pytest.mark.parametrize("make", [lambda: ising_chain(2), lambda: ising_chain(3),
                                      small_mixed_table, lambda: ising_chain(4),
                                      lambda: ising_chain(6), lambda: ising_chain(8),
                                      lambda: ising_chain(9), mixed_table, product3,
                                      one_value_site, wide_table],
                             ids=["ising2", "ising3", "small_mixed", "ising4", "ising6", "ising8",
                                  "ising9", "mixed", "product3", "one_value", "wide_table"])
    def test_live_path_matches_dense_oracle_bytes(self, make):
        # S = 4 to 512: three steps from point masses, a scattered sparse nu
        # and two steps from a full-support nu all have the bytes of the
        # strided dense step over the joints of every row pair
        model = make()
        S = model.size
        ev = PairEvolver(model)
        rng = np.random.default_rng(S)
        laws = []
        for x, y in [(0, S - 1)] + rng.integers(0, S, (2, 2)).tolist():
            nu = ev.delta(int(x), int(y))
            for _ in range(3):
                laws.append(nu)
                nu = ev.step(nu)
        nu = np.zeros((S, S))
        rows = rng.choice(S, max(1, S // 16), replace=False)
        cols = rng.choice(S, max(1, S // 8), replace=False)
        nu[np.ix_(rows, cols)] = rng.random((len(rows), len(cols)))
        laws.append(nu / nu.sum())
        nu = random_pair_pmf(model, 9)
        laws += [nu, ev.step(nu)]
        assert np.count_nonzero(laws[-2]) == S * S
        for nu in laws:
            assert ev.step(nu).tobytes() == dense_step_oracle(model, nu).tobytes()


class TestAntisymmetricF:
    def setup_method(self):
        self.f = RademacherSumObservable([[[1.0]], [[1.0]]])  # f(z) = (z1+z2) I_1

    def test_conditional_mean_identity_independent(self):
        rep = stein_identity_check(product2(), self.f)
        assert rep.holds
        assert rep.max_residual <= 1e-8

    def test_conditional_mean_identity_greedy_ising(self):
        rng = np.random.default_rng(13)
        mats = [draw(2, 31), draw(2, 32)]
        f = RademacherSumObservable(mats)
        rep = stein_identity_check(ising2(0.25), f)
        assert rep.holds

    @pytest.mark.parametrize("make", [ising2, ising3_field, mixed_table, product3],
                             ids=["ising2", "ising3_field", "mixed", "product3"])
    def test_matches_pair_law_chain_sum(self, make):
        # oracle: evolve the coupled pair law and sum the marginal differences
        # until the chains have met with all but 1e-13 of the mass
        model = make()
        f = RademacherSumObservable([draw(2, 60 + k) for k in range(model.n)])
        fc = _centered_values(model, f)
        g = _chain_sum(model, gibbs_kernel(model), fc)
        ev = PairEvolver(model)
        rng = np.random.default_rng(7)
        for _ in range(8):
            x, y = rng.integers(0, model.size, 2)
            nu = ev.delta(x, y)
            F = np.zeros((2, 2), dtype=complex)
            for _ in range(1000):
                if 1.0 - np.trace(nu) <= 1e-13:
                    break
                F += np.einsum("s,sij->ij", nu.sum(axis=1) - nu.sum(axis=0), fc)
                nu = ev.step(nu)
            else:
                pytest.fail("the chains did not meet within 1000 steps")
            assert np.abs(g[x] - g[y] - F).max() <= 1e-8

    def test_stein_identity_seven_site_ising(self):
        # S = 128 states, S^2 = 16384 pairs of states
        J = np.diag(np.full(6, 0.25), 1)
        model = DiscreteModel.from_ising(J + J.T, np.linspace(-0.2, 0.2, 7))
        f = RademacherSumObservable([draw(2, 70 + k) for k in range(7)])
        rep = stein_identity_check(model, f)
        assert rep.holds and rep.pairs_checked == 128 * 8

    def test_stein_identity_strongly_coupled_ising(self):
        # beta = 1.5 on an 8-site chain: the chains mix slowly (condition
        # number of the Poisson system about 1e4), and the solve still holds
        J = np.diag(np.full(7, 1.5), 1)
        model = DiscreteModel.from_ising(J + J.T)
        f = RademacherSumObservable([draw(2, 80 + k) for k in range(8)])
        rep = stein_identity_check(model, f)
        assert rep.holds and rep.pairs_checked == 256 * 9

    def test_stein_identity_at_dense_cap(self):
        # 3 sites of 10 values: S = 1000, the dense Gibbs-kernel cap
        rng = np.random.default_rng(21)
        model = DiscreteModel.from_table([tuple(range(10))] * 3,
                                         rng.uniform(0.5, 2.0, (10, 10, 10)))
        f = RademacherSumObservable([draw(2, 90 + k, 0.1) for k in range(3)])
        rep = stein_identity_check(model, f)
        assert rep.holds and rep.pairs_checked == 1000 * 28


class TestSteinPair:
    def test_rademacher_scale_factor(self):
        # Psi(Z) = sum Z_i A_i over independent centered signs: alpha = 1/n
        n = 3
        mats = [draw(2, 40 + k) for k in range(n)]
        model = DiscreteModel.from_product([(-1.0, 1.0)] * n, [[0.5, 0.5]] * n)
        rep = verify_stein_pair(model, RademacherSumObservable(mats))
        assert rep.alpha_hat == pytest.approx(1 / n, abs=1e-12)
        assert rep.residual < 1e-10
        assert rep.is_stein

    def test_constant_observable_degenerate(self):
        model = product2()
        mapping = {vals: np.eye(2) for vals in itertools.product((-1.0, 1.0), repeat=2)}
        rep = verify_stein_pair(model, TableObservable(mapping, 2))
        assert rep.degenerate
        assert rep.alpha_hat is None

    def test_mean_centered_internally(self):
        # shifting the observable by a constant leaves the fit unchanged
        n = 2
        mats = [draw(2, 50 + k) for k in range(n)]
        model = DiscreteModel.from_product([(-1.0, 1.0)] * n, [[0.5, 0.5]] * n)
        base = RademacherSumObservable(mats)
        shifted = {vals: base(vals) + 3.0 * np.eye(2)
                   for vals in itertools.product((-1.0, 1.0), repeat=n)}
        r1 = verify_stein_pair(model, base)
        r2 = verify_stein_pair(model, TableObservable(shifted, 2))
        assert r1.alpha_hat == pytest.approx(r2.alpha_hat, abs=1e-12)


class TestTelescoping:
    def test_equal_configs_all_zero(self):
        f = RademacherSumObservable([draw(2, 60), draw(2, 61)])
        terms = telescoping_decomposition(f, (1.0, -1.0), (1.0, -1.0))
        assert all(np.abs(t).max() == 0.0 for t in terms)

    def test_single_site_difference(self):
        f = RademacherSumObservable([draw(2, 62), draw(2, 63)])
        terms = telescoping_decomposition(f, (1.0, -1.0), (1.0, 1.0))
        assert np.abs(terms[0]).max() == 0.0
        assert np.abs(terms[1]).max() > 0.0

    def test_cancellation(self):
        rng = np.random.default_rng(14)
        mats = [draw(3, 70 + k) for k in range(4)]
        f = RademacherSumObservable(mats)
        for _ in range(20):
            x = tuple(rng.choice([-1.0, 1.0], size=4))
            y = tuple(rng.choice([-1.0, 1.0], size=4))
            terms = telescoping_decomposition(f, x, y)
            total = sum(terms)
            expect = np.asarray(f(x)) - np.asarray(f(y))
            assert np.abs(total - expect).max() < 1e-12
            for i in range(4):
                if x[i] == y[i]:
                    assert np.abs(terms[i]).max() == 0.0


    def test_terms_equal_per_configuration_differences(self):
        # the consecutive differences of one batch call have the bits of the
        # differences of values taken one configuration at a time (einsum for
        # H(z), a lookup for a table)
        rng = np.random.default_rng(18)
        n, d = 5, 3
        rad = RademacherSumObservable([draw(d, 170 + k) for k in range(n)])
        stack = np.stack([M.mat for M in rad.matrices])
        mapping = {}
        for vals in itertools.product((-1.0, 1.0), repeat=n):
            M = rng.normal(size=(d, d)) + 1j * rng.normal(size=(d, d))
            mapping[vals] = M + M.conj().T
        oracles = [(rad, lambda z: np.einsum("n,nij->ij", np.asarray(z), stack)),
                   (TableObservable(mapping, d), mapping.__getitem__)]
        for _ in range(40):
            x = tuple(rng.choice([-1.0, 1.0], size=n).tolist())
            y = tuple(rng.choice([-1.0, 1.0], size=n).tolist())
            for obs, f in oracles:
                old = [np.asarray(f(x[:i + 1] + y[i + 1:]), dtype=np.complex128)
                       - np.asarray(f(x[:i] + y[i:]), dtype=np.complex128) for i in range(n)]
                terms = telescoping_decomposition(obs, x, y)
                assert np.stack(terms).tobytes() == np.stack(old).tobytes()


class SignedSum(MatrixObservable):
    """H(z) = (sum_k z_k) diag(1, -1), defining ``batch`` only."""

    dim = 2

    def batch(self, values_matrix):
        return np.asarray(values_matrix, dtype=float).sum(axis=1)[:, None, None] \
            * np.diag([1.0, -1.0]).astype(complex)


class TestBatchOnlyObservable:
    # the same H(z) as a Rademacher sum: sums of +-1 products are exact
    n = 3
    rad = RademacherSumObservable([np.diag([1.0, -1.0])] * 3)

    def test_call_is_batch_on_one_row(self):
        obs = SignedSum()
        assert np.array_equal(obs((1.0, -1.0, 1.0)), np.diag([1.0, -1.0]))
        assert obs((1, 1, 1)).tobytes() == obs.batch(np.ones((1, 3)))[0].tobytes()

    def test_telescoping(self):
        x, y = (1.0, -1.0, 1.0), (-1.0, -1.0, -1.0)
        terms = telescoping_decomposition(SignedSum(), x, y)
        assert [t.tobytes() for t in terms] == \
            [t.tobytes() for t in telescoping_decomposition(self.rad, x, y)]
        assert np.abs(terms[1]).max() == 0.0
        assert np.array_equal(sum(terms), 4.0 * np.diag([1.0, -1.0]))

    def test_tails(self):
        model = DiscreteModel.from_product([(-1.0, 1.0)] * self.n, [[0.5, 0.5]] * self.n)
        ts = [-1.0, 0.0, 1.0, 2.0, 3.0]
        exact = exhaustive_tail(model, SignedSum(), ts)
        assert exact.empirical == exhaustive_tail(model, self.rad, ts).empirical
        assert exact.empirical == (1.0, 1.0, 1.0, 0.25, 0.25)  # lambda_max = |sum_k z_k|
        sampled = mc_tail_estimate(model, SignedSum(), ts, 500, seed=3)
        assert sampled.mean_source == "enumeration"
        expect = mc_tail_estimate(model, self.rad, ts, 500, seed=3)
        assert (sampled.empirical, sampled.ci_low, sampled.ci_high) == \
            (expect.empirical, expect.ci_low, expect.ci_high)


class TestMcTail:
    def test_constant_observable(self):
        model = product2()
        mapping = {vals: np.eye(2) for vals in itertools.product((-1.0, 1.0), repeat=2)}
        est = mc_tail_estimate(model, TableObservable(mapping, 2), [0.5, 1.0], 500, seed=3)
        assert est.empirical == (0.0, 0.0)

    def test_t_below_min_gives_one(self):
        model = product2()
        obs = RademacherSumObservable([draw(2, 80), draw(2, 81)])
        est = mc_tail_estimate(model, obs, [-100.0], 200, seed=4)
        assert est.empirical[0] == 1.0

    def test_deterministic(self):
        model = product2()
        obs = RademacherSumObservable([draw(2, 82), draw(2, 83)])
        e1 = mc_tail_estimate(model, obs, [0.0, 0.5, 1.0], 400, seed=5)
        e2 = mc_tail_estimate(model, obs, [0.0, 0.5, 1.0], 400, seed=5)
        assert e1 == e2

    def test_rademacher_respects_hoeffding(self):
        n, d = 10, 2
        mats = [sample_ensemble(EnsembleSpec("gaussian-hermitian", d, 0.4, 90 + k))
                for k in range(n)]
        obs = RademacherSumObservable(mats)
        model = DiscreteModel.from_product([(-1.0, 1.0)] * n, [[0.5, 0.5]] * n)
        sig2 = DifferenceBoundSet(mats).sigma_sq
        sigma = math.sqrt(sig2)
        ts = [0.5 * k * sigma for k in range(7)]
        est = mc_tail_estimate(model, obs, ts, 20000, seed=6)
        for t, e, lo, hi in zip(est.t_grid, est.empirical, est.ci_low, est.ci_high):
            assert e <= hoeffding_bound(d, sig2, t) + (hi - lo) / 2

    @pytest.mark.parametrize("arg,value", [("samples", 2.5), ("samples", True),
                                           ("seed", 1.9), ("seed", False), ("seed", None)])
    def test_non_integer_argument_refused(self, arg, value):
        obs = RademacherSumObservable([draw(2, 82), draw(2, 83)])
        kwargs = {"samples": 100, "seed": 1, arg: value}
        with pytest.raises(ValueError, match=f"{arg} must be an integer"):
            mc_tail_estimate(product2(), obs, [0.0], **kwargs)

    def test_mean_source_enumeration(self):
        model = ising2(0.3)
        mapping = {}
        rng = np.random.default_rng(15)
        for vals in itertools.product((-1.0, 1.0), repeat=2):
            M = rng.normal(size=(2, 2))
            mapping[vals] = (M + M.T) / 2
        est = mc_tail_estimate(model, TableObservable(mapping, 2), [0.0], 300, seed=7)
        assert est.mean_source == "enumeration"


    def test_mean_source_pilot(self):
        # 17 biased sites, S = 131072 > MEAN_ENUM_CAP, and an observable without
        # an exact mean: the mean comes from max(1000, samples // 10) draws of the
        # first stream spawned from the seed, the estimate from the second
        n, samples = 17, 3000

        class SignedCount(MatrixObservable):  # H(z) = (sum_k z_k) diag(1, -1)
            dim = 2

            def __init__(self):
                self.calls = []

            def batch(self, values_matrix):
                self.calls.append(values_matrix)
                return values_matrix.sum(axis=1)[:, None, None] * np.diag([1.0, -1.0])

        model = DiscreteModel.from_product([(-1.0, 1.0)] * n, [[0.2, 0.8]] * n)
        obs = SignedCount()
        # index 1 is the value +1
        pilot, main = (2.0 * model.sample(np.random.default_rng(ss), k) - 1.0 for ss, k in
                       zip(np.random.SeedSequence(11).spawn(2), (1000, samples)))
        lam = np.abs(main.sum(axis=1) - pilot.sum(axis=1).mean())
        ts = np.unique(lam)  # every t sits on a value, so any other mean moves a tail
        est = mc_tail_estimate(model, obs, ts, samples, seed=11)
        assert est.mean_source == "pilot"
        assert len(obs.calls) == 2
        assert np.array_equal(obs.calls[0], pilot) and np.array_equal(obs.calls[1], main)
        assert est.empirical == tuple(float((lam >= t).mean()) for t in ts)


class TestExhaustiveTail:
    def test_matches_bruteforce_enumeration(self):
        from matconc.coupling import exhaustive_tail
        import itertools as it
        model = ising2(0.4)
        mats = [draw(2, 120), draw(2, 121)]
        obs = RademacherSumObservable(mats)
        est = exhaustive_tail(model, obs, [0.0, 0.5, 1.0, 2.0])
        # brute-force oracle over all four configurations
        mean = np.zeros((2, 2), dtype=complex)
        pmf = {}
        for idx in it.product(range(2), repeat=2):
            pmf[idx] = model.table[idx]
            mean += pmf[idx] * obs(model.values(idx))
        for t, p in zip(est.t_grid, est.empirical):
            expect = sum(w for idx, w in pmf.items()
                         if np.linalg.eigvalsh(obs(model.values(idx)) - mean)[-1] >= t)
            assert p == pytest.approx(expect, abs=1e-12)
        assert est.ci_low == est.empirical == est.ci_high

    def test_batched_values_equal_per_state_calls(self):
        # one batch call over every state gives the per-state loop's bits
        from matconc.coupling import _observable_values
        for n in range(1, 13):
            for d in (1, 2, 3, 5, 8):
                model = DiscreteModel.from_product([(-1.0, 1.0)] * n, [[0.5, 0.5]] * n)
                obs = RademacherSumObservable([draw(d, 1000 * n + 10 * d + k) for k in range(n)])
                loop = np.stack([obs(vals) for vals in itertools.product(*model.alphabets)])
                assert _observable_values(model, obs).tobytes() == loop.tobytes(), (n, d)
        # a table observable keyed by the integer values of a mixed-alphabet model
        model = mixed_table()
        rng = np.random.default_rng(16)
        mapping = {vals: rng.normal(size=(2, 2)) for vals in itertools.product(*model.alphabets)}
        obs = TableObservable({k: v + v.T for k, v in mapping.items()}, 2)
        loop = np.stack([obs(vals) for vals in itertools.product(*model.alphabets)])
        assert _observable_values(model, obs).tobytes() == loop.tobytes()

    def test_mc_converges_to_exhaustive(self):
        from matconc.coupling import exhaustive_tail
        model = ising2(0.3)
        obs = RademacherSumObservable([draw(2, 130), draw(2, 131)])
        ts = [0.0, 0.8, 1.6]
        exact = exhaustive_tail(model, obs, ts)
        mc = mc_tail_estimate(model, obs, ts, 40000, seed=17)
        for p, lo, hi in zip(exact.empirical, mc.ci_low, mc.ci_high):
            assert lo - 1e-9 <= p <= hi + 1e-9


class TestIndependentKeyInequality:
    def test_realized_differences_dominated(self):
        # every realized (f(X(k)) - f(X'(k)))^2 stays below the single-swap
        # bound matrix squared for the original disagreement site
        mats = [draw(2, 140), draw(2, 141), draw(2, 142)]
        obs = RademacherSumObservable(mats)
        model = DiscreteModel.from_product([(-1.0, 1.0)] * 3, [[0.5, 0.5]] * 3)
        hamming = obs.hamming_bounds(model)
        site = 1
        A2 = hamming.matrices[site].mat @ hamming.matrices[site].mat
        rng = np.random.default_rng(33)
        X = model.sample(rng, 50).T
        Y = X.copy()
        Y[site] = 1 - Y[site]  # force the worst initial swap at `site`
        for _ in range(6):
            for x, y in zip(X.T, Y.T):
                diff = np.asarray(obs(model.values(x))) - np.asarray(obs(model.values(y)))
                assert np.linalg.eigvalsh(A2 - diff @ diff)[0] >= -1e-10
            coupled_step(model, X, Y, rng)


class TestHamming:
    def test_incomplete_table_names_the_missing_values(self):
        # a configuration without an entry once raised a bare KeyError
        # holding numpy scalars
        model = DiscreteModel.from_product([(-1.0, 1.0)] * 2, [[0.5, 0.5]] * 2)
        obs = TableObservable({(a, b): np.eye(2) for a in (-1.0, 1.0) for b in (-1.0,)}, 2)
        assert np.array_equal(obs((1.0, -1.0)), np.eye(2))
        with pytest.raises(ValueError, match=r"no entry for the values \[-1\.0, 1\.0\]$"):
            derive_hamming_bounds(obs, model)

    def test_non_hermitian_entry_refused(self):
        # +-[[0, 5], [0, 0]] was once accepted: the exhaustive tail read its
        # Hermitian part (P(lambda >= 1) = 1) and the sampled one its lower
        # triangle (0)
        with pytest.raises(HermiticityError):
            TableObservable({(1.0,): [[0, 5], [0, 0]], (-1.0,): [[0, -5], [0, 0]]}, 2)

    def test_entries_are_stored_as_their_hermitian_part(self):
        M = np.array([[1.0, 2.0 + 1e-15], [2.0, 3.0]])
        obs = TableObservable({(0,): M}, 2)
        assert np.array_equal(obs((0,)), (M + M.T) / 2)

    def test_rademacher_hamming_set_valid(self):
        mats = [draw(2, 95), draw(2, 96)]
        obs = RademacherSumObservable(mats)
        model = product2()
        bounds = obs.hamming_bounds(model)
        ok, worst = check_hamming(obs, model, bounds)
        assert ok, f"worst slack {worst}"

    def test_plain_coefficients_insufficient(self):
        # A_k themselves do NOT dominate the +-1 swaps; 2 A_k do
        mats = [draw(2, 97), draw(2, 98)]
        obs = RademacherSumObservable(mats)
        model = product2()
        ok, _ = check_hamming(obs, model, DifferenceBoundSet(mats))
        assert not ok

    def test_derived_bounds_are_worst_swap_norms(self):
        # mixed alphabets 2 x 3 x 4; the middle site's value enters as v * B, so
        # its worst swap (-1 <-> 1) is between two values neither of which is
        # the first, and a maximum over fewer variants falls short
        alphabets = [(-1.0, 1.0), (0.0, -1.0, 1.0), (0.0, 1.0, 2.0, 3.0)]
        model = DiscreteModel.from_product(
            alphabets, [[0.3, 0.7], [0.2, 0.5, 0.3], [0.1, 0.2, 0.3, 0.4]])
        rng = np.random.default_rng(150)
        B = draw(2, 151).mat
        table = {}
        for vals in itertools.product(*alphabets):
            M = rng.normal(size=(2, 2)) + 1j * rng.normal(size=(2, 2))
            table[vals] = vals[1] * B + 0.1 * (M + M.conj().T) / 2
        obs = TableObservable(table, 2)
        bounds = derive_hamming_bounds(obs, model)
        for k, alphabet in enumerate(alphabets):
            worst = max(np.linalg.norm(table[z] - table[z[:k] + (v,) + z[k + 1:]], 2)
                        for z in table for v in alphabet)
            assert np.array_equal(bounds.matrices[k].mat, bounds.matrices[k].mat[0, 0] * np.eye(2))
            assert bounds.matrices[k].mat[0, 0].real == pytest.approx(worst, rel=1e-12)
        ok, slack = check_hamming(obs, model, bounds)
        assert ok, f"worst slack {slack}"


# The per-site coupled step and its row-major kernels as they stood before the
# one-call step: the byte oracle of ``greedy_disagreement_mc``.

def rowwise_sample_rows(P, u):
    cdf = np.cumsum(P, axis=1)
    idx = (cdf < (u * cdf[:, -1])[:, None]).sum(axis=1)
    return np.minimum(idx, P.shape[1] - 1)


def rowwise_maximal_coupling_rows(P, Q, u_same, u_min, u_p, u_q):
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
    for i, (table, w) in enumerate(zip(tables, weights)):
        mask = picks == i
        if not mask.any():
            continue
        X[mask, i], Y[mask, i] = rowwise_maximal_coupling_rows(
            table[X[mask] @ w], table[Y[mask] @ w], *U[mask].T)


def per_site_greedy_mc(model, site, kmax, runs, seed):
    """(means, std_errors) of ``greedy_disagreement_mc`` on (runs, n) stacks."""
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


class TestOneCallStep:
    @pytest.mark.parametrize("make", [mixed_table, ising4_field, single_site, product3,
                                      ternary_ising],
                             ids=["mixed", "ising4", "single_site", "product3", "ternary"])
    def test_bytes_equal_per_site_step(self, make):
        m = make()
        for site in range(m.n):
            for seed in (3, 8):
                means, ses = per_site_greedy_mc(m, site, 6, 1500, seed)
                got = greedy_disagreement_mc(m, site, 6, 1500, seed)
                assert got.means.tobytes() == means.tobytes(), (site, seed)
                assert got.std_errors.tobytes() == ses.tobytes(), (site, seed)

    @pytest.mark.pinned
    def test_nine_value_site_pinned(self, assert_pinned):
        # m >= 8: the overlap mass adds values in order, where NumPy's row sum
        # is pairwise; these bytes are pinned, and at this seed equal the
        # per-site step's
        got = greedy_disagreement_mc(alphabet9(), 0, 6, 2000, seed=3)
        assert_pinned("greedy-mc/nine-value-site", got.means.tobytes() + got.std_errors.tobytes())

    def test_overlap_mass_in_value_order(self):
        # nine-value pmfs whose value-order sum lies above NumPy's pairwise
        # row sum: a u_same equal to the pairwise sum still takes the overlap
        # draw (index > 0 here), where the per-site step took the residual
        # draw (index 0: p = q leaves no residual mass)
        rng = np.random.default_rng(19)
        P = rng.dirichlet(np.ones(9), size=2000)
        P = P[_ordered_sum(P.T) > P.sum(axis=1)]
        assert len(P) > 100
        u = (P.sum(axis=1), np.full(len(P), 0.999), np.zeros(len(P)), np.zeros(len(P)))
        a, b = _maximal_coupling_rows(P.T, P.T, *u)
        assert np.array_equal(a, b) and (a > 0).all()
        assert not rowwise_maximal_coupling_rows(P, P, *u)[0].any()

    def test_site_tables(self):
        m = mixed_table()
        T, offsets, W = _site_rules(m)
        assert T.shape == (4, 8 + 12 + 6) and offsets.tolist() == [0, 8, 20]
        for i in range(m.n):
            table, mi = conditional_table(m, i), m.sizes[i]
            block = T[:, offsets[i]:offsets[i] + len(table)]
            assert np.array_equal(block[:mi], table.T) and not block[mi:].any()
            assert np.array_equal(W[:, i], conditional_row_weights(m.sizes, i))

    def test_product_site_keeps_one_row(self):
        m = product9()
        T, offsets, W = _site_rules(m)
        assert T.shape == (9, 2) and offsets.tolist() == [0, 1] and not W.any()
        for i, p in enumerate(m.site_marginals()):
            assert np.array_equal(T[:m.sizes[i], i], p) and not T[m.sizes[i]:, i].any()


class TestGreedyDisagreementMC:
    def test_ising2_dominated_by_contraction(self):
        m = ising2(0.25)
        B = b_matrix(dobrushin_matrix(m), 2)
        mc = greedy_disagreement_mc(m, 0, 12, 30000, seed=21)
        for k in range(13):
            bound = b_power_column(B, k, 0).vector
            assert (mc.means[k] <= bound + 3 * mc.std_errors[k] + 1e-12).all()

    def test_deterministic(self):
        m = ising2(0.25)
        a = greedy_disagreement_mc(m, 0, 5, 2000, seed=9)
        b = greedy_disagreement_mc(m, 0, 5, 2000, seed=9)
        assert np.array_equal(a.means, b.means)

    def test_runs_below_one_refused(self):
        for runs in (0, -1):
            with pytest.raises(ValueError, match="runs >= 1"):
                greedy_disagreement_mc(ising2(), 0, 3, runs, seed=1)

    def test_negative_kmax_refused(self):
        for kmax in (-1, -2):
            with pytest.raises(ValueError, match="kmax >= 0"):
                greedy_disagreement_mc(ising2(), 0, kmax, 10, seed=1)

    @pytest.mark.parametrize("arg,value", [("site", 1.5), ("site", True), ("kmax", 2.5),
                                           ("kmax", False), ("runs", 10.5), ("runs", True),
                                           ("seed", 1.9), ("seed", True), ("site", "1")])
    def test_non_integer_argument_refused(self, arg, value):
        kwargs = {"site": 0, "kmax": 3, "runs": 10, "seed": 1, arg: value}
        with pytest.raises(ValueError, match=f"{arg} must be an integer"):
            greedy_disagreement_mc(ising2(), **kwargs)

    def test_integral_numbers_accepted(self):
        a = greedy_disagreement_mc(ising2(), 1, 3, 50, seed=9)
        b = greedy_disagreement_mc(ising2(), np.int64(1), 3.0, np.int32(50), seed=9.0)
        assert a.means.tobytes() == b.means.tobytes() and a.site == b.site == 1

    def test_initial_disagreement_only_at_site(self):
        m = ising2(0.25)
        mc = greedy_disagreement_mc(m, 1, 3, 5000, seed=10)
        assert mc.means[0][0] == 0.0
        assert mc.means[0][1] > 0.0


# The Monte Carlo tail path and the greedy records as they stood before the
# one-draw sampler and the value-major batch: per-site ``Generator.choice``
# draws, per-site value columns, one ``einsum`` and a per-step ``record``.
# The byte oracles of ``sample``, ``_values_matrix``, ``batch`` and
# ``greedy_disagreement_mc``.

def choice_sample(model, rng, size):
    if model._site_pmfs is None:
        return model.sample(rng, size)  # the table branch is unchanged
    cols = [rng.choice(model.sizes[i], size=size, p=model._site_pmfs[i])
            for i in range(model.n)]
    return np.stack(cols, axis=1)


def column_values(model, configs):
    cols = [np.asarray(model.alphabets[i], dtype=float)[configs[:, i]]
            for i in range(model.n)]
    return np.stack(cols, axis=1)


def einsum_batch(obs, values):
    return np.einsum("bn,nij->bij", np.asarray(values, dtype=float), obs._stack)


def recorded_greedy_mc(model, site, kmax, runs, seed):
    """(means, std_errors) with one ``record`` of the rates after every step."""
    rng = np.random.default_rng(np.random.SeedSequence(seed))
    n = model.n
    rules = T, offsets, W = _site_rules(model)
    X = np.ascontiguousarray(choice_sample(model, rng, runs).T)
    Y = X.copy()
    Y[site] = _sample_rows(T.take(offsets[site] + W[:, site] @ X, axis=1), rng.random(runs))
    means = np.empty((kmax + 1, n))
    ses = np.empty((kmax + 1, n))

    def record(k):
        p = np.count_nonzero(X != Y, axis=1) / runs
        means[k] = p
        ses[k] = np.sqrt(p * (1.0 - p) / runs)

    record(0)
    for k in range(1, kmax + 1):
        _coupled_step(rules, X, Y, rng.integers(0, n, size=runs), rng.random((runs, 4)))
        record(k)
    return means, ses


def random_tail_case(rng, n):
    """A product model on n sites with 1- to 4-value alphabets, some holding
    0.0, and n Hermitian coefficients (real-only or complex, d = 1..6)."""
    sizes = rng.integers(1, 5, size=n)
    alphabets = []
    for m in sizes:
        a = np.round(rng.normal(size=m), 3)
        if rng.random() < 0.3:
            a[rng.integers(m)] = 0.0
        alphabets.append(tuple(float(v) for v in a))
    model = DiscreteModel.from_product(alphabets, [rng.random(m) + 0.01 for m in sizes],
                                       enum_cap=4 ** n)
    d, real = int(rng.integers(1, 7)), rng.random() < 0.4
    mats = []
    for _ in range(n):
        M = rng.normal(size=(d, d)) + (0.0 if real else 1j * rng.normal(size=(d, d)))
        if rng.random() < 0.2:
            M[0, 0] = 0.0
        mats.append((M + M.conj().T) / 2.0)
    return model, RademacherSumObservable(mats)


class TestTailPathBytes:
    def test_sampled_values_and_batch_equal_the_oracles(self):
        rng = np.random.default_rng(29)
        for case in range(60):
            model, obs = random_tail_case(rng, int(rng.integers(1, 25)))
            size, seed = int(rng.integers(1, 4001)), int(rng.integers(2 ** 31))
            configs = model.sample(np.random.default_rng(seed), size)
            expect = column_values(model, choice_sample(model, np.random.default_rng(seed),
                                                        size))
            values = _values_matrix(model, configs)
            assert values.shape == expect.shape and values.tobytes("C") == expect.tobytes()
            H = obs.batch(values)
            assert H.shape == (size, obs.dim, obs.dim) and H.dtype == np.complex128
            assert H.tobytes() == einsum_batch(obs, expect).tobytes(), case
            # a C-ordered (b, n) input, as a caller may pass, gives the same bytes
            assert obs.batch(expect).tobytes() == H.tobytes(), case

    def test_enumerated_values_equal_the_oracle(self):
        rng = np.random.default_rng(31)
        for case in range(40):
            model, obs = random_tail_case(rng, int(rng.integers(1, 7)))
            configs = np.indices(model.sizes).reshape(model.n, -1).T
            expect = einsum_batch(obs, column_values(model, configs))
            assert _observable_values(model, obs).tobytes() == expect.tobytes(), case

    def test_zero_sums_are_positive_zero(self):
        # products of opposite zero signs, and sums that cancel, end at +0.0
        obs = RademacherSumObservable([np.diag([0.0, 1.0]), np.diag([0.0, 1.0]),
                                       np.diag([-0.0, -1.0])])
        values = np.array([[-1.0, 0.0, 1.0], [1.0, -1.0, 0.0], [0.0, 0.0, 0.0]])
        H = obs.batch(values)
        assert H.tobytes() == einsum_batch(obs, values).tobytes()
        parts = H.view(float)
        assert (parts == 0).sum() == 23 and not np.signbit(parts[parts == 0]).any()

    @pytest.mark.parametrize("make", [mixed_table, ising4_field, single_site, product3,
                                      product9, ternary_ising],
                             ids=["mixed", "ising4", "single_site", "product3", "product9",
                                  "ternary"])
    def test_greedy_counts_equal_per_step_records(self, make):
        m = make()
        for site in range(m.n):
            for kmax, runs, seed in ((0, 1, 2), (5, 7, 3), (8, 1500, 8)):
                means, ses = recorded_greedy_mc(m, site, kmax, runs, seed)
                got = greedy_disagreement_mc(m, site, kmax, runs, seed)
                assert got.means.tobytes() == means.tobytes(), (site, seed)
                assert got.std_errors.tobytes() == ses.tobytes(), (site, seed)

    def test_greedy_on_random_products(self):
        rng = np.random.default_rng(37)
        for case in range(12):
            model, _ = random_tail_case(rng, int(rng.integers(2, 9)))
            site, runs = int(rng.integers(model.n)), int(rng.integers(1, 3000))
            means, ses = recorded_greedy_mc(model, site, 10, runs, case)
            got = greedy_disagreement_mc(model, site, 10, runs, case)
            assert got.means.tobytes() + got.std_errors.tobytes() == \
                means.tobytes() + ses.tobytes(), case


class TestSiteCountRefusal:
    def obs(self, count):
        return RademacherSumObservable([draw(2, 300 + k) for k in range(count)])

    @pytest.mark.parametrize("columns", [0, 1, 2, 4, 5])
    def test_batch_refuses_other_column_counts(self, columns):
        with pytest.raises(ValueError, match=r"values must have shape \(b, 3\)"):
            self.obs(3).batch(np.ones((4, columns)))

    def test_batch_refuses_one_row_without_a_batch_axis(self):
        with pytest.raises(ValueError, match="values must have shape"):
            self.obs(3).batch([1.0, -1.0, 1.0])

    def test_exhaustive_tail_refuses_a_site_mismatch(self):
        model = DiscreteModel.from_product([(-1.0, 1.0)] * 3, [[0.5, 0.5]] * 3)
        for count in (2, 4):
            with pytest.raises(ValueError):
                exhaustive_tail(model, self.obs(count), [0.0, 1.0])

    def test_mc_tail_refuses_a_site_mismatch(self):
        model = DiscreteModel.from_product([(-1.0, 1.0)] * 3, [[0.5, 0.5]] * 3)
        for count in (2, 4):
            with pytest.raises(ValueError):
                mc_tail_estimate(model, self.obs(count), [0.0, 1.0], 100, seed=1)


class TestSmallHelpers:
    def test_coupon_examples(self):
        assert coupon_collector_survival(2, 1) == pytest.approx(0.5)
        assert coupon_collector_survival(5, 0) == 1.0

    def test_wilson_interval(self):
        lo, hi = wilson_interval(0, 100)
        assert lo == 0.0 and hi > 0.0
        lo, hi = wilson_interval(100, 100)
        assert hi == 1.0 and lo < 1.0
        lo, hi = wilson_interval(50, 100)
        assert lo < 0.5 < hi
        with pytest.raises(ValueError):
            wilson_interval(0, 0)

    def test_wilson_interval_refuses_bad_counts(self):
        # (5, 3) and (-1, 3) once raised "math domain error" from the square root
        for successes, trials, name in [(5, 3, "successes"), (-1, 3, "successes"),
                                        (1.5, 3, "successes"), (True, 3, "successes"),
                                        (1, 2.5, "trials"), (1, True, "trials")]:
            with pytest.raises(ValueError, match=name):
                wilson_interval(successes, trials)
        assert wilson_interval(3.0, 10.0) == wilson_interval(3, 10)


@pytest.mark.parametrize("make", [mixed_table, ising4_field, ternary_ising, alphabet9],
                         ids=["mixed", "ising4", "ternary", "alphabet9"])
def test_tables_built_once_per_model(make, monkeypatch):
    # dobrushin_matrix, gibbs_kernel, PairEvolver, verify_property_P and _site_rules
    # read the one cached stack
    builds = []
    build = DiscreteModel._conditional_stacks.func

    def counted(model):
        builds.append(model)
        return build(model)

    stacks = functools.cached_property(counted)
    stacks.__set_name__(DiscreteModel, "_conditional_stacks")
    monkeypatch.setattr(DiscreteModel, "_conditional_stacks", stacks)
    model = make()
    dobrushin_matrix(model)
    gibbs_kernel(model)
    evolver = PairEvolver(model)
    evolver.step(evolver.delta(0, model.size - 1))
    verify_property_P(model)
    _site_rules(model)
    assert builds == [model]
    for i in range(model.n):
        assert np.shares_memory(conditional_table(model, i), model._conditional_stacks[model.sizes[i]])


def pinned_model(name):
    """The seeded model of a PINNED_EXACT entry and the start pair (x, y) of its pair laws.

    ``ising<n>``: n +-1 sites, symmetric couplings with every row sum of |J|
    at most 0.9, and fields; an ``AxBx...`` name: a table model with those
    alphabet sizes and uniform(0.1, 2) weights.
    """
    rng = np.random.default_rng(sum(map(ord, name)))
    if name.startswith("ising"):
        n = int(name[5:])
        J = np.triu(rng.uniform(-1.0, 1.0, (n, n)) * (0.9 / (n - 1)), 1)
        model = DiscreteModel.from_ising(J + J.T, rng.uniform(-0.3, 0.3, n))
    else:
        sizes = tuple(int(m) for m in name.split("x"))
        model = DiscreteModel.from_table([tuple(range(m)) for m in sizes],
                                         rng.uniform(0.1, 2.0, sizes))
    x, y = (int(s) for s in rng.integers(0, model.size, 2))
    return model, x, y


# the models whose D, Gibbs kernel and three pair-law steps have their bytes pinned
PINNED_EXACT = ("ising2", "ising3", "ising4", "ising5", "ising6", "ising7", "ising8", "ising9",
                "3x2x4", "2x1x3", "3x2x3x2", "9x2", "10x1x3", "2x4x1x2x3")


@pytest.mark.pinned
@pytest.mark.parametrize("name", PINNED_EXACT)
def test_exact_layers_bytes_pinned(name, assert_pinned):
    model, x, y = pinned_model(name)
    arrays = [dobrushin_matrix(model).entries, gibbs_kernel(model)]
    evolver = PairEvolver(model)
    nu = evolver.delta(x, y)
    for _ in range(3):
        nu = evolver.step(nu)
        arrays.append(nu)
    assert_pinned(f"exact/{name}", b"".join(repr(a.shape).encode() +
                                            np.ascontiguousarray(a).tobytes() for a in arrays))
