import itertools
import math

import numpy as np
import pytest

from matconc.bounds import DifferenceBoundSet, hoeffding_bound
from matconc.coupling import (
    RademacherSumObservable,
    SteinPairSpec,
    TableObservable,
    TruncationError,
    antisymmetric_F,
    check_hamming,
    coupon_collector_survival,
    coupon_collector_weighted,
    exchangeable_pair_joint,
    gibbs_kernel,
    greedy_disagreement_mc,
    initial_state,
    make_exchangeable_pair,
    maximal_coupling,
    maximal_coupling_joint,
    mc_tail_estimate,
    step_greedy,
    step_independent,
    stein_identity_check,
    telescoping_decomposition,
    verify_property_P,
    verify_stein_pair,
    wilson_interval,
    _maximal_coupling_rows,
)
from matconc.dobrushin import DiscreteModel, b_matrix, b_power_column, dobrushin_matrix
from matconc.hermitian import EnsembleSpec, HermitianMatrix, sample_ensemble


def ising2(beta=0.25):
    return DiscreteModel.from_ising([[0.0, beta], [beta, 0.0]])


def product2():
    return DiscreteModel.from_product([(-1.0, 1.0)] * 2, [[0.5, 0.5]] * 2)


def draw(dim, seed, scale=1.0):
    return sample_ensemble(EnsembleSpec("gaussian-hermitian", dim, scale, seed))


class TestMaximalCoupling:
    def test_identical_always_equal(self):
        rng = np.random.default_rng(1)
        p = np.array([0.3, 0.7])
        for _ in range(200):
            a, b = maximal_coupling(p, p, rng)
            assert a == b

    def test_disjoint_never_equal(self):
        rng = np.random.default_rng(2)
        for _ in range(200):
            a, b = maximal_coupling([1.0, 0.0], [0.0, 1.0], rng)
            assert (a, b) == (0, 1)

    def test_bernoulli_meeting_probability(self):
        # TV(Bern(.8), Bern(.5)) = 0.3, so P(a = b) = 0.7
        rng = np.random.default_rng(3)
        n = 100000
        hits = sum(a == b for a, b in (maximal_coupling([0.2, 0.8], [0.5, 0.5], rng)
                                       for _ in range(n)))
        se = math.sqrt(0.7 * 0.3 / n)
        assert abs(hits / n - 0.7) <= 3 * se

    def test_marginals_preserved(self):
        rng = np.random.default_rng(4)
        p = np.array([0.1, 0.5, 0.4])
        q = np.array([0.6, 0.2, 0.2])
        n = 100000
        counts_a = np.zeros(3)
        counts_b = np.zeros(3)
        for _ in range(n):
            a, b = maximal_coupling(p, q, rng)
            counts_a[a] += 1
            counts_b[b] += 1
        assert np.abs(counts_a / n - p).max() <= 0.01
        assert np.abs(counts_b / n - q).max() <= 0.01

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

    def test_sampled_rows_match_joint(self):
        # three row pairs (one identical, one with disjoint support) sampled at once
        P = np.array([[0.1, 0.5, 0.4], [0.3, 0.3, 0.4], [1.0, 0.0, 0.0]])
        Q = np.array([[0.6, 0.2, 0.2], [0.3, 0.3, 0.4], [0.0, 0.5, 0.5]])
        n = 60000
        rows = np.repeat(np.arange(3), n)
        u = np.random.default_rng(12).random((4, rows.size))
        a, b = _maximal_coupling_rows(P[rows], Q[rows], *u)
        for r in range(3):
            J = maximal_coupling_joint(P[r], Q[r])
            counts = np.zeros((3, 3))
            np.add.at(counts, (a[rows == r], b[rows == r]), 1.0)
            se = np.sqrt(J * (1.0 - J) / n)
            assert np.all(np.abs(counts / n - J) <= 5.0 * se + 1e-12), (r, counts / n, J)

    def test_one_row_call_draws_four_uniforms(self):
        p, q = [0.2, 0.3, 0.5], [0.5, 0.3, 0.2]
        rng, ref = np.random.default_rng(21), np.random.default_rng(21)
        for _ in range(50):
            a, b = _maximal_coupling_rows(np.array([p]), np.array([q]), *ref.random((4, 1)))
            assert maximal_coupling(p, q, rng) == (int(a[0]), int(b[0]))

    def test_support_mismatch(self):
        with pytest.raises(ValueError):
            maximal_coupling([1.0], [0.5, 0.5], np.random.default_rng(0))
        with pytest.raises(ValueError):
            maximal_coupling_joint([1.0], [0.5, 0.5])


class TestGibbsKernel:
    def test_mixed_alphabets_match_per_state_loop(self):
        rng = np.random.default_rng(11)
        m = DiscreteModel.from_table([(0, 1, 2), (0, 1), (0, 1, 2, 3)],
                                     rng.uniform(0.1, 2.0, (3, 2, 4)))
        brute = np.zeros((m.size, m.size))
        for s in range(m.size):
            cfg = list(m.config_from_flat(s))
            for i in range(m.n):
                vec = m.conditional(i, cfg)
                keep = cfg[i]
                for v in range(m.sizes[i]):
                    cfg[i] = v
                    brute[s, m.flat_from_config(cfg)] += vec[v] / m.n
                cfg[i] = keep
        assert np.array_equal(gibbs_kernel(m), brute)


class TestExchangeablePair:
    def test_joint_symmetric_ising(self):
        J = exchangeable_pair_joint(ising2(0.25))
        assert np.abs(J - J.T).max() <= 1e-12

    def test_joint_symmetric_three_site(self):
        J3 = np.zeros((3, 3))
        J3[0, 1] = J3[1, 0] = J3[1, 2] = J3[2, 1] = 0.3
        J = exchangeable_pair_joint(DiscreteModel.from_ising(J3))
        assert np.abs(J - J.T).max() <= 1e-12

    def test_single_site_model(self):
        m = DiscreteModel.from_product([(0, 1, 2)], [[0.2, 0.3, 0.5]])
        rng = np.random.default_rng(5)
        x, y = make_exchangeable_pair(m, rng)
        assert len(x) == len(y) == 1

    def test_pair_differs_at_most_one_site(self):
        m = product2()
        rng = np.random.default_rng(6)
        for _ in range(100):
            x, y = make_exchangeable_pair(m, rng)
            assert sum(a != b for a, b in zip(x, y)) <= 1

    def test_sampled_joint_matches_exact(self):
        m = ising2(0.4)
        exact = exchangeable_pair_joint(m)
        rng = np.random.default_rng(7)
        counts = np.zeros((4, 4))
        n = 50000
        for _ in range(n):
            x, y = make_exchangeable_pair(m, rng)
            counts[m.flat_from_config(x), m.flat_from_config(y)] += 1
        assert np.abs(counts / n - exact).max() <= 0.01


class TestSteps:
    def test_independent_requires_product(self):
        state = initial_state((0, 0), (1, 1))
        with pytest.raises(ValueError):
            step_independent(state, ising2(), np.random.default_rng(0))

    def test_independent_refreshed_site_stays_agreed(self):
        m = product2()
        rng = np.random.default_rng(8)
        state = initial_state((0, 0), (1, 1))
        for _ in range(50):
            state = step_independent(state, m, rng)
            for i in state.history:
                assert state.x[i] == state.y[i]

    def test_disagreement_never_grows(self):
        m = product2()
        rng = np.random.default_rng(9)
        state = initial_state((0, 1), (1, 1))
        prev = sum(state.disagreement)
        for _ in range(30):
            state = step_independent(state, m, rng)
            cur = sum(state.disagreement)
            assert cur <= prev
            prev = cur

    def test_survival_probability(self):
        # P(site 0 never refreshed in k steps) = (1 - 1/n)^k
        m = product2()
        k, runs = 4, 20000
        survived = 0
        for r in range(runs):
            rng = np.random.default_rng(1000 + r)
            state = initial_state((0, 0), (1, 0))  # differ at site 0
            for _ in range(k):
                state = step_independent(state, m, rng)
            survived += 0 not in state.history
        expect = coupon_collector_survival(2, k)
        se = math.sqrt(expect * (1 - expect) / runs)
        assert abs(survived / runs - expect) <= 4 * se

    def test_greedy_equal_states_stay_equal(self):
        m = ising2(0.5)
        rng = np.random.default_rng(10)
        state = initial_state((0, 1), (0, 1))
        for _ in range(40):
            state = step_greedy(state, m, rng)
            assert state.x == state.y

    def test_greedy_step_counts(self):
        m = ising2()
        rng = np.random.default_rng(11)
        state = step_greedy(initial_state((0, 0), (1, 1)), m, rng)
        assert state.step == 1
        assert len(state.history) == 1


class TestPropertyP:
    def test_k0_point_masses(self):
        # trivially: before any step the chains sit at their starts
        state = initial_state((0, 1), (1, 0))
        assert state.x == (0, 1) and state.y == (1, 0)

    def test_independent_2site_K3(self):
        m = product2()
        rep = verify_property_P(m, 3, "independent")
        assert rep.holds
        assert rep.max_deviation <= 1e-12

    def test_greedy_ising_K2(self):
        rep = verify_property_P(ising2(0.25), 2, "greedy")
        assert rep.holds

    def test_greedy_threesite_K3(self):
        J = np.zeros((3, 3))
        J[0, 1] = J[1, 0] = J[1, 2] = J[2, 1] = 0.25
        rep = verify_property_P(DiscreteModel.from_ising(J), 3, "greedy")
        assert rep.holds

    def test_greedy_marginal_is_gibbs_kernel(self):
        # one-step marginal of each chain alone equals the exact Gibbs kernel
        from matconc.coupling import PairEvolver
        m = ising2(0.4)
        ev = PairEvolver(m, "greedy")
        G = gibbs_kernel(m)
        for x in range(m.size):
            for y in range(m.size):
                nu = ev.step(ev.delta(x, y))
                assert np.abs(nu.sum(axis=1) - G[x]).max() <= 1e-12
                assert np.abs(nu.sum(axis=0) - G[y]).max() <= 1e-12


class TestAntisymmetricF:
    def setup_method(self):
        self.f = RademacherSumObservable([[[1.0]], [[1.0]]])  # f(z) = (z1+z2) I_1

    def test_equal_starts_zero(self):
        F = antisymmetric_F(product2(), self.f, (0, 1), (0, 1), coupling="independent")
        assert np.abs(F.mat).max() == 0.0

    def test_antisymmetry_exact(self):
        m = product2()
        for x in itertools.product(range(2), repeat=2):
            for y in itertools.product(range(2), repeat=2):
                Fxy = antisymmetric_F(m, self.f, x, y, coupling="independent")
                Fyx = antisymmetric_F(m, self.f, y, x, coupling="independent")
                assert np.abs(Fxy.mat + Fyx.mat).max() <= 1e-10

    def test_conditional_mean_identity_independent(self):
        rep = stein_identity_check(product2(), self.f, coupling="independent")
        assert rep.holds
        assert rep.max_residual <= 1e-8

    def test_conditional_mean_identity_greedy_ising(self):
        rng = np.random.default_rng(13)
        mats = [draw(2, 31), draw(2, 32)]
        f = RademacherSumObservable(mats)
        rep = stein_identity_check(ising2(0.25), f, coupling="greedy")
        assert rep.holds

    def test_explicit_truncation_too_short(self):
        with pytest.raises(TruncationError):
            antisymmetric_F(ising2(0.25), self.f, (0, 0), (1, 1),
                            truncation=2, tol=1e-12)

    def test_explicit_truncation_long_enough(self):
        F_adaptive = antisymmetric_F(ising2(0.25), self.f, (0, 0), (1, 1), tol=1e-10)
        F_explicit = antisymmetric_F(ising2(0.25), self.f, (0, 0), (1, 1),
                                     truncation=120, tol=1e-10)
        assert np.abs(F_adaptive.mat - F_explicit.mat).max() <= 1e-9


class TestSteinPair:
    def test_rademacher_scale_factor(self):
        # Psi(Z) = sum Z_i A_i over independent centered signs: alpha = 1/n
        n = 3
        mats = [draw(2, 40 + k) for k in range(n)]
        model = DiscreteModel.from_product([(-1.0, 1.0)] * n, [[0.5, 0.5]] * n)
        rep = verify_stein_pair(SteinPairSpec(model, RademacherSumObservable(mats), 1 / n))
        assert rep.alpha_hat == pytest.approx(1 / n, abs=1e-12)
        assert rep.residual < 1e-10
        assert rep.is_stein

    def test_constant_observable_degenerate(self):
        model = product2()
        mapping = {vals: np.eye(2) for vals in itertools.product((-1.0, 1.0), repeat=2)}
        rep = verify_stein_pair(SteinPairSpec(model, TableObservable(mapping, 2)))
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
        r1 = verify_stein_pair(SteinPairSpec(model, base))
        r2 = verify_stein_pair(SteinPairSpec(model, TableObservable(shifted, 2)))
        assert r1.alpha_hat == pytest.approx(r2.alpha_hat, abs=1e-12)

    def test_claimed_alpha_validated(self):
        with pytest.raises(ValueError):
            SteinPairSpec(product2(), RademacherSumObservable([[[1.0]], [[1.0]]]), 1.5)


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

    def test_mean_source_enumeration(self):
        model = ising2(0.3)
        mapping = {}
        rng = np.random.default_rng(15)
        for vals in itertools.product((-1.0, 1.0), repeat=2):
            M = rng.normal(size=(2, 2))
            mapping[vals] = (M + M.T) / 2
        est = mc_tail_estimate(model, TableObservable(mapping, 2), [0.0], 300, seed=7)
        assert est.mean_source == "enumeration"


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
        from matconc.hermitian import psd_order_leq, HermitianMatrix
        mats = [draw(2, 140), draw(2, 141), draw(2, 142)]
        obs = RademacherSumObservable(mats)
        model = DiscreteModel.from_product([(-1.0, 1.0)] * 3, [[0.5, 0.5]] * 3)
        hamming = obs.hamming_bounds(model)
        site = 1
        A2 = HermitianMatrix(hamming.matrices[site].mat @ hamming.matrices[site].mat)
        rng = np.random.default_rng(33)
        for run in range(50):
            x = tuple(int(v) for v in model.sample(rng, 1)[0])
            y = list(x)
            y[site] = 1 - y[site]  # force the worst initial swap at `site`
            state = initial_state(x, tuple(y))
            for _ in range(6):
                diff = np.asarray(obs(model.values(state.x))) \
                    - np.asarray(obs(model.values(state.y)))
                sq = HermitianMatrix(diff @ diff)
                assert psd_order_leq(sq, A2, tol=1e-10).holds
                state = step_independent(state, model, rng)


class TestHamming:
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

    def test_initial_disagreement_only_at_site(self):
        m = ising2(0.25)
        mc = greedy_disagreement_mc(m, 1, 3, 5000, seed=10)
        assert mc.means[0][0] == 0.0
        assert mc.means[0][1] > 0.0


class TestSmallHelpers:
    def test_coupon_examples(self):
        assert coupon_collector_survival(2, 1) == pytest.approx(0.5)
        assert coupon_collector_survival(5, 0) == 1.0
        # partial sums of the weighted form approach 1 geometrically
        total = sum(coupon_collector_weighted(4, k) for k in range(200))
        assert total == pytest.approx(1.0, abs=1e-12)
        partial = sum(coupon_collector_weighted(4, k) for k in range(10))
        assert partial == pytest.approx(1.0 - coupon_collector_survival(4, 10), rel=1e-12)

    def test_wilson_interval(self):
        lo, hi = wilson_interval(0, 100)
        assert lo == 0.0 and hi > 0.0
        lo, hi = wilson_interval(100, 100)
        assert hi == 1.0 and lo < 1.0
        lo, hi = wilson_interval(50, 100)
        assert lo < 0.5 < hi
        with pytest.raises(ValueError):
            wilson_interval(0, 0)
