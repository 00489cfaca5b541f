import itertools
import json
import math

import numpy as np
import pytest

from matconc import dobrushin
from matconc.dobrushin import (
    DiscreteModel,
    EnumerationCapError,
    InterdependenceMatrix,
    b_matrix,
    b_power_column,
    conditional_row_weights,
    conditional_table,
    dobrushin_matrix,
    load_model,
    matrix_norms,
    model_from_obj,
    model_to_obj,
    norm_recursion_check,
    save_model,
    site_neighbours,
    tv_distance,
)

TANH_QUARTER = math.tanh(0.25)


def ising2(beta=0.25):
    return DiscreteModel.from_ising([[0.0, beta], [beta, 0.0]])


def mixed_table(seed=11):
    # mixed alphabets (3, 2, 4) with random positive weights: no symmetry to lean on
    rng = np.random.default_rng(seed)
    return DiscreteModel.from_table([(0, 1, 2), (0, 1), (0, 1, 2, 3)],
                                    rng.uniform(0.1, 2.0, (3, 2, 4)))


def random_table(sizes, seed):
    """Table model with alphabets 0..m-1 of the given sizes and uniform(0.1, 2) weights."""
    rng = np.random.default_rng(seed)
    return DiscreteModel.from_table([tuple(range(m)) for m in sizes],
                                    rng.uniform(0.1, 2.0, sizes))


def ising_chain(n, J):
    M = np.zeros((n, n))
    for i in range(n - 1):
        M[i, i + 1] = M[i + 1, i] = J
    return DiscreteModel.from_ising(M)


def ising3(beta=0.25):
    J = np.zeros((3, 3))
    J[0, 1] = J[1, 0] = beta
    J[1, 2] = J[2, 1] = beta
    J[0, 2] = J[2, 0] = beta
    return DiscreteModel.from_ising(J)


def random_ising(n, seed):
    """(J, h) of an n-site Ising model with random couplings and fields."""
    rng = np.random.default_rng(seed)
    J = np.triu(rng.uniform(-1.0, 1.0, (n, n)) * (0.9 / max(n - 1, 1)), 1)
    return J + J.T, rng.uniform(-0.3, 0.3, n)


def site_conditionals(model, i):
    """Site i's conditional of every flat state, shape (S, m_i): conditional_table rows."""
    configs = np.indices(model.sizes).reshape(model.n, -1).T
    return conditional_table(model, i)[configs @ conditional_row_weights(model.sizes, i)]


def single_swap_dobrushin(model):
    """D read off the neighbour table: every state against each of its site-j variants."""
    n = model.n
    D = np.zeros((n, n))
    for i in range(n):
        cond = site_conditionals(model, i)
        for j in range(n):
            if j != i:
                tv = 0.5 * np.abs(cond[:, None, :] - cond[site_neighbours(model, j)]).sum(axis=-1)
                D[i, j] = float(tv.max())
    return np.clip(D, 0.0, 1.0)


# ---------------------------------------------------------------------------
# Brute-force oracle: conditionals and sensitivities straight from weights

def brute_conditional(model, i, config):
    weights = []
    for v in range(model.sizes[i]):
        cfg = list(config)
        cfg[i] = v
        weights.append(model.table[tuple(cfg)])
    total = sum(weights)
    return [w / total for w in weights]


def brute_dobrushin(model):
    n = model.n
    D = np.zeros((n, n))
    configs = list(itertools.product(*[range(s) for s in model.sizes]))
    for i in range(n):
        for j in range(n):
            if i == j:
                continue
            worst = 0.0
            for x in configs:
                for vj in range(model.sizes[j]):
                    y = list(x)
                    y[j] = vj
                    p = brute_conditional(model, i, x)
                    q = brute_conditional(model, i, y)
                    worst = max(worst, 0.5 * sum(abs(a - b) for a, b in zip(p, q)))
            D[i, j] = worst
    return D


class TestModel:
    def test_ising_conditional_closed_form(self):
        m = ising2(0.25)
        # P(x1 = +1 | x2 = +1) = e^b / (e^b + e^-b)
        cond = m.conditional(0, (0, 1))  # value index 1 == +1 at site 1
        expect = math.exp(0.25) / (math.exp(0.25) + math.exp(-0.25))
        assert cond[1] == pytest.approx(expect, rel=1e-12)

    def test_uniform_conditional(self):
        m = DiscreteModel.from_table([(0, 1), (0, 1)], np.ones((2, 2)))
        assert np.allclose(m.conditional(0, (0, 0)), [0.5, 0.5])

    def test_product_conditional_ignores_rest(self):
        m = DiscreteModel.from_product([(0, 1), (0, 1, 2)], [[0.3, 0.7], [0.2, 0.3, 0.5]])
        assert np.allclose(m.conditional(1, (0, 0)), [0.2, 0.3, 0.5])
        assert np.allclose(m.conditional(1, (1, 2)), [0.2, 0.3, 0.5])

    def test_positivity_required(self):
        with pytest.raises(ValueError):
            DiscreteModel.from_table([(0, 1)], [1.0, 0.0])

    @pytest.mark.parametrize("count", [2, 4])
    def test_product_needs_one_pmf_per_site(self, count):
        # 2 pmfs for 3 sites were once accepted (site 2 always sampled 0), 4 raised IndexError
        with pytest.raises(ValueError, match=f"model has 3 alphabets but {count} pmfs"):
            DiscreteModel.from_product([(0, 1)] * 3, [[0.5, 0.5]] * count)

    def test_enumeration_cap(self):
        with pytest.raises(EnumerationCapError):
            DiscreteModel.from_product([(0, 1)] * 21, [[0.5, 0.5]] * 21)
        # configurable override admits it
        m = DiscreteModel.from_product([(0, 1)] * 21, [[0.5, 0.5]] * 21, enum_cap=2**22)
        assert m.size == 2**21

    def test_sampling_matches_pmf(self):
        m = ising2(0.5)
        rng = np.random.default_rng(7)
        draws = m.sample(rng, 40000)
        flat = draws[:, 0] * 2 + draws[:, 1]
        freq = np.bincount(flat, minlength=4) / 40000
        assert np.abs(freq - m.flat_pmf()).max() < 0.01

    def test_site_neighbours(self):
        m = mixed_table()
        for i in range(m.n):
            cond, variants = site_conditionals(m, i), site_neighbours(m, i)
            assert cond.shape == variants.shape == (m.size, m.sizes[i])
            for s in range(m.size):
                cfg = np.unravel_index(s, m.sizes)
                assert np.array_equal(cond[s], m.conditional(i, cfg))
                for v in range(m.sizes[i]):
                    alt = list(cfg)
                    alt[i] = v
                    assert variants[s, v] == np.ravel_multi_index(alt, m.sizes)

    def test_conditional_table_matches_brute(self):
        m = ising3(0.3)
        for i in range(3):
            rows = conditional_table(m, i)
            others = [j for j in range(3) if j != i]
            for r, rest in enumerate(itertools.product(*[range(2) for _ in others])):
                cfg = [0] * 3
                for pos, j in enumerate(others):
                    cfg[j] = rest[pos]
                assert np.allclose(rows[r], brute_conditional(m, i, cfg), atol=1e-14)


    @pytest.mark.parametrize("coupling,field,match", [
        ([[0.0, 0.0], [0.9, 0.0]], None, "transpose"),  # once the independent model
        ([[0.0, 0.9], [-0.9, 0.0]], None, "transpose"),  # once the model of [[0, .9], [0, 0]]
        ([[0.1, 0.2], [0.2, 0.0]], None, "zero diagonal"),
        ([[0.0, math.nan], [math.nan, 0.0]], None, "finite"),
        ([[0.0, math.inf], [math.inf, 0.0]], None, "finite"),
        ([[0.0, 0.2], [0.2, 0.0]], [0.1, math.nan], "finite"),
    ])
    def test_ising_coupling_contract(self, coupling, field, match):
        with pytest.raises(ValueError, match=match):
            DiscreteModel.from_ising(coupling, field)

    def test_ising_cap_checked_before_enumeration(self):
        # 2^40 states: refused before any per-state array is built
        with pytest.raises(EnumerationCapError, match="1099511627776 states"):
            DiscreteModel.from_ising(np.zeros((40, 40)))

    def test_conditional_table_is_read_only(self):
        product = DiscreteModel.from_product([(0, 1, 2), (0, 1)], [[0.2, 0.3, 0.5], [0.9, 0.1]])
        for m in (mixed_table(), ising3(0.3), product):
            for i in range(m.n):
                table = conditional_table(m, i)
                assert not table.flags.writeable
                with pytest.raises(ValueError, match="read-only"):
                    table[0, 0] = 0.5

    def test_row_weights_index_the_table(self):
        # config @ w picks site i's conditional row of every configuration
        models = [mixed_table(), ising3(0.3), DiscreteModel.from_table([(0, 1, 2)], [1.0, 2.0, 3.0])]
        for m in models:
            configs = np.indices(m.sizes).reshape(m.n, -1).T
            for i in range(m.n):
                w = conditional_row_weights(m.sizes, i)
                assert w.shape == (m.n,) and w[i] == 0
                rows = conditional_table(m, i)[configs @ w]
                assert np.array_equal(rows, [m.conditional(i, c) for c in configs])


# The product sampler as it stood before the one-draw sampler: one
# ``Generator.choice`` per site, stacked.  The byte oracle of ``sample``.

def choice_sample(model, rng, size):
    cols = [rng.choice(model.sizes[i], size=size, p=model._site_pmfs[i])
            for i in range(model.n)]
    return np.stack(cols, axis=1)


def random_product(rng, n):
    """n sites with 1- to 4-value alphabets and strictly positive random pmfs."""
    sizes = rng.integers(1, 5, size=n)
    return DiscreteModel.from_product([tuple(range(m)) for m in sizes],
                                      [rng.random(m) + 0.01 for m in sizes],
                                      enum_cap=4 ** n)


_MT_MASK = 0xFFFFFFFF


def _untemper(y):
    """Inverse of MT19937's output tempering on 32-bit words."""
    y ^= y >> 18
    y ^= (y << 15) & 0xEFC60000
    x = y
    for _ in range(5):
        x = y ^ ((x << 7) & 0x9D2C5680)
    y = x & _MT_MASK
    x = y
    for _ in range(3):
        x = y ^ (x >> 11)
    return x & _MT_MASK


def generator_drawing(uniforms):
    """A Generator whose first ``random`` doubles are ``uniforms`` (at most
    312 multiples of 2^-53 in [0, 1)); random doubles follow them."""
    key = np.random.default_rng(0).integers(0, 2 ** 32, size=624, dtype=np.uint32)
    for j, u in enumerate(uniforms):
        k = int(u * 2 ** 53)
        assert k == u * 2 ** 53
        key[2 * j] = _untemper((k >> 26) << 5)  # a double is (a >> 5) 2^-27 + (b >> 6) 2^-53
        key[2 * j + 1] = _untemper((k & (2 ** 26 - 1)) << 6)
    bits = np.random.MT19937(0)
    bits.state = {"bit_generator": "MT19937", "state": {"key": key, "pos": 0}}
    return np.random.Generator(bits)


class TestProductSampler:
    def test_bytes_and_stream_equal_per_site_choice(self):
        rng = np.random.default_rng(23)
        for case in range(60):
            m = random_product(rng, int(rng.integers(1, 25)))
            size = int(rng.integers(1, 4001)) if case else 1
            seed = int(rng.integers(2 ** 31))
            old, new = np.random.default_rng(seed), np.random.default_rng(seed)
            expect, got = choice_sample(m, old, size), m.sample(new, size)
            assert got.shape == expect.shape and got.dtype == expect.dtype, case
            assert got.tobytes() == expect.tobytes(), case
            # the same doubles are taken: later draws are unchanged
            assert new.bit_generator.state == old.bit_generator.state, case

    def test_uniform_on_a_cdf_value_takes_the_next_index(self):
        # dyadic pmfs put the cdf on doubles that ``random`` can return; a
        # uniform equal to one counts it, as choice's searchsorted(side="right")
        m = DiscreteModel.from_product([(0, 1, 2), (0, 1), (0, 1, 2, 3), (0,)],
                                       [[0.25, 0.25, 0.5], [0.5, 0.5],
                                        [0.125, 0.125, 0.25, 0.5], [1.0]])
        ties = [0.0, 0.125, 0.25, 0.5, 0.75, 1 - 2 ** -53]
        uniforms = list(itertools.islice(itertools.cycle(ties), 4 * 30))
        got = m.sample(generator_drawing(uniforms), 30)
        expect = choice_sample(m, generator_drawing(uniforms), 30)
        assert got.tobytes() == expect.tobytes()
        assert got[:, 0].tolist() == [[0, 0, 1, 2, 2, 2][k % 6] for k in range(30)]

    def test_site_major_view(self):
        m = random_product(np.random.default_rng(3), 5)
        draws = m.sample(np.random.default_rng(4), 100)
        assert draws.shape == (100, 5) and draws.T.flags.c_contiguous

    def test_table_branch_unchanged(self):
        m = mixed_table()
        draws = m.sample(np.random.default_rng(5), 300)
        flat = np.random.default_rng(5).choice(m.size, size=300, p=m.flat_pmf())
        assert np.array_equal(draws, np.stack(np.unravel_index(flat, m.sizes), axis=1))


class TestTvDistance:
    def test_equal(self):
        assert tv_distance([0.5, 0.5], [0.5, 0.5]) == 0.0

    def test_disjoint_point_masses(self):
        assert tv_distance([1.0, 0.0], [0.0, 1.0]) == 1.0

    def test_bernoulli(self):
        assert tv_distance([0.2, 0.8], [0.5, 0.5]) == pytest.approx(0.3)

    def test_support_mismatch(self):
        with pytest.raises(ValueError):
            tv_distance([1.0], [0.5, 0.5])


class TestDobrushinMatrix:
    def test_independent_is_zero(self):
        m = DiscreteModel.from_product([(0, 1)] * 3, [[0.4, 0.6]] * 3)
        D = dobrushin_matrix(m)
        assert np.abs(D.entries).max() == 0.0

    def test_uniform_three_site(self):
        m = DiscreteModel.from_table([(0, 1)] * 3, np.ones((2, 2, 2)))
        assert np.abs(dobrushin_matrix(m).entries).max() == 0.0

    def test_ising2_closed_form(self):
        D = dobrushin_matrix(ising2(0.25))
        assert D.entries[0, 1] == pytest.approx(TANH_QUARTER, abs=1e-12)
        assert D.entries[1, 0] == pytest.approx(TANH_QUARTER, abs=1e-12)
        assert D.entries[0, 0] == 0.0

    @pytest.mark.parametrize("maker,beta", [(ising2, 0.25), (ising2, 0.6),
                                            (ising3, 0.25), (ising3, 0.4),
                                            (mixed_table, 11), (mixed_table, 12)])
    def test_matches_brute_force(self, maker, beta):
        m = maker(beta)
        D = dobrushin_matrix(m)
        assert np.abs(D.entries - brute_dobrushin(m)).max() <= 1e-12

    def test_defining_inequality_exhaustive(self):
        # all-pairs oracle for the multi-site bound: dobrushin_matrix only
        # looks at single-site swaps, so this checks the triangle-inequality step
        for m in (ising3(0.3), mixed_table()):
            D = dobrushin_matrix(m).entries
            configs = list(itertools.product(*[range(s) for s in m.sizes]))
            for i in range(m.n):
                for x in configs:
                    for y in configs:
                        tv = tv_distance(brute_conditional(m, i, x),
                                         brute_conditional(m, i, y))
                        bound = sum(D[i, j] for j in range(m.n) if x[j] != y[j] and j != i)
                        assert tv <= bound + 1e-12

    def test_ising_chain_beyond_pairwise_limit(self):
        # 11 sites (2048 states): exact chain sensitivities, nothing beyond neighbours
        J = -0.3
        D = dobrushin_matrix(ising_chain(11, J)).entries
        expect = np.zeros((11, 11))
        for i in range(10):
            expect[i, i + 1] = expect[i + 1, i] = math.tanh(2 * abs(J)) / 2
        expect[0, 1] = expect[10, 9] = math.tanh(abs(J))
        assert np.abs(D - expect).max() <= 1e-12  # non-neighbours: rounding only

    def test_entrywise_minimality(self):
        # decreasing any positive entry by 1e-6 breaks a single-site pair
        m = ising3(0.3)
        D = dobrushin_matrix(m).entries
        configs = list(itertools.product(*[range(s) for s in m.sizes]))
        for i in range(3):
            for j in range(3):
                if i == j or D[i, j] == 0.0:
                    continue
                achieved = 0.0
                for x in configs:
                    for vj in range(m.sizes[j]):
                        y = list(x)
                        y[j] = vj
                        if tuple(y) == x:
                            continue
                        tv = tv_distance(brute_conditional(m, i, x),
                                         brute_conditional(m, i, y))
                        achieved = max(achieved, tv)
                assert achieved > D[i, j] - 1e-6

    @pytest.mark.parametrize("model", [
        *(DiscreteModel.from_ising(*random_ising(n, seed=100 + n)) for n in range(2, 13)),
        mixed_table(),
        DiscreteModel.from_product([(0, 1, 2), (0, 1), (0, 1, 2, 3)],
                                   [[0.2, 0.3, 0.5], [0.9, 0.1], [0.1, 0.2, 0.3, 0.4]]),
        # interleaved sizes: each size group has sites on both sides of every j
        random_table((3, 2, 3, 2), seed=21),
        random_table((2, 1, 3), seed=22),  # a one-value site
        # 9 values: NumPy's sum over site i's values is pairwise, not in order
        DiscreteModel.from_table([tuple(range(9)), (0, 1)],
                                 np.random.default_rng(4).uniform(0.1, 2.0, (9, 2))),
    ], ids=lambda m: "x".join(map(str, m.sizes)))
    def test_axis_slices_equal_single_swap_formula(self, model):
        assert np.array_equal(dobrushin_matrix(model).entries, single_swap_dobrushin(model))

    @pytest.mark.parametrize("floats", [1, 48])
    def test_site_blocks_equal_single_swap_formula(self, floats, monkeypatch):
        # from 11 binary sites on, D goes through the sites in blocks; a small
        # budget gives blocks of 1 site, or of 3 sites split around j, here
        monkeypatch.setattr(dobrushin, "_DIFF_FLOATS", floats)
        for model in (*(DiscreteModel.from_ising(*random_ising(n, seed=n)) for n in (4, 5, 6)),
                      mixed_table(), random_table((3, 2, 3, 2), seed=21)):
            assert np.array_equal(dobrushin_matrix(model).entries, single_swap_dobrushin(model))

    def test_product_model_past_the_default_cap(self):
        # 2^30 states: D is zero without a dense table or a per-state array
        m = DiscreteModel.from_product([(0, 1)] * 30, [[0.3, 0.7]] * 30, enum_cap=2 ** 30)
        D = dobrushin_matrix(m).entries
        assert D.shape == (30, 30) and not D.any()
        assert m._table is None

    def test_type_validation(self):
        with pytest.raises(ValueError):
            InterdependenceMatrix(np.array([[0.5]]))
        with pytest.raises(ValueError):
            InterdependenceMatrix(np.array([[0.0, 2.0], [0.0, 0.0]]))

    @pytest.mark.parametrize("bad", [math.nan, math.inf, -math.inf])
    def test_non_finite_entries_refused(self, bad):
        # a NaN entry passed every range check
        for entries in (np.array([[0.0, bad], [0.2, 0.0]]), [[0.0, 0.2], [bad, 0.0]]):
            with pytest.raises(ValueError, match="finite"):
                InterdependenceMatrix(entries)


class TestNormsAndB:
    def test_zero_matrix(self):
        assert matrix_norms(np.zeros((2, 2))) == (0.0, 0.0)

    def test_symmetric_norms_equal(self):
        D = dobrushin_matrix(ising2(0.25))
        n1, ninf = matrix_norms(D)
        assert n1 == pytest.approx(ninf)
        assert n1 == pytest.approx(TANH_QUARTER, abs=1e-12)

    def test_b_matrix_independent(self):
        B = b_matrix(np.zeros((2, 2)), 2)
        assert np.allclose(B.entries, 0.5 * np.eye(2))
        col = b_power_column(B, 3, 0)
        assert np.allclose(col.vector, [0.125, 0.0])

    def test_b_power_k0(self):
        B = b_matrix(dobrushin_matrix(ising2()), 2)
        col = b_power_column(B, 0, 1)
        assert np.allclose(col.vector, [0.0, 1.0])

    def test_b_matrix_ising_form(self):
        B = b_matrix(dobrushin_matrix(ising2(0.25)), 2)
        expect = np.array([[0.5, TANH_QUARTER / 2], [TANH_QUARTER / 2, 0.5]])
        assert np.abs(B.entries - expect).max() <= 1e-12

    def test_column_norm_bound(self):
        B = b_matrix(dobrushin_matrix(ising3(0.3)), 3)
        for k in range(8):
            col = b_power_column(B, k, 1)
            assert (col.vector >= 0).all()
            assert col.norm1 <= col.norm1_bound + 1e-12
            assert (col.vector <= 1.0 + 1e-12).all()

    def test_negative_k_rejected(self):
        B = b_matrix(np.zeros((2, 2)), 2)
        with pytest.raises(ValueError):
            b_power_column(B, -1, 0)

    def test_non_integer_k_or_j_refused(self):
        # k = 1.5 once raised a TypeError from range, and j = 1.5 an IndexError
        B = b_matrix(np.zeros((2, 2)), 2)
        for k, j, name in [(1.5, 0, "k"), (True, 0, "k"), ("2", 0, "k"), (2, 0.5, "j"),
                           (2, False, "j")]:
            with pytest.raises(ValueError, match=f"{name} must be an integer"):
                b_power_column(B, k, j)
        assert np.array_equal(b_power_column(B, 2.0, 1).vector, b_power_column(B, 2, 1).vector)


class TestNormRecursion:
    def test_independent_limit(self):
        rep = norm_recursion_check(np.zeros((2, 2)), 2, 40)
        assert rep.limit == pytest.approx(4.0)
        assert rep.partial_sum == pytest.approx(4.0, rel=1e-9)

    def test_partial_sum_increasing(self):
        D = dobrushin_matrix(ising2(0.25))
        sums = [norm_recursion_check(D, 2, k).partial_sum for k in range(1, 20)]
        assert all(a < b for a, b in zip(sums, sums[1:]))

    def test_tail_bound_brackets_limit(self):
        D = dobrushin_matrix(ising2(0.25))
        rep = norm_recursion_check(D, 2, 25)
        assert rep.partial_sum <= rep.limit + 1e-12
        assert rep.limit - rep.partial_sum <= rep.tail_bound_1 + rep.tail_bound_inf + 1e-12

    def test_non_integer_kmax_refused(self):
        # kmax = 2.5 once gave partial sums to k = 3 and tail bounds from b^3.5
        for kmax in (2.5, True, "3", math.nan):
            with pytest.raises(ValueError, match="kmax must be an integer"):
                norm_recursion_check(np.zeros((2, 2)), 2, kmax)
        assert norm_recursion_check(np.zeros((2, 2)), 2, 3.0).kmax == 3

    def test_requires_contractive_norms(self):
        with pytest.raises(ValueError):
            norm_recursion_check(np.eye(2), 2, 5)

    def test_nan_entry_refused(self):
        # NaN norms once passed the guard and gave an all-NaN report
        bad = np.array([[0.0, math.nan], [0.2, 0.0]])
        with pytest.raises(ValueError, match="norm < 1"):
            norm_recursion_check(bad, 2, 5)
        with pytest.raises(ValueError, match="finite"):
            norm_recursion_check(InterdependenceMatrix(bad), 2, 5)


class TestModelSerialization:
    def test_save_model_bytes_pinned(self, tmp_path):
        # compact, sorted keys, one trailing newline
        path = tmp_path / "model.json"
        save_model(path, DiscreteModel.from_product([(0, 1), (-1.0, 2.5)],
                                                    [[0.25, 0.75], [0.5, 0.5]]))
        assert path.read_bytes() == (
            b'{"alphabets": [[0, 1], [-1.0, 2.5]], "n": 2, '
            b'"weight": {"kind": "product", "pmfs": [[0.25, 0.75], [0.5, 0.5]]}}\n')

    def test_table_roundtrip(self, tmp_path):
        m = ising2(0.4)
        path = tmp_path / "model.json"
        save_model(path, m)
        m2 = load_model(path)
        assert np.abs(m.table - m2.table).max() <= 1e-15
        assert m2.alphabets == m.alphabets

    def test_product_roundtrip(self):
        m = DiscreteModel.from_product([(0, 1), (0, 1, 2)], [[0.3, 0.7], [0.2, 0.3, 0.5]])
        m2 = model_from_obj(model_to_obj(m))
        assert model_to_obj(m2) == model_to_obj(m)
        assert np.allclose(m2.conditional(1, (0, 0)), [0.2, 0.3, 0.5])

    def test_ising_obj(self):
        obj = {"n": 2, "alphabets": [[-1.0, 1.0], [-1.0, 1.0]],
               "weight": {"kind": "ising", "coupling": [[0.0, 0.25], [0.25, 0.0]]}}
        m = model_from_obj(obj)
        D = dobrushin_matrix(m)
        assert D.entries[0, 1] == pytest.approx(TANH_QUARTER, abs=1e-12)

    @pytest.mark.parametrize("alphabets", [[[-1, 1], [0, 1, 2]], [[-1, 1]] * 2,
                                           [[-1, 1]] * 4, [[-1, 1], [-1, 1], [0, 1]]])
    def test_ising_alphabets_must_repeat_per_row(self, alphabets):
        J = np.full((3, 3), 0.1) - 0.1 * np.eye(3)
        obj = {"alphabets": alphabets, "weight": {"kind": "ising", "coupling": J.tolist()}}
        with pytest.raises(ValueError, match="one alphabet"):
            model_from_obj(obj)

    def test_ising_repeated_alphabet_accepted(self):
        obj = {"alphabets": [[0, 1], [0.0, 1.0]],
               "weight": {"kind": "ising", "coupling": [[0.0, 0.25], [0.25, 0.0]]}}
        assert model_from_obj(obj).alphabets == ((0, 1), (0, 1))

    @pytest.mark.parametrize("weight", [{"kind": "product", "pmfs": [[0.5, 0.5]] * 2},
                                        {"kind": "table", "values": [1, 2, 3, 4]},
                                        {"kind": "ising", "coupling": [[0, 0.2], [0.2, 0]]}])
    def test_n_must_match_alphabets(self, weight):
        obj = {"n": 3, "alphabets": [[0, 1], [0, 1]], "weight": weight}
        with pytest.raises(ValueError, match="n = 3"):
            model_from_obj(obj)
        obj["n"] = 2
        assert model_from_obj(obj).n == 2

    def test_unknown_kind(self):
        with pytest.raises(ValueError):
            model_from_obj({"n": 1, "alphabets": [[0, 1]], "weight": {"kind": "mystery"}})

    def test_model_file_with_unknown_key_refused(self, tmp_path):
        # save_model output loads; the same file with one more key, at the top
        # or in the weight, is refused by name
        m = DiscreteModel.from_product([(0, 1), (-1.0, 2.5)], [[0.25, 0.75], [0.5, 0.5]])
        path = tmp_path / "model.json"
        save_model(path, m)
        assert load_model(path).alphabets == m.alphabets
        obj = model_to_obj(m)
        for bad, key in (({**obj, "enum_cap": 4}, "'enum_cap'"),
                         ({**obj, "weight": {**obj["weight"], "site_pmfs": []}}, "'site_pmfs'")):
            path.write_text(json.dumps(bad))
            with pytest.raises(ValueError, match=key):
                load_model(path)

    @pytest.mark.parametrize("obj,match", [
        ({"alphabets": [[0, 1]]}, "model needs key 'weight'"),
        ({"alphabets": 5, "weight": {"kind": "product", "pmfs": [[1.0]]}}, "alphabets"),
        ({"alphabets": [[0, 1]], "weight": {"kind": "product", "pmfs": 7}}, "pmfs"),
        ({"alphabets": [[0, 1]], "weight": {"kind": "product", "pmfs": [[0.5, 0.5]] * 2}},
         "2 pmfs"),
        ({"alphabets": [[0, 1]], "weight": {"kind": "table", "values": [1, 1], "field": [0]}},
         "'field'"),
        ({"alphabets": [[0, 1]], "weight": [1, 1]}, "model weight must be an object")])
    def test_malformed_model_objects_refused(self, obj, match):
        with pytest.raises(ValueError, match=match):
            model_from_obj(obj)
