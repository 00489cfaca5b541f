import json
import math
import warnings

import numpy as np
import pytest

from matconc.conjectures import (
    CATALOG,
    catalog_entry,
    counterexample_search,
    gap_conjecture_exp,
    gap_conjecture_f,
    save_search_result,
    scalar_gap_exp,
    scalar_gap_f,
)
from matconc import conjectures, hermitian
from matconc.hermitian import (
    EnsembleSpec,
    HermitianMatrix,
    SpectralDomainError,
    matrix_from_obj,
    positive_part,
    sample_ensemble,
    spectral_decompose,
)
from oracles import commuting_triple


def scalar(x):
    return HermitianMatrix([[float(x)]])


def draw(dim, seed, scale=1.0):
    return sample_ensemble(EnsembleSpec("gaussian-hermitian", dim, scale, seed))


class TestCatalog:
    @pytest.mark.parametrize("name", sorted(CATALOG))
    def test_monotone_convex_on_grid(self, name):
        entry = CATALOG[name]
        lo = max(entry.domain[0], -3.0)
        hi = min(entry.domain[1], 3.0)
        xs = np.linspace(lo + 1e-6, hi - 1e-6, 100)
        fx = entry.f(xs)
        fpx = entry.f_prime(xs)
        assert np.all(np.diff(fx) >= -1e-9)    # f increasing
        assert np.all(np.diff(fpx) >= -1e-9)   # f' nondecreasing (convexity)
        assert np.all(fpx >= -1e-9)

    @pytest.mark.parametrize("name", sorted(CATALOG))
    def test_derivative_matches_finite_differences(self, name):
        entry = CATALOG[name]
        lo = max(entry.domain[0], -3.0)
        hi = min(entry.domain[1], 3.0)
        h = 1e-6
        xs = np.linspace(lo + 0.1, hi - 0.1, 100)
        fd = (entry.f(xs + h) - entry.f(xs - h)) / (2 * h)
        exact = entry.f_prime(xs)
        scale = np.maximum(1.0, np.abs(exact))
        assert np.abs(fd - exact).max() / scale.max() <= 1e-6

    def test_unknown_entry(self):
        with pytest.raises(ValueError):
            catalog_entry("sinh")


class TestConjectureExp:
    def test_equal_matrices_psd_weight(self):
        A = draw(3, 1)
        C = positive_part(draw(3, 2))
        rep = gap_conjecture_exp(A, A, C)
        assert rep.lhs == pytest.approx(0.0, abs=1e-10)
        assert rep.rhs >= -1e-12

    def test_scalar_example_positive(self):
        rep = gap_conjecture_exp(scalar(1), scalar(0), scalar(1))
        assert rep.lhs == pytest.approx(math.e - 1, rel=1e-12)
        assert rep.rhs == pytest.approx(math.e, rel=1e-12)
        assert rep.gap == pytest.approx(1.0, rel=1e-12)

    def test_scalar_example_negative_weight(self):
        rep = gap_conjecture_exp(scalar(0), scalar(1), scalar(-1))
        assert rep.lhs == pytest.approx(math.e - 1, rel=1e-12)
        assert rep.rhs == pytest.approx(math.e, rel=1e-12)
        assert rep.gap == pytest.approx(1.0, rel=1e-12)

    def test_catalog_exp_consistency(self):
        # expconj is the exp entry of the shared kernel, labelled and digested apart
        for s in range(20):
            A, B, C = draw(1 + s % 6, 3 * s), draw(1 + s % 6, 3 * s + 1), draw(1 + s % 6, 3 * s + 2)
            r1 = gap_conjecture_exp(A, B, C)
            r2 = gap_conjecture_f(A, B, C, CATALOG["exp"])
            assert (r1.lhs, r1.rhs, r1.gap) == (r2.lhs, r2.rhs, r2.gap)
            assert r1.inequality_id == "expconj" and r2.inequality_id == "fconj:exp"
            assert r1.params == {"anchor": r2.params["anchor"]}
            assert r1.inputs_digest != r2.inputs_digest  # expconj digests no params

    def test_overflowing_exponential_is_a_domain_error(self):
        # e^709 is finite but above max/4, where U diag(e^w) U* could overflow
        big = HermitianMatrix.diagonal([709.0, 0.0])
        one = HermitianMatrix.identity(2)
        for gap in (gap_conjecture_exp, lambda A, B, C: gap_conjecture_f(A, B, C, CATALOG["exp"])):
            with pytest.raises(SpectralDomainError):
                gap(big, one, one)

    def test_orientation(self):
        # gap >= 0 means the conjecture holds on the instance
        for s in range(50):
            rep = gap_conjecture_exp(draw(3, 3 * s), draw(3, 3 * s + 1), draw(3, 3 * s + 2))
            assert rep.gap >= -1e-9 * rep.params["anchor"]

    def test_overflowing_difference_is_refused_at_a_or_b(self):
        # A - B overflows to inf; exp's check on the spectra of A and B refuses
        # the instance, with no RuntimeWarning from decomposing D
        with warnings.catch_warnings():
            warnings.simplefilter("error")
            for A, B in (([[1e308]], [[-1e308]]), ([[-1e308]], [[1e308]])):
                with pytest.raises(SpectralDomainError, match="above max/4") as exc:
                    gap_conjecture_exp(A, B, [[0.0]])
                assert exc.value.eigenvalue == 1e308


class TestConjectureF:
    def test_square_scalar_example(self):
        rep = gap_conjecture_f(scalar(2), scalar(1), scalar(1), CATALOG["square"])
        assert rep.lhs == pytest.approx(3.0)
        assert rep.rhs == pytest.approx(4.0)
        assert rep.gap == pytest.approx(1.0)

    def test_equal_matrices(self):
        A = positive_part(draw(3, 7))
        rep = gap_conjecture_f(A, A, draw(3, 8), CATALOG["square"])
        assert rep.lhs == pytest.approx(0.0, abs=1e-10)
        assert rep.rhs >= -1e-12

    def test_domain_violation_names_eigenvalue(self):
        A = HermitianMatrix.diagonal([1.0, -2.0])
        with pytest.raises(SpectralDomainError) as exc:
            gap_conjecture_f(A, positive_part(draw(2, 9)), draw(2, 10), CATALOG["square"])
        assert exc.value.eigenvalue == pytest.approx(-2.0)

    def test_overflowing_f_is_a_domain_error(self):
        B = HermitianMatrix.diagonal([0.0, 1.0])
        one = HermitianMatrix.identity(2)
        quartic = HermitianMatrix([[1e77, 1e76], [1e76, 9e76]])  # x^4 near 1e308
        with pytest.raises(SpectralDomainError):
            gap_conjecture_f(quartic, B, one, CATALOG["quartic"])
        cube = HermitianMatrix.diagonal([5e102, 1.0])  # x^3 near 1.25e308
        with pytest.raises(SpectralDomainError):
            gap_conjecture_f(cube, B, one, CATALOG["cube"])

    def test_overflowing_products_are_a_domain_error(self):
        # f and f' are finite, but C f(A) and the weighted f'(A) overflow: lhs and
        # rhs would be inf and the gap NaN, which never wins a search's comparison
        A = HermitianMatrix.diagonal([1e153, 0.0])
        B = HermitianMatrix.diagonal([0.0, 1.0])
        C = HermitianMatrix(1e3 * np.eye(2))
        with warnings.catch_warnings():
            warnings.simplefilter("error")
            with pytest.raises(SpectralDomainError) as exc:
                gap_conjecture_f(A, B, C, CATALOG["square"])
        assert exc.value.eigenvalue == 1e153

    @pytest.mark.parametrize("name", ["square", "cube", "quartic"])
    def test_psd_inputs_supported(self, name):
        for s in range(30):
            A = positive_part(draw(4, 100 + s))
            B = positive_part(draw(4, 200 + s))
            C = draw(4, 300 + s)
            rep = gap_conjecture_f(A, B, C, CATALOG[name])
            assert rep.gap >= -1e-9 * rep.params["anchor"]


class TestScalarOracle:
    def test_commuting_triple_extends_the_commuting_pair_draw(self):
        for s in range(20):
            dim = 1 + s % 8
            triple = commuting_triple(dim, 1.5, s)
            pair = sample_ensemble(EnsembleSpec("commuting-pair", dim, 1.5, s))
            for M, N in zip(triple, pair):
                assert M.mat.tobytes() == N.mat.tobytes()

    def test_matches_matrix_on_commuting_triples(self):
        for s in range(200):
            A, B, C = commuting_triple(4, 1.0, s)
            dec = spectral_decompose(A)
            U = dec.eigenvectors
            b = np.real(np.diagonal(U.conj().T @ B.mat @ U))
            c = np.real(np.diagonal(U.conj().T @ C.mat @ U))
            rep = gap_conjecture_exp(A, B, C)
            oracle = scalar_gap_exp(dec.eigenvalues, b, c)
            assert abs(rep.gap - oracle) <= 1e-9 * rep.params["anchor"]

    def test_scalar_gaps_nonnegative(self):
        # the commuting case reduces to scalar convexity, so gaps stay >= 0
        rng = np.random.default_rng(33)
        for _ in range(500):
            a, b, c = rng.normal(size=3)
            assert scalar_gap_exp(a, b, c) >= -1e-12 * max(1, abs(a), abs(b), abs(c)) ** 2

    def test_scalar_f_oracle(self):
        rng = np.random.default_rng(35)
        for _ in range(200):
            a, b = rng.uniform(0, 3, size=2)
            c = rng.normal()
            for name in ("square", "cube", "quartic"):
                entry = CATALOG[name]
                gap = scalar_gap_f(a, b, c, entry)
                rep = gap_conjecture_f(scalar(a), scalar(b), scalar(c), entry)
                assert rep.gap == pytest.approx(gap, rel=1e-10, abs=1e-11)
                assert gap >= -1e-10 * max(1.0, abs(rep.lhs), abs(rep.rhs))


class TestSearch:
    def test_budget_one_is_single_evaluation(self, monkeypatch):
        # one random evaluation, then one descent evaluation: the starting
        # point re-evaluated, a stack of one with no candidate beside it
        stacks = []
        gaps_in_order = conjectures._gaps_in_order

        def recorded(evaluate, X):
            stacks.append(len(X))
            return gaps_in_order(evaluate, X)

        monkeypatch.setattr(conjectures, "_gaps_in_order", recorded)
        r = counterexample_search("expconj", [2], 1, seed=5)
        assert r.trajectory["random_evals"] == 1
        assert r.trajectory["descent_evals"] == 1
        assert stacks == [1]
        assert r.verdict == "supported"

    def test_deterministic_rerun(self):
        r1 = counterexample_search("expconj", [2, 3], 60, seed=11)
        r2 = counterexample_search("expconj", [2, 3], 60, seed=11)
        assert r1.best_gap == r2.best_gap
        assert r1.witness["inputs_digest"] == r2.witness["inputs_digest"]

    def test_descent_does_not_increase_gap(self):
        r = counterexample_search("expconj", [3], 40, seed=13)
        assert (r.trajectory["best_final_gap_normalized"]
                <= r.trajectory["best_random_gap_normalized"] + 1e-15)

    @pytest.mark.parametrize("change", [{"seed": 5.8}, {"budget": 2.5}, {"budget": True}])
    def test_non_integer_counts_refused(self, change):
        # seed 5.8 ran as 5
        args = {"budget": 4, "seed": 5, **change}
        with pytest.raises(ValueError, match="must be an integer"):
            counterexample_search("expconj", [2], **args)
        ints = counterexample_search("expconj", [2], 4, seed=5)
        assert counterexample_search("expconj", [2], 4.0, seed=5.0) == ints

    def test_fconj_requires_entry(self):
        with pytest.raises(ValueError):
            counterexample_search("fconj", [2], 5, seed=1)

    def test_expconj_takes_no_entry(self):
        # an entry was once ignored: the search ran the exp bound all the same
        with pytest.raises(ValueError, match="expconj search takes no catalog entry"):
            counterexample_search("expconj", [2], 3, seed=1, entry=CATALOG["cube"])

    def test_fconj_supported(self):
        r = counterexample_search("fconj", [2, 3], 40, seed=17,
                                  entry=catalog_entry("square"))
        assert r.verdict == "supported"
        assert r.inequality_id == "fconj:square"

    def test_result_serialization(self, tmp_path):
        r = counterexample_search("expconj", [2], 10, seed=19)
        path = tmp_path / "res.json"
        save_search_result(path, r)
        obj = json.loads(path.read_text())
        assert obj["verdict"] == r.verdict
        assert obj["witness"]["A"]["dim"] == 2
        assert obj["budget"] == 10

    def test_certified_error_scales(self):
        r = counterexample_search("expconj", [2], 5, seed=23)
        assert r.certified_error > 0
        assert r.best_gap >= -r.certified_error

    def test_unknown_id_and_bad_grid_rejected_up_front(self):
        with pytest.raises(ValueError):
            counterexample_search("holder", [2], 5, seed=1)
        with pytest.raises(ValueError):
            counterexample_search("expconj", [2, 0], 5, seed=1)
        with pytest.raises(ValueError):
            counterexample_search("expconj", [2], 5, seed=1, scale=0.0)

    def test_certifies_each_draw_once_and_builds_no_matrix_objects(self, monkeypatch):
        certified = []
        real_certify = conjectures._certify

        def counting_certify(arr):
            certified.append(arr.shape)
            return real_certify(arr)

        def no_construction(*args, **kwargs):
            raise AssertionError("HermitianMatrix built during the search")

        monkeypatch.setattr(conjectures, "_certify", counting_certify)
        monkeypatch.setattr(hermitian.HermitianMatrix, "__init__", no_construction)
        counterexample_search("fconj", [2, 3], 24, seed=3, entry=CATALOG["square"])
        # the random phase certifies one stack per dim; descent candidates
        # are assembled Hermitian and certify nothing
        assert certified == [(12, 3, 2, 2), (12, 3, 3, 3)]

    @pytest.mark.parametrize("name", sorted(CATALOG))
    def test_decomposes_four_matrices_per_instance(self, name, monkeypatch):
        # one eigh call on (A, B, C, A - B) for an entry on the whole line and
        # for every public gap; for a finite domain (A, B) once (their
        # positive parts reuse those eigenpairs), then (C, A+ - B+)
        decomposed = []
        eigh = np.linalg.eigh

        def counting_eigh(M):
            decomposed.append(M.shape[:-2])
            return eigh(M)

        entry = CATALOG[name]
        rng = np.random.default_rng(8)
        G = rng.normal(size=(5, 3, 3, 3)) + 1j * rng.normal(size=(5, 3, 3, 3))
        X = hermitian._certify(G + np.swapaxes(G.conj(), -1, -2))
        mats = [positive_part(M) for M in (draw(3, 1), draw(3, 2))] + [draw(3, 3)]
        monkeypatch.setattr(np.linalg, "eigh", counting_eigh)
        conjectures._search_gaps("fconj", entry, X)
        assert decomposed == ([(5, 4)] if entry.domain[0] == -math.inf else [(5, 2), (5, 2)])
        for gap in (lambda: gap_conjecture_f(*mats, entry), lambda: gap_conjecture_exp(*mats)):
            decomposed.clear()
            gap()
            assert decomposed == [(1, 4)]

    @pytest.mark.parametrize("name", sorted(CATALOG))
    def test_refusal_at_a_comes_before_warnings_from_c(self, name):
        # decomposing C overflows its reconstruction bound (2 * 1.78e308); f(A)
        # above max/4 refuses the instance, with no RuntimeWarning from C
        x = 8.9e307
        X = hermitian._certify(np.array([[np.diag([1e200, 0.0]), np.zeros((2, 2)),
                                          [[x, x], [x, x]]]], dtype=complex))
        with warnings.catch_warnings():
            warnings.simplefilter("error")
            with pytest.raises(SpectralDomainError, match="above max/4") as exc:
                conjectures._search_gaps("fconj", CATALOG[name], X)
        assert exc.value.eigenvalue == 1e200

    @pytest.mark.parametrize("dim", range(1, 7))
    def test_decomposition_does_not_depend_on_the_stack(self, dim):
        # the one-call design rests on this: (A, B, C, D) in one stack gives
        # the eigenpairs of (A, B) and of (C, D) decomposed apart, bit for bit
        rng = np.random.default_rng(30 + dim)
        G = rng.normal(size=(9, 3, dim, dim)) + 1j * rng.normal(size=(9, 3, dim, dim))
        H = G + np.swapaxes(G.conj(), -1, -2)
        zeros = rng.random(H.shape) < 0.3
        H[zeros | np.swapaxes(zeros, -1, -2)] = complex(-0.0, -0.0)
        H[1, 1] = H[1, 0]  # A = B: D is zero
        H[2, 2] = np.where(np.eye(dim, dtype=bool), rng.normal(size=dim), complex(-0.0, -0.0))
        X = hermitian._certify(H)
        assert (np.signbit(X.real) & (X.real == 0)).any()
        Y = np.concatenate([X, X[:, :1] - X[:, 1:2]], axis=1)
        w, U = hermitian._decompose(Y)
        for part in (slice(0, 2), slice(2, 4)):
            w2, U2 = hermitian._decompose(np.ascontiguousarray(Y[:, part]))
            assert w[:, part].tobytes() == w2.tobytes()
            assert np.ascontiguousarray(U[:, part]).tobytes() == U2.tobytes()

    @pytest.mark.parametrize("name", sorted(CATALOG))
    def test_witness_replays_to_its_gap(self, name, tmp_path):
        # an exp entry replays bit for bit; a finite-domain witness holds A+
        # and B+ rebuilt from the eigenpairs the search evaluated, and a fresh
        # decomposition of them differs in the last bits, so it replays to
        # within the search's certified error
        entry = CATALOG[name]
        exact = entry.domain[0] == -math.inf
        rng = np.random.default_rng(6)
        for dim in (2, 5):
            G = rng.normal(size=(7, 3, dim, dim)) + 1j * rng.normal(size=(7, 3, dim, dim))
            gaps = conjectures._search_gaps(
                "fconj", entry, hermitian._certify(G + np.swapaxes(G.conj(), -1, -2)))
            for i in range(7):
                rep = gaps.report(i)
                again = gap_conjecture_f(*(HermitianMatrix(gaps.inputs[k][i]) for k in "ABC"),
                                         entry)
                assert again.inputs_digest == rep.inputs_digest
                if exact:
                    assert (again.lhs, again.rhs, again.gap) == (rep.lhs, rep.rhs, rep.gap)
                else:
                    assert abs(again.gap - rep.gap) <= 1e-10 * dim * rep.params["anchor"]
        r = counterexample_search("fconj", [2, 3], 24, seed=3, entry=entry)
        save_search_result(tmp_path / "result.json", r)
        w = json.loads((tmp_path / "result.json").read_text())["witness"]
        again = gap_conjecture_f(*(matrix_from_obj(w[k]) for k in "ABC"), entry)
        assert again.inputs_digest == w["inputs_digest"]
        assert abs(again.gap - w["gap"]) <= (0.0 if exact else r.certified_error)


@pytest.mark.pinned
@pytest.mark.parametrize("name", sorted(["expconj", *CATALOG]))
def test_search_bytes_pinned(name, tmp_path, assert_pinned):
    # the bytes of the saved search results, recorded under RNG stream 4 (one
    # generator per run) and output format 2 (compact JSON)
    ineq, entry = ("expconj", None) if name == "expconj" else ("fconj", CATALOG[name])
    budget = 120
    r = counterexample_search(ineq, range(2, 7), budget, seed=2024, entry=entry)
    assert r.trajectory["random_evals"] == r.trajectory["descent_evals"] == budget
    path = tmp_path / "result.json"
    save_search_result(path, r)
    assert_pinned(f"search/{name}", path.read_bytes())


def _traced_search(monkeypatch, ineq, entry, dims, budget, seed, scale):
    """A search with its descent recorded: per descent stack its size, the
    candidates taken from it and whether the whole stack was refused; the
    scan position and parameter count of every accepted move; and every
    scan position a sweep was closed at, in order."""
    trace = {"stacks": [], "moves": [], "ends": []}
    gaps_in_order, advance, end_sweep = (conjectures._gaps_in_order, conjectures._advance,
                                         conjectures._end_sweep)

    def recorded_stacks(evaluate, X):
        rec = {"size": len(X), "taken": 0, "refused": False}
        trace["stacks"].append(rec)

        def evaluate_whole(stack):
            try:
                return evaluate(stack)
            except (ValueError, ArithmeticError):
                rec["refused"] |= len(stack) == len(X)
                raise
        for item in gaps_in_order(evaluate_whole, X):
            rec["taken"] += 1
            yield item

    def recorded_advance(pos, n_params, moved):
        if moved:
            trace["moves"].append((pos, n_params))
        return advance(pos, n_params, moved)

    def recorded_end(pos):
        trace["ends"].append(pos)
        return end_sweep(pos)

    monkeypatch.setattr(conjectures, "_gaps_in_order", recorded_stacks)
    monkeypatch.setattr(conjectures, "_advance", recorded_advance)
    monkeypatch.setattr(conjectures, "_end_sweep", recorded_end)
    return _pinned_search(ineq, entry, dims, budget, seed, scale), trace


def _long_descent(r, trace):
    n_params = trace["moves"][0][1]
    return (r.trajectory["final_step"] < 0.25  # a sweep without a move halved the step
            and any(s["taken"] < s["size"] for s in trace["stacks"])  # a move inside a block
            and any(pos.idx == n_params - 1 for pos, _ in trace["moves"])  # on a sweep's last
            and trace["ends"][-1].idx < n_params)  # the budget closed a sweep midway


def _budget_mid_block(r, trace):
    # a stack of fewer candidates than any block size (the first also holds the start)
    sizes = [s["size"] - (k == 0) for k, s in enumerate(trace["stacks"])]
    return any(size not in (8, 16, 32, 64) for size in sizes)


def _refused_after_move(r, trace):
    # a refused stack the search got past: its accepted move came before the refusal
    return any(s["refused"] for s in trace["stacks"])


# saved searches whose descent test_search_bytes_pinned does not reach, their
# bytes pinned under RNG stream 4 and output format 2: (ineq, entry, dims,
# budget, seed, scale) and the check that the descent takes the branch the
# name states (None: any seed does)
PINNED_DESCENTS = {
    # sweeps complete and halve the step; moves land inside a block, on a
    # sweep's last candidate, and the budget ends the last sweep
    "long-descent": (("expconj", None, [2], 400, 3, 1.0), _long_descent),
    # the per-dim random stacks interleave in trial order
    "interleaved-dims": (("fconj", "cube", [2, 5, 3], 40, 77, 1.0), None),
    # the budget runs out inside a descent block
    "budget-mid-block": (("expconj", None, [4], 10, 0, 1.0), _budget_mid_block),
    # descent stacks that hold a refused candidate after the accepted one
    "refused-after-move": (("fconj", "quartic", [2], 5, 74, 1.3e61), _refused_after_move),
}


def _pinned_search(ineq, entry, dims, budget, seed, scale):
    return counterexample_search(ineq, dims, budget, seed=seed, scale=scale,
                                 entry=CATALOG[entry] if entry else None)


@pytest.mark.pinned
@pytest.mark.parametrize("name", sorted(PINNED_DESCENTS))
def test_descent_bytes_pinned(name, tmp_path, monkeypatch, assert_pinned):
    args, reached = PINNED_DESCENTS[name]
    r, trace = _traced_search(monkeypatch, *args)
    assert r.trajectory["descent_evals"] == args[3]
    assert reached is None or reached(r, trace)
    path = tmp_path / "result.json"
    save_search_result(path, r)
    assert_pinned(f"descent/{name}", path.read_bytes())


def _first_refused_trial(seeded_trials, ineq, entry, dims, budget, seed, scale):
    """The first random trial that a trial-by-trial search refuses, in its draw
    or in its evaluation as a stack of one, or None."""
    entry = CATALOG[entry or "exp"]
    draws = seeded_trials(seed, hermitian.ENSEMBLE_KINDS, dims, budget,
                          lambda kind, dim, rng: conjectures._draw(kind, dim, scale, rng, 3))
    for t in range(budget):
        try:
            X = hermitian._certify(next(draws)[3][None])
            conjectures._search_gaps(ineq, entry, X)
        except (ValueError, ArithmeticError):
            return t
    return None


# the refusal an instance-by-instance search raises: args as in PINNED_DESCENTS,
# the first refused random trial (None: the random phase passes and the descent
# refuses), and the error; the first refused random instance is not instance 0,
# or the refusal comes from the descent or a draw
PINNED_REFUSALS = {
    "expconj-trial-6": (("expconj", None, [2, 3], 24, 9, 200.0), 6, SpectralDomainError,
                        "scalar function undefined at eigenvalue 740.0256233160883 "
                        "(value not finite or above max/4)"),
    "quartic-trial-2": (("fconj", "quartic", [2, 3], 24, 0, 2e61), 2, SpectralDomainError,
                        "scalar function undefined at eigenvalue 5.608736699331284e+61 "
                        "(split-part bound not finite)"),
    "quartic-descent": (("fconj", "quartic", [2], 5, 144, 1.3e61), None, SpectralDomainError,
                        "scalar function undefined at eigenvalue 3.8449179994695544e+61 "
                        "(split-part bound not finite)"),
    "integer-draw-trial-5": (("fconj", "quartic", [2, 3], 24, 0, 1e61), 5, ValueError,
                             "low is out of bounds for int64"),
}


@pytest.mark.pinned
@pytest.mark.parametrize("name", sorted(PINNED_REFUSALS))
def test_refusal_pinned(name, seeded_trials):
    args, trial, cls, message = PINNED_REFUSALS[name]
    assert _first_refused_trial(seeded_trials, *args) == trial
    with pytest.raises(Exception) as exc:
        _pinned_search(*args)
    assert type(exc.value) is cls
    assert str(exc.value) == message


def test_random_refusal_is_the_first_in_trial_order(seeded_trials):
    # trial 6 (dim 3) is the first refused; the dim-2 stack holds trials 0-5
    # and 12-17, and trial 14 of it is refused too
    kinds, dims = hermitian._trial_grid(hermitian.ENSEMBLE_KINDS, [2, 3], 200.0)
    refused = []
    for t, _, _, X in seeded_trials(9, kinds, dims, 24, lambda kind, dim, rng:
                                    conjectures._draw(kind, dim, 200.0, rng, 3)):
        try:
            gap_conjecture_exp(*X)
        except SpectralDomainError as err:
            refused.append((t, str(err)))
    assert [t for t, _ in refused][:2] == [6, 14]
    with pytest.raises(SpectralDomainError) as exc:
        counterexample_search("expconj", [2, 3], 24, seed=9, scale=200.0)
    assert str(exc.value) == refused[0][1]


@pytest.mark.parametrize("name", sorted(CATALOG))
def test_stacked_kernel_matches_stacks_of_one(name):
    # one kernel: an instance's lhs and rhs in a stack, with the (A, B)
    # decomposition and positive parts of the stack, are the bits it gets alone
    rng = np.random.default_rng(5)
    for dim in (1, 2, 5, 9):
        G = rng.normal(size=(7, 3, dim, dim)) + 1j * rng.normal(size=(7, 3, dim, dim))
        X = hermitian._certify(G + np.swapaxes(G.conj(), -1, -2))
        gaps = conjectures._search_gaps("fconj", CATALOG[name], X)
        for i in range(len(X)):
            one = conjectures._search_gaps("fconj", CATALOG[name], X[i:i + 1])
            assert (gaps.lhs[i], gaps.rhs[i]) == (one.lhs[0], one.rhs[0])
            assert all(np.array_equal(gaps.inputs[k][i], one.inputs[k][0]) for k in "ABC")
