import hashlib
import itertools
import math
import platform

import numpy as np
import pytest

from matconc.conjectures import (
    CATALOG,
    catalog_entry,
    check_self_bounding,
    counterexample_search,
    gap_conjecture_exp,
    gap_conjecture_f,
    save_search_result,
    scalar_gap_exp,
    scalar_gap_f,
    search_result_to_obj,
    _commuting_triple,
)
from matconc.coupling import TableObservable, RademacherSumObservable
from matconc.dobrushin import DiscreteModel
from matconc import conjectures, hermitian
from matconc.hermitian import (
    EnsembleSpec,
    HermitianMatrix,
    SpectralDomainError,
    positive_part,
    sample_ensemble,
    spectral_decompose,
)


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
            triple = _commuting_triple(dim, 1.5, s)
            pair = sample_ensemble(EnsembleSpec("commuting-pair", dim, 1.5, s))
            for M, N in zip(triple, pair):
                assert M.mat.tobytes() == N.mat.tobytes()

    def test_matches_matrix_on_commuting_triples(self):
        for s in range(200):
            A, B, C = _commuting_triple(4, 1.0, s)
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


class TestSelfBounding:
    def test_zero_observable(self):
        model = DiscreteModel.from_product([(0.0, 1.0)] * 2, [[0.5, 0.5]] * 2)
        mapping = {v: np.zeros((2, 2)) for v in itertools.product((0.0, 1.0), repeat=2)}
        rep = check_self_bounding(TableObservable(mapping, 2), model, 0.0, 0.0, "weak")
        assert rep.certified

    def test_mean_indicator_strong(self):
        # H(Z) = (1/n) sum Z_i I with Z_i in {0,1} is (1,0) self-bounding
        n = 3
        model = DiscreteModel.from_product([(0.0, 1.0)] * n, [[0.5, 0.5]] * n)
        obs = RademacherSumObservable([np.eye(2) / n] * n)
        rep = check_self_bounding(obs, model, 1.0, 0.0, "strong")
        assert rep.certified
        assert rep.increment_slack >= 1.0 - 1.0 / n - 1e-12  # increments are (1/n) I

    def test_monotone_in_a_b(self):
        n = 2
        model = DiscreteModel.from_product([(0.0, 1.0)] * n, [[0.5, 0.5]] * n)
        obs = RademacherSumObservable([np.eye(2) / n] * n)
        base = check_self_bounding(obs, model, 1.0, 0.0, "strong")
        looser = check_self_bounding(obs, model, 1.5, 0.5, "strong")
        assert base.certified and looser.certified
        assert looser.sum_slack >= base.sum_slack - 1e-12

    def test_detects_failure(self):
        # a steep observable is not (0, 0) self-bounding
        model = DiscreteModel.from_product([(0.0, 1.0)], [[0.5, 0.5]])
        mapping = {(0.0,): np.zeros((1, 1)), (1.0,): 5.0 * np.eye(1)}
        rep = check_self_bounding(TableObservable(mapping, 1), model, 0.0, 0.0, "weak")
        assert not rep.certified

    def test_weak_mode_squares(self):
        model = DiscreteModel.from_product([(0.0, 1.0)] * 2, [[0.5, 0.5]] * 2)
        obs = RademacherSumObservable([np.eye(2) / 2] * 2)
        rep = check_self_bounding(obs, model, 1.0, 1.0, "weak")
        assert rep.certified

    def test_bad_mode(self):
        model = DiscreteModel.from_product([(0.0, 1.0)], [[0.5, 0.5]])
        obs = RademacherSumObservable([np.eye(1)])
        with pytest.raises(ValueError):
            check_self_bounding(obs, model, 1.0, 0.0, "medium")


class TestSearch:
    def test_budget_one_is_single_evaluation(self):
        r = counterexample_search("expconj", [2], 1, seed=5, descent_budget=0)
        assert r.trajectory["random_evals"] == 1
        assert r.trajectory["descent_evals"] == 0
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

    def test_fconj_requires_entry(self):
        with pytest.raises(ValueError):
            counterexample_search("fconj", [2], 5, seed=1)

    def test_fconj_supported(self):
        r = counterexample_search("fconj", [2, 3], 40, seed=17,
                                  entry=catalog_entry("square"), descent_budget=40)
        assert r.verdict == "supported"
        assert r.inequality_id == "fconj:square"

    def test_result_serialization(self, tmp_path):
        r = counterexample_search("expconj", [2], 10, seed=19, descent_budget=5)
        path = tmp_path / "res.json"
        save_search_result(path, r)
        import json
        obj = json.loads(path.read_text())
        assert obj["verdict"] == r.verdict
        assert obj["witness"]["A"]["dim"] == 2
        assert search_result_to_obj(r)["budget"] == 10

    def test_certified_error_scales(self):
        r = counterexample_search("expconj", [2], 5, seed=23, descent_budget=0)
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
        counterexample_search("fconj", [2, 3], 24, seed=3, entry=CATALOG["square"],
                              descent_budget=30)
        assert len(certified) == 24
        assert all(shape[0] == 3 for shape in certified)


# sha256 of the saved search results, recorded with the per-matrix search
# (HermitianMatrix certification of every input and descent candidate)
PINNED_SEARCHES = {
    "expconj": "d439a439a6d05f37a2a5dfe0521e1b24fd3d5264fab708720ec894bdccb2e7e2",
    "cube": "945085b8ea2e4d8c4531dc7a8057b5ecba503309c0adac4ab3f79385bfe56445",
    "exp": "0e71568662e3803c7987ca6d70b1d62bd1a5ad4b8bfe732653f9f88f8570fb73",
    "quartic": "c3e8e8c907ade5324b99cb16a405b65a9b49bc9edd496b6144778440b1b6985e",
    "square": "7813add072dca88ee9335d25e1ec79d3e2d3402a6f53f89774a7d720a5d62b69",
}


@pytest.mark.skipif((np.__version__, platform.machine()) != ("2.4.6", "x86_64"),
                    reason="the pinned bytes carry the last bits of one numpy/LAPACK build")
@pytest.mark.parametrize("name", sorted(PINNED_SEARCHES))
def test_search_bytes_pinned(name, tmp_path):
    ineq, entry = ("expconj", None) if name == "expconj" else ("fconj", CATALOG[name])
    r = counterexample_search(ineq, range(2, 7), 60, seed=2024, entry=entry, descent_budget=120)
    assert r.trajectory["descent_evals"] == 120
    path = tmp_path / "result.json"
    save_search_result(path, r)
    data = path.read_bytes()
    assert hashlib.sha256(data).hexdigest() == PINNED_SEARCHES[name], data.decode()
