"""Acceptance suite: one test per criterion, each printing a PASS line.

Run with `pytest tests/test_acceptance.py -v -s` to see the per-criterion
lines as they complete.
"""

import itertools
import json
import math
import os
import time
from fractions import Fraction

import numpy as np
import pytest

from matconc.bounds import (
    DifferenceBoundSet,
    hoeffding_bound,
    laplace_infimum,
    tail_bound_independent,
    tropp_bound,
)
from matconc.cli import main as cli_main
from matconc.conjectures import (
    CATALOG,
    counterexample_search,
    gap_conjecture_exp,
    scalar_gap_exp,
    _commuting_triple,
)
from matconc.coupling import (
    RademacherSumObservable,
    TableObservable,
    mc_tail_estimate,
    greedy_disagreement_mc,
    stein_identity_check,
    telescoping_decomposition,
    verify_property_P,
    verify_stein_pair,
)
from matconc.dobrushin import (
    DiscreteModel,
    b_matrix,
    b_power_column,
    dobrushin_matrix,
    matrix_norms,
    tv_distance,
)
from matconc.bounds import dobrushin_constant
from matconc.hermitian import ENSEMBLE_KINDS, EnsembleSpec, sample_ensemble
from matconc.traceineq import INEQUALITY_IDS, fuzz_grid


def _ok(n, msg):
    print(f"ACCEPTANCE {n} PASS: {msg}")


def test_criterion_1_trace_inequality_soundness():
    """10^4 seeded trials per proven inequality, dims 1-8, all ensemble kinds."""
    start = time.time()
    dims = range(1, 9)
    total_violations = 0
    worst = {}
    for ineq in INEQUALITY_IDS:
        summary = fuzz_grid(ineq, ENSEMBLE_KINDS, dims, trials=10_000,
                            scale=1.0, seed=20_240_601)
        assert summary.tolerance == 1e-8
        total_violations += summary.violations
        worst[ineq] = summary.min_gap
        assert summary.violations == 0, (
            f"{ineq}: {summary.violations} violations, min normalized gap "
            f"{summary.min_gap:.3e} (argmin {summary.argmin_digest})"
        )
    elapsed = time.time() - start
    assert elapsed < 300, f"soundness sweep took {elapsed:.1f}s, target is under 5 minutes"
    _ok(1, f"8 inequalities x 10^4 trials, 0 violations at 1e-8 "
           f"(worst normalized gap {min(worst.values()):.3e}, {elapsed:.1f}s)")


def test_criterion_2_constant_factor_reproduction():
    """Exponent ratio of 8 against the comparison bound; the factor-4 remark."""
    # exact arithmetic: -t^2/sigma^2 over -t^2/(8 sigma^2) is exactly 8
    for t in (Fraction(1, 2), Fraction(1), Fraction(2)):
        sigma_sq = Fraction(1)
        exponent_main = -t * t / sigma_sq
        exponent_cmp = -t * t / (8 * sigma_sq)
        assert exponent_main / exponent_cmp == Fraction(8)
    # numerically via the implemented bounds at d=2, sigma^2=1
    for t in (0.5, 1.0, 2.0):
        ratio = math.log(tail_bound_independent(2, 1.0, t) / 2) \
            / math.log(tropp_bound(2, 1.0, t) / 2)
        assert abs(ratio - 8.0) <= 1e-12
    # centered-summand factor 4: the single-swap bounds are 2 A_k, so the
    # bounded-differences variance becomes 4 sigma^2
    mats = [sample_ensemble(EnsembleSpec("gaussian-hermitian", 2, 1.0, 7 + k))
            for k in range(5)]
    sigma_sq = DifferenceBoundSet(mats).sigma_sq
    doubled = DifferenceBoundSet([type(m)(2.0 * m.mat) for m in mats]).sigma_sq
    assert doubled == pytest.approx(4.0 * sigma_sq, rel=1e-12)
    for t in (0.3, 1.1, 2.4):
        assert hoeffding_bound(2, sigma_sq, t) == pytest.approx(
            tail_bound_independent(2, doubled, t), rel=1e-12)
    _ok(2, "exponent ratio 8 exact and to 1e-12; factor-4 substitution reproduced")


def test_criterion_3_laplace_pipeline_closure():
    """Grid infimum with the quadratic profile reproduces d e^{-t^2/sigma^2}."""
    # covers the analytic optimum 2t/sigma^2 <= 12 with spacing fine enough
    # that the quadratic error delta^2 sigma^2 / 4 stays below 1e-6 relative
    grid = np.linspace(1e-3, 14.0, 10_001)
    worst = 0.0
    for sigma_sq in (0.5, 1.0, 2.0):
        for t in np.linspace(0.1, 3.0, 30):
            res = laplace_infimum(sigma_sq, float(t), grid, d=2)
            target = tail_bound_independent(2, sigma_sq, float(t))
            rel = abs(res.bound - target) / target
            worst = max(worst, rel)
            assert rel <= 1e-6
            assert res.closed_form_bound == pytest.approx(target, rel=1e-12)
    _ok(3, f"grid infimum matches closed form to 1e-6 (worst rel err {worst:.2e})")


def test_criterion_4_monte_carlo_domination():
    """Rademacher sum, n=20, d=2, N=10^5: empirical tail under the Hoeffding bound."""
    start = time.time()
    n, d, N = 20, 2, 100_000
    mats = [sample_ensemble(EnsembleSpec("gaussian-hermitian", d, 0.3, 1000 + k))
            for k in range(n)]
    obs = RademacherSumObservable(mats)
    model = DiscreteModel.from_product([(-1.0, 1.0)] * n, [[0.5, 0.5]] * n,
                                       enum_cap=2 ** 21)
    sigma_sq = DifferenceBoundSet(mats).sigma_sq
    sigma = math.sqrt(sigma_sq)
    t_grid = [0.25 * k * sigma for k in range(13)]
    est = mc_tail_estimate(model, obs, t_grid, N, seed=77)
    assert est.mean_source == "observable-exact"
    for t, e, lo, hi in zip(est.t_grid, est.empirical, est.ci_low, est.ci_high):
        bound = hoeffding_bound(d, sigma_sq, t)
        assert e <= bound + (hi - lo) / 2, f"tail {e} above bound {bound} at t={t}"
    elapsed = time.time() - start
    assert elapsed < 120, f"MC run took {elapsed:.1f}s, target is under 2 minutes"
    _ok(4, f"empirical tail dominated by d e^(-t^2/4s^2) at all 13 grid points "
           f"({elapsed:.1f}s)")


def _brute_dobrushin(model):
    n = model.n
    D = np.zeros((n, n))
    configs = list(itertools.product(*[range(s) for s in model.sizes]))

    def cond(i, cfg):
        weights = []
        for v in range(model.sizes[i]):
            c = list(cfg)
            c[i] = v
            weights.append(model.table[tuple(c)])
        tot = sum(weights)
        return [w / tot for w in weights]

    for i in range(n):
        for j in range(n):
            if i == j:
                continue
            worst = 0.0
            for x in configs:
                for vj in range(model.sizes[j]):
                    y = list(x)
                    y[j] = vj
                    worst = max(worst, tv_distance(cond(i, x), cond(i, y)))
            D[i, j] = worst
    return D


def _disagreement_suite(model, runs, kmax, seed):
    D = dobrushin_matrix(model)
    assert np.abs(D.entries - _brute_dobrushin(model)).max() <= 1e-12
    n1, ninf = matrix_norms(D)
    assert max(n1, ninf) < 1.0
    c = dobrushin_constant(n1, ninf)
    B = b_matrix(D, model.n)
    for site in range(model.n):
        mc = greedy_disagreement_mc(model, site, kmax, runs, seed + site)
        for k in range(kmax + 1):
            bound = b_power_column(B, k, site).vector
            slack = bound + 3 * mc.std_errors[k] + 1e-12 - mc.means[k]
            assert (slack >= 0).all(), (
                f"site {site}, k={k}: E L = {mc.means[k]}, bound = {bound}"
            )
    return D, c


def test_criterion_5_dobrushin_machinery():
    """Two- and three-site Ising models: exact D, the constant c, and coupling decay."""
    start = time.time()
    two = DiscreteModel.from_ising([[0.0, 0.25], [0.25, 0.0]])
    D2, c2 = _disagreement_suite(two, runs=100_000, kmax=20, seed=501)
    tanh = math.tanh(0.25)
    assert np.abs(D2.entries - [[0.0, tanh], [tanh, 0.0]]).max() <= 1e-12
    assert c2 == pytest.approx(1.324361, abs=1e-6)

    chain = np.zeros((3, 3))
    chain[0, 1] = chain[1, 0] = chain[1, 2] = chain[2, 1] = 0.25
    three = DiscreteModel.from_ising(chain)
    _disagreement_suite(three, runs=100_000, kmax=20, seed=601)
    elapsed = time.time() - start
    _ok(5, f"D = tanh(1/4) to 1e-12, c = {c2:.6f}, disagreement dominated by "
           f"B^k e(I) + 3 SE for k <= 20 on both models ({elapsed:.1f}s)")


def _identity_models():
    """Enumerable test models paired with matrix observables."""
    def gauss(dim, seed):
        return sample_ensemble(EnsembleSpec("gaussian-hermitian", dim, 1.0, seed))

    out = []
    prod2 = DiscreteModel.from_product([(-1.0, 1.0)] * 2, [[0.5, 0.5]] * 2)
    out.append(("independent-2site", prod2,
                RademacherSumObservable([[[1.0]], [[1.0]]])))
    out.append(("independent-2site-d2", prod2,
                RademacherSumObservable([gauss(2, 11), gauss(2, 12)])))
    ising = DiscreteModel.from_ising([[0.0, 0.25], [0.25, 0.0]])
    out.append(("ising-2site", ising,
                RademacherSumObservable([gauss(2, 13), gauss(2, 14)])))
    chain = np.zeros((3, 3))
    chain[0, 1] = chain[1, 0] = chain[1, 2] = chain[2, 1] = 0.25
    out.append(("ising-3site-chain", DiscreteModel.from_ising(chain),
                RademacherSumObservable([gauss(2, 15), gauss(2, 16), gauss(2, 17)])))
    rng = np.random.default_rng(99)
    table = rng.uniform(0.2, 1.0, size=(2, 3))
    mixed = DiscreteModel.from_table([(0.0, 1.0), (-1.0, 0.0, 1.0)], table)
    mapping = {}
    for vals in itertools.product((0.0, 1.0), (-1.0, 0.0, 1.0)):
        M = rng.normal(size=(2, 2)) + 1j * rng.normal(size=(2, 2))
        mapping[vals] = (M + M.conj().T) / 2
    out.append(("mixed-alphabet", mixed, TableObservable(mapping, 2)))
    return out


def test_criterion_6_exact_chain_identities():
    """Chain-sum identities, marginal property, telescoping, Stein scale factor."""
    rng = np.random.default_rng(2718)
    for name, model, obs in _identity_models():
        assert model.size <= 10_000
        rep = stein_identity_check(model, obs)
        assert rep.holds, f"{name}: residual {rep.max_residual:.2e}"
        prop = verify_property_P(model)
        assert prop.holds and prop.max_deviation <= 1e-12, f"{name}: {prop}"
        for _ in range(25):
            x = tuple(int(v) for v in model.sample(rng, 1)[0])
            y = tuple(int(v) for v in model.sample(rng, 1)[0])
            terms = telescoping_decomposition(obs, model.values(x), model.values(y))
            resid = sum(terms) - (np.asarray(obs(model.values(x)))
                                  - np.asarray(obs(model.values(y))))
            assert np.abs(resid).max() < 1e-12

    # Rademacher-sum Stein pair: scale factor 1/n, residual < 1e-10
    for n in (2, 3, 4):
        mats = [sample_ensemble(EnsembleSpec("gaussian-hermitian", 2, 1.0, 40 + k))
                for k in range(n)]
        model = DiscreteModel.from_product([(-1.0, 1.0)] * n, [[0.5, 0.5]] * n)
        rep = verify_stein_pair(model, RademacherSumObservable(mats))
        assert rep.alpha_hat == pytest.approx(1.0 / n, abs=1e-12)
        assert rep.residual < 1e-10
    _ok(6, "chain-sum identities to 1e-8, marginal property for every K by the "
           "one-step joint-marginal identity to 1e-12, "
           "telescoping < 1e-12, Stein scale factor 1/n with residual < 1e-10")


def test_criterion_7_conjecture_evidence():
    """Random + descent search for both conjectured bounds; scalar-reduction oracle."""
    start = time.time()
    dims = range(2, 7)
    results = []
    r = counterexample_search("expconj", dims, budget=10_000, seed=424_242)
    results.append(r)
    for name in sorted(CATALOG):
        r = counterexample_search("fconj", dims, budget=10_000, seed=424_242,
                                  entry=CATALOG[name])
        results.append(r)
    for r in results:
        assert r.verdict == "supported", (
            f"{r.inequality_id}: candidate gap {r.best_gap:.3e} "
            f"(certified error {r.certified_error:.3e}); witness persisted"
        )
    # commuting-input scalar reduction agrees with the matrix evaluation
    worst = 0.0
    for s in range(1000):
        dim = 2 + s % 5
        A, B, C = _commuting_triple(dim, 1.0, 10_000 + s)
        rep = gap_conjecture_exp(A, B, C)
        evals, U = np.linalg.eigh(A.mat)
        b = np.real(np.diagonal(U.conj().T @ B.mat @ U))
        c = np.real(np.diagonal(U.conj().T @ C.mat @ U))
        oracle = scalar_gap_exp(evals, b, c)
        dev = abs(rep.gap - oracle) / rep.params["anchor"]
        worst = max(worst, dev)
        assert dev <= 1e-9
    elapsed = time.time() - start
    _ok(7, f"{len(results)} searches supported (budget 10^4 + descent); scalar "
           f"oracle agreement on 10^3 commuting cases (worst {worst:.2e}; {elapsed:.1f}s)")


def _data_files(root):
    out = {}
    for dirpath, _, names in os.walk(root):
        for fname in sorted(names):
            if fname.endswith(".manifest.json"):
                continue
            path = os.path.join(dirpath, fname)
            with open(path, "rb") as fh:
                out[os.path.relpath(path, root)] = fh.read()
    return out


def test_criterion_8_cli_determinism(tmp_path):
    """Every command rerun with the same config and seed is byte-identical,
    also when it rewrites the files of a run whose files had other lengths."""
    from matconc.dobrushin import save_model

    model_path = tmp_path / "ising.json"
    save_model(model_path, DiscreteModel.from_ising([[0.0, 0.25], [0.25, 0.0]]))
    mc = {
        "model": {"rademacher_sites": 8},
        "observable": {"kind": "rademacher-sum",
                       "generate": {"count": 8, "dim": 2, "seed": 5, "scale": 0.4}},
        "t_grid": {"sigma_multiples": [0.0, 1.0, 2.0]},
        "samples": 2000,
        "seed": 13,
    }
    mc_cfg, mc_short_cfg = tmp_path / "mc.json", tmp_path / "mc-short.json"
    mc_cfg.write_text(json.dumps(mc))
    mc_short_cfg.write_text(json.dumps({**mc, "t_grid": {"sigma_multiples": [0.0, 1.0]}}))
    commands = {
        "bound": ["bound", "--d", "2", "--sigma-sq", "1", "--t", "0:3:0.5"],
        "verify-traces": ["verify-traces", "--trials", "40", "--dims", "1..3",
                          "--seed", "9"],
        "mc-tail": ["mc-tail", "--config", str(mc_cfg)],
        "dobrushin": ["dobrushin", "--model", str(model_path), "--kmax", "8"],
        "conjecture": ["conjecture", "--ineq", "expconj", "--dims", "2..3",
                       "--budget", "50", "--seed", "21"],
    }
    # a later flag overrides an earlier one; each changes the data files' lengths
    other_lengths = {"bound": ["--t", "0:1:0.5"], "verify-traces": ["--trials", "7"],
                     "mc-tail": ["--config", str(mc_short_cfg)], "dobrushin": ["--kmax", "3"],
                     "conjecture": ["--budget", "5"]}
    targets = {"verify-traces": "vt", "dobrushin": "out.json", "conjecture": "out.json"}

    def run_into(out_root, argv):
        out_root.mkdir(exist_ok=True)
        assert cli_main(argv + ["--out", str(out_root / targets.get(argv[0], "out.csv"))]) == 0
        return _data_files(out_root)

    def lengths(files):
        return {path: len(data) for path, data in files.items()}

    for name, argv in commands.items():
        first = run_into(tmp_path / f"{name}-0", argv)
        assert run_into(tmp_path / f"{name}-1", argv) == first, f"{name} rerun differed"
        other = run_into(tmp_path / f"{name}-other", argv + other_lengths[name])
        assert lengths(other) != lengths(first), name
        for step_argv, fresh in ((argv, first), (argv + other_lengths[name], other),
                                 (argv, first)):
            assert run_into(tmp_path / f"{name}-same-path", step_argv) == fresh, \
                f"{name} rerun into the same path differed"
    _ok(8, "bound, verify-traces, mc-tail, dobrushin, conjecture all rerun "
           "byte-identically (manifests excluded), also into one path over files of other lengths")
