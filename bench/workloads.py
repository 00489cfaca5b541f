"""Seeded workloads: the op list of one timed pass and the check of each op.

An op is one public matconc call, or one in-process ``matconc.cli.main``
invocation.  ``build(name, seed, mc, workdir)`` turns the workload seed into
inputs (seeds, couplings, coefficient matrices, output directories) and
returns the ops of one pass.  A different seed gives different inputs with the
same op count and item count.  Ops look matconc functions up on the module at
call time, so the traced mode's rebinding sees them.

Every check raises ``CheckFailed`` (or any exception) on a wrong output and
otherwise returns an ``OpResult``: a sha256 of the op's data (manifests
excluded), the items it completed, and counters for the per-layer metrics.
Checks call no matconc code; their oracles are computed with numpy, except the
chain-mc coupling bound, which set-up derives from matconc's Dobrushin matrix.
"""

from __future__ import annotations

import contextlib
import hashlib
import io
import json
import math
import os
from dataclasses import dataclass, field
from typing import Callable

import numpy as np

WORKLOADS = ("trace-sweep", "conjecture-search", "exact-enum", "chain-mc")

# trace-sweep: 8 inequalities x dims 1..8 x cells, trials spread over all 6 kinds
SWEEP_DIMS = range(1, 9)
SWEEP_CELLS = 2
SWEEP_TRIALS = 12
# conjecture-search: 5 searches x dims 2..6 x cells; the descent budget equals
# the random budget (one draw per ensemble kind), so each op evaluates
# 2 * SEARCH_BUDGET gaps
SEARCH_VARIANTS = (("expconj", None), ("fconj", "cube"), ("fconj", "exp"),
                   ("fconj", "quartic"), ("fconj", "square"))
SEARCH_DIMS = range(2, 7)
SEARCH_CELLS = 4
SEARCH_BUDGET = 6
# exact-enum: Ising models per site count; S = 2^n states, pair evolution for S <= 512
# (the median op falls inside the n = 6 group and the 90th percentile inside n = 8)
ENUM_COUNTS = {2: 15, 3: 12, 4: 12, 5: 10, 6: 18, 7: 18, 8: 12, 9: 2, 10: 1}
ENUM_KMAX = 20
ENUM_PAIR_CAP = 512
ENUM_STEPS = 3
# chain-mc: greedy runs per (model, site) on 2..8 sites, plus Rademacher tails
CHAIN_SITES = range(2, 9)
CHAIN_MODEL_SETS = 2
CHAIN_RUNS = 2000
CHAIN_KMAX = 20
TAIL_OPS = 30
TAIL_N, TAIL_D, TAIL_SCALE, TAIL_SAMPLES = 20, 2, 0.3, 5000


class CheckFailed(Exception):
    """An op finished but its output is wrong."""


@dataclass
class OpResult:
    blob: bytes   # sha256 of the op's data files or returned values
    items: int
    stats: dict = field(default_factory=dict)


@dataclass
class Op:
    label: str
    items: int                            # items the op must report
    run: Callable[[], object]             # the timed call
    check: Callable[[object], OpResult]   # untimed; raises on a wrong output
    ineq: str = ""                        # trace-sweep: the inequality id


def _require(cond, message):
    if not cond:
        raise CheckFailed(message)


def _seed_of(rng) -> int:
    return int(rng.integers(0, 2**31 - 1))


# ---------------------------------------------------------------------------
# CLI ops (trace-sweep, conjecture-search)

def _cli_op(mc, label, argv, out_dir, items, check_files, ineq=""):
    """One ``matconc.cli.main`` invocation writing into ``out_dir``."""

    def run():
        buf = io.StringIO()
        with contextlib.redirect_stdout(buf):
            code = mc.cli.main(argv)
        return code, buf.getvalue()

    def check(result):
        code, stdout = result
        _require(code == 0, f"exit code {code}")
        h = hashlib.sha256(stdout.encode())
        written = 0
        files = {}
        for dirpath, _, names in os.walk(out_dir):
            for fname in sorted(names):
                path = os.path.join(dirpath, fname)
                with open(path, "rb") as fh:
                    data = fh.read()
                written += len(data)
                if not fname.endswith(".manifest.json"):
                    files[os.path.relpath(path, out_dir)] = data
        for rel in sorted(files):
            h.update(rel.encode() + b"\0" + files[rel])
        done, stats = check_files(files)
        _require(done == items, f"{done} items completed, expected {items}")
        stats["cli.bytes_written"] = written
        return OpResult(h.digest(), done, stats)

    os.makedirs(out_dir, exist_ok=True)
    return Op(label, items, run, check, ineq)


def _trace_sweep(seed, mc, workdir):
    rng = np.random.default_rng(seed)
    ops = []
    for ineq in mc.traceineq.INEQUALITY_IDS:
        for d in SWEEP_DIMS:
            for cell in range(SWEEP_CELLS):
                out = os.path.join(workdir, f"{ineq}-d{d}-c{cell}")
                argv = ["verify-traces", "--ineqs", ineq, "--dims", str(d),
                        "--trials", str(SWEEP_TRIALS), "--seed", str(_seed_of(rng)),
                        "--out", out]

                def check_files(files, ineq=ineq):
                    summary = json.loads(files[f"fuzz-{ineq}.json"])
                    _require(summary["trials"] == SWEEP_TRIALS, "trial count")
                    _require(summary["violations"] == 0,
                             f"{summary['violations']} violations")
                    _require(summary["ensemble"]["kinds"] == list(mc.hermitian.ENSEMBLE_KINDS),
                             "not all ensemble kinds")
                    return summary["trials"], {}

                ops.append(_cli_op(mc, f"{ineq}/d{d}/c{cell}", argv, out, SWEEP_TRIALS,
                                   check_files, ineq))
    return ops


def _conjecture_search(seed, mc, workdir):
    rng = np.random.default_rng(seed)
    ops = []
    for ineq, entry in SEARCH_VARIANTS:
        for d in SEARCH_DIMS:
            for cell in range(SEARCH_CELLS):
                name = ineq if entry is None else f"{ineq}-{entry}"
                out_dir = os.path.join(workdir, f"{name}-d{d}-c{cell}")
                argv = ["conjecture", "--ineq", ineq, "--dims", str(d),
                        "--budget", str(SEARCH_BUDGET), "--seed", str(_seed_of(rng)),
                        "--out", os.path.join(out_dir, "result.json")]
                if entry is not None:
                    argv += ["--entry", entry]

                def check_files(files):
                    res = json.loads(files["result.json"])
                    _require(res["verdict"] == "supported", f"verdict {res['verdict']}")
                    traj = res["trajectory"]
                    _require(traj["random_evals"] == SEARCH_BUDGET, "random budget")
                    return traj["random_evals"] + traj["descent_evals"], {
                        "conjectures.random_evals": traj["random_evals"],
                        "conjectures.descent_evals": traj["descent_evals"],
                        "conjectures.sweeps": traj["sweeps"],
                    }

                ops.append(_cli_op(mc, f"{name}/d{d}/c{cell}", argv, out_dir,
                                   2 * SEARCH_BUDGET, check_files))
    return ops


# ---------------------------------------------------------------------------
# Public-API ops (exact-enum, chain-mc)

def _ising_inputs(rng, n, field):
    """Couplings with every row sum of |J| at most 0.9, so both Dobrushin norms < 1."""
    J = np.zeros((n, n))
    iu = np.triu_indices(n, 1)
    J[iu] = rng.uniform(-1.0, 1.0, size=len(iu[0])) * (0.9 / (n - 1))
    J = J + J.T
    h = rng.uniform(-0.3, 0.3, size=n) if field else np.zeros(n)
    return J, h


def _ising_pmf(J, h):
    """Flat pmf of the +-1 Ising model in C order, computed independently of matconc."""
    n = len(h)
    bits = np.indices((2,) * n).reshape(n, -1).T
    s = 2.0 * bits - 1.0
    energy = s @ h + 0.5 * np.einsum("ki,ij,kj->k", s, J, s)
    w = np.exp(energy - energy.max())
    return w / w.sum()


def _digest_arrays(*arrays) -> bytes:
    h = hashlib.sha256()
    for a in arrays:
        a = np.ascontiguousarray(np.asarray(a, dtype=float))
        h.update(repr(a.shape).encode() + a.tobytes())
    return h.digest()


def _enum_op(mc, label, J, h, x, y):
    n = len(h)
    S = 2 ** n

    def run():
        dob = mc.dobrushin
        model = dob.DiscreteModel.from_ising(J, h)
        D = dob.dobrushin_matrix(model)
        n1, ninf = dob.matrix_norms(D)
        c = mc.bounds.dobrushin_constant(n1, ninf)
        B = dob.b_matrix(D, n)
        rec = dob.norm_recursion_check(D, n, ENUM_KMAX)
        out = {"D": D.entries, "norms": (n1, ninf, c), "B": B.entries,
               "rec": (rec.partial_sum, rec.limit, rec.tail_bound_1, rec.tail_bound_inf)}
        if S <= ENUM_PAIR_CAP:
            out["G"] = mc.coupling.gibbs_kernel(model)
            evolver = mc.coupling.PairEvolver(model)
            nu = evolver.delta(x, y)
            out["nus"] = []
            for _ in range(ENUM_STEPS):
                nu = evolver.step(nu)
                out["nus"].append(nu)
        return out

    def check(out):
        D = out["D"]
        _require(np.all(np.diagonal(D) == 0.0), "nonzero diagonal")
        _require(np.all((D >= 0.0) & (D <= 1.0)), "entries outside [0, 1]")
        n1, ninf, c = out["norms"]
        _require(max(n1, ninf) < 1.0 and c >= 1.0, "not below the Dobrushin threshold")
        if n == 2:
            t = math.tanh(abs(J[0, 1]))
            _require(abs(D[0, 1] - t) <= 1e-12 and abs(D[1, 0] - t) <= 1e-12,
                     "2-site D differs from tanh(J)")
        arrays = [D, out["norms"], out["B"], out["rec"]]
        if "G" in out:
            G = out["G"]
            pi = _ising_pmf(J, h)
            _require(np.abs(G.sum(axis=1) - 1.0).max() <= 1e-12, "kernel row sums")
            flow = pi[:, None] * G
            _require(np.abs(flow - flow.T).max() <= 1e-12 * pi.max(), "detailed balance")
            ex, ey = np.zeros(S), np.zeros(S)
            ex[x], ey[y] = 1.0, 1.0
            for nu in out["nus"]:
                ex, ey = ex @ G, ey @ G
                _require(abs(nu.sum() - 1.0) <= 1e-12, "pair step lost mass")
                _require(np.abs(nu.sum(axis=1) - ex).max() <= 1e-12
                         and np.abs(nu.sum(axis=0) - ey).max() <= 1e-12,
                         "pair marginals differ from the single-chain law")
            arrays += [G] + out["nus"]
        return OpResult(_digest_arrays(*arrays), 1)

    return Op(label, 1, run, check)


def _exact_enum(seed, mc, workdir):
    rng = np.random.default_rng(seed)
    ops = []
    for n, count in ENUM_COUNTS.items():
        for cell in range(count):
            J, h = _ising_inputs(rng, n, field=n > 2)
            x, y = (int(v) for v in rng.integers(0, 2 ** n, size=2))
            ops.append(_enum_op(mc, f"ising/n{n}/c{cell}", J, h, x, y))
    return ops


def _greedy_op(mc, label, model, site, run_seed, bound):
    def run():
        return mc.coupling.greedy_disagreement_mc(model, site, CHAIN_KMAX, CHAIN_RUNS, run_seed)

    def check(res):
        slack = bound + 3.0 * res.std_errors + 1e-12 - res.means
        _require(res.means.shape == bound.shape, "disagreement shape")
        _require(bool((slack >= 0).all()), "disagreement above B^k e(site) + 3 SE")
        return OpResult(_digest_arrays(res.means, res.std_errors), CHAIN_RUNS * CHAIN_KMAX)

    return Op(label, CHAIN_RUNS * CHAIN_KMAX, run, check)


def _tail_op(mc, label, model, observable, t_grid, bounds, run_seed):
    def run():
        return mc.coupling.mc_tail_estimate(model, observable, t_grid, TAIL_SAMPLES, run_seed)

    def check(est):
        _require(est.mean_source == "observable-exact", f"mean source {est.mean_source}")
        emp, lo, hi = (np.asarray(v) for v in (est.empirical, est.ci_low, est.ci_high))
        _require(len(emp) == len(bounds), "grid length")
        _require(bool((emp <= bounds + (hi - lo) / 2).all()), "tail above the Hoeffding bound")
        return OpResult(_digest_arrays(est.t_grid, emp, lo, hi), TAIL_SAMPLES)

    return Op(label, TAIL_SAMPLES, run, check)


def _chain_mc(seed, mc, workdir):
    rng = np.random.default_rng(seed)
    dob = mc.dobrushin
    ops = []
    for mset in range(CHAIN_MODEL_SETS):
        for n in CHAIN_SITES:
            J, h = _ising_inputs(rng, n, field=True)
            model = dob.DiscreteModel.from_ising(J, h)
            D = dob.dobrushin_matrix(model).entries
            B = (1.0 - 1.0 / n) * np.eye(n) + D / n
            for site in range(n):
                col = np.zeros(n)
                col[site] = 1.0
                bound = [col]
                for _ in range(CHAIN_KMAX):
                    bound.append(B @ bound[-1])
                ops.append(_greedy_op(mc, f"greedy/n{n}/m{mset}/s{site}", model, site,
                                      _seed_of(rng), np.stack(bound)))
    product = dob.DiscreteModel.from_product([(-1.0, 1.0)] * TAIL_N, [[0.5, 0.5]] * TAIL_N,
                                             enum_cap=2 ** (TAIL_N + 1))
    for k in range(TAIL_OPS):
        mats = []
        for _ in range(TAIL_N):
            M = rng.normal(size=(TAIL_D, TAIL_D)) + 1j * rng.normal(size=(TAIL_D, TAIL_D))
            mats.append(TAIL_SCALE * (M + M.conj().T) / 2.0)
        observable = mc.coupling.RademacherSumObservable(mats)
        # sigma^2 = ||sum_k A_k^2|| and the Hoeffding bound d exp(-t^2 / (4 sigma^2))
        sq = sum(M @ M for M in mats)
        sigma_sq = float(np.abs(np.linalg.eigvalsh((sq + sq.conj().T) / 2.0)).max())
        t_grid = [0.25 * j * math.sqrt(sigma_sq) for j in range(13)]
        bounds = np.array([TAIL_D * math.exp(-t * t / (4.0 * sigma_sq)) for t in t_grid])
        ops.append(_tail_op(mc, f"tail/c{k}", product, observable, t_grid, bounds,
                            _seed_of(rng)))
    return ops


_BUILDERS = {
    "trace-sweep": _trace_sweep,
    "conjecture-search": _conjecture_search,
    "exact-enum": _exact_enum,
    "chain-mc": _chain_mc,
}


def build(name, seed, mc, workdir):
    """The ops of one pass of workload ``name`` for ``seed``."""
    return _BUILDERS[name](seed, mc, workdir)
