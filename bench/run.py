"""matconc benchmark: one seeded workload through matconc's public entry points.

    python3 bench/run.py --workload NAME --seed N --seconds S --trace 0|1

Run from the root of a checkout; matconc is imported from that checkout's
``src/``.  Set-up (a fresh import of matconc, the seeded inputs and one warm-up
op) is repeated ``SETUP_REPEATS`` times and its median reported.  The timed
phase then runs whole passes over the op list until ``--seconds`` have passed.
Every op is checked after it finishes; a failure is counted, not fatal.  Every
pass after the first must reproduce the first pass's data byte for byte.

Host speed.  On a shared 2-vCPU cloud host the same code was measured running
up to 2.5x slower for tens of seconds at a time, so raw latencies of one run
say more about the neighbours than about matconc.  A fixed probe
(small numpy calls plus interpreter work, no matconc code) is timed before
every op, and each latency is scaled to the speed at which the probe takes
``PROBE_REF_S``.  An op's latency is the lower quartile of its scaled latencies
over the passes; set-up times are scaled the same way.  The unscaled figures
are printed next to them in the info line.

``--trace 0`` reports the end-to-end metrics of BENCHMARK.json.  ``--trace 1``
adds one traced pass over the same ops after the timed passes and reports the
per-layer metrics; its spans are written to ``.bench_work/<workload>/trace.json``.
Span times (``.self_s``, the per-size ``_ms`` and per-item rates) are raw; the
per-inequality ``us_per_trial`` and ``trace.overhead_frac`` use scaled latencies.
The last stdout line is the JSON result; the line before it records the
environment, the op counts and the determinism digest.
"""

import os
import time

PROCESS_START = time.perf_counter()

# one BLAS thread, set before numpy loads
THREAD_VARS = ("OPENBLAS_NUM_THREADS", "OMP_NUM_THREADS", "MKL_NUM_THREADS")
for _var in THREAD_VARS:
    os.environ[_var] = "1"

import argparse  # noqa: E402
import hashlib  # noqa: E402
import importlib  # noqa: E402
import json  # noqa: E402
import platform  # noqa: E402
import resource  # noqa: E402
import shutil  # noqa: E402
import statistics  # noqa: E402
import sys  # noqa: E402
import types  # noqa: E402
from pathlib import Path  # noqa: E402

import numpy as np  # noqa: E402

import tracer as tracing  # noqa: E402
import workloads  # noqa: E402

ROOT = Path(__file__).resolve().parent.parent
WORK = ROOT / ".bench_work"
SETUP_REPEATS = 5
PROBE_REF_S = 6.0e-4  # probe time on an uncontended core of the reference host
PROBE_WINDOW = 9      # probes whose median gives the speed around one op
SUBMODULES = ("hermitian", "traceineq", "bounds", "dobrushin", "coupling",
              "conjectures", "cli")
# layers reported with .calls and .self_s in the traced run
LAYER_KEYS = (
    "hermitian.certify", "hermitian.spectral_decompose", "hermitian.matrix_function",
    "hermitian.sample_ensemble", "hermitian.parts", "hermitian.params",
    "lapack.eigh", "lapack.eigvalsh", "traceineq.gap", "conjectures.gap", "cli.main",
    "dobrushin.dobrushin_matrix", "dobrushin.conditional_table", "dobrushin.sample",
    "coupling.gibbs_kernel", "coupling.pair_evolver_init", "coupling.pair_step",
    "coupling.greedy_mc", "coupling.mc_tail", "bounds",
)
COUNTERS = ("conjectures.random_evals", "conjectures.descent_evals", "conjectures.sweeps",
            "cli.bytes_written")


def load_matconc():
    """Fresh import of matconc from the checkout's src/, one attribute per module."""
    src = ROOT / "src"
    if sys.path[0] != str(src):
        sys.path.insert(0, str(src))
    for name in [n for n in sys.modules if n == "matconc" or n.startswith("matconc.")]:
        del sys.modules[name]
    package = importlib.import_module("matconc")
    if Path(package.__file__).resolve().parent != (src / "matconc").resolve():
        raise ImportError(f"matconc imported from {package.__file__}, not from {src}")
    mods = {sub: importlib.import_module(f"matconc.{sub}") for sub in SUBMODULES}
    return types.SimpleNamespace(package=package, **mods)


_EIGH = np.linalg.eigh  # bound before the traced mode rebinds numpy.linalg.eigh
_PROBE_MATS = np.random.default_rng(0).normal(size=(16, 4, 4))
_PROBE_MATS = _PROBE_MATS + _PROBE_MATS.transpose(0, 2, 1)


def host_probe():
    """Seconds taken by a fixed mix of small eigh calls and interpreter work."""
    t0 = time.perf_counter()
    for m in _PROBE_MATS:
        _EIGH(m)
    acc = 0
    for i in range(3000):
        acc += i * i
    table = {i: str(i) for i in range(1000)}
    del table
    return time.perf_counter() - t0


def speed_factor(probes):
    return PROBE_REF_S / statistics.median(probes)


class Pass:
    """Op latencies and checked results of one pass over the op list.

    ``probes[i]`` is the host probe timed just before op ``i``.
    """

    def __init__(self, ops, tracer=None):
        self.times, self.results, self.errors, self.probes = [], [], [], []
        for op in ops:
            self.probes.append(host_probe())
            t0 = time.perf_counter()
            try:
                if tracer is None:
                    out = op.run()
                else:
                    with tracer.op_span(op.label):
                        out = op.run()
            except Exception as exc:  # a raising op is a failed op, not a failed run
                self._record(time.perf_counter() - t0, None, f"{type(exc).__name__}: {exc}")
                continue
            elapsed = time.perf_counter() - t0
            try:
                self._record(elapsed, op.check(out), None)
            except Exception as exc:
                self._record(elapsed, None, f"{type(exc).__name__}: {exc}")

    def _record(self, elapsed, result, error):
        self.times.append(elapsed)
        self.results.append(result)
        self.errors.append(error)

    def scaled_times(self):
        """Latencies at the reference speed, from the probes around each op."""
        half = PROBE_WINDOW // 2
        return [t * speed_factor(self.probes[max(0, i - half):i + half + 1])
                for i, t in enumerate(self.times)]

    def items(self):
        return sum(r.items for r in self.results if r is not None)


def op_latencies(passes, scaled=True):
    """Each op's lower-quartile latency over the timed passes."""
    times = [p.scaled_times() if scaled else p.times for p in passes]
    return np.quantile(np.asarray(times), 0.25, axis=0)


def compare_to_reference(ref, later, ops):
    """Mark ops whose data differ from the reference pass as failed."""
    for i, (a, b) in enumerate(zip(ref.results, later.results)):
        if a is not None and b is not None and a.blob != b.blob:
            later.results[i] = None
            later.errors[i] = f"{ops[i].label}: output differs from the first pass"


def run_digest(ops, ref):
    h = hashlib.sha256()
    for op, res in zip(ops, ref.results):
        h.update(op.label.encode() + b"\0" + (res.blob if res is not None else b"FAILED"))
    return h.hexdigest()


def setup(workload, seed, workdir):
    """Import matconc, build the seeded inputs and run one warm-up op, timed."""
    probes = [host_probe() for _ in range(PROBE_WINDOW)]
    t0 = time.perf_counter()
    mc = load_matconc()
    workdir.mkdir(parents=True, exist_ok=True)
    ops = workloads.build(workload, seed, mc, str(workdir))
    warm = Pass(ops[:1])
    elapsed = time.perf_counter() - t0
    return elapsed, elapsed * speed_factor(probes + warm.probes), mc, ops, warm


def environment():
    try:
        blas = np.show_config(mode="dicts")["Build Dependencies"]["blas"]
        blas = f"{blas.get('name')} {blas.get('version')}"
    except (AttributeError, KeyError, TypeError):
        blas = "unknown"
    cpu = platform.processor() or platform.machine()
    try:
        with open("/proc/cpuinfo") as fh:
            cpu = next(line.split(":", 1)[1].strip() for line in fh
                       if line.startswith("model name"))
    except (OSError, StopIteration):
        pass
    return {
        "python": platform.python_version(),
        "numpy": np.__version__,
        "blas": blas,
        "nproc": len(os.sched_getaffinity(0)),
        "cpu": cpu,
        "threads": {v: os.environ[v] for v in THREAD_VARS},
        "processes": 1,
    }


def end_to_end_metrics(passes, setup_times, scaled=True):
    latencies = op_latencies(passes, scaled)
    checked = [all(p.results[i] is not None for p in passes) for i in range(len(latencies))]
    items = sum(r.items for r, ok in zip(passes[0].results, checked) if ok)
    return {
        "items_per_s": items / float(latencies.sum()),
        "op_p50_ms": 1e3 * float(np.percentile(latencies, 50)),
        "op_p90_ms": 1e3 * float(np.percentile(latencies, 90)),
        "setup_s": statistics.median(setup_times),
        "peak_rss_mb": resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024.0,
    }


def layer_metrics(ops, passes, traced, tracer, cpu_s, wall_s, failed, attempted):
    summary = tracer.summary()
    m = {}
    for key in LAYER_KEYS:
        rec = summary.get(key, {"calls": 0, "self_s": 0.0})
        m[f"{key}.calls"] = rec["calls"]
        m[f"{key}.self_s"] = rec["self_s"]
    decomps = m["lapack.eigh.calls"] + m["lapack.eigvalsh.calls"]
    m["lapack.decomp_per_item"] = decomps / max(1, traced.items())

    latencies = op_latencies(passes)
    for ineq in ("exchangeable", "exchangeable_scaled", "pair_exp", "power",
                 "symmetric_term", "holder", "psd_cross", "trace_quad"):
        mine = [i for i, op in enumerate(ops) if op.ineq == ineq]
        trials = sum(ops[i].items for i in mine)
        m[f"traceineq.{ineq}.us_per_trial"] = (
            1e6 * sum(latencies[i] for i in mine) / trials if trials else 0.0)

    for name in COUNTERS:
        m[name] = sum(r.stats.get(name, 0) for r in traced.results if r is not None)

    for n in (6, 8, 10):
        spans = tracer.durations("dobrushin.dobrushin_matrix", n)
        m[f"dobrushin.dobrushin_matrix.n{n}_ms"] = 1e3 * statistics.median(spans) if spans else 0.0
    spans = tracer.durations("coupling.gibbs_kernel", 256)
    m["coupling.gibbs_kernel.s256_ms"] = 1e3 * statistics.median(spans) if spans else 0.0

    greedy = summary.get("coupling.greedy_mc")
    m["coupling.greedy_mc.ns_per_chain_step"] = (
        1e9 * greedy["total_s"] / (greedy["calls"] * workloads.CHAIN_RUNS * workloads.CHAIN_KMAX)
        if greedy else 0.0)
    tail = summary.get("coupling.mc_tail")
    m["coupling.mc_tail.us_per_sample"] = (
        1e6 * tail["total_s"] / (tail["calls"] * workloads.TAIL_SAMPLES) if tail else 0.0)

    m["proc.cpu_s"] = cpu_s
    m["proc.cpu_util"] = cpu_s / wall_s
    untraced = statistics.median(sum(p.scaled_times()) for p in passes)
    m["trace.overhead_frac"] = sum(traced.scaled_times()) / untraced - 1.0
    m["failed_ops_frac"] = failed / attempted
    return m


def with_units(values, specs):
    declared = {s["name"]: s["unit"] for s in specs}
    if set(values) != set(declared):
        raise RuntimeError(f"metrics differ from BENCHMARK.json: "
                           f"{sorted(set(values) ^ set(declared))}")
    return {k: {"value": values[k], "unit": declared[k]} for k in declared}


def run(workload, seed, seconds, trace):
    spec = json.loads((ROOT / "BENCHMARK.json").read_text())
    workdir = WORK / workload
    shutil.rmtree(workdir, ignore_errors=True)
    raw_setup, scaled_setup, warm_passes = [], [], []
    for _ in range(SETUP_REPEATS):
        raw, scaled, mc, ops, warm = setup(workload, seed, workdir)
        raw_setup.append(raw)
        scaled_setup.append(scaled)
        warm_passes.append(warm)
    first_op_at = time.perf_counter() - PROCESS_START

    cpu0, wall0 = os.times(), time.perf_counter()
    passes = [Pass(ops)]
    while time.perf_counter() - wall0 < seconds:
        passes.append(Pass(ops))
    wall_s = time.perf_counter() - wall0
    cpu1 = os.times()
    cpu_s = (cpu1.user - cpu0.user) + (cpu1.system - cpu0.system)
    for p in passes[1:]:
        compare_to_reference(passes[0], p, ops)

    traced = tracer = None
    if trace:
        tracer = tracing.Tracer()
        tracer.install(tracing.layer_targets(mc))
        try:
            traced = Pass(ops, tracer)
        finally:
            tracer.uninstall()
        compare_to_reference(passes[0], traced, ops)
        tracer.write(workdir / "trace.json")

    checked = passes + warm_passes + ([traced] if traced else [])
    attempted = sum(len(p.results) for p in checked)
    errors = [e for p in checked for e in p.errors if e is not None]
    e2e = end_to_end_metrics(passes, scaled_setup)
    info = {
        "workload": workload, "seed": seed, "env": environment(),
        "digest": run_digest(ops, passes[0]),
        "ops_per_pass": len(ops), "items_per_pass": sum(op.items for op in ops),
        "passes": len(passes), "timed_ops": sum(len(p.times) for p in passes),
        "pass_s": [sum(p.times) for p in passes],
        "host_speed": [speed_factor(p.probes) for p in passes],
        "process_start_to_first_timed_op_s": first_op_at,
        "end_to_end": e2e, "end_to_end_unscaled": end_to_end_metrics(passes, raw_setup, False),
        "failed_ops_frac": len(errors) / attempted, "errors": errors[:10],
    }
    if trace:
        metrics = layer_metrics(ops, passes, traced, tracer, cpu_s, wall_s,
                                len(errors), attempted)
        info["per_layer"] = metrics
        result_metrics = with_units(metrics, spec["per_layer"])
    else:
        result_metrics = with_units(e2e, spec["end_to_end"])
    result = {"correct": not errors, "attempted": attempted, "failed": len(errors),
              "metrics": result_metrics}
    record = {"info": info, "result": result, "op_labels": [op.label for op in ops],
              "op_times": [p.times for p in passes], "probe_times": [p.probes for p in passes]}
    (workdir / "result.json").write_text(json.dumps(record, default=float) + "\n")
    print(json.dumps(info, default=float))
    print(json.dumps(result))
    return 0 if not errors else 1


def main(argv=None):
    parser = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    parser.add_argument("--workload", required=True, choices=workloads.WORKLOADS)
    parser.add_argument("--seed", type=int, required=True)
    parser.add_argument("--seconds", type=float, required=True)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    args = parser.parse_args(argv)
    try:
        load_matconc()
    except ImportError as exc:
        print(f"error: cannot import matconc from {ROOT / 'src'}: {exc}", file=sys.stderr)
        return 2
    return run(args.workload, args.seed, args.seconds, bool(args.trace))


if __name__ == "__main__":
    sys.exit(main())
