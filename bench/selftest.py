"""Self-tests of the benchmark harness itself (not part of the tier-1 suite).

    python3 bench/selftest.py

Checks that the tracer sees every call with exact counts, that a failing op
raises the failed-op fraction without aborting the pass, and that the
determinism digest is stable across identical runs and across traced and
untraced passes while a different seed changes the inputs but not the op or
item counts.
"""

import shutil
import sys

import numpy as np

import run
import tracer as tracing
import workloads

WORKDIR = run.WORK / "selftest"


def expect(cond, message):
    if not cond:
        raise AssertionError(message)


def test_tracer_counts():
    mc = run.load_matconc()
    H = mc.hermitian.HermitianMatrix
    A, B, C = (H(np.array(m)) for m in ([[1.0, 0.5], [0.5, -1.0]],
                                         [[0.3, 0.2j], [-0.2j, 0.7]],
                                         [[0.0, 1.0], [1.0, 0.0]]))
    originals = (mc.traceineq.matrix_exp, np.linalg.eigh, mc.hermitian.HermitianMatrix.__init__)
    tr = tracing.Tracer()
    tr.install(tracing.layer_targets(mc))
    try:
        mc.traceineq.gap_exchangeable(A, B, C)
    finally:
        tr.uninstall()
    counts = {k: v["calls"] for k, v in tr.summary().items()}
    expect(counts.get("hermitian.spectral_decompose") == 2, f"spectral_decompose: {counts}")
    expect(counts.get("lapack.eigh") == 2, f"eigh: {counts}")
    expect(counts.get("hermitian.certify") == 2, f"certify: {counts}")
    expect(counts.get("traceineq.gap") == 1, f"gap: {counts}")
    expect(originals == (mc.traceineq.matrix_exp, np.linalg.eigh, H.__init__),
           "uninstall did not restore the original bindings")
    # the package-level re-export is rebound too, and spans nest under their caller
    tr = tracing.Tracer()
    tr.install(tracing.layer_targets(mc))
    try:
        mc.package.gap_exchangeable(A, B, C)
    finally:
        tr.uninstall()
    summary = tr.summary()
    expect(summary["traceineq.gap"]["calls"] == 1, "package re-export not traced")
    expect(all(s[3] >= 0 for s in tr.spans if s[0] != "traceineq.gap"),
           "inner spans lack a parent")
    expect(summary["traceineq.gap"]["self_s"] < summary["traceineq.gap"]["total_s"],
           "self time does not exclude child spans")


def test_injected_failure():
    mc = run.load_matconc()
    shutil.rmtree(WORKDIR, ignore_errors=True)
    ops = workloads.build("trace-sweep", 5, mc, str(WORKDIR))[:4]
    clean = run.Pass(ops)
    expect(not any(clean.errors), f"clean pass failed: {clean.errors}")

    def boom():
        raise RuntimeError("injected")

    bad_exit = workloads._cli_op(mc, "bad-ineq", ["verify-traces", "--ineqs", "nope",
                                                  "--out", str(WORKDIR / "bad")],
                                 str(WORKDIR / "bad"), 1, lambda files: (1, {}))
    raising = workloads.Op("raises", 1, boom, lambda out: None)
    mixed = run.Pass([ops[0], bad_exit, ops[1], raising, ops[2], ops[3]])
    failed = sum(e is not None for e in mixed.errors)
    expect(failed == 2 and len(mixed.errors) == 6, f"errors: {mixed.errors}")
    expect(mixed.errors[1].startswith("CheckFailed") and "injected" in mixed.errors[3],
           f"errors: {mixed.errors}")
    expect(mixed.items() == clean.items(), "ops after the failures did not complete")


def _digest(name, seed, trace=False):
    mc = run.load_matconc()
    shutil.rmtree(WORKDIR, ignore_errors=True)
    ops = workloads.build(name, seed, mc, str(WORKDIR))
    subset = ops[:: max(1, len(ops) // 6)]
    ref = run.Pass(subset)
    expect(not any(ref.errors), f"{name}: {ref.errors}")
    if trace:
        tr = tracing.Tracer()
        tr.install(tracing.layer_targets(mc))
        try:
            traced = run.Pass(subset, tr)
        finally:
            tr.uninstall()
        run.compare_to_reference(ref, traced, subset)
        expect(not any(traced.errors), f"{name}: traced pass differs: {traced.errors}")
        expect(run.run_digest(subset, traced) == run.run_digest(subset, ref),
               f"{name}: traced digest differs")
    return run.run_digest(subset, ref), len(ops), sum(op.items for op in ops)


def test_determinism():
    for name in workloads.WORKLOADS:
        first = _digest(name, 11, trace=True)
        again = _digest(name, 11)
        other = _digest(name, 12)
        expect(first == again, f"{name}: same seed, different digest")
        expect(other[0] != first[0], f"{name}: different seed, same digest")
        expect(other[1:] == first[1:], f"{name}: op or item count depends on the seed")


def main():
    tests = [test_tracer_counts, test_injected_failure, test_determinism]
    failed = 0
    for test in tests:
        try:
            test()
            print(f"ok   {test.__name__}")
        except Exception as exc:  # report every test, then fail the run
            failed += 1
            print(f"FAIL {test.__name__}: {type(exc).__name__}: {exc}")
    shutil.rmtree(WORKDIR, ignore_errors=True)
    return 1 if failed else 0


if __name__ == "__main__":
    sys.exit(main())
