"""In-memory call tracer for the benchmark's traced mode.

The tracer wraps matconc's layer entry points from outside the package: for
each target it rebinds *every* matconc module attribute bound to the original
object (``from .hermitian import matrix_exp`` leaves a separate binding in each
importing module), so calls through any of those names are seen.  Each call
records a span ``[key, start, end, parent, note]``; the parent is the span open
when the call began, so every span leads back to the op span that caused it.
Spans stay in memory until :meth:`Tracer.write` is called at the end of a run.
"""

from __future__ import annotations

import contextlib
import functools
import inspect
import json
import sys
import time

import numpy as np


def _matconc_modules():
    return [m for name, m in sorted(sys.modules.items())
            if m is not None and (name == "matconc" or name.startswith("matconc."))]


def _by_size(model, *args, **kwargs):
    return int(model.size)


def _by_sites(model, *args, **kwargs):
    return int(model.n)


def layer_targets(mc):
    """(key, owner, attribute, note) for every traced entry point.

    ``note`` computes a small integer recorded with the span (the model's
    site or state count), so per-size timings can be read from the trace.
    """
    h, ti, cj, dob, cp = mc.hermitian, mc.traceineq, mc.conjectures, mc.dobrushin, mc.coupling
    targets = [
        ("hermitian.certify", h.HermitianMatrix, "__init__", None),
        ("hermitian.spectral_decompose", h, "spectral_decompose", None),
        ("hermitian.matrix_function", h, "matrix_function", None),
        ("hermitian.sample_ensemble", h, "sample_ensemble", None),
        ("hermitian.parts", h, "positive_part", None),
        ("hermitian.parts", h, "negative_part", None),
        ("hermitian.parts", h, "pos_neg_parts", None),
        ("hermitian.params", h, "hermitian_to_params", None),
        ("hermitian.params", h, "hermitian_from_params", None),
        ("lapack.eigh", np.linalg, "eigh", None),
        ("lapack.eigvalsh", np.linalg, "eigvalsh", None),
        ("conjectures.gap", cj, "gap_conjecture_exp", None),
        ("conjectures.gap", cj, "gap_conjecture_f", None),
        ("cli.main", mc.cli, "main", None),
        ("dobrushin.dobrushin_matrix", dob, "dobrushin_matrix", _by_sites),
        ("dobrushin.conditional_table", dob, "conditional_table", None),
        ("dobrushin.sample", dob.DiscreteModel, "sample", None),
        ("coupling.gibbs_kernel", cp, "gibbs_kernel", _by_size),
        ("coupling.pair_evolver_init", cp.PairEvolver, "__init__", None),
        ("coupling.pair_step", cp.PairEvolver, "step", None),
        ("coupling.greedy_mc", cp, "greedy_disagreement_mc", None),
        ("coupling.mc_tail", cp, "mc_tail_estimate", None),
    ]
    for name, fn in sorted(vars(ti).items()):
        if name.startswith("gap_") and inspect.isfunction(fn) and fn.__module__ == ti.__name__:
            targets.append(("traceineq.gap", ti, name, None))
    for name, fn in sorted(vars(mc.bounds).items()):
        if (not name.startswith("_") and inspect.isfunction(fn)
                and fn.__module__ == mc.bounds.__name__):
            targets.append(("bounds", mc.bounds, name, None))
    return targets


class Tracer:
    """Records spans around the calls into each layer while installed."""

    def __init__(self):
        self.spans = []     # [key, start, end, parent index or -1, note]
        self._open = []     # indices of the spans currently open
        self._patches = []  # (owner, attribute, original) to restore

    def _wrap(self, key, fn, note):
        spans, open_, clock = self.spans, self._open, time.perf_counter

        @functools.wraps(fn)
        def traced(*args, **kwargs):
            tag = note(*args, **kwargs) if note is not None else None
            idx = len(spans)
            spans.append([key, clock(), 0.0, open_[-1] if open_ else -1, tag])
            open_.append(idx)
            try:
                return fn(*args, **kwargs)
            finally:
                open_.pop()
                spans[idx][2] = clock()

        return traced

    def install(self, targets):
        modules = _matconc_modules()
        for key, owner, attr, note in targets:
            original = getattr(owner, attr)
            wrapper = self._wrap(key, original, note)
            owners = [owner] + [m for m in modules if m is not owner]
            for obj in owners:
                names = [attr] if obj is owner else \
                    [n for n, v in vars(obj).items() if v is original]
                for name in names:
                    self._patches.append((obj, name, getattr(obj, name)))
                    setattr(obj, name, wrapper)

    def uninstall(self):
        while self._patches:
            obj, name, original = self._patches.pop()
            setattr(obj, name, original)

    @contextlib.contextmanager
    def op_span(self, label):
        """Root span of one benchmark op."""
        idx = len(self.spans)
        self.spans.append(["op", time.perf_counter(), 0.0, -1, label])
        self._open.append(idx)
        try:
            yield
        finally:
            self._open.pop()
            self.spans[idx][2] = time.perf_counter()

    def summary(self):
        """key -> {"calls", "total_s", "self_s"}; self time excludes child spans."""
        child = [0.0] * len(self.spans)
        for key, start, end, parent, _ in self.spans:
            if parent >= 0:
                child[parent] += end - start
        out = {}
        for idx, (key, start, end, _, _) in enumerate(self.spans):
            rec = out.setdefault(key, {"calls": 0, "total_s": 0.0, "self_s": 0.0})
            rec["calls"] += 1
            rec["total_s"] += end - start
            rec["self_s"] += end - start - child[idx]
        return out

    def durations(self, key, note):
        """Inclusive durations of the spans of ``key`` recorded with ``note``."""
        return [end - start for k, start, end, _, tag in self.spans
                if k == key and tag == note]

    def write(self, path):
        keys = sorted({s[0] for s in self.spans})
        index = {k: i for i, k in enumerate(keys)}
        with open(path, "w") as fh:
            json.dump({"keys": keys,
                       "spans": [[index[k], s, e, p, t] for k, s, e, p, t in self.spans]}, fh)
            fh.write("\n")
