"""Command-line front end: deterministic orchestration and CSV/JSON reports.

Exit codes: 0 success, 1 inequality violation or counterexample candidate,
2 a refused input (a ValueError, OSError or MemoryError: a usage or config
error, a non-Hermitian input matrix, a model above its enumeration cap, a
dobrushin kmax outside [0, MAX_POINTS], a request too large for memory), 3 a
numerical failure (an ArithmeticError or LinAlgError: an eigensolver failure,
a spectral function undefined or overflowing at an eigenvalue, an overflowed
or underflowed draw, an overflowed variance sigma^2).  Every command writes a
run manifest next to its outputs; data files themselves carry no timestamps,
so reruns with the same config and seed are byte-identical.
"""

from __future__ import annotations

import argparse
import csv
import functools
import glob
import hashlib
import io
import json
import math
import os
import sys
import time

import numpy as np

from . import __version__
from .bounds import (
    display_clamp,
    dobrushin_constant,
    tail_bound_dependent,
    tail_bound_independent,
    tropp_bound,
)
from .conjectures import catalog_entry, counterexample_search, save_search_result
from .coupling import (
    RademacherSumObservable,
    TableObservable,
    exhaustive_tail,
    mc_tail_estimate,
)
from .dobrushin import (
    DEFAULT_ENUM_CAP,
    DiscreteModel,
    EnumerationCapError,
    b_matrix,
    b_power_column,
    dobrushin_matrix,
    load_model,
    matrix_norms,
    model_from_obj,
    norm_recursion_check,
)
from .hermitian import (
    ENSEMBLE_KINDS,
    FORMAT_VERSION,
    STREAM_VERSION,
    EnsembleSpec,
    _integer,
    _is_real,
    _object,
    _write_bytes,
    _write_json,
    matrix_from_obj,
    sample_ensemble,
)
from .traceineq import INEQUALITY_IDS, fuzz_grid, save_fuzz_summary

EXIT_OK = 0
EXIT_VIOLATION = 1
EXIT_USAGE = 2
EXIT_NUMERICAL = 3
MAX_POINTS = 1_000_000  # points in one "start:stop:step" grid or "lo..hi" range, and largest kmax


def _fmt(x) -> str:
    return format(float(x), ".17g")


def _number(name: str, value) -> float:
    """A config number (a JSON int or float, not a bool), as a float."""
    if not _is_real(value):
        raise ValueError(f"{name} must be a number, got {value!r}")
    return float(value)


def _string(name: str, value) -> str:
    if not isinstance(value, str):
        raise ValueError(f"{name} must be a string, got {value!r}")
    return value


def _optional(reader):
    """``reader`` for a setting that may be null (absent)."""
    return lambda name, value: None if value is None else reader(name, value)


def _choice(*options):
    """A reader that accepts only one of ``options``."""
    def read(name, value):
        if value not in options:
            raise ValueError(f"{name} must be one of {', '.join(options)}, got {value!r}")
        return value
    return read


def _parse_range(name: str, value) -> list[int]:
    """Parse "1..8", a comma list or a list of integers into an integer list."""
    if isinstance(value, list):
        return [_integer(name, v) for v in value]
    if not isinstance(value, str):
        raise ValueError(f"{name} must be a range, a comma list or a list of integers, "
                         f"got {value!r}")
    if ".." in value:
        lo, hi = (int(tok) for tok in value.split("..", 1))
        if hi - lo + 1 > MAX_POINTS:
            raise ValueError(f"{name} {value!r} has more than {MAX_POINTS} points")
        return list(range(lo, hi + 1))
    return [int(tok) for tok in value.split(",") if tok]


def _kmax(name: str, value) -> int:
    """An integer in [0, MAX_POINTS], refused before any model is built."""
    k = _integer(name, value)
    if not 0 <= k <= MAX_POINTS:
        raise ValueError(f"{name} must lie in [0, {MAX_POINTS}], got {k}")
    return k


def _names(name: str, value) -> list[str]:
    """A comma list or a nonempty list of strings, as a list of strings."""
    if isinstance(value, str):
        return value.split(",")
    if not (isinstance(value, list) and value and all(isinstance(v, str) for v in value)):
        raise ValueError(f"{name} must be a comma list or a nonempty list of strings, "
                         f"got {value!r}")
    return value


def _inequality_ids(name: str, value) -> list[str]:
    """:func:`_names`, each one an id of ``INEQUALITY_IDS``: an unknown id is
    refused before any inequality is fuzzed."""
    ids = _names(name, value)
    for i in ids:
        if i not in INEQUALITY_IDS:
            raise ValueError(f"unknown inequality id {i!r}")
    return ids


def _grid(name: str, value) -> list[float]:
    """A nonempty grid of finite floats >= 0 from "start:stop:step" (finite,
    start <= stop, step > 0), a comma list or a list of numbers."""
    if isinstance(value, list):
        grid = [_number(name, v) for v in value]
    elif not isinstance(value, str):
        raise ValueError(f"{name} must be a grid string or a list of numbers, got {value!r}")
    elif ":" in value:
        start, stop, step = (float(tok) for tok in value.split(":"))
        if not (all(map(math.isfinite, (start, stop, step))) and start <= stop and step > 0):
            raise ValueError(f"grid {value!r} needs finite start <= stop and step > 0")
        steps = (stop - start) / step  # +inf once the span or the quotient overflows
        # no point past stop, beyond the rounding of the quotient
        points = math.floor(steps + 1e-9) + 1 if math.isfinite(steps) else math.inf
        if points > MAX_POINTS:
            raise ValueError(f"{name} {value!r} has more than {MAX_POINTS} points")
        grid = [start + k * step for k in range(points)]
    else:
        grid = [float(tok) for tok in value.split(",") if tok]
    if not grid:
        raise ValueError(f"{name} is empty")
    if not all(math.isfinite(t) and t >= 0 for t in grid):
        raise ValueError(f"grid {value!r} needs finite points >= 0")
    return grid


def _tail_grid(name: str, value):
    """An mc-tail grid: a :func:`_grid`, or {"sigma_multiples": grid}."""
    if isinstance(value, dict):
        _object(name, value, ("sigma_multiples",))
        return {"sigma_multiples": _grid("sigma_multiples", value["sigma_multiples"])}
    return _grid(name, value)


def _settings(args) -> dict:
    """Every setting in the command's table ``args.fields`` (name -> reader or
    None), taken from the ``--config`` object when it holds the key and from
    the flag or default (None without one) of the same name otherwise, through
    its reader.  A config key outside the table is refused."""
    config = {}
    if args.config is not None:
        try:
            with open(args.config) as fh:
                config = json.load(fh)
        except (OSError, json.JSONDecodeError) as exc:
            raise ValueError(f"cannot read config {args.config}: {exc}") from exc
        _object(f"config {args.config}", config, (), args.fields)
    settings = {}
    for name, reader in args.fields.items():
        value = config[name] if name in config else getattr(args, name, None)
        settings[name] = value if reader is None else reader(name, value)
    return settings


def _write_manifest(out_path: str, command: str, config: dict, seed):
    digest = hashlib.sha256(json.dumps(config, sort_keys=True, default=str).encode())
    manifest = {"command": command, "config_digest": digest.hexdigest()[:16], "seed": seed,
                "stream_version": STREAM_VERSION, "format_version": FORMAT_VERSION,
                "version": __version__,
                "created_utc": time.strftime("%Y-%m-%dT%H:%M:%SZ", time.gmtime())}
    _write_json(out_path + ".manifest.json", manifest)


def _write_csv(path: str, header: list[str], rows: list[list[str]]):
    buf = io.StringIO()
    writer = csv.writer(buf, lineterminator="\n")
    writer.writerow(header)
    writer.writerows(rows)
    _write_bytes(path, buf.getvalue().encode())


def _bound_cells(d: int, sigma_sq: float, c, t: float, clamp=lambda x: x) -> list[str]:
    """bound_independent, bound_dependent (blank without c) and tropp at t for
    the difference-bound sigma^2 = |sum A_k^2|."""
    dep = "" if c is None else _fmt(clamp(tail_bound_dependent(d, sigma_sq, float(c), t)))
    return [_fmt(clamp(tail_bound_independent(d, sigma_sq, t))), dep,
            _fmt(clamp(tropp_bound(d, sigma_sq, t)))]


def _model_from_spec(spec, enum_cap=DEFAULT_ENUM_CAP, check_sites=None):
    """Model from a file name, or an object holding exactly one of a ``file``
    name, a ``rademacher_sites`` count (uniform +-1 sites) or a model.

    ``enum_cap=None`` is for runs that only sample: a ``rademacher_sites``
    model then has no cap, and any other model has DEFAULT_ENUM_CAP.
    ``check_sites`` is called with a ``rademacher_sites`` count after the cap
    check: both refuse before any allocation.
    """
    kwargs = {} if enum_cap is None else {"enum_cap": enum_cap}
    if isinstance(spec, str):
        return load_model(spec, **kwargs)
    if not isinstance(spec, dict):
        raise ValueError(f"model must be a file name or an object, got {spec!r}")
    if "file" in spec:
        _object("model", spec, ("file",))
        return load_model(_string("model file", spec["file"]), **kwargs)
    if "rademacher_sites" in spec:
        _object("model", spec, ("rademacher_sites",))
        n = _integer("rademacher_sites", spec["rademacher_sites"])
        if enum_cap is not None and n >= max(enum_cap, 1).bit_length():  # 2**n > enum_cap
            raise EnumerationCapError(f"product space has 2**{n} states, above cap {enum_cap}")
        if check_sites is not None:
            check_sites(n)
        if enum_cap is None:
            enum_cap = max(2 ** n, DEFAULT_ENUM_CAP)
        return DiscreteModel.from_product([(-1.0, 1.0)] * n, [[0.5, 0.5]] * n,
                                          enum_cap=enum_cap)
    return model_from_obj(spec, **kwargs)


# ---------------------------------------------------------------------------
# Subcommands

def cmd_verify_traces(args, settings) -> int:
    if settings["trials"] < 1:
        raise ValueError("trials must be >= 1")
    out_dir = args.out or "verify-traces-out"
    os.makedirs(out_dir, exist_ok=True)

    total_violations = 0
    for ineq in settings["inequalities"]:
        summary = fuzz_grid(ineq, settings["kinds"], settings["dims"], settings["trials"],
                            settings["scale"], args.seed, os.path.join(out_dir, "witnesses"))
        save_fuzz_summary(os.path.join(out_dir, f"fuzz-{ineq}.json"), summary)
        total_violations += summary.violations
        print(f"{ineq}: trials={summary.trials} min_gap={summary.min_gap:.3e} "
              f"violations={summary.violations}")
    _write_manifest(os.path.join(out_dir, "run"), "verify-traces", settings, args.seed)
    return EXIT_VIOLATION if total_violations else EXIT_OK


def cmd_bound(args, settings) -> int:
    model, c = settings.pop("model"), settings["c"]
    sources = [name for name, given in (
        ("c", c is not None), ("model", model is not None),
        ("--norm1/--norm-inf", args.norm1 is not None or args.norm_inf is not None)) if given]
    if len(sources) > 1:
        raise ValueError(f"c comes from one source, got {' and '.join(sources)}")
    if model is not None:
        D = dobrushin_matrix(_model_from_spec(model))
        c = dobrushin_constant(*matrix_norms(D))   # raises on norms >= 1
    elif args.norm1 is not None or args.norm_inf is not None:
        if args.norm1 is None or args.norm_inf is None:
            raise ValueError("provide both --norm1 and --norm-inf")
        c = dobrushin_constant(args.norm1, args.norm_inf)
    clamp = display_clamp if args.clamp else (lambda x: x)

    rows = [[_fmt(t), *_bound_cells(settings["d"], settings["sigma_sq"], c, t, clamp)]
            for t in settings["t_grid"]]
    out = args.out or "bounds.csv"
    _write_csv(out, ["t", "bound_independent", "bound_dependent", "tropp"], rows)
    _write_manifest(out, "bound", {**settings, "c": c, "clamp": bool(args.clamp)}, None)
    print(f"wrote {out} ({len(rows)} rows)")
    return EXIT_OK


def _observable_from_config(obs):
    _object("observable", obs, (), ("kind", "dim", "entries", "matrices", "generate"))
    kind = obs.get("kind", "rademacher-sum")
    if kind == "table":
        _object("table observable", obs, ("kind", "dim", "entries"))
        if not isinstance(obs["entries"], list):
            raise ValueError(f"observable entries must be a list, got {obs['entries']!r}")
        mapping = {}
        for k, e in enumerate(obs["entries"]):
            _object(f"observable entry {k}", e, ("values", "matrix"))
            if not (isinstance(e["values"], list) and all(map(_is_real, e["values"]))):
                raise ValueError(f"observable entry {k}: values must be a list of numbers, "
                                 f"got {e['values']!r}")
            mapping[tuple(e["values"])] = matrix_from_obj(e["matrix"]).mat
        return TableObservable(mapping, _integer("observable dim", obs["dim"]))
    if kind != "rademacher-sum":
        raise ValueError(f"unsupported observable kind {kind!r}")
    _object("rademacher-sum observable", obs, (), ("kind", "matrices", "generate"))
    if ("matrices" in obs) == ("generate" in obs):
        raise ValueError("observable needs exactly one of 'matrices' or 'generate'")
    if "matrices" in obs:
        if not isinstance(obs["matrices"], list):
            raise ValueError(f"observable matrices must be a list, got {obs['matrices']!r}")
        return RademacherSumObservable([matrix_from_obj(o) for o in obs["matrices"]])
    g = _object("observable generate", obs["generate"], ("count", "dim", "seed"),
                ("kind", "scale"))
    mats = []
    for k in range(_integer("count", g["count"])):
        spec = EnsembleSpec(g.get("kind", "gaussian-hermitian"), g["dim"],
                            _number("scale", g.get("scale", 1.0)), _integer("seed", g["seed"]) + k)
        out = sample_ensemble(spec)
        mats.append(out[0] if isinstance(out, tuple) else out)
    return RademacherSumObservable(mats)


def cmd_mc_tail(args, settings) -> int:
    if args.config is None:
        raise ValueError("mc-tail requires --config")
    observable = _observable_from_config(settings["observable"])
    cap = settings["enum_cap"]
    # exhaustive tails and derived difference bounds enumerate every state
    if cap is None and (settings["mode"] == "exhaustive"
                        or not isinstance(observable, RademacherSumObservable)):
        cap = DEFAULT_ENUM_CAP
    sites = observable._check_sites if isinstance(observable, RademacherSumObservable) else None
    model = _model_from_spec(settings["model"], enum_cap=cap, check_sites=sites)
    bound_set = observable.hamming_bounds(model)

    t_grid = settings["t_grid"]
    if isinstance(t_grid, dict):
        sigma = (bound_set.sigma_sq / 4.0) ** 0.5  # of the centered summands
        t_grid = [m * sigma for m in t_grid["sigma_multiples"]]
    if settings["mode"] == "exhaustive":
        est = exhaustive_tail(model, observable, t_grid)
    else:
        est = mc_tail_estimate(model, observable, t_grid, settings["samples"], settings["seed"])
    rows = [[_fmt(t), *_bound_cells(observable.dim, bound_set.sigma_sq, settings["c"], t),
             _fmt(e), _fmt(lo), _fmt(hi)]
            for t, e, lo, hi in zip(est.t_grid, est.empirical, est.ci_low, est.ci_high)]
    out = args.out or "mc-tail.csv"
    _write_csv(out, ["t", "bound_independent", "bound_dependent", "tropp",
                     "empirical_tail", "ci_low", "ci_high"], rows)
    _write_manifest(out, "mc-tail", settings, settings["seed"])
    print(f"wrote {out} ({len(rows)} rows, mean source: {est.mean_source})")
    return EXIT_OK


def cmd_dobrushin(args, settings) -> int:
    if settings["model"] is None:
        raise ValueError("dobrushin requires --model or a config with one")
    model, kmax = _model_from_spec(settings["model"]), settings["kmax"]
    D = dobrushin_matrix(model)
    n1, ninf = matrix_norms(D)
    report = {"n": model.n, "entries": D.entries.tolist(), "norm1": n1, "norm_inf": ninf}
    if max(n1, ninf) < 1.0:
        report["c"] = dobrushin_constant(n1, ninf)
        B = b_matrix(D, model.n)
        report["b_matrix"] = B.entries.tolist()
        cols = {}
        for j in range(model.n):
            col = b_power_column(B, kmax, j)
            cols[str(j)] = {"vector": col.vector.tolist(), "norm1": col.norm1,
                            "norm1_bound": col.norm1_bound}
        report["b_power_columns"] = {"k": kmax, "columns": cols}
        rec = norm_recursion_check(D, model.n, kmax)
        report["norm_recursion"] = {
            "partial_sum": rec.partial_sum, "limit": rec.limit,
            "tail_bound_1": rec.tail_bound_1, "tail_bound_inf": rec.tail_bound_inf,
        }
    else:
        report["c"] = None
        report["note"] = "interdependence norms >= 1; weak-dependence bound inapplicable"
    out = args.out or "dobrushin.json"
    _write_json(out, report)
    _write_manifest(out, "dobrushin", {**settings, "model": str(settings["model"])}, None)
    print(f"wrote {out} (norm1={n1:.6f}, norm_inf={ninf:.6f}, c={report['c']})")
    return EXIT_OK


def cmd_conjecture(args, settings) -> int:
    entry = None if settings["entry"] is None else catalog_entry(settings["entry"])
    result = counterexample_search(settings["ineq"], settings["dims"], settings["budget"],
                                   args.seed, scale=settings["scale"], entry=entry)
    out = args.out or "conjecture-result.json"
    save_search_result(out, result)
    _write_manifest(out, "conjecture", {**settings, "entry": getattr(entry, "name", None)},
                    args.seed)
    print(f"{result.inequality_id}: verdict={result.verdict} "
          f"best_gap={result.best_gap:.6e} certified_error={result.certified_error:.3e}")
    return EXIT_VIOLATION if result.verdict == "counterexample-candidate" else EXIT_OK


def _artifact(where: str, obj: dict, **fields) -> dict:
    """The fields (name -> reader) that ``report`` prints from a recognised
    artifact, each through its reader; a missing or malformed field is an
    error naming ``where`` (the kind and file) and the field."""
    _object(where, obj, tuple(fields), obj)
    try:
        return {name: read(name, obj[name]) for name, read in fields.items()}
    except ValueError as exc:
        raise ValueError(f"{where}: {exc}") from None


def _has_manifest(path: str) -> bool:
    """Whether a matconc command wrote ``path`` beside its manifest: a search
    result or dobrushin report (``<path>.manifest.json``) or a fuzz summary
    (``fuzz-*.json`` beside verify-traces' ``run.manifest.json``)."""
    head, name = os.path.split(path)
    return (os.path.isfile(path + ".manifest.json")
            or name.startswith("fuzz-") and os.path.isfile(os.path.join(head, "run.manifest.json")))


def cmd_report(args, settings) -> int:
    in_dir = args.inputs or "."
    findings = []
    bad = 0
    for path in sorted(glob.glob(os.path.join(in_dir, "**", "*.json"), recursive=True)):
        if path.endswith(".manifest.json"):
            continue
        try:
            with open(path) as fh:
                obj = json.load(fh)
        except (OSError, json.JSONDecodeError) as exc:
            if _has_manifest(path):  # a data file cut short, say; other files are not ours
                raise ValueError(f"cannot read {path}: {exc}") from None
            continue
        if not isinstance(obj, dict):
            continue
        if "violations" in obj and "inequality_id" in obj:
            f = _artifact(f"fuzz summary {path}", obj, inequality_id=_string,
                          trials=_integer, violations=_integer, min_gap=_number)
            findings.append(f"fuzz {f['inequality_id']}: trials={f['trials']} "
                            f"violations={f['violations']} min_gap={f['min_gap']:.3e}")
            bad += int(f["violations"] > 0)
        elif "verdict" in obj and "inequality_id" in obj:
            f = _artifact(f"search result {path}", obj, inequality_id=_string,
                          verdict=_string, best_gap=_number)
            findings.append(f"search {f['inequality_id']}: verdict={f['verdict']} "
                            f"best_gap={f['best_gap']:.3e}")
            bad += int(f["verdict"] == "counterexample-candidate")
        elif "norm1" in obj and "entries" in obj:
            f = _artifact(f"dobrushin report {path}", obj, n=_integer, norm1=_number)
            findings.append(f"dobrushin report: n={f['n']} norm1={f['norm1']:.6f} "
                            f"c={obj.get('c')}")
    for line in findings:
        print(line)
    if not findings:
        print("no recognized artifacts found")
    if args.out:
        _write_json(args.out, {"findings": findings, "flagged": bad})
    return EXIT_VIOLATION if bad else EXIT_OK


# ---------------------------------------------------------------------------

@functools.cache
def _build_parser() -> argparse.ArgumentParser:
    """The argument parser, built once per process (parsing leaves it unchanged)."""
    shared = argparse.ArgumentParser(add_help=False)
    shared.add_argument("--out", type=str, default=None)
    shared.add_argument("--config", type=str, default=None)
    drawing = argparse.ArgumentParser(add_help=False)  # the commands that draw random numbers
    drawing.add_argument("--seed", type=int, default=0)

    parser = argparse.ArgumentParser(prog="matconc", description=__doc__)
    sub = parser.add_subparsers(dest="command", required=True)

    p = sub.add_parser("verify-traces", parents=[shared, drawing],
                       help="fuzz every proven trace inequality")
    p.add_argument("--trials", type=int, default=10000)
    p.add_argument("--dims", type=str, default="1..8")
    p.add_argument("--kinds", type=str, default=",".join(ENSEMBLE_KINDS))
    p.add_argument("--ineqs", dest="inequalities", type=str, default=",".join(INEQUALITY_IDS))
    p.add_argument("--scale", type=float, default=1.0)
    p.set_defaults(func=cmd_verify_traces,
                   fields={"trials": _integer, "dims": _parse_range, "kinds": _names,
                           "inequalities": _inequality_ids, "scale": _number})

    p = sub.add_parser("bound", parents=[shared], help="tabulate closed-form tail bounds")
    p.add_argument("--d", type=int, default=2)
    p.add_argument("--sigma-sq", dest="sigma_sq", type=float, default=1.0)
    p.add_argument("--c", type=float, default=None)
    p.add_argument("--norm1", type=float, default=None)
    p.add_argument("--norm-inf", dest="norm_inf", type=float, default=None)
    p.add_argument("--model", type=str, default=None)
    p.add_argument("--t", dest="t_grid", type=str, default="0:3:0.25")
    p.add_argument("--clamp", action="store_true",
                   help="clamp bounds to 1 for probability display")
    p.set_defaults(func=cmd_bound,
                   fields={"d": _integer, "sigma_sq": _number, "t_grid": _grid,
                           "c": _optional(_number), "model": None})

    p = sub.add_parser("mc-tail", parents=[shared, drawing],
                       help="empirical tail versus bounds (config-driven)")
    p.set_defaults(func=cmd_mc_tail, samples=10000, mode="mc",
                   t_grid={"sigma_multiples": [0.25 * k for k in range(13)]},
                   fields={"model": None, "enum_cap": _optional(_integer), "observable": None,
                           "samples": _integer, "seed": _integer,
                           "mode": _choice("mc", "exhaustive"), "t_grid": _tail_grid,
                           "c": _optional(_number)})

    p = sub.add_parser("dobrushin", parents=[shared],
                       help="interdependence matrix, norms, and contraction report")
    p.add_argument("--model", type=str, default=None)
    p.add_argument("--kmax", type=int, default=20)
    p.set_defaults(func=cmd_dobrushin, fields={"model": None, "kmax": _kmax})

    p = sub.add_parser("conjecture", parents=[shared, drawing], help="counterexample search")
    p.add_argument("--ineq", type=str, default="expconj")
    p.add_argument("--entry", type=str, default=None)
    p.add_argument("--dims", type=str, default="2..6")
    p.add_argument("--budget", type=int, default=10000)
    p.set_defaults(func=cmd_conjecture, scale=1.0,
                   fields={"ineq": _choice("expconj", "fconj"), "entry": None,
                           "dims": _parse_range, "budget": _integer, "scale": _number})

    p = sub.add_parser("report", parents=[shared], help="summarize emitted artifacts")
    p.add_argument("--inputs", type=str, default=".")
    p.set_defaults(func=cmd_report, fields={})
    return parser


def main(argv=None) -> int:
    parser = _build_parser()
    try:
        args = parser.parse_args(argv)
    except SystemExit as exc:
        return EXIT_USAGE if exc.code not in (0, None) else 0
    try:
        settings = _settings(args)
        if os.path.dirname(args.out or ""):  # refuse an unwritable --out before any work
            os.makedirs(os.path.dirname(args.out), exist_ok=True)
        return args.func(args, settings)
    except (ArithmeticError, np.linalg.LinAlgError) as exc:  # LinAlgError is a ValueError
        print(f"numerical failure: {exc}", file=sys.stderr)
        return EXIT_NUMERICAL
    except (ValueError, OSError) as exc:
        print(f"error: {exc}", file=sys.stderr)
        return EXIT_USAGE
    except MemoryError as exc:  # numpy refuses an allocation before touching memory
        print(f"error: out of memory: {exc}", file=sys.stderr)
        return EXIT_USAGE


if __name__ == "__main__":
    sys.exit(main())
