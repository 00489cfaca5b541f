import csv
import importlib
import inspect
import itertools
import json
import math
import os
import pkgutil
import subprocess
import sys
import warnings

import numpy as np
import pytest

import matconc
from matconc.cli import MAX_POINTS, _grid, _parse_range, _write_csv, main
from matconc.bounds import dobrushin_constant
from matconc.dobrushin import DiscreteModel, dobrushin_matrix, matrix_norms, save_model
from matconc.hermitian import EnsembleSpec, matrix_to_obj, sample_ensemble
from oracles import old_write_csv


IDENTITY = {"dim": 2, "entries": [[[1.0, 0.0], [0.0, 0.0]], [[0.0, 0.0], [1.0, 0.0]]]}
ONE = {"dim": 1, "entries": [[[1.0, 0.0]]]}


def run(argv):
    return main([str(a) for a in argv])


def read_csv(path):
    with open(path) as fh:
        return list(csv.reader(fh))


def config_digest(out):
    with open(f"{out}.manifest.json") as fh:
        return json.load(fh)["config_digest"]


def data_files(root):
    out = {}
    for dirpath, _, names in os.walk(root):
        for name in sorted(names):
            if name.endswith(".manifest.json"):
                continue
            path = os.path.join(dirpath, name)
            with open(path, "rb") as fh:
                out[os.path.relpath(path, root)] = fh.read()
    return out


@pytest.fixture
def ising_model_file(tmp_path):
    path = tmp_path / "ising2.json"
    save_model(path, DiscreteModel.from_ising([[0.0, 0.25], [0.25, 0.0]]))
    return path


def test_csv_bytes_equal_the_old_writer(tmp_path):
    header = ["t", "bound_independent", "bound_dependent", "tropp"]
    tables = [[["0", "1", "", "2"], ["0.25", '"quoted"', "a,b", "line\nbreak"]] * 3,
              [["1.5", "0.036631277777468357", "", "2"]]]  # the rewrite is shorter
    new, old = tmp_path / "new.csv", tmp_path / "old.csv"
    for rows in tables:
        _write_csv(new, header, rows)
        old_write_csv(old, header, rows)
        assert new.read_bytes() == old.read_bytes()


class TestBoundCommand:
    def test_example_row_clamped(self, tmp_path):
        out = tmp_path / "b.csv"
        assert run(["bound", "--d", 2, "--sigma-sq", 1, "--t", "0,2",
                    "--clamp", "--out", out]) == 0
        rows = read_csv(out)
        assert rows[0] == ["t", "bound_independent", "bound_dependent", "tropp"]
        t0, t2 = rows[1], rows[2]
        assert float(t0[1]) == 1.0           # all bounds = d, clamped to 1
        assert float(t2[1]) == pytest.approx(0.0366313, abs=1e-7)
        assert t2[2] == ""                   # no dependence constant supplied
        assert float(t2[3]) == 1.0           # tropp clamped for display

    def test_unclamped_by_default(self, tmp_path):
        out = tmp_path / "b.csv"
        assert run(["bound", "--d", 2, "--sigma-sq", 1, "--t", "2", "--out", out]) == 0
        rows = read_csv(out)
        assert float(rows[1][3]) == pytest.approx(2 * math.exp(-0.5), rel=1e-12)

    def test_dependent_column_from_norms(self, tmp_path):
        out = tmp_path / "b.csv"
        assert run(["bound", "--d", 2, "--sigma-sq", 1, "--t", "2",
                    "--norm1", 0.5, "--norm-inf", 0.5, "--out", out]) == 0
        rows = read_csv(out)
        assert float(rows[1][2]) == pytest.approx(2 * math.exp(-2), rel=1e-12)

    def test_model_with_bad_norms_is_usage_error(self, tmp_path):
        # interdependence norms >= 1 violate the weak-dependence hypothesis
        model = tmp_path / "strong.json"
        J = 2.0 * (np.ones((4, 4)) - np.eye(4))
        save_model(model, DiscreteModel.from_ising(J))
        out = tmp_path / "b.csv"
        assert run(["bound", "--model", model, "--t", "1", "--out", out]) == 2

    def test_deterministic_output(self, tmp_path):
        o1, o2 = tmp_path / "b1.csv", tmp_path / "b2.csv"
        for o in (o1, o2):
            assert run(["bound", "--d", 3, "--sigma-sq", 2, "--t", "0:3:0.5",
                        "--out", o]) == 0
        assert o1.read_bytes() == o2.read_bytes()

    @pytest.mark.parametrize("grid", ["0:1:0", "0:1:-0.5", "1:0:0.5", "0:inf:1",
                                      pytest.param("", id="empty")])
    def test_bad_grid_is_usage_error(self, tmp_path, capsys, grid):
        # a zero step once divided by zero (exit 3); a negative one wrote an empty table
        out = tmp_path / "b.csv"
        assert run(["bound", "--t", grid, "--out", out]) == 2
        assert capsys.readouterr().err.startswith("error:")
        assert not out.exists()

    @pytest.mark.parametrize("grid", ["0:1:1e-12", "-1e308:1e308:1e-300"])
    def test_grid_above_the_point_cap_is_usage_error(self, tmp_path, capsys, grid):
        # the first once built 10^12 floats (a MemoryError, exit 1), the second
        # failed on int(inf) (exit 3)
        out = tmp_path / "b.csv"
        assert run(["bound", f"--t={grid}", "--out", out]) == 2
        assert "more than 1000000 points" in capsys.readouterr().err
        assert not out.exists()

    def test_grid_stops_at_stop(self, tmp_path):
        # 0:1:0.6 counted round(1 / 0.6) + 1 = 3 points and wrote a row at t = 1.2
        out = tmp_path / "b.csv"
        assert run(["bound", "--t", "0:1:0.6", "--out", out]) == 0
        assert [float(row[0]) for row in read_csv(out)[1:]] == [0.0, 0.6]
        assert len(_grid("t", "0:0.3:0.1")) == len(_grid("t", "0:0.9:0.3")) == 4
        assert _grid("t", "0:3:0.25") == [0.25 * k for k in range(13)]

    def test_point_cap_is_inclusive(self):
        assert len(_grid("t_grid", "0:999999:1")) == MAX_POINTS
        assert len(_parse_range("dims", f"1..{MAX_POINTS}")) == MAX_POINTS
        for read, value in ((_grid, "0:1000000:1"), (_parse_range, f"0..{MAX_POINTS}")):
            with pytest.raises(ValueError, match="more than"):
                read("x", value)

    @pytest.mark.parametrize("argv,named", [
        (["--c", 5, "--model", "MODEL"], "c and model"),
        (["--c", 2, "--norm1", 0.1, "--norm-inf", 0.1], "c and --norm1/--norm-inf"),
        (["--model", "MODEL", "--norm-inf", 0.1], "model and --norm1/--norm-inf"),
        (["--config", "CONFIG", "--norm1", 0.1, "--norm-inf", 0.1], "c and --norm1/--norm-inf"),
    ], ids=["c-model", "c-norms", "model-norms", "config-c-norms"])
    def test_two_sources_of_c_are_usage_error(self, tmp_path, capsys, ising_model_file,
                                              argv, named):
        # --c beside --model or the norms was once ignored without a word
        config = tmp_path / "c.json"
        config.write_text(json.dumps({"c": 5}))
        argv = [{"MODEL": ising_model_file, "CONFIG": config}.get(a, a) for a in argv]
        out = tmp_path / "b.csv"
        assert run(["bound", "--t", "0.25", *argv, "--out", out]) == 2
        assert named in capsys.readouterr().err and not out.exists()

    @pytest.mark.parametrize("args", [["--t", "0,nan,1"], ["--sigma-sq", "nan"],
                                      ["--c", "nan"], ["--norm1", "0.5"]])
    def test_nan_input_is_usage_error(self, tmp_path, capsys, args):
        # each NaN once wrote NaN rows and exited 0; --norm1 needs --norm-inf
        out = tmp_path / "b.csv"
        assert run(["bound", *args, "--out", out]) == 2
        assert capsys.readouterr().err.startswith("error:")
        assert not out.exists()

    def test_manifest_written(self, tmp_path):
        out = tmp_path / "b.csv"
        run(["bound", "--t", "1", "--out", out])
        manifest = json.loads((tmp_path / "b.csv.manifest.json").read_text())
        assert manifest["command"] == "bound"
        assert "config_digest" in manifest
        assert manifest["stream_version"] == 4
        assert manifest["format_version"] == 2
        assert "threads" not in manifest


class TestVerifyTraces:
    def test_small_run_passes(self, tmp_path):
        out = tmp_path / "vt"
        assert run(["verify-traces", "--trials", 40, "--dims", "1..3",
                    "--seed", 5, "--out", out]) == 0
        summaries = sorted(p for p in os.listdir(out) if p.startswith("fuzz-"))
        assert len(summaries) == 8
        obj = json.loads((out / "fuzz-exchangeable.json").read_text())
        assert obj["violations"] == 0
        assert obj["trials"] == 40

    def test_zero_trials_usage_error(self, tmp_path):
        assert run(["verify-traces", "--trials", 0, "--out", tmp_path / "x"]) == 2

    def test_determinism(self, tmp_path):
        o1, o2 = tmp_path / "a", tmp_path / "b"
        for o in (o1, o2):
            assert run(["verify-traces", "--trials", 25, "--dims", "1..2",
                        "--seed", 7, "--out", o]) == 0
        assert data_files(o1) == data_files(o2)

    def test_overflow_mid_computation_exits_3(self, tmp_path, capsys):
        # exp of an eigenvalue near 3000 overflows: a numerical failure, not a usage error
        assert run(["verify-traces", "--ineqs", "exchangeable", "--scale", 1000,
                    "--trials", 3, "--dims", 4, "--out", tmp_path / "vt"]) == 3
        err = capsys.readouterr().err
        assert err.startswith("numerical failure:") and "eigenvalue" in err

    def test_overflowing_traces_exit_3(self, tmp_path, capsys):
        out = tmp_path / "vt"
        assert run(["verify-traces", "--ineqs", "trace_quad", "--kinds", "diagonal",
                    "--scale", 1e80, "--trials", 20, "--dims", 2, "--out", out]) == 3
        err = capsys.readouterr().err
        assert err.startswith("numerical failure:") and "not finite" in err
        assert not (out / "fuzz-trace_quad.json").exists()

    @pytest.mark.parametrize("kind,dim", [("psd", 3), ("gaussian-hermitian", 3),
                                          ("low-rank", 2), ("commuting-pair", 3)])
    def test_overflowing_draw_exits_3(self, tmp_path, capsys, kind, dim):
        # a finite scale whose draw overflows was reported as a non-Hermitian input (exit
        # 2), after numpy's RuntimeWarnings; integer-entry refuses the draw itself
        out = tmp_path / "vt"
        assert run(["verify-traces", "--kinds", kind, "--dims", dim, "--ineqs", "psd_cross",
                    "--scale", 1e308, "--out", out]) == 3
        err = capsys.readouterr().err
        assert err == f"numerical failure: {kind} draw at scale 1e+308 is not finite\n"
        assert not (out / "fuzz-psd_cross.json").exists()

    def test_range_above_the_point_cap_exits_2(self, tmp_path, capsys):
        # once built a list of 10^12 ints (a MemoryError, exit 1)
        out = tmp_path / "v"
        assert run(["verify-traces", "--dims", "1..1000000000000", "--out", out]) == 2
        assert "more than 1000000 points" in capsys.readouterr().err
        assert not out.exists()

    def test_infinite_scale_exits_2(self, tmp_path, capsys):
        assert run(["verify-traces", "--kinds", "psd", "--dims", 3, "--scale", "inf",
                    "--out", tmp_path / "vt"]) == 2
        assert "scale must be finite and > 0, got inf" in capsys.readouterr().err

    def test_separate_processes_write_identical_data(self, tmp_path):
        # every inequality at dims 1..8 plus a conjecture search, each run in
        # two fresh interpreters with different hash seeds
        commands = [["verify-traces", "--trials", "48", "--dims", "1..8", "--seed", "2"],
                    ["conjecture", "--ineq", "fconj", "--entry", "cube", "--dims", "2..4",
                     "--budget", "12", "--seed", "4"]]
        roots = [tmp_path / "a", tmp_path / "b"]
        for hash_seed, root in enumerate(roots):
            env = dict(os.environ, PYTHONHASHSEED=str(hash_seed))
            for k, argv in enumerate(commands):
                out = root / f"run{k}" / ("out.json" if argv[0] == "conjecture" else "out")
                out.parent.mkdir(parents=True)
                subprocess.run([sys.executable, "-m", "matconc.cli", *argv, "--out", str(out)],
                               env=env, check=True, capture_output=True, timeout=300)
        assert data_files(roots[0]) == data_files(roots[1])
        assert len(data_files(roots[0])) == 9

    def test_subset_of_inequalities(self, tmp_path):
        out = tmp_path / "vt"
        assert run(["verify-traces", "--trials", 10, "--dims", "2..2",
                    "--ineqs", "psd_cross,trace_quad", "--out", out]) == 0
        summaries = [p for p in os.listdir(out) if p.startswith("fuzz-")]
        assert len(summaries) == 2

    @pytest.mark.parametrize("ineqs,unknown", [("exchangeable,bogus", "'bogus'"),
                                               ("exchangeable,", "''"),
                                               (["exchangeable", "bogus"], "'bogus'")])
    def test_unknown_inequality_refused_before_any_work(self, tmp_path, capsys, ineqs, unknown):
        # the known ids were fuzzed and written before the unknown one was refused
        out = tmp_path / "vt"
        argv = ["verify-traces", "--trials", 5, "--dims", 2, "--out", out]
        if isinstance(ineqs, list):
            cfg = tmp_path / "cfg.json"
            cfg.write_text(json.dumps({"inequalities": ineqs}))
            argv += ["--config", cfg]
        else:
            argv += ["--ineqs", ineqs]
        assert run(argv) == 2
        assert f"unknown inequality id {unknown}" in capsys.readouterr().err
        assert not (out / "fuzz-exchangeable.json").exists()
        assert not (out / "run.manifest.json").exists()


class TestDobrushinCommand:
    def test_independent_model(self, tmp_path):
        model = tmp_path / "prod.json"
        save_model(model, DiscreteModel.from_product([(0, 1)] * 2, [[0.5, 0.5]] * 2))
        out = tmp_path / "rep.json"
        assert run(["dobrushin", "--model", model, "--out", out]) == 0
        rep = json.loads(out.read_text())
        assert rep["c"] == pytest.approx(1.0)
        assert np.abs(np.asarray(rep["entries"])).max() == 0.0

    def test_ising_report(self, ising_model_file, tmp_path):
        out = tmp_path / "rep.json"
        assert run(["dobrushin", "--model", ising_model_file, "--kmax", 10,
                    "--out", out]) == 0
        rep = json.loads(out.read_text())
        tanh = math.tanh(0.25)
        assert rep["norm1"] == pytest.approx(tanh, abs=1e-12)
        assert rep["c"] == pytest.approx(1.324361, abs=1e-6)
        assert rep["b_matrix"][0][1] == pytest.approx(tanh / 2, abs=1e-12)
        assert rep["b_power_columns"]["k"] == 10

    def test_eleven_site_chain(self, tmp_path):
        # 2048 states: exact D without an all-pairs enumeration
        J = np.zeros((11, 11))
        for i in range(10):
            J[i, i + 1] = J[i + 1, i] = 0.2
        model = tmp_path / "chain11.json"
        save_model(model, DiscreteModel.from_ising(J))
        out = tmp_path / "rep.json"
        assert run(["dobrushin", "--model", model, "--out", out]) == 0
        D = np.asarray(json.loads(out.read_text())["entries"])
        assert D[0, 1] == pytest.approx(math.tanh(0.2), abs=1e-12)
        assert D[5, 4] == pytest.approx(math.tanh(0.4) / 2, abs=1e-12)

    @pytest.mark.parametrize("coupling", [[[0, 0], [0.9, 0]], [[0, 0.9], [-0.9, 0]],
                                          [[0.5, 0.9], [0.9, 0]]])
    def test_ising_coupling_contract_usage_error(self, tmp_path, capsys, coupling):
        # a lower triangle or diagonal the weight would drop is refused, not ignored
        model = {"alphabets": [[-1, 1], [-1, 1]], "weight": {"kind": "ising", "coupling": coupling}}
        cfg, path, out = tmp_path / "cfg.json", tmp_path / "model.json", tmp_path / "rep.json"
        cfg.write_text(json.dumps({"model": model}))
        path.write_text(json.dumps(model))
        for argv in (["--config", cfg], ["--model", path]):
            assert run(["dobrushin", *argv, "--out", out]) == 2
            assert "coupling must" in capsys.readouterr().err and not out.exists()

    def test_infinite_weight_exits_2_without_a_warning(self, tmp_path, capsys):
        # once RuntimeWarnings and then the wrong reason ("entries must be finite");
        # mc-tail said numpy's "Probabilities contain NaN"
        model = tmp_path / "inf.json"
        model.write_text('{"alphabets": [[0, 1]], '
                         '"weight": {"kind": "table", "values": [Infinity, 1]}}')
        config = tmp_path / "mc.json"
        config.write_text(json.dumps({"model": {"file": str(model)}, "observable": {
            "generate": {"count": 1, "dim": 2, "seed": 1}}}))
        for argv in (["dobrushin", "--model", model], ["mc-tail", "--config", config]):
            assert run([*argv, "--out", tmp_path / "out"]) == 2
            assert "strictly positive with a finite sum" in capsys.readouterr().err

    @pytest.mark.parametrize("weight, match", [
        ({"kind": "table", "values": [1e-300, 1e300]}, "table weights span too wide a range"),
        ({"kind": "ising", "coupling": [[0, 400], [400, 0]]},
         "coupling and field span an energy range of 800"),
    ], ids=["table", "ising"])
    def test_underflowing_share_exits_2_without_a_warning(self, tmp_path, capsys, weight, match):
        # the table once ran with the pmf [0, 1], the ising model was refused as
        # though a weight were not strictly positive
        model = tmp_path / "model.json"
        model.write_text(json.dumps({"alphabets": [[-1, 1]] * (1 if weight["kind"] == "table"
                                                               else 2), "weight": weight}))
        out = tmp_path / "rep.json"
        with warnings.catch_warnings():
            warnings.simplefilter("error", RuntimeWarning)
            assert run(["dobrushin", "--model", model, "--out", out]) == 2
        assert match in capsys.readouterr().err and not out.exists()

    def test_missing_model_usage_error(self, tmp_path):
        assert run(["dobrushin", "--out", tmp_path / "rep.json"]) == 2

    def test_norms_at_least_one(self, tmp_path, capsys):
        # the complete 4-site Ising model with J = 2: norm1 = norm_inf = 3 tanh(2) > 1
        model, out = tmp_path / "strong.json", tmp_path / "rep" / "dobrushin.json"
        save_model(model, DiscreteModel.from_ising(2.0 * (np.ones((4, 4)) - np.eye(4))))
        out.parent.mkdir()
        assert run(["dobrushin", "--model", model, "--out", out]) == 0
        rep = json.loads(out.read_text())
        assert rep["norm1"] == rep["norm_inf"] == pytest.approx(3 * math.tanh(2.0), abs=1e-12)
        assert rep["c"] is None
        assert rep["note"] == "interdependence norms >= 1; weak-dependence bound inapplicable"
        assert not {"b_matrix", "b_power_columns", "norm_recursion"} & set(rep)
        capsys.readouterr()
        assert run(["report", "--inputs", out.parent]) == 0
        assert capsys.readouterr().out == "dobrushin report: n=4 norm1=2.892083 c=None\n"
        assert run(["bound", "--model", model, "--out", tmp_path / "b.csv"]) == 2
        assert "hypothesis violated" in capsys.readouterr().err

    def test_manifest_digests_the_kmax_run(self, tmp_path, ising_model_file):
        digests = {}
        for label, kmax in (("k3", 3), ("k20", 20), ("default", None)):
            argv = ["dobrushin", "--model", ising_model_file, "--out", tmp_path / label]
            if kmax is not None:
                cfg = tmp_path / f"{label}.cfg.json"
                cfg.write_text(json.dumps({"kmax": kmax}))
                argv += ["--config", cfg]
            assert run(argv) == 0
            assert json.loads((tmp_path / label).read_text())["b_power_columns"]["k"] == \
                (20 if kmax is None else kmax)
            digests[label] = config_digest(tmp_path / label)
        assert digests["k3"] != digests["k20"] == digests["default"]


# the 4-site Ising model and the (3, 2, 4) mixed table model of the CI's
# determinism step
CI_MODELS = {
    "ising": {"n": 4, "alphabets": [[-1, 1], [-1, 1], [-1, 1], [-1, 1]],
              "weight": {"kind": "ising", "field": [0.1, 0.0, -0.1, 0.05],
                         "coupling": [[0, 0.2, 0, 0.1], [0.2, 0, 0.15, 0],
                                      [0, 0.15, 0, 0.2], [0.1, 0, 0.2, 0]]}},
    "mixed": {"alphabets": [[0, 1, 2], [0, 1], [0, 1, 2, 3]],
              "weight": {"kind": "table",
                         "values": [1.2, 0.9, 1.0, 1.3, 0.8, 1.1, 0.9, 1.2,
                                    1.0, 1.4, 1.1, 0.8, 1.2, 0.9, 1.3, 1.0,
                                    1.3, 1.0, 0.8, 1.2, 1.1, 0.9, 1.2, 1.0]}},
}


@pytest.mark.pinned
@pytest.mark.parametrize("name", sorted(CI_MODELS))
def test_dobrushin_report_bytes_pinned(name, tmp_path, assert_pinned):
    # the bytes of their `dobrushin --kmax 20` reports
    model, out = tmp_path / "model.json", tmp_path / "dobrushin.json"
    model.write_text(json.dumps(CI_MODELS[name]))
    assert run(["dobrushin", "--model", model, "--kmax", 20, "--out", out]) == 0
    assert_pinned(f"dobrushin-report/{name}", out.read_bytes())


class TestMcTailCommand:
    def make_config(self, tmp_path, samples=4000):
        cfg = {
            "model": {"rademacher_sites": 8},
            "observable": {"kind": "rademacher-sum",
                           "generate": {"count": 8, "dim": 2, "seed": 42, "scale": 0.4}},
            "t_grid": {"sigma_multiples": [0.0, 0.5, 1.0, 2.0]},
            "samples": samples,
            "seed": 31,
        }
        path = tmp_path / "mc.json"
        path.write_text(json.dumps(cfg))
        return path

    def test_overflowing_generated_observable_exits_3(self, tmp_path, capsys):
        cfg = tmp_path / "huge.json"
        cfg.write_text(json.dumps({"model": {"rademacher_sites": 2}, "observable": {
            "generate": {"kind": "psd", "count": 2, "dim": 3, "seed": 1, "scale": 1e308}}}))
        out = tmp_path / "mc.csv"
        assert run(["mc-tail", "--config", cfg, "--out", out]) == 3
        assert capsys.readouterr().err == \
            "numerical failure: psd draw at scale 1e+308 is not finite\n"
        assert not out.exists()

    def test_csv_schema_and_domination(self, tmp_path):
        cfg = self.make_config(tmp_path)
        out = tmp_path / "mc.csv"
        assert run(["mc-tail", "--config", cfg, "--out", out]) == 0
        rows = read_csv(out)
        assert rows[0] == ["t", "bound_independent", "bound_dependent", "tropp",
                           "empirical_tail", "ci_low", "ci_high"]
        for row in rows[1:]:
            emp, lo, hi = float(row[4]), float(row[5]), float(row[6])
            independent = float(row[1])
            assert emp <= independent + (hi - lo) / 2

    def test_requires_config(self, tmp_path):
        assert run(["mc-tail", "--out", tmp_path / "x.csv"]) == 2

    def test_determinism(self, tmp_path):
        cfg = self.make_config(tmp_path, samples=1500)
        o1, o2 = tmp_path / "m1.csv", tmp_path / "m2.csv"
        for o in (o1, o2):
            assert run(["mc-tail", "--config", cfg, "--out", o]) == 0
        assert o1.read_bytes() == o2.read_bytes()

    def test_exhaustive_mode(self, tmp_path):
        cfg = {
            "model": {"rademacher_sites": 4},
            "observable": {"kind": "rademacher-sum",
                           "generate": {"count": 4, "dim": 2, "seed": 3, "scale": 0.5}},
            "t_grid": [0.0, 1.0],
            "mode": "exhaustive",
            "seed": 1,
        }
        path = tmp_path / "cfg.json"
        path.write_text(json.dumps(cfg))
        out = tmp_path / "ex.csv"
        assert run(["mc-tail", "--config", path, "--out", out]) == 0
        rows = read_csv(out)
        for row in rows[1:]:
            assert row[4] == row[5] == row[6]  # exact: interval collapses

    @pytest.mark.parametrize("beta", [0.0, 0.2], ids=["independent", "ising"])
    def test_exact_tail_under_every_bound_column(self, tmp_path, beta):
        # oracle: no exact tail may exceed a column labelled a bound; each
        # A_k = diag(1, -0.5) puts the whole tail on one eigenvalue
        n = 12 if beta == 0.0 else 8
        J = np.diag(np.full(n - 1, beta), 1)
        model = DiscreteModel.from_ising(J + J.T)
        save_model(tmp_path / "m.json", model)
        A = {"dim": 2, "entries": [[[1.0, 0.0], [0.0, 0.0]], [[0.0, 0.0], [-0.5, 0.0]]]}
        cfg = {"model": {"file": str(tmp_path / "m.json")},
               "observable": {"kind": "rademacher-sum", "matrices": [A] * n},
               "t_grid": {"sigma_multiples": [0.25 * k for k in range(25)]},
               "mode": "exhaustive",
               "c": dobrushin_constant(*matrix_norms(dobrushin_matrix(model)))}
        path = tmp_path / "cfg.json"
        path.write_text(json.dumps(cfg))
        out = tmp_path / "ex.csv"
        assert run(["mc-tail", "--config", path, "--out", out]) == 0
        rows = read_csv(out)
        for row in rows[1:]:
            for name, bound in zip(rows[0][1:4], row[1:4]):
                assert float(row[4]) <= float(bound), f"{name} at t = {row[0]}"

    def test_model_above_enum_cap_exits_2(self, tmp_path, capsys):
        cfg = {"model": {"rademacher_sites": 3}, "enum_cap": 4,
               "observable": {"kind": "rademacher-sum",
                              "generate": {"count": 3, "dim": 2, "seed": 1}},
               "samples": 100}
        path = tmp_path / "cfg.json"
        path.write_text(json.dumps(cfg))
        assert run(["mc-tail", "--config", path, "--out", tmp_path / "x.csv"]) == 2
        assert capsys.readouterr().err.startswith("error:")

    def sites_config(self, tmp_path, n, mode, **extra):
        cfg = {"model": {"rademacher_sites": n}, "mode": mode, "samples": 2000,
               "observable": {"generate": {"count": 2 if n > 1000 else n, "dim": 2, "seed": 1}},
               **extra}
        path = tmp_path / f"{mode}.json"
        path.write_text(json.dumps(cfg))
        return path

    def test_sampled_tail_past_the_default_cap(self, tmp_path):
        out = tmp_path / "mc.csv"
        assert run(["mc-tail", "--config", self.sites_config(tmp_path, 45, "mc"),
                    "--out", out]) == 0
        assert len(read_csv(out)) == 1 + 13

    @pytest.mark.parametrize("n", [20, 45, 10 ** 12])
    def test_exhaustive_above_the_default_cap_exits_2(self, tmp_path, capsys, n):
        # refused before any per-site list or state array is built
        cfg = self.sites_config(tmp_path, n, "exhaustive")
        assert run(["mc-tail", "--config", cfg, "--out", tmp_path / "x.csv"]) == 2
        assert capsys.readouterr().err == \
            f"error: product space has 2**{n} states, above cap 1000000\n"
        assert not (tmp_path / "x.csv").exists()

    @pytest.mark.parametrize("n", [10 ** 6, 10 ** 12])
    def test_sampled_site_count_other_than_coefficient_count_exits_2(self, tmp_path, capsys,
                                                                      monkeypatch, n):
        # refused before the model is built: 10**12 sites, sampled, ran out of
        # memory building 2**n and the per-site lists (exit 1)
        def refuse(*args, **kwargs):
            raise AssertionError("the model was built")

        monkeypatch.setattr(DiscreteModel, "from_product", refuse)
        cfg = self.sites_config(tmp_path, n, "mc")
        assert run(["mc-tail", "--config", cfg, "--out", tmp_path / "x.csv"]) == 2
        assert capsys.readouterr().err == \
            f"error: observable has 2 coefficient matrices for a {n}-site model\n"
        assert not (tmp_path / "x.csv").exists()

    def test_exhaustive_under_a_configured_cap_runs(self, tmp_path):
        cfg = self.sites_config(tmp_path, 3, "exhaustive", enum_cap=8)
        assert run(["mc-tail", "--config", cfg, "--out", tmp_path / "x.csv"]) == 0
        cfg = self.sites_config(tmp_path, 4, "exhaustive", enum_cap=8)
        assert run(["mc-tail", "--config", cfg, "--out", tmp_path / "y.csv"]) == 2

    def test_table_observable_past_the_default_cap_exits_2(self, tmp_path, capsys):
        # its difference bounds are derived over every state
        cfg = {"model": {"rademacher_sites": 45}, "samples": 10,
               "observable": {"kind": "table", "dim": 1,
                              "entries": [{"values": [1.0] * 45, "matrix": ONE}]}}
        path = tmp_path / "table.json"
        path.write_text(json.dumps(cfg))
        assert run(["mc-tail", "--config", path, "--out", tmp_path / "x.csv"]) == 2
        assert "2**45 states" in capsys.readouterr().err

    @pytest.mark.parametrize("command", ["bound", "dobrushin"])
    def test_enumerating_commands_cap_rademacher_sites(self, tmp_path, capsys, command):
        path = tmp_path / "cfg.json"
        path.write_text(json.dumps({"model": {"rademacher_sites": 45}}))
        assert run([command, "--config", path, "--out", tmp_path / "x"]) == 2
        assert "2**45 states, above cap 1000000" in capsys.readouterr().err

    def test_non_hermitian_input_matrix_exits_2(self, tmp_path, capsys):
        bad = {"dim": 2, "entries": [[[0.0, 0.0], [1.0, 0.0]], [[0.0, 0.0], [0.0, 0.0]]]}
        cfg = {"model": {"rademacher_sites": 1},
               "observable": {"kind": "rademacher-sum", "matrices": [bad]}}
        path = tmp_path / "cfg.json"
        path.write_text(json.dumps(cfg))
        assert run(["mc-tail", "--config", path, "--out", tmp_path / "x.csv"]) == 2
        assert "not Hermitian" in capsys.readouterr().err

    def test_non_finite_coefficient_exits_2(self, tmp_path, capsys):
        nan = {"dim": 2, "entries": [[[1.0, 0.0], [float("nan"), 0.0]],
                                     [[float("nan"), 0.0], [0.0, 0.0]]]}
        cfg = {"model": {"rademacher_sites": 1},
               "observable": {"kind": "rademacher-sum", "matrices": [nan]}}
        path = tmp_path / "cfg.json"
        path.write_text(json.dumps(cfg))  # writes the NaN token json.loads reads back
        assert "NaN" in path.read_text()
        assert run(["mc-tail", "--config", path, "--out", tmp_path / "x.csv"]) == 2
        assert capsys.readouterr().err.startswith("error:")
        assert not (tmp_path / "x.csv").exists()

    @pytest.mark.parametrize("mode", ["mc", "exhaustive"])
    @pytest.mark.parametrize("entries, count, message", [
        # finite coefficients, and finite bounds 2 A_k, whose squares overflow
        ([[6e307, 3e307], [3e307, -6e307]], 8,
         "the sum of squared difference bounds sum_k A_k^2 overflows: an entry is not finite"),
        # a finite sum of squares, 2e308 times the projection onto (1, 1)
        ([[3.5e153, 3.5e153], [3.5e153, 3.5e153]], 1,
         "the variance parameter sigma^2 = ||sum_k A_k^2|| overflows: it is not finite"),
    ], ids=["sum", "norm"])
    def test_overflowing_variance_exits_3(self, tmp_path, capsys, mode, entries, count,
                                          message):
        matrix = {"dim": 2, "entries": [[[v, 0.0] for v in row] for row in entries]}
        path = tmp_path / "cfg.json"
        path.write_text(json.dumps({"model": {"rademacher_sites": count}, "mode": mode,
                                    "observable": {"matrices": [matrix] * count}}))
        out = tmp_path / "x.csv"
        assert run(["mc-tail", "--config", path, "--out", out]) == 3
        assert capsys.readouterr().err == f"numerical failure: {message}\n"
        assert not out.exists()

    def test_infinite_cell_with_finite_mirror_exits_2(self, tmp_path, capsys):
        # the cell [Infinity, 0] mirrored by [0, 0] certified, holding inf+nanj
        inf = {"dim": 2, "entries": [[[1.0, 0.0], [math.inf, 0.0]],
                                     [[0.0, 0.0], [1.0, 0.0]]]}
        path = tmp_path / "cfg.json"
        path.write_text(json.dumps({"model": {"rademacher_sites": 1},
                                    "observable": {"matrices": [inf]}}))
        assert "Infinity" in path.read_text()
        assert run(["mc-tail", "--config", path, "--out", tmp_path / "x.csv"]) == 2
        assert capsys.readouterr().err.startswith("error: matrix is not Hermitian")
        assert not (tmp_path / "x.csv").exists()

    @pytest.mark.parametrize("count", [2, 4])
    def test_coefficient_count_other_than_site_count_exits_2(self, tmp_path, capsys, count):
        # 2 matrices on 3 sites printed numpy's "operands could not be broadcast"
        path = tmp_path / "cfg.json"
        path.write_text(json.dumps({"model": {"rademacher_sites": 3}, "samples": 100,
                                    "observable": {"generate": {"count": count, "dim": 2,
                                                                "seed": 1}}}))
        assert run(["mc-tail", "--config", path, "--out", tmp_path / "x.csv"]) == 2
        assert capsys.readouterr().err == \
            f"error: observable has {count} coefficient matrices for a 3-site model\n"
        assert not (tmp_path / "x.csv").exists()

    @pytest.mark.parametrize("change", [
        {"samples": None}, {"samples": [5]}, {"samples": 2.5}, {"samples": True},
        {"seed": 2.5}, {"seed": "3"}, {"t_grid": 5}, {"t_grid": [0.0, None]},
        {"t_grid": {"sigma_multiples": 5}}, {"model": 5}, {"observable": 5},
        {"c": [1.0]}, {"enum_cap": 300.5}, "top-level list", {"t_grid": []},
        {"t_grid": {"sigma_multiples": []}}, {"mode": "exact"},
        {"t_grid": {"sigma_multiples": [1.0], "scale": 2.0}}],
        ids=["samples-null", "samples-list", "samples-fraction", "samples-bool",
             "seed-fraction", "seed-string", "t_grid-number", "t_grid-null-entry",
             "sigma_multiples-number", "model-number", "observable-number", "c-list",
             "enum_cap-fraction", "top-level-list", "t_grid-empty", "sigma_multiples-empty",
             "mode-unknown", "t_grid-unknown-key"])
    def test_config_of_wrong_type_exits_2(self, tmp_path, capsys, change):
        path = self.make_config(tmp_path, samples=200)
        cfg = json.loads(path.read_text())
        path.write_text(json.dumps([1, 2] if change == "top-level list" else {**cfg, **change}))
        assert run(["mc-tail", "--config", path, "--out", tmp_path / "x.csv"]) == 2
        assert capsys.readouterr().err.startswith("error:")
        assert not (tmp_path / "x.csv").exists()

    def test_integral_float_samples_and_seed_accepted(self, tmp_path):
        path = self.make_config(tmp_path, samples=200)
        cfg = json.loads(path.read_text())
        outs = []
        for change in ({}, {"samples": 200.0, "seed": 31.0}):
            path.write_text(json.dumps({**cfg, **change}))
            outs.append(tmp_path / f"m{len(outs)}.csv")
            assert run(["mc-tail", "--config", path, "--out", outs[-1]]) == 0
        assert outs[0].read_bytes() == outs[1].read_bytes()

    def test_table_observable(self, tmp_path):
        entries = []
        rng = np.random.default_rng(44)
        for vals in [(-1.0, -1.0), (-1.0, 1.0), (1.0, -1.0), (1.0, 1.0)]:
            M = rng.normal(size=(2, 2))
            entries.append({"values": list(vals), "matrix": matrix_to_obj((M + M.T) / 2)})
        model = DiscreteModel.from_product([(-1.0, 1.0)] * 2, [[0.5, 0.5]] * 2)
        model_path = tmp_path / "m.json"
        save_model(model_path, model)
        cfg = {
            "model": {"file": str(model_path)},
            "observable": {"kind": "table", "dim": 2, "entries": entries},
            "t_grid": [0.0, 0.5],
            "samples": 500,
            "seed": 6,
        }
        path = tmp_path / "cfg.json"
        path.write_text(json.dumps(cfg))
        out = tmp_path / "tbl.csv"
        assert run(["mc-tail", "--config", path, "--out", out]) == 0
        assert len(read_csv(out)) == 3


def ci_table_entries():
    """The CI's table observable on the 4-site Ising model: one Hermitian
    2 x 2 entry per state."""
    return [{"values": list(z), "matrix": {"dim": 2, "entries": [
        [[z[0] + 0.5 * z[1], 0.0], [0.25 * z[2], 0.1 * z[3]]],
        [[0.25 * z[2], -0.1 * z[3]], [z[1] - 0.5 * z[3], 0.0]]]}}
        for z in itertools.product((-1, 1), repeat=4)]


def generated(count, dim, seed, **extra):
    return {"generate": {"count": count, "dim": dim, "seed": seed, **extra}}


# mc-tail configs whose CSV bytes are pinned: a d = 2 sampled Rademacher sum
# shaped like the chain-mc benchmark's tails, a d = 2 integer-entry sum tailed
# exhaustively on an integer grid that its lambda_max values hit exactly, and
# the CI determinism step's configs (d = 3 sums, the table observable); the
# string "ising" stands for the CI's 4-site Ising model file
MC_TAIL_PINS = {
    "rademacher-d2-sampled": {"model": {"rademacher_sites": 20}, "mode": "mc",
                              "samples": 5000, "seed": 3,
                              "observable": generated(20, 2, 1, scale=0.3)},
    "integer-entry-d2-exhaustive": {"model": {"rademacher_sites": 10}, "mode": "exhaustive",
                                    "t_grid": list(range(13)),
                                    "observable": generated(10, 2, 2, kind="integer-entry")},
    "ci-d3-exhaustive": {"model": {"rademacher_sites": 10}, "mode": "exhaustive", "c": 1.0,
                         "observable": {"kind": "rademacher-sum",
                                        **generated(10, 3, 3, scale=0.5)}},
    "ci-d3-sampled": {"model": {"rademacher_sites": 10}, "mode": "mc", "samples": 20000,
                      "seed": 5, "observable": {"kind": "rademacher-sum",
                                                **generated(10, 3, 3, scale=0.5)}},
    "ci-table-exhaustive": {"model": "ising", "mode": "exhaustive",
                            "observable": {"kind": "table", "dim": 2,
                                           "entries": ci_table_entries()}},
    "ci-table-sampled": {"model": "ising", "mode": "mc", "samples": 20000, "seed": 5,
                         "observable": {"kind": "table", "dim": 2,
                                        "entries": ci_table_entries()}},
}


@pytest.mark.pinned
@pytest.mark.parametrize("name", sorted(MC_TAIL_PINS))
def test_mc_tail_bytes_pinned(name, tmp_path, assert_pinned):
    cfg = dict(MC_TAIL_PINS[name])
    if cfg["model"] == "ising":
        cfg["model"] = str(tmp_path / "ising.json")
        (tmp_path / "ising.json").write_text(json.dumps(CI_MODELS["ising"]))
    path, out = tmp_path / "cfg.json", tmp_path / "mc-tail.csv"
    path.write_text(json.dumps(cfg))
    assert run(["mc-tail", "--config", path, "--out", out]) == 0
    assert_pinned(f"mc-tail/{name}", out.read_bytes())


def test_integer_entry_pin_hits_its_grid():
    # the integer-entry pin's grid holds lambda_max of many states exactly, so
    # its counts decide at lambda_max = t itself
    cfg = MC_TAIL_PINS["integer-entry-d2-exhaustive"]
    g = cfg["observable"]["generate"]
    mats = np.stack([sample_ensemble(EnsembleSpec(g["kind"], g["dim"], 1.0, g["seed"] + k)).mat
                     for k in range(g["count"])])
    signs = np.array(list(itertools.product((-1.0, 1.0), repeat=g["count"])))
    lam = np.linalg.eigvalsh(np.einsum("sn,nij->sij", signs, mats))[:, -1]
    assert np.isin(lam, cfg["t_grid"]).sum() >= 100


class TestConjectureCommand:
    def test_expconj_supported(self, tmp_path):
        out = tmp_path / "res.json"
        assert run(["conjecture", "--ineq", "expconj", "--dims", "2..3",
                    "--budget", 40, "--seed", 4, "--out", out]) == 0
        obj = json.loads(out.read_text())
        assert obj["verdict"] == "supported"
        assert obj["witness"]["A"]["dim"] in (2, 3)

    def test_fconj_needs_entry(self, tmp_path):
        assert run(["conjecture", "--ineq", "fconj", "--budget", 5,
                    "--out", tmp_path / "r.json"]) == 2

    def test_expconj_with_entry_exits_2(self, tmp_path, capsys):
        # the entry was once ignored and the exp search ran
        out = tmp_path / "r.json"
        assert run(["conjecture", "--ineq", "expconj", "--entry", "cube", "--budget", 3,
                    "--dims", 2, "--out", out]) == 2
        assert "expconj search takes no catalog entry" in capsys.readouterr().err
        assert not out.exists()

    def test_fconj_with_entry(self, tmp_path):
        out = tmp_path / "res.json"
        assert run(["conjecture", "--ineq", "fconj", "--entry", "cube",
                    "--dims", "2..2", "--budget", 20, "--seed", 8,
                    "--out", out]) == 0
        obj = json.loads(out.read_text())
        assert obj["inequality_id"] == "fconj:cube"

    def test_unknown_ineq(self, tmp_path):
        assert run(["conjecture", "--ineq", "nope", "--out", tmp_path / "r.json"]) == 2

    def test_manifest_digests_the_scale_run(self, tmp_path):
        digests = []
        for scale in (1.0, 2.0):
            cfg = tmp_path / f"s{scale}.cfg.json"
            cfg.write_text(json.dumps({"scale": scale}))
            out = tmp_path / f"r{scale}.json"
            assert run(["conjecture", "--dims", "2..2", "--budget", 6, "--seed", 3,
                        "--config", cfg, "--out", out]) == 0
            digests.append(config_digest(out))
        assert digests[0] != digests[1]

    def test_overflowing_gap_exits_numerical(self, tmp_path, capsys):
        # at scale 1e150 the square entry's f(A) is finite but C f(A) is not
        cfg = tmp_path / "big.cfg.json"
        cfg.write_text(json.dumps({"scale": 1e150}))
        out = tmp_path / "r.json"
        assert run(["conjecture", "--ineq", "fconj", "--entry", "square", "--dims", "2..2",
                    "--budget", 5, "--config", cfg, "--out", out]) == 3
        assert "split-part bound not finite" in capsys.readouterr().err
        assert not out.exists()

    def test_reconstruction_failure_exits_3(self, tmp_path, capsys, monkeypatch):
        # an eigensolver whose eigenvectors do not reconstruct the input
        eigh = np.linalg.eigh
        monkeypatch.setattr(np.linalg, "eigh", lambda M: (eigh(M)[0], eigh(M)[1] + 1e-3))
        out = tmp_path / "r.json"
        assert run(["conjecture", "--dims", "2..2", "--budget", 5, "--out", out]) == 3
        assert capsys.readouterr().err.startswith(
            "numerical failure: spectral reconstruction error ")
        assert not out.exists()

    def test_huge_eigenvalue_is_refused_without_a_warning(self, tmp_path, capsys):
        # the reconstruction bound overflowed past max/d: a RuntimeWarning, an
        # error under -W error::RuntimeWarning, and no exit code
        cfg = tmp_path / "huge.cfg.json"
        cfg.write_text(json.dumps({"scale": 8e307}))
        out = tmp_path / "r.json"
        assert run(["conjecture", "--ineq", "fconj", "--entry", "square", "--budget", 12,
                    "--dims", "2,3", "--config", cfg, "--out", out]) == 3
        err = capsys.readouterr().err
        assert err.startswith("numerical failure: ") and err.count("\n") == 1
        assert not out.exists()

    def test_overflowing_draw_exits_3(self, tmp_path, capsys):
        cfg = tmp_path / "huge.cfg.json"
        cfg.write_text(json.dumps({"scale": 1e308}))
        out = tmp_path / "r.json"
        assert run(["conjecture", "--budget", 5, "--config", cfg, "--out", out]) == 3
        err = capsys.readouterr().err
        assert err == "numerical failure: gaussian-hermitian draw at scale 1e+308 is not finite\n"
        assert not out.exists()

    def test_determinism(self, tmp_path):
        o1, o2 = tmp_path / "r1.json", tmp_path / "r2.json"
        for o in (o1, o2):
            assert run(["conjecture", "--ineq", "expconj", "--dims", "2..2",
                        "--budget", 30, "--seed", 12, "--out", o]) == 0
        assert o1.read_bytes() == o2.read_bytes()


class TestReportCommand:
    def test_summarizes_artifacts(self, tmp_path, capsys):
        run(["verify-traces", "--trials", 10, "--dims", "2..2", "--seed", 1,
             "--out", tmp_path / "vt"])
        run(["conjecture", "--ineq", "expconj", "--dims", "2..2", "--budget", 10,
             "--seed", 2, "--out", tmp_path / "res.json"])
        out = tmp_path / "report.json"
        assert run(["report", "--inputs", tmp_path, "--out", out]) == 0
        printed = capsys.readouterr().out
        assert "fuzz exchangeable" in printed
        assert "search expconj" in printed
        obj = json.loads(out.read_text())
        assert obj["flagged"] == 0

    def test_recognised_artifact_missing_a_field_exits_2(self, tmp_path, capsys):
        # once printed only "error: 'trials'"
        (tmp_path / "fuzz-x.json").write_text(json.dumps({"violations": 0, "inequality_id": "x"}))
        (tmp_path / "list.json").write_text("[1, 2]")
        out = tmp_path / "report.json"
        assert run(["report", "--inputs", tmp_path, "--out", out]) == 2
        err = capsys.readouterr().err
        assert err.startswith("error:") and "fuzz-x.json" in err and "'trials'" in err
        assert not out.exists()

    @pytest.mark.parametrize("name,obj,field", [
        ("fuzz-x.json", {"violations": "0", "inequality_id": "x", "trials": 1, "min_gap": 0},
         "violations"),
        ("fuzz-y.json", {"violations": 0, "inequality_id": "x", "trials": 1, "min_gap": "0"},
         "min_gap"),
        ("fuzz-z.json", {"violations": 0, "inequality_id": 7, "trials": 1, "min_gap": 0},
         "inequality_id"),
        ("search.json", {"verdict": "supported", "inequality_id": "x", "best_gap": None},
         "best_gap"),
        ("dobrushin.json", {"norm1": "0.5", "entries": [], "n": 2}, "norm1")],
        ids=["violations-string", "min_gap-string", "id-number", "best_gap-null",
             "norm1-string"])
    def test_recognised_artifact_field_of_wrong_type_exits_2(self, tmp_path, capsys,
                                                             name, obj, field):
        # the first case once raised TypeError: '>' not supported between 'str' and 'int'
        (tmp_path / name).write_text(json.dumps(obj))
        out = tmp_path / "report.json"
        assert run(["report", "--inputs", tmp_path, "--out", out]) == 2
        err = capsys.readouterr().err
        assert err.startswith("error:") and "Traceback" not in err
        assert name in err and field in err, err
        assert not out.exists()

    def test_unreadable_json_exits_2(self, tmp_path, capsys):
        # a fuzz summary with trailing bytes
        assert run(["verify-traces", "--trials", 10, "--dims", "2..2", "--ineqs", "exchangeable",
                    "--seed", 1, "--out", tmp_path / "vt"]) == 0
        summary = tmp_path / "vt" / "fuzz-exchangeable.json"
        summary.write_bytes(summary.read_bytes() + b'5, "trials": 10}\n')
        capsys.readouterr()
        out = tmp_path / "report.json"
        assert run(["report", "--inputs", tmp_path, "--out", out]) == 2
        err = capsys.readouterr().err
        assert err.startswith("error:") and "fuzz-exchangeable.json" in err, err
        assert not out.exists()

    def test_cut_report_beside_its_manifest_exits_2(self, tmp_path, capsys, ising_model_file):
        dob = tmp_path / "dobrushin.json"
        assert run(["dobrushin", "--model", ising_model_file, "--out", dob]) == 0
        dob.write_bytes(dob.read_bytes()[:20])  # a write cut short
        capsys.readouterr()
        assert run(["report", "--inputs", tmp_path]) == 2
        err = capsys.readouterr().err
        assert err.startswith("error:") and "dobrushin.json" in err, err

    def test_foreign_unreadable_json_is_skipped(self, tmp_path, capsys, ising_model_file):
        # files no matconc command wrote beside a manifest are not its artifacts
        assert run(["dobrushin", "--model", ising_model_file, "--out", tmp_path / "d.json"]) == 0
        (tmp_path / "settings.json").write_text('{"tabs": 4, // editor config\n}\n')
        (tmp_path / "fuzz-notes.json").write_text("not json\n")
        (tmp_path / "cache.json").mkdir()
        capsys.readouterr()
        assert run(["report", "--inputs", tmp_path]) == 0
        assert capsys.readouterr().out.startswith("dobrushin report: n=2")

    def test_summarizes_dobrushin_report(self, tmp_path, capsys, ising_model_file):
        dob = tmp_path / "dobrushin.json"
        assert run(["dobrushin", "--model", ising_model_file, "--out", dob]) == 0
        rep = json.loads(dob.read_text())
        capsys.readouterr()
        out = tmp_path / "report.json"
        assert run(["report", "--inputs", tmp_path, "--out", out]) == 0
        line = f"dobrushin report: n=2 norm1={rep['norm1']:.6f} c={rep['c']}"
        assert capsys.readouterr().out.splitlines() == [line]
        assert json.loads(out.read_text()) == {"findings": [line], "flagged": 0}

    def test_empty_directory(self, tmp_path, capsys):
        assert run(["report", "--inputs", tmp_path / "nothing"]) == 0
        assert "no recognized artifacts" in capsys.readouterr().out


class TestUsageErrors:
    @pytest.mark.parametrize("command", ["bound", "dobrushin", "report"])
    def test_seed_only_on_commands_that_draw(self, command, tmp_path, ising_model_file):
        # only verify-traces, mc-tail and conjecture draw random numbers
        argv = {"bound": ["--out", tmp_path / "b.csv"],
                "dobrushin": ["--model", ising_model_file, "--out", tmp_path / "d.json"],
                "report": ["--inputs", tmp_path]}[command]
        assert run([command, *argv, "--seed", 1]) == 2
        assert run([command, *argv]) == 0

    def test_unknown_command(self):
        assert run(["frobnicate"]) == 2

    def test_out_parent_created(self, tmp_path, ising_model_file):
        out = tmp_path / "new" / "nested" / "d.json"
        assert run(["dobrushin", "--model", ising_model_file, "--out", out]) == 0
        assert json.loads(out.read_text())["n"] == 2

    def test_out_parent_that_is_a_file_exits_2_before_any_work(self, tmp_path, capsys,
                                                              ising_model_file, monkeypatch):
        # the report was computed, then the write failed
        def never(model):
            raise AssertionError("dobrushin_matrix ran")

        monkeypatch.setattr("matconc.cli.dobrushin_matrix", never)
        (tmp_path / "file").write_text("")
        out = tmp_path / "file" / "d.json"
        assert run(["dobrushin", "--model", ising_model_file, "--out", out]) == 2
        assert capsys.readouterr().err.startswith("error: [Errno")

    @pytest.mark.parametrize("value", [[1], 2.5, None, {}], ids=["list", "float", "null", "object"])
    def test_non_string_model_file_exits_2(self, tmp_path, capsys, value):
        # each reached open() and raised an uncaught TypeError
        cfg, out = tmp_path / "cfg.json", tmp_path / "b.csv"
        cfg.write_text(json.dumps({"model": {"file": value}}))
        assert run(["bound", "--config", cfg, "--out", out]) == 2
        assert f"error: model file must be a string, got {value!r}" in capsys.readouterr().err
        assert not out.exists()

    def test_integer_model_file_is_not_a_descriptor(self, tmp_path, capsys, ising_model_file):
        # {"file": <int>} read the model from that open descriptor, then closed it
        fd, w = os.pipe()
        os.write(w, ising_model_file.read_bytes())
        os.close(w)
        cfg, out = tmp_path / "cfg.json", tmp_path / "d.json"
        cfg.write_text(json.dumps({"model": {"file": fd}}))
        try:
            assert run(["dobrushin", "--config", cfg, "--out", out]) == 2
            assert f"model file must be a string, got {fd}" in capsys.readouterr().err
            assert not out.exists()
            os.fstat(fd)  # still open
        finally:
            os.close(fd)

    def test_boolean_model_file_keeps_stdout(self, tmp_path):
        # {"file": true} opened descriptor 1 and closed it; in a child process
        cfg = tmp_path / "cfg.json"
        cfg.write_text(json.dumps({"model": {"file": True}}))
        proc = subprocess.run([sys.executable, "-m", "matconc.cli", "dobrushin", "--config",
                               str(cfg), "--out", str(tmp_path / "d.json")],
                              capture_output=True, text=True, timeout=120)
        assert proc.returncode == 2
        assert proc.stderr == "error: model file must be a string, got True\n"

    @pytest.mark.parametrize("command,config", [
        ("bound", {"t_grid": 5}), ("bound", {"model": 5}), ("bound", {"d": 2.5}),
        ("bound", {"sigma_sq": None}), ("verify-traces", {"trials": None}),
        ("verify-traces", {"scale": [1.0]}), ("dobrushin", {"model": 5}),
        ("dobrushin", {"model": {"rademacher_sites": 2}, "kmax": [3]}),
        ("conjecture", {"budget": None}), ("conjecture", {"budget": 2, "scale": "1"}),
        ("report", [1, 2]), ("verify-traces", {"dims": 5}), ("verify-traces", {"dims": [2, "3"]}),
        ("verify-traces", {"dims": [2.5]}), ("verify-traces", {"kinds": 5}),
        ("verify-traces", {"kinds": ["psd", 5]}), ("verify-traces", {"inequalities": 5}),
        ("verify-traces", {"inequalities": {"holder": 1}}), ("verify-traces", {"inequalities": []}),
        ("conjecture", {"dims": [2, None]}),
        ("conjecture", {"dims": 3}), ("bound", {"c": True}), ("bound", {"c": "2"}),
        ("bound", {"t_grid": []}), ("conjecture", {"entry": ["cube"], "ineq": "fconj"})])
    def test_config_of_wrong_type_exits_2(self, tmp_path, capsys, command, config):
        path = tmp_path / "cfg.json"
        path.write_text(json.dumps(config))
        assert run([command, "--config", path, "--out", tmp_path / "out"]) == 2
        err = capsys.readouterr().err
        assert err.startswith("error:") and "Traceback" not in err
        assert not (tmp_path / "out").exists()

    @pytest.mark.parametrize("command,flags,config", [
        ("verify-traces", ["--dims", "2,3", "--kinds", "psd,diagonal", "--ineqs", "holder"],
         {"dims": [2, 3], "kinds": ["psd", "diagonal"], "inequalities": ["holder"]}),
        ("verify-traces", ["--dims", "2,3", "--kinds", "psd,diagonal", "--ineqs", "holder"],
         {"dims": "2,3", "kinds": "psd,diagonal", "inequalities": "holder"}),
        ("conjecture", ["--dims", "2,3"], {"dims": [2, 3]})],
        ids=["verify-traces-lists", "verify-traces-strings", "conjecture-list"])
    def test_config_forms_write_the_flag_bytes(self, tmp_path, command, flags, config):
        shared = {"verify-traces": ["--trials", 12, "--seed", 3],
                  "conjecture": ["--budget", 8, "--seed", 3]}[command]
        path = tmp_path / "cfg.json"
        path.write_text(json.dumps(config))
        roots = [tmp_path / "flags", tmp_path / "config"]
        for root in roots:
            root.mkdir()
        assert run([command, *shared, *flags, "--out", roots[0] / "out"]) == 0
        assert run([command, *shared, "--config", path, "--out", roots[1] / "out"]) == 0
        assert data_files(roots[0]) and data_files(roots[0]) == data_files(roots[1])

    @pytest.mark.parametrize("command,config,typo", [
        ("verify-traces", {"trials": 2, "dims": [2], "inequalities": ["holder"]}, {"trails": 3}),
        ("verify-traces", {"trials": 2, "dims": [2], "inequalities": ["holder"]}, {"seed": 5}),
        ("bound", {"d": 2, "t_grid": [0.0, 1.0]}, {"sigma": 2.0}),
        ("mc-tail", {"model": {"rademacher_sites": 2}, "samples": 10,
                     "observable": {"generate": {"count": 2, "dim": 2, "seed": 1}}},
         {"sample": 5}),
        ("dobrushin", {"model": {"rademacher_sites": 2}, "kmax": 3}, {"k_max": 3}),
        ("conjecture", {"budget": 2, "dims": [2]}, {"seed": 5}),
        ("report", {}, {"inputs": "."})],
        ids=["verify-traces", "verify-traces-seed", "bound", "mc-tail", "dobrushin",
             "conjecture", "report"])
    def test_unknown_config_key_exits_2(self, tmp_path, capsys, command, config, typo):
        # the config runs without the key and is refused with it, before any output
        for k, cfg in enumerate((config, {**config, **typo})):
            path = tmp_path / f"cfg{k}.json"
            path.write_text(json.dumps(cfg))
            out = tmp_path / f"out{k}"
            argv = [command, "--config", path, "--out", out]
            assert run(argv + (["--inputs", tmp_path / "none"] if command == "report" else [])) == 2 * k
        err = capsys.readouterr().err
        assert err.startswith("error:") and repr(next(iter(typo))) in err
        assert not (tmp_path / "out1").exists()

    @pytest.mark.parametrize("change,where,key", [
        ({"observable": {"generate": {"count": 2, "dim": 2, "seed": 1, "scal": 0.5}}},
         "observable generate", "'scal'"),
        ({"observable": {"generate": {"dim": 2, "seed": 1}}}, "observable generate", "'count'"),
        ({"observable": {"generate": {"count": 2, "dim": 2, "seed": 1}, "dims": 2}},
         "observable", "'dims'"),
        ({"observable": {"generate": {"count": 2, "dim": 2, "seed": 1},
                         "matrices": [IDENTITY] * 2}}, "observable", "'matrices'"),
        ({"observable": {"matrices": [{**IDENTITY, "scale": 2.0}] * 2}}, "matrix", "'scale'"),
        ({"observable": {"kind": "table", "dim": 1}}, "table observable", "'entries'"),
        ({"observable": {"kind": "table", "dim": 1, "entries": [
            {"values": [-1.0, -1.0], "matrix": ONE, "weight": 2.0}]}},
         "observable entry 0", "'weight'"),
        ({"observable": {"kind": "table", "dim": 1, "entries": [
            {"values": [-1.0, -1.0], "matrix": ONE}]}}, "table observable", "[-1.0, 1.0]"),
        ({"model": {"alphabets": [[-1, 1]] * 2,
                    "weight": {"kind": "product", "site_pmfs": [[0.5, 0.5]] * 2}}},
         "model weight", "'site_pmfs'"),
        ({"model": "SITE_PMFS_FILE"}, "model weight", "'site_pmfs'"),
        ({"model": {"alphabets": [[-1, 1]] * 2,
                    "weight": {"kind": "ising", "coupling": [[0, 0.1], [0.1, 0]],
                               "fields": [0.1, 0.0]}}}, "model weight", "'fields'"),
        ({"model": {"alphabets": [[-1, 1]] * 2, "weight": {"kind": "table"}}},
         "model weight", "'values'"),
        ({"model": {"rademacher_sites": 2, "file": "THREE_SITE_FILE"}},
         "model", "'rademacher_sites'"),
        ({"model": {"rademacher_sites": 2, "enum_cap": 4}}, "model", "'enum_cap'"),
        ({"observable": {"matrices": [{"dim": 1, "entries": [[[1]]]}] * 2}},
         "matrix", "entries"),
        ({"observable": {"matrices": [{"dim": 1, "entries": [[5]]}] * 2}}, "matrix", "entries"),
        ({"observable": {"matrices": 3}}, "observable", "matrices"),
        ({"observable": {"kind": "table", "dim": 1, "entries": 4}}, "observable", "entries"),
        ({"model": {"alphabets": 5, "weight": {"kind": "product", "pmfs": [[0.5, 0.5]]}}},
         "model", "alphabets"),
        ({"model": {"alphabets": [[-1, 1]] * 2, "weight": {"kind": "product", "pmfs": 7}}},
         "model weight", "pmfs"),
        ({"model": {"alphabets": [[-1, 1]] * 2,
                    "weight": {"kind": "table", "values": [{"a": 1}, 1, 1, 1]}}},
         "model weight", "values"),
        ({"model": {"alphabets": [[-1, 1]] * 2,
                    "weight": {"kind": "product", "pmfs": [[0.5, {"a": 1}], [0.5, 0.5]]}}},
         "model weight", "pmfs"),
        ({"model": {"alphabets": [[-1, 1]] * 2,
                    "weight": {"kind": "ising", "coupling": [[0, {"a": 1}], [0.1, 0]]}}},
         "model weight", "coupling"),
        ({"model": {"alphabets": [[-1, 1]] * 2,
                    "weight": {"kind": "ising", "coupling": [[0, 0.1], [0.1, 0]],
                               "field": [{"a": 1}, 0.0]}}}, "model weight", "field")],
        ids=["generate-typo", "generate-missing-count", "observable-typo", "observable-ambiguous",
             "matrix-typo", "table-missing-entries", "table-entry-typo", "table-incomplete",
             "site_pmfs-inline", "site_pmfs-file", "ising-typo", "table-missing-values",
             "spec-ambiguous", "enum_cap-in-model", "cell-short", "cell-number",
             "matrices-number", "entries-number", "alphabets-number", "pmfs-number",
             "values-dict", "pmfs-row-dict", "coupling-dict", "field-dict"])
    def test_nested_config_object_refused(self, tmp_path, capsys, change, where, key):
        # every object in a config holds its required keys, no other key, and
        # values of the right shape; otherwise exit 2 naming the object and key
        three = tmp_path / "three.json"
        save_model(three, DiscreteModel.from_product([(-1.0, 1.0)] * 3, [[0.5, 0.5]] * 3))
        pmfs = tmp_path / "site_pmfs.json"
        pmfs.write_text(json.dumps({"alphabets": [[-1, 1]] * 2,
                                    "weight": {"kind": "product", "site_pmfs": [[0.5, 0.5]] * 2}}))
        text = json.dumps({"model": {"rademacher_sites": 2},
                           "observable": {"generate": {"count": 2, "dim": 2, "seed": 1}},
                           "samples": 10, "t_grid": [0.0, 1.0], **change})
        path = tmp_path / "cfg.json"
        path.write_text(text.replace("THREE_SITE_FILE", str(three))
                        .replace('"SITE_PMFS_FILE"', json.dumps(str(pmfs))))
        out = tmp_path / "out.csv"
        assert run(["mc-tail", "--config", path, "--out", out]) == 2
        err = capsys.readouterr().err
        assert err.startswith("error:") and "Traceback" not in err
        assert where in err and key in err, err
        assert not out.exists()

    @pytest.mark.parametrize("argv,files,message", [
        (["mc-tail", "--config", "cfg.json"],
         {"cfg.json": {"model": {"rademacher_sites": 2}, "observable": {"kind": "quadratic"}}},
         "unsupported observable kind 'quadratic'"),
        (["mc-tail", "--config", "cfg.json"],
         {"cfg.json": {"model": {"rademacher_sites": 2}, "observable": {
             "kind": "table", "dim": 1, "entries": [{"values": ["a"], "matrix": ONE}]}}},
         "observable entry 0: values must be a list of numbers, got ['a']"),
        (["mc-tail", "--config", "cfg.json"],
         {"cfg.json": {"model": {"rademacher_sites": 2}, "samples": 0,
                       "observable": {"generate": {"count": 2, "dim": 2, "seed": 1}}}},
         "samples must be >= 1"),
        (["conjecture", "--budget", 0], {}, "budget must be >= 1"),
        (["dobrushin", "--model", "model.json"],
         {"model.json": {"alphabets": [[0, 1], []],
                         "weight": {"kind": "product", "pmfs": [[0.5, 0.5], []]}}},
         "each site needs a nonempty alphabet"),
        (["dobrushin", "--model", "model.json"],
         {"model.json": {"alphabets": [[-1, 1], [-1, 1]],
                         "weight": {"kind": "ising", "field": [0.1],
                                    "coupling": [[0, 0.1], [0.1, 0]]}}},
         "field has wrong length")],
        ids=["observable-kind", "table-entry-values", "zero-samples", "zero-budget",
             "empty-alphabet", "ising-field-length"])
    def test_refused_input_exits_2(self, tmp_path, capsys, argv, files, message):
        for name, obj in files.items():
            (tmp_path / name).write_text(json.dumps(obj))
        argv = [tmp_path / a if a in files else a for a in argv]
        assert run([*argv, "--out", tmp_path / "out"]) == 2
        assert capsys.readouterr().err == f"error: {message}\n"
        assert not (tmp_path / "out").exists()

    def test_bad_config_file(self, tmp_path):
        bad = tmp_path / "bad.json"
        bad.write_text("{not json")
        assert run(["bound", "--config", bad, "--t", "1",
                    "--out", tmp_path / "b.csv"]) == 2


def package_errors():
    """Every exception class that a module of matconc defines."""
    found = set()
    for info in pkgutil.iter_modules(matconc.__path__):
        module = importlib.import_module(f"matconc.{info.name}")
        found |= {cls for _, cls in inspect.getmembers(module, inspect.isclass)
                  if issubclass(cls, BaseException) and cls.__module__ == module.__name__}
    return sorted(found, key=lambda cls: cls.__name__)


def error_instance(cls):
    """An instance of ``cls``, 1.0 for each argument its own __init__ requires."""
    if not inspect.isfunction(cls.__init__):  # the builtin's, which takes a message
        return cls("raised inside a command")
    params = list(inspect.signature(cls.__init__).parameters.values())[1:]
    return cls(*[1.0 for p in params if p.default is p.empty])


def test_package_errors_found():
    assert {"HermiticityError", "SpectralDomainError", "EnumerationCapError"} <= \
        {cls.__name__ for cls in package_errors()}


@pytest.mark.parametrize("cls", package_errors(), ids=lambda cls: cls.__name__)
def test_error_base_decides_the_exit_code(cls, tmp_path, capsys, monkeypatch):
    # a ValueError is a refused input (2), an ArithmeticError a numerical failure (3)
    assert issubclass(cls, ValueError) != issubclass(cls, ArithmeticError)
    exc = error_instance(cls)

    def raising(*args):
        raise exc

    monkeypatch.setattr("matconc.cli.tropp_bound", raising)
    out = tmp_path / "b.csv"
    code = run(["bound", "--t", "1", "--out", out])
    if issubclass(cls, ArithmeticError):
        assert (code, capsys.readouterr().err) == (3, f"numerical failure: {exc}\n")
    else:
        assert (code, capsys.readouterr().err) == (2, f"error: {exc}\n")
    assert not out.exists()
