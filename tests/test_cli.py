import csv
import json
import math
import os
import subprocess
import sys

import numpy as np
import pytest

from matconc.cli import main
from matconc.dobrushin import DiscreteModel, save_model
from matconc.hermitian import matrix_to_obj


def run(argv):
    return main([str(a) for a in argv])


def read_csv(path):
    with open(path) as fh:
        return list(csv.reader(fh))


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


class TestBoundCommand:
    def test_example_row_clamped(self, tmp_path):
        out = tmp_path / "b.csv"
        assert run(["bound", "--d", 2, "--sigma-sq", 1, "--t", "0,2",
                    "--clamp", "--out", out]) == 0
        rows = read_csv(out)
        assert rows[0] == ["t", "bound_independent", "bound_dependent", "hoeffding", "tropp"]
        t0, t2 = rows[1], rows[2]
        assert float(t0[1]) == 1.0           # all bounds = d, clamped to 1
        assert float(t2[1]) == pytest.approx(0.0366313, abs=1e-7)
        assert t2[2] == ""                   # no dependence constant supplied
        assert float(t2[3]) == pytest.approx(0.7357588, abs=1e-7)
        assert float(t2[4]) == 1.0           # tropp clamped for display

    def test_unclamped_by_default(self, tmp_path):
        out = tmp_path / "b.csv"
        assert run(["bound", "--d", 2, "--sigma-sq", 1, "--t", "2", "--out", out]) == 0
        rows = read_csv(out)
        assert float(rows[1][4]) == pytest.approx(2 * math.exp(-0.5), rel=1e-12)

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

    def test_manifest_written(self, tmp_path):
        out = tmp_path / "b.csv"
        run(["bound", "--t", "1", "--out", out])
        manifest = json.loads((tmp_path / "b.csv.manifest.json").read_text())
        assert manifest["command"] == "bound"
        assert "config_digest" in manifest
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

    def test_missing_model_usage_error(self, tmp_path):
        assert run(["dobrushin", "--out", tmp_path / "rep.json"]) == 2


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

    def test_csv_schema_and_domination(self, tmp_path):
        cfg = self.make_config(tmp_path)
        out = tmp_path / "mc.csv"
        assert run(["mc-tail", "--config", cfg, "--out", out]) == 0
        rows = read_csv(out)
        assert rows[0] == ["t", "bound_independent", "bound_dependent", "hoeffding",
                           "tropp", "empirical_tail", "ci_low", "ci_high"]
        for row in rows[1:]:
            emp, lo, hi = float(row[5]), float(row[6]), float(row[7])
            hoeff = float(row[3])
            assert emp <= hoeff + (hi - lo) / 2

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
            assert row[5] == row[6] == row[7]  # exact: interval collapses

    def test_model_above_enum_cap_exits_2(self, tmp_path, capsys):
        cfg = {"model": {"rademacher_sites": 3}, "enum_cap": 4,
               "observable": {"kind": "rademacher-sum",
                              "generate": {"count": 3, "dim": 2, "seed": 1}},
               "samples": 100}
        path = tmp_path / "cfg.json"
        path.write_text(json.dumps(cfg))
        assert run(["mc-tail", "--config", path, "--out", tmp_path / "x.csv"]) == 2
        assert capsys.readouterr().err.startswith("error:")

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

    def test_fconj_with_entry(self, tmp_path):
        out = tmp_path / "res.json"
        assert run(["conjecture", "--ineq", "fconj", "--entry", "cube",
                    "--dims", "2..2", "--budget", 20, "--seed", 8,
                    "--out", out]) == 0
        obj = json.loads(out.read_text())
        assert obj["inequality_id"] == "fconj:cube"

    def test_unknown_ineq(self, tmp_path):
        assert run(["conjecture", "--ineq", "nope", "--out", tmp_path / "r.json"]) == 2

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

    def test_empty_directory(self, tmp_path, capsys):
        assert run(["report", "--inputs", tmp_path / "nothing"]) == 0
        assert "no recognized artifacts" in capsys.readouterr().out


class TestUsageErrors:
    def test_unknown_command(self):
        assert run(["frobnicate"]) == 2

    def test_bad_config_file(self, tmp_path):
        bad = tmp_path / "bad.json"
        bad.write_text("{not json")
        assert run(["bound", "--config", bad, "--t", "1",
                    "--out", tmp_path / "b.csv"]) == 2
