"""End-to-end tests of the command-line interface."""

import json

import numpy as np
import pytest

from tminimax.allocation import ObjectiveMode, _relaxed_for_mode
from tminimax.cli import main
from tminimax.core import Allocation, draw_assignment, observe
from tminimax.estimators import augmented_instantaneous_estimate, habituation_estimate
from tminimax.serialize import write_assignment_csv, write_matrix_csv
from tminimax.simulate import ModelParams, standard_model


def _run(capsys, *argv):
    code = main(list(argv))
    out = capsys.readouterr()
    return code, out.out, out.err


class TestDesign:
    def test_integer_reference(self, capsys):
        code, out, _ = _run(capsys, "design", "--n", "7", "--t", "2", "--mode", "basic")
        assert code == 0
        rows = json.loads(out)
        counts = {r["arm"]: r["count"] for r in rows}
        assert (counts["always0"], counts["always1"], counts["pulse_2"]) == (2, 2, 3)
        assert counts["objective"] == pytest.approx(5 / 3, rel=1e-15)

    def test_relaxed_reference(self, capsys):
        code, out, _ = _run(capsys, "design", "--n", "10000", "--t", "30",
                            "--mode", "basic", "--relaxed")
        assert code == 0
        counts = {r["arm"]: r["count"] for r in json.loads(out)}
        assert abs(counts["always1"] - 1040) < 0.5
        assert abs(counts["pulse_17"] - 273) < 0.5

    @pytest.mark.parametrize("mode,extra", [
        (ObjectiveMode.basic(), ()),
        (ObjectiveMode.augmented(), ()),
        (ObjectiveMode.weighted(0.3), ("--rho", "0.3")),
        (ObjectiveMode.recycling(2), ("--k", "2")),
    ], ids=["basic", "augmented", "weighted", "recycling"])
    def test_relaxed_matches_library_relaxation(self, capsys, mode, extra):
        code, out, _ = _run(capsys, "design", "--n", "977", "--t", "6",
                            "--mode", mode.kind, *extra, "--relaxed")
        assert code == 0
        counts = tuple(r["count"] for r in json.loads(out)[:-1])
        assert counts == _relaxed_for_mode(977.0, 6, mode).counts

    def test_weighted_needs_rho(self, capsys):
        code, _, err = _run(capsys, "design", "--n", "10", "--t", "2", "--mode", "weighted")
        assert code == 1 and "--rho" in err

    def test_csv_output_to_file(self, capsys, tmp_path):
        out_file = tmp_path / "design.csv"
        code, out, _ = _run(capsys, "design", "--n", "12", "--t", "3",
                            "--mode", "augmented", "--format", "csv",
                            "--out", str(out_file))
        assert code == 0 and out == ""
        lines = out_file.read_text().splitlines()
        assert lines[0] == "arm,count"

    def test_infeasible_is_computation_error(self, capsys):
        code, _, err = _run(capsys, "design", "--n", "3", "--t", "4")
        assert code == 1 and "error:" in err

    def test_usage_error_exits_2(self, capsys):
        with pytest.raises(SystemExit) as exc:
            main(["design", "--n", "7"])
        assert exc.value.code == 2

    def test_no_arguments_exits_2(self, capsys):
        with pytest.raises(SystemExit) as exc:
            main([])
        assert exc.value.code == 2


class TestEstimate:
    def test_matches_direct_calls(self, capsys, tmp_path):
        N, T = 12, 4
        alloc = Allocation(3, 3, (2, 2, 2))
        Z = draw_assignment(alloc, seed=7)
        sched = standard_model(ModelParams(noise_sd=1.0), N, T, 3)
        obs = observe(Z, sched)
        a_path, o_path = tmp_path / "z.csv", tmp_path / "y.csv"
        write_assignment_csv(str(a_path), Z)
        write_matrix_csv(str(o_path), obs.values)
        code, out, _ = _run(capsys, "estimate", "--assignment", str(a_path),
                            "--outcomes", str(o_path), "--estimator", "augmented")
        assert code == 0
        rows = json.loads(out)
        assert [r["t"] for r in rows] == [2, 3, 4]
        for r in rows:
            assert r["habituation"] == habituation_estimate(Z, obs, r["t"])
            assert r["instantaneous"] == augmented_instantaneous_estimate(Z, obs, r["t"])

    def test_recycling_needs_k(self, capsys, tmp_path):
        Z = draw_assignment(Allocation(2, 2, (2,)), seed=0)
        sched = standard_model(ModelParams(), 6, 2, 0)
        a_path, o_path = tmp_path / "z.csv", tmp_path / "y.csv"
        write_assignment_csv(str(a_path), Z)
        write_matrix_csv(str(o_path), observe(Z, sched).values)
        code, _, err = _run(capsys, "estimate", "--assignment", str(a_path),
                            "--outcomes", str(o_path), "--estimator", "recycling")
        assert code == 1 and "--k" in err

    def test_missing_file(self, capsys, tmp_path):
        code, _, err = _run(capsys, "estimate", "--assignment", str(tmp_path / "nope.csv"),
                            "--outcomes", str(tmp_path / "nope.csv"))
        assert code == 1

    def test_wedge_assignment_file(self, capsys, tmp_path):
        from tminimax.core import Family

        N, T = 10, 3
        Z = draw_assignment(Allocation(3, 3, (2, 2)), Family.WEDGE, seed=4)
        sched = standard_model(ModelParams(noise_sd=1.0), N, T, 8)
        a_path, o_path = tmp_path / "z.csv", tmp_path / "y.csv"
        write_assignment_csv(str(a_path), Z)
        write_matrix_csv(str(o_path), observe(Z, sched).values)
        code, out, _ = _run(capsys, "estimate", "--assignment", str(a_path),
                            "--outcomes", str(o_path), "--estimator", "augmented")
        assert code == 0 and len(json.loads(out)) == T - 1
        # the recycling estimator is meaningless for wedge assignments
        code, _, err = _run(capsys, "estimate", "--assignment", str(a_path),
                            "--outcomes", str(o_path), "--estimator", "recycling",
                            "--k", "1")
        assert code == 1 and "pulse-family" in err

    def test_manifest_records_input_digests(self, capsys, tmp_path):
        Z = draw_assignment(Allocation(2, 2, (2,)), seed=0)
        sched = standard_model(ModelParams(), 6, 2, 0)
        a_path, o_path = tmp_path / "z.csv", tmp_path / "y.csv"
        write_assignment_csv(str(a_path), Z)
        write_matrix_csv(str(o_path), observe(Z, sched).values)
        manifest = tmp_path / "run.json"
        code, _, _ = _run(capsys, "estimate", "--assignment", str(a_path),
                          "--outcomes", str(o_path), "--manifest", str(manifest))
        assert code == 0
        doc = json.loads(manifest.read_text())
        assert {d["path"] for d in doc["inputs"]} == {str(a_path), str(o_path)}
        assert all(len(d["sha256"]) == 64 for d in doc["inputs"])


class TestRisk:
    def test_analytic_only(self, capsys):
        code, out, _ = _run(capsys, "risk", "--n", "40", "--t", "4",
                            "--designs", "balanced,minimax", "--unnormalized")
        assert code == 0
        rows = json.loads(out)
        assert [r["design"] for r in rows] == ["balanced", "minimax"]
        assert rows[1]["max_risk"] <= rows[0]["max_risk"]
        assert all(np.isnan(r["mc_risk"]) for r in rows)

    def test_mc_sits_on_analytic(self, capsys):
        code, out, _ = _run(capsys, "risk", "--n", "30", "--t", "3",
                            "--designs", "minimax", "--draws", "3000", "--seed", "5")
        assert code == 0
        row = json.loads(out)[0]
        assert abs(row["mc_risk"] - row["max_risk"]) < 3 * row["mc_se"]

    def test_vstar_scales_linearly(self, capsys):
        _, out1, _ = _run(capsys, "risk", "--n", "30", "--t", "3", "--designs", "balanced",
                          "--vstar", "1.0")
        _, out2, _ = _run(capsys, "risk", "--n", "30", "--t", "3", "--designs", "balanced",
                          "--vstar", "2.0")
        assert json.loads(out2)[0]["max_risk"] == pytest.approx(
            2 * json.loads(out1)[0]["max_risk"], rel=1e-12
        )

    def test_unknown_design(self, capsys):
        code, _, err = _run(capsys, "risk", "--n", "30", "--t", "3",
                            "--designs", "stratified")
        assert code == 1 and "unknown design" in err

    def test_recycling_spec(self, capsys):
        code, out, _ = _run(capsys, "risk", "--n", "24", "--t", "3",
                            "--designs", "balanced", "--estimator", "recycling",
                            "--k", "1", "--draws", "2000", "--seed", "1")
        assert code == 0
        row = json.loads(out)[0]
        assert abs(row["mc_risk"] - row["max_risk"]) < 3 * row["mc_se"]


class TestDesignBoundaries:
    def test_weighted_boundary_drops_an_arm(self, capsys):
        code, out, _ = _run(capsys, "design", "--n", "20", "--t", "3",
                            "--mode", "weighted", "--rho", "1.0")
        assert code == 0
        counts = {r["arm"]: r["count"] for r in json.loads(out)}
        assert counts["always0"] == 0 and counts["always1"] >= 1

    def test_recycling_mode(self, capsys):
        code, out, _ = _run(capsys, "design", "--n", "30", "--t", "4",
                            "--mode", "recycling", "--k", "1")
        assert code == 0
        counts = {r["arm"]: r["count"] for r in json.loads(out)}
        assert sum(v for k, v in counts.items() if k != "objective") == 30


class TestSimulate:
    def test_figure_one(self, capsys, tmp_path):
        out = tmp_path / "fig1"
        code, _, _ = _run(capsys, "simulate", "--figure", "1", "--n", "100",
                          "--t-list", "4,6", "--out", str(out))
        assert code == 0
        table = (out / "allocations.csv").read_text().splitlines()
        assert table[0] == "design,T,arm,count"
        manifest = json.loads((out / "run_manifest.json").read_text())
        assert manifest["params"]["figure"] == 1
        assert manifest["outputs"] == [str(out / "allocations.csv")]

    def test_figure_three_runs(self, capsys, tmp_path):
        out = tmp_path / "fig3"
        code, _, _ = _run(capsys, "simulate", "--figure", "3", "--n", "24",
                          "--t-list", "3", "--reps", "4", "--model", "habituation",
                          "--seed", "2", "--out", str(out))
        assert code == 0
        assert (out / "expected_risk_habituation.csv").exists()

    def test_byte_identical_reruns(self, capsys, tmp_path):
        texts = []
        manifests = []
        for name in ("a", "b"):
            out = tmp_path / name
            code, _, _ = _run(capsys, "simulate", "--figure", "2", "--n", "120",
                              "--t-list", "4,5", "--seed", "9", "--out", str(out))
            assert code == 0
            texts.append((out / "maxrisk_ratios.csv").read_bytes())
            doc = json.loads((out / "run_manifest.json").read_text())
            doc.pop("created_utc")
            doc["outputs"] = [p.rsplit("/", 1)[-1] for p in doc["outputs"]]
            doc["command"] = [("OUTDIR" if c == str(out) else c) for c in doc["command"]]
            manifests.append(doc)
        assert texts[0] == texts[1]
        assert manifests[0] == manifests[1]
