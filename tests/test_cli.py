"""End-to-end tests of the command-line interface."""

import argparse
import json
import math
import os
import subprocess
import sys
import warnings

import numpy as np
import pytest

from tminimax.allocation import ObjectiveMode, _relaxed_for_mode
from tminimax.cli import build_parser, main
from tminimax.core import Allocation, draw_assignment, observe
from tminimax.estimators import (
    augmented_instantaneous_estimate,
    habituation_estimate,
    instantaneous_estimate,
    recycling_instantaneous_estimate,
)
from tminimax.risk import RiskReport
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

    @pytest.mark.parametrize("argv,message", [
        (("--mode", "basic", "--rho", "0.3"), "basic mode does not take rho"),
        (("--mode", "basic", "--k", "2"), "basic mode does not take k"),
        (("--mode", "augmented", "--k", "2"), "augmented mode does not take k"),
        (("--mode", "augmented", "--rho", "0.5"), "augmented mode does not take rho"),
        (("--mode", "weighted", "--rho", "0.3", "--k", "2"), "weighted mode does not take k"),
        (("--mode", "recycling", "--k", "2", "--rho", "0.3"), "recycling mode does not take rho"),
        (("--mode", "weighted", "--rho", "1.5"), "weighted mode needs rho in [0, 1]"),
        (("--mode", "recycling", "--k", "0"), "recycling mode needs k >= 1"),
    ])
    def test_option_the_mode_does_not_take_exits_1(self, capsys, tmp_path, argv, message):
        manifest = tmp_path / "run.json"
        code, out, err = _run(capsys, "design", "--n", "10", "--t", "2", *argv,
                              "--manifest", str(manifest))
        assert code == 1 and out == ""
        assert message in err
        assert not manifest.exists()

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

    @pytest.mark.parametrize("estimator,extra,instantaneous", [
        ("plugin", (), instantaneous_estimate),
        ("augmented", (), augmented_instantaneous_estimate),
        ("recycling", ("--k", "2"),
         lambda Z, obs, t: recycling_instantaneous_estimate(Z, obs, t, 2)),
    ], ids=["plugin", "augmented", "recycling"])
    def test_each_estimator_matches_the_library(self, capsys, tmp_path, estimator, extra,
                                                instantaneous):
        N, T = 30, 5
        Z = draw_assignment(Allocation(6, 6, (5, 5, 4, 4)), seed=11)
        obs = observe(Z, standard_model(ModelParams(noise_sd=1.0), N, T, 5))
        a_path, o_path = tmp_path / "z.csv", tmp_path / "y.csv"
        write_assignment_csv(str(a_path), Z)
        write_matrix_csv(str(o_path), obs.values)
        code, out, _ = _run(capsys, "estimate", "--assignment", str(a_path),
                            "--outcomes", str(o_path), "--estimator", estimator, *extra)
        assert code == 0
        expected = [{"t": t, "habituation": habituation_estimate(Z, obs, t),
                     "instantaneous": instantaneous(Z, obs, t)} for t in range(2, T + 1)]
        assert out == json.dumps(expected, sort_keys=True, separators=(",", ":")) + "\n"

    def test_non_finite_outcome_exits_1(self, capsys, tmp_path):
        Z = draw_assignment(Allocation(2, 2, (2,)), seed=0)
        values = observe(Z, standard_model(ModelParams(), 6, 2, 0)).values.copy()
        values[4, 1] = np.inf
        a_path, o_path = tmp_path / "z.csv", tmp_path / "y.csv"
        write_assignment_csv(str(a_path), Z)
        write_matrix_csv(str(o_path), values)
        code, out, err = _run(capsys, "estimate", "--assignment", str(a_path),
                              "--outcomes", str(o_path))
        assert code == 1 and out == ""
        assert "line 6, column 3: not a finite number: 'inf'" in err

    def test_misnumbered_assignment_exits_1(self, capsys, tmp_path):
        Z = draw_assignment(Allocation(2, 2, (2,)), seed=0)
        a_path, o_path = tmp_path / "z.csv", tmp_path / "y.csv"
        write_matrix_csv(str(o_path), observe(Z, standard_model(ModelParams(), 6, 2, 0)).values)
        a_path.write_text("unit,t1,t2\n7,0,1\n7,1,1\n")
        code, out, err = _run(capsys, "estimate", "--assignment", str(a_path),
                              "--outcomes", str(o_path))
        assert code == 1 and out == ""
        assert "line 2: expected unit 1, got '7'" in err

    def test_recycling_needs_k(self, capsys, tmp_path):
        Z = draw_assignment(Allocation(2, 2, (2,)), seed=0)
        sched = standard_model(ModelParams(), 6, 2, 0)
        a_path, o_path = tmp_path / "z.csv", tmp_path / "y.csv"
        write_assignment_csv(str(a_path), Z)
        write_matrix_csv(str(o_path), observe(Z, sched).values)
        code, _, err = _run(capsys, "estimate", "--assignment", str(a_path),
                            "--outcomes", str(o_path), "--estimator", "recycling")
        assert code == 1 and "--k" in err

    @pytest.mark.parametrize("estimator", ["plugin", "augmented"])
    def test_k_only_for_recycling(self, capsys, tmp_path, estimator):
        Z = draw_assignment(Allocation(2, 2, (2,)), seed=0)
        sched = standard_model(ModelParams(), 6, 2, 0)
        a_path, o_path = tmp_path / "z.csv", tmp_path / "y.csv"
        write_assignment_csv(str(a_path), Z)
        write_matrix_csv(str(o_path), observe(Z, sched).values)
        manifest = tmp_path / "run.json"
        code, out, err = _run(capsys, "estimate", "--assignment", str(a_path),
                              "--outcomes", str(o_path), "--estimator", estimator,
                              "--k", "2", "--manifest", str(manifest))
        assert code == 1 and out == ""
        assert f"--estimator {estimator} does not take --k" in err
        assert not manifest.exists()

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

    def test_recycling_rejects_k_below_one(self, capsys, tmp_path):
        Z = draw_assignment(Allocation(2, 2, (2,)), seed=0)
        sched = standard_model(ModelParams(), 6, 2, 0)
        a_path, o_path = tmp_path / "z.csv", tmp_path / "y.csv"
        write_assignment_csv(str(a_path), Z)
        write_matrix_csv(str(o_path), observe(Z, sched).values)
        code, out, err = _run(capsys, "estimate", "--assignment", str(a_path),
                              "--outcomes", str(o_path), "--estimator", "recycling",
                              "--k", "0")
        assert code == 1 and out == ""
        assert "carryover order k must be >= 1, got 0" in err

    def test_empty_treated_arm_is_named_before_an_empty_pool(self, capsys, tmp_path):
        a_path, o_path = tmp_path / "z.csv", tmp_path / "y.csv"
        # pulse_2 and pulse_3 only: no always-treated unit and no control
        a_path.write_text("unit,t1,t2,t3\n1,0,1,0\n2,0,0,1\n")
        write_matrix_csv(str(o_path), np.zeros((2, 3)))
        code, out, err = _run(capsys, "estimate", "--assignment", str(a_path),
                              "--outcomes", str(o_path))
        assert code == 1 and out == ""
        assert err == "error: estimator undefined: no units in the always-treated arm\n"

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
        assert all(r["mc_risk"] is None and r["mc_se"] is None for r in rows)

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

    @pytest.mark.parametrize("vstar", ["nan", "inf", "-inf", "-1"])
    @pytest.mark.parametrize("draws", ["0", "2"])
    def test_bad_vstar_exits_1(self, capsys, vstar, draws):
        code, out, err = _run(capsys, "risk", "--n", "100", "--t", "3",
                              f"--vstar={vstar}", "--draws", draws)
        assert code == 1 and out == ""
        assert f"vstar must be finite and >= 0, got {float(vstar)}" in err

    @pytest.mark.parametrize("vstar", ["1e308", "1e300"])
    def test_vstar_too_large_for_draws_names_the_flag(self, capsys, vstar):
        # 1e308 made the worst-case box [0, inf]; 1e300 overflowed np.std's
        # squares and wrote an infinite mc_se
        with warnings.catch_warnings():
            warnings.simplefilter("error")
            code, out, err = _run(capsys, "risk", "--n", "100", "--t", "3",
                                  "--vstar", vstar, "--draws", "3")
        assert code == 1 and out == ""
        assert err.startswith("error: --vstar must be <= ") and err.count("\n") == 1
        assert err.endswith(f"with --t 3 and --draws 3, got {float(vstar)}\n")

    @pytest.mark.parametrize("fmt", ["json", "csv"])
    def test_vstar_too_large_for_the_risk_names_the_flag(self, capsys, tmp_path, fmt):
        # without --draws the maximum risk overflowed to inf: the JSON writer
        # refused it and the CSV writer wrote "minimax,inf,,,0"
        out_path = tmp_path / f"risk.{fmt}"
        for extra in ((), ("--out", str(out_path))):
            code, out, err = _run(capsys, "risk", "--n", "100", "--t", "20", "--vstar", "1e308",
                                  "--designs", "minimax", "--format", fmt, *extra)
            assert code == 1 and out == ""
            assert err == ("error: --vstar 1e+308 is too large: the minimax design's "
                           "maximum risk overflows\n")
        assert not out_path.exists()

    @pytest.mark.parametrize("draws", [(), ("--draws", "3")], ids=["analytic", "draws"])
    def test_a_short_horizon_is_named_with_or_without_draws(self, capsys, draws):
        code, out, err = _run(capsys, "risk", "--n", "100", "--t", "-3", *draws)
        assert code == 1 and out == ""
        assert err == "error: horizon T must be >= 2, got -3\n"

    @pytest.mark.parametrize("estimator", [("plugin",), ("augmented",), ("recycling", "--k", "2")],
                             ids=lambda e: e[0])
    def test_vstar_at_the_draws_bound_is_finite(self, capsys, estimator):
        argv = ["risk", "--n", "100", "--t", "3", "--draws", "3", "--unnormalized",
                "--estimator", *estimator]
        _, _, err = _run(capsys, *argv, "--vstar", "1e300")
        most = err.split("<= ")[1].split(" ")[0]
        for rho in ("0", "0.5", "1"):
            with warnings.catch_warnings():
                warnings.simplefilter("error")
                code, out, _ = _run(capsys, *argv, "--vstar", most, "--rho", rho)
            assert code == 0
            assert all(math.isfinite(r["mc_risk"]) and math.isfinite(r["mc_se"])
                       for r in json.loads(out))

    def test_draws_need_a_positive_vstar(self, capsys):
        code, out, err = _run(capsys, "risk", "--n", "100", "--t", "3", "--vstar", "0",
                              "--draws", "3")
        assert code == 1 and out == ""
        assert err == "error: --draws needs --vstar > 0, got 0.0\n"

    def test_zero_vstar_without_draws_has_zero_risk(self, capsys):
        code, out, _ = _run(capsys, "risk", "--n", "100", "--t", "3", "--vstar", "0")
        assert code == 0
        assert [r["max_risk"] for r in json.loads(out)] == [0.0, 0.0, 0.0]

    def test_out_of_memory_exits_1(self, capsys, monkeypatch):
        def refuse(N, T, lower, upper):
            raise MemoryError("Unable to allocate 7.28 TiB for an array")

        monkeypatch.setattr("tminimax.cli.worst_case_schedule", refuse)
        code, out, err = _run(capsys, "risk", "--n", "1000000000000", "--t", "5",
                              "--draws", "1")
        assert code == 1 and out == ""
        assert err == "error: out of memory: Unable to allocate 7.28 TiB for an array\n"

    @pytest.mark.parametrize("draws", ["-1", "-5"])
    def test_negative_draws_exits_1(self, capsys, draws):
        code, out, err = _run(capsys, "risk", "--n", "30", "--t", "3", "--draws", draws)
        assert code == 1 and out == ""
        assert f"--draws must be >= 0, got {draws}" in err

    @pytest.mark.parametrize("draws", [10**8 + 1, 10**12, 10**22])
    def test_draws_beyond_the_bound_name_the_flag(self, capsys, monkeypatch, draws):
        def refuse(*args):
            raise AssertionError("built before --draws was checked")

        for name in ("worst_case_schedule", "balanced", "integer_solve", "max_risk"):
            monkeypatch.setattr(f"tminimax.cli.{name}", refuse)
        code, out, err = _run(capsys, "risk", "--n", "100", "--t", "3", "--draws", str(draws))
        assert code == 1 and out == ""
        assert err == f"error: --draws must be <= 10^8, got {draws}\n"

    def test_draws_at_the_bound_are_accepted(self, capsys, monkeypatch):
        seen = []

        def record(allocs, sched, spec, draws, seed):
            seen.append(draws)
            return [RiskReport(0.0, 0.0, draws)] * len(allocs)

        monkeypatch.setattr("tminimax.cli.mc_risks", record)
        monkeypatch.setattr("tminimax.cli.write_table", lambda *args: None)
        code, _, err = _run(capsys, "risk", "--n", "100", "--t", "3", "--draws", "100000000",
                            "--designs", "balanced")
        assert (code, err, seen) == (0, "", [10**8])

    def test_workers_is_a_usage_error(self, capsys):
        with pytest.raises(SystemExit) as exc:
            main(["risk", "--n", "100", "--t", "3", "--draws", "2", "--workers", "2"])
        assert exc.value.code == 2
        assert "unrecognized arguments: --workers 2" in capsys.readouterr().err

    @pytest.mark.parametrize("fmt,want", [("json", '"max_risk":0.0,'), ("csv", "balanced,0,,,0")])
    def test_negative_zero_vstar_reports_zero(self, capsys, fmt, want):
        code, out, _ = _run(capsys, "risk", "--n", "100", "--t", "3", "--vstar", "-0",
                            "--format", fmt)
        assert code == 0
        assert want in out and "-0" not in out

    def test_negative_zero_vstar_is_named_as_zero(self, capsys):
        code, out, err = _run(capsys, "risk", "--n", "100", "--t", "3", "--vstar", "-0",
                              "--draws", "3")
        assert code == 1 and out == ""
        assert err == "error: --draws needs --vstar > 0, got 0.0\n"

    def test_negative_zero_vstar_is_recorded_as_zero(self, capsys, tmp_path):
        manifest = tmp_path / "run.json"
        code, _, _ = _run(capsys, "risk", "--n", "100", "--t", "3", "--vstar", "-0",
                          "--manifest", str(manifest))
        assert code == 0
        assert '"vstar":0.0' in manifest.read_text().replace(" ", "")

    @pytest.mark.parametrize("estimator", [("plugin",), ("augmented",), ("recycling", "--k", "2")],
                             ids=lambda e: e[0])
    def test_same_seed_gives_the_same_output(self, capsys, estimator):
        argv = ["risk", "--n", "60", "--t", "4", "--draws", "20", "--estimator", *estimator,
                "--unnormalized"]
        runs = [_run(capsys, *argv, "--seed", seed) for seed in ["3", "3", "4"]]
        assert [code for code, _, _ in runs] == [0, 0, 0]
        assert runs[0][1] == runs[1][1]
        mc = [[r["mc_risk"] for r in json.loads(out)] for _, out, _ in runs]
        assert mc[0] != mc[2]

    @pytest.mark.parametrize("vstar", [(), ("--vstar", "0.3")], ids=["counted", "unit-by-unit"])
    @pytest.mark.parametrize("estimator", [("plugin",), ("augmented",), ("recycling", "--k", "2")],
                             ids=lambda e: e[0])
    def test_a_design_row_does_not_depend_on_the_others(self, capsys, estimator, vstar):
        argv = ["risk", "--n", "300", "--t", "5", "--draws", "15", "--seed", "7",
                "--estimator", *estimator, *vstar]
        outs = {designs: _run(capsys, *argv, "--designs", designs)[1]
                for designs in ("minimax", "balanced,minimax,augmented", "minimax,minimax")}
        alone = outs["minimax"].strip()
        assert alone.startswith('[{"design":"minimax"') and alone.endswith("}]")
        row = alone[1:-1]
        assert outs["balanced,minimax,augmented"].strip().split("},{")[1] == row[1:-1]
        assert outs["minimax,minimax"].strip() == f"[{row},{row}]"

    def test_thread_env_is_not_read(self, capsys, monkeypatch):
        argv = ["risk", "--n", "100", "--t", "3", "--draws", "2"]
        monkeypatch.delenv("TMINIMAX_THREADS", raising=False)
        want = _run(capsys, *argv)
        monkeypatch.setenv("TMINIMAX_THREADS", "abc")
        assert _run(capsys, *argv) == want and want[0] == 0

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


class TestOutputMode:
    @pytest.mark.parametrize("mask,mode", [(0o022, 0o644), (0o077, 0o600)])
    def test_out_file_mode_follows_the_umask(self, capsys, tmp_path, umask, mask, mode):
        umask(mask)
        code, _, _ = _run(capsys, "design", "--n", "100", "--t", "3",
                          "--out", str(tmp_path / "d.json"))
        assert code == 0 and umask(mask) == mask
        assert os.stat(tmp_path / "d.json").st_mode & 0o777 == mode


class TestDesignBoundaries:
    @pytest.mark.parametrize("argv", [
        ("design", "--n", "100000000000000", "--t", "3"),
        ("design", "--n", "1000000000001", "--t", "3", "--mode", "recycling", "--k", "2"),
        ("risk", "--n", "100000000000000000000", "--t", "3"),
    ], ids=["design", "design-recycling", "risk"])
    def test_n_beyond_integer_designs_exits_1(self, capsys, argv):
        code, out, err = _run(capsys, *argv)
        assert code == 1 and out == ""
        assert "N <= 10^12" in err

    @pytest.mark.parametrize("argv", [
        ("design", "--n", str(10**400), "--t", "3", "--relaxed"),
        ("risk", "--n", str(10**400), "--t", "3"),
        ("simulate", "--figure", "1", "--n", str(10**400), "--t-list", "3"),
        ("design", "--n", "20", "--t", "3", "--mode", "recycling", "--k", str(10**21)),
    ], ids=["design-relaxed", "risk", "simulate", "recycling-k"])
    def test_numbers_too_large_for_a_float_exit_1(self, capsys, tmp_path, argv):
        out_dir = tmp_path / "sim"
        if argv[0] == "simulate":
            argv += ("--out", str(out_dir))
        code, out, err = _run(capsys, *argv)
        assert code == 1 and out == ""
        assert err.startswith("error: ") and err.count("\n") == 1
        assert not out_dir.exists()

    def test_relaxed_design_takes_any_n(self, capsys):
        code, out, _ = _run(capsys, "design", "--n", "100000000000000", "--t", "3",
                            "--relaxed")
        assert code == 0 and len(json.loads(out)) == 5

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
    def test_malformed_t_list_exits_1(self, capsys, tmp_path):
        code, _, err = _run(capsys, "simulate", "--figure", "1", "--n", "100",
                            "--t-list", "5,x", "--out", str(tmp_path / "sim"))
        assert code == 1
        assert "--t-list must be comma-separated integers, got '5,x'" in err

    @pytest.mark.parametrize("args,message", [
        (["--figure", "3", "--n", "40", "--t-list", "4", "--seed", "-1"],
         "seed must be a nonnegative integer, got -1"),
        (["--figure", "3", "--n", "40", "--t-list", "4", "--reps", "0"],
         "reps must be >= 1, got 0"),
        (["--figure", "3", "--n", "4", "--t-list", "5"], "N=4 < T+1=6"),
        (["--figure", "2", "--n", "4", "--t-list", "5"], "N=4 < T+1=6"),
        (["--figure", "1", "--n", "4", "--t-list", "5"], "N=4 < T+1=6"),
    ], ids=["seed", "reps", "fig3-small-n", "fig2-small-n", "fig1-small-n"])
    def test_rejected_run_creates_no_output_directory(self, capsys, tmp_path, args, message):
        out = tmp_path / "sim"
        code, _, err = _run(capsys, "simulate", *args, "--out", str(out))
        assert code == 1
        assert message in err
        assert not out.exists()

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


class TestColdStart:
    def test_import_loads_no_scipy(self):
        # scipy.stats alone costs each command about 0.6 s of start-up
        src = os.path.join(os.path.dirname(os.path.abspath(__file__)), os.pardir, "src")
        code = ("import sys, tminimax, tminimax.cli; "
                "print(sorted(m for m in sys.modules if m.split('.')[0] == 'scipy'))")
        out = subprocess.run([sys.executable, "-c", code], capture_output=True, text=True,
                             env={**os.environ, "PYTHONPATH": src}, check=True, timeout=60)
        assert out.stdout.strip() == "[]"

    def test_runs_without_scipy(self, tmp_path):
        # scipy blocked: the interval and one run of each subcommand still work
        src = os.path.join(os.path.dirname(os.path.abspath(__file__)), os.pardir, "src")
        code = """if True:
            import os, sys
            sys.modules["scipy"] = None
            from tminimax import (LossSpec, ObjectiveMode, conservative_ci, draw_assignment,
                                  integer_solve, observe)
            from tminimax.cli import main
            from tminimax.serialize import write_assignment_csv, write_matrix_csv
            from tminimax.simulate import ModelParams, standard_model
            out = sys.argv[1]
            Z = draw_assignment(integer_solve(200, 5, ObjectiveMode.augmented()), seed=1)
            obs = observe(Z, standard_model(ModelParams(noise_sd=1.0), 200, 5, 2))
            _, half_width = conservative_ci(Z, obs, 3, LossSpec("augmented"), 0.95)
            assert 0.0 < half_width < float("inf")
            write_assignment_csv(os.path.join(out, "z.csv"), Z)
            write_matrix_csv(os.path.join(out, "y.csv"), obs.values)
            for argv in (["design", "--n", "200", "--t", "5"],
                         ["estimate", "--assignment", os.path.join(out, "z.csv"),
                          "--outcomes", os.path.join(out, "y.csv")],
                         ["risk", "--n", "200", "--t", "5", "--draws", "3"],
                         ["simulate", "--figure", "3", "--n", "100", "--t-list", "4",
                          "--reps", "2", "--out", os.path.join(out, "sim")]):
                assert main(argv) == 0, argv
            print("ok")
        """
        out = subprocess.run([sys.executable, "-c", code, str(tmp_path)], capture_output=True,
                             text=True, env={**os.environ, "PYTHONPATH": src}, timeout=120)
        assert out.returncode == 0, out.stderr
        assert out.stdout.endswith("ok\n")


def _parse(capsys, parser, argv):
    """What ``parser`` makes of ``argv``: the namespace, or the exit code
    and the text printed on the way out."""
    try:
        return vars(parser.parse_args(argv))
    except SystemExit as exc:
        out = capsys.readouterr()
        return exc.code, out.out, out.err


class TestParser:
    """``main`` builds only the options of the subcommands its argv names;
    it must parse, print help and fail exactly as the full parser does."""

    @pytest.mark.parametrize("argv", [
        ["design", "--n", "7", "--t", "2", "--mode", "recycling", "--k", "2"],
        ["risk", "--n", "200", "--t", "4", "--draws", "5", "--out", "design"],
        ["estimate", "--assignment", "z.csv", "--outcomes", "y.csv", "--format", "csv"],
        ["simulate", "--figure", "3", "--n", "24", "--t-list", "3", "--out", "sim"],
        ["--help"], ["design", "--help"], ["estimate", "--help"], ["risk", "--help"],
        ["simulate", "--help"], ["--version"], ["--help", "design"],
        ["design", "--n", "7"], ["design", "--n", "seven", "--t", "2"],
        ["risk", "--n", "10", "--t", "2", "--estimator", "bogus"],
        ["design", "--n", "7", "--t", "2", "--bogus"], ["des", "--n", "7"], ["bogus"], [],
    ])
    def test_parses_as_the_full_parser(self, capsys, monkeypatch, argv):
        monkeypatch.setenv("COLUMNS", "80")
        assert _parse(capsys, build_parser(only=argv), argv) == _parse(capsys, build_parser(), argv)

    def test_builds_only_the_named_subcommand(self):
        parser = build_parser(only=["risk", "--n", "10"])
        subs = next(a for a in parser._actions if isinstance(a, argparse._SubParsersAction))
        built = {name for name, sub in subs.choices.items() if len(sub._actions) > 1}
        assert list(subs.choices) == ["design", "estimate", "risk", "simulate"]
        assert built == {"risk"}
