import json
import math

import numpy as np
import pytest

import workloads
from tminimax import cli
from tminimax.allocation import ObjectiveMode, integer_solve, objective
from tminimax.core import Allocation, draw_assignment, observe
from tminimax.serialize import write_assignment_csv, write_matrix_csv
from tminimax.simulate import ModelParams, habituation_model
from workloads import CheckFailed


def run_cli(tmp_path, argv, name="out.json"):
    out = tmp_path / name
    assert cli.main(argv + ["--out", str(out)]) == 0
    return out.read_bytes()


@pytest.fixture
def design_rows(tmp_path):
    return json.loads(run_cli(tmp_path, ["design", "--n", "200", "--t", "5"]))


def with_counts(rows, counts, T=5, mode=ObjectiveMode.basic()):
    rows = [dict(r) for r in rows]
    for row, c in zip(rows, counts):
        row["count"] = c
    rows[-1]["count"] = objective(Allocation(counts[0], counts[1], tuple(counts[2:])), T, mode)
    return rows


def test_design_check_accepts_the_solver_output(design_rows):
    workloads.check_design(design_rows, 200, 5, ObjectiveMode.basic())


def test_design_check_rejects_wrong_total(design_rows):
    design_rows[2]["count"] += 1
    with pytest.raises(CheckFailed, match="sum"):
        workloads.check_design(design_rows, 200, 5, ObjectiveMode.basic())


def test_design_check_rejects_misreported_objective(design_rows):
    design_rows[-1]["count"] *= 1.0 + 1e-9
    with pytest.raises(CheckFailed, match="reported objective"):
        workloads.check_design(design_rows, 200, 5, ObjectiveMode.basic())


def test_design_check_rejects_an_improvable_allocation(design_rows):
    counts = [r["count"] for r in design_rows[:-1]]
    counts[0] += 1
    counts[2] -= 1
    with pytest.raises(CheckFailed, match="improves"):
        workloads.check_design(with_counts(design_rows, counts), 200, 5, ObjectiveMode.basic())


def test_design_check_rejects_an_empty_arm(design_rows):
    counts = [r["count"] for r in design_rows[:-1]]
    counts[0] += counts[3]
    counts[3] = 0
    rows = [dict(r, count=c) for r, c in zip(design_rows, counts)] + design_rows[-1:]
    with pytest.raises(CheckFailed, match="empty arm"):
        workloads.check_design(rows, 200, 5, ObjectiveMode.basic())


def test_design_workload_rejects_a_changed_repeat(tmp_path):
    w = workloads.Design()
    w.setup(3, str(tmp_path))
    first = w.pass_len  # op in the second pass with the same instance as op 0
    while w.instance(first) != w.instance(0):
        first += 1
    assert w.op(0) == 0
    data = w.output(0)
    w.check(0, data)
    w.check(first, data)
    with pytest.raises(CheckFailed, match="previous pass"):
        w.check(first, data.replace(b"}]", b"} ]"))


@pytest.fixture
def risk_rows(tmp_path):
    return json.loads(run_cli(tmp_path, ["risk", "--n", "200", "--t", "4", "--draws", "200",
                                         "--unnormalized", "--seed", "1"]))


def test_risk_check_accepts_the_cli_output(risk_rows):
    workloads.check_risk(risk_rows)
    workloads.check_risk_pooled({("plugin", r["design"]): [r] for r in risk_rows})


def test_risk_check_rejects_missing_draws(risk_rows):
    risk_rows[0]["mc_se"] = float("nan")
    with pytest.raises(CheckFailed, match="non-finite"):
        workloads.check_risk(risk_rows)


def test_risk_check_rejects_a_missing_design(risk_rows):
    with pytest.raises(CheckFailed, match="rows are for"):
        workloads.check_risk(risk_rows[1:])


def test_pooled_risk_check_rejects_mc_risk_far_from_max_risk(risk_rows):
    row = risk_rows[1]
    far = dict(row, mc_risk=row["max_risk"] + 3.6 * row["mc_se"])
    # two ops 3.6 se off each: 5.1 pooled se
    with pytest.raises(CheckFailed, match="se from max_risk"):
        workloads.check_risk_pooled({("plugin", "minimax"): [far, far]})
    workloads.check_risk_pooled({("plugin", "minimax"): [far]})


def test_pooled_risk_check_rejects_ops_that_disagree_on_max_risk(risk_rows):
    row = risk_rows[0]
    with pytest.raises(CheckFailed, match="differs between ops"):
        workloads.check_risk_pooled({("plugin", "balanced"): [
            row, dict(row, max_risk=row["max_risk"] * (1 + 1e-15))]})


@pytest.fixture
def experiment(tmp_path):
    N, T = 150, 5
    sched = habituation_model(ModelParams(), N, T, seed=4)
    Z = draw_assignment(integer_solve(N, T, ObjectiveMode.augmented()), seed=5)
    obs = observe(Z, sched)
    write_assignment_csv(str(tmp_path / "z.csv"), Z)
    write_matrix_csv(str(tmp_path / "y.csv"), obs.values)
    rows = json.loads(run_cli(tmp_path, ["estimate", "--assignment", str(tmp_path / "z.csv"),
                                         "--outcomes", str(tmp_path / "y.csv"),
                                         "--estimator", "augmented"]))
    return rows, Z, obs


def test_estimate_check_accepts_the_cli_output(experiment):
    workloads.check_estimates(*experiment)


@pytest.mark.parametrize("field", ["habituation", "instantaneous"])
def test_estimate_check_rejects_a_one_ulp_change(experiment, field):
    rows, Z, obs = experiment
    rows[2][field] = float(np.nextafter(rows[2][field], math.inf))
    with pytest.raises(CheckFailed, match="library gives"):
        workloads.check_estimates(rows, Z, obs)


def test_estimate_check_rejects_a_missing_period(experiment):
    rows, Z, obs = experiment
    with pytest.raises(CheckFailed, match="cover"):
        workloads.check_estimates(rows[:-1], Z, obs)


@pytest.fixture
def fig3_rows(tmp_path):
    assert cli.main(["simulate", "--figure", "3", "--n", "200", "--t-list", "3,4", "--reps", "3",
                     "--model", "habituation", "--out", str(tmp_path)]) == 0
    return workloads.parse_fig3((tmp_path / "expected_risk_habituation.csv").read_bytes())


def test_fig3_check_accepts_the_cli_output(fig3_rows):
    workloads.check_fig3_rows(fig3_rows, (3, 4))


def test_fig3_check_rejects_a_missing_row(fig3_rows):
    with pytest.raises(CheckFailed, match="rows are"):
        workloads.check_fig3_rows(fig3_rows[:-1], (3, 4))


@pytest.mark.parametrize("bad", ["-0.5", "nan", "inf"])
def test_fig3_check_rejects_a_bad_loss(fig3_rows, bad):
    fig3_rows[1]["q90_loss"] = bad
    with pytest.raises(CheckFailed, match="q90_loss"):
        workloads.check_fig3_rows(fig3_rows, (3, 4))


def test_fig3_pooled_check_needs_minimax_below_balanced():
    good = {(10, "balanced"): 3.0, (10, "minimax"): 2.0, (20, "balanced"): 9.0,
            (20, "minimax"): 7.0}
    workloads.check_fig3_pooled(good)
    with pytest.raises(CheckFailed, match="T=20"):
        workloads.check_fig3_pooled({**good, (20, "minimax"): 9.0})
