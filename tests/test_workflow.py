"""End-to-end library workflow: design, randomize, observe, infer."""

import numpy as np
import pytest

from conftest import schedule_violations
from tminimax import (
    LossSpec,
    ModelParams,
    ObjectiveMode,
    conservative_ci,
    draw_assignment,
    estimands,
    habituation_model,
    integer_solve,
    observe,
)
from tminimax.allocation import balanced, objective
from tminimax.risk import max_risk
from tminimax.simulate import maxrisk_table


def test_design_run_estimate_cycle_recovers_effects():
    # a realistic-size experiment: optimal design, one randomization, then
    # wide conservative intervals should cover both true effect series
    N, T = 2000, 6
    alloc = integer_solve(N, T, ObjectiveMode.augmented())
    sched = habituation_model(ModelParams(noise_sd=2.0), N, T, seed=5)
    assert not schedule_violations(sched)
    hab_true, inst_true = estimands(sched)
    Z = draw_assignment(alloc, seed=99)
    obs = observe(Z, sched)
    spec = LossSpec("augmented", 0.5)
    for t in range(2, T + 1):
        est, hw = conservative_ci(Z, obs, t, spec, 0.999)
        assert abs(est - inst_true.at(t)) <= hw
        est, hw = conservative_ci(Z, obs, t, spec, 0.999, target="habituation")
        assert abs(est - hab_true.at(t)) <= hw


def test_maxrisk_ratios_match_objective_ratios():
    # in the panel where every design uses the plug-in loss, the reported
    # ratio must equal the ratio of the corresponding allocation objectives
    N, T = 300, 6
    rows = maxrisk_table(N, [T])
    mini = integer_solve(N, T, ObjectiveMode.basic())
    bal = balanced(N, T)
    want = objective(mini, T, ObjectiveMode.basic()) / objective(bal, T, ObjectiveMode.basic())
    got = next(r["ratio_to_balanced"] for r in rows
               if r["panel"] == "augmented_only" and r["design"] == "minimax")
    # max_risk and objective are independent computations of the same sum,
    # so they agree only up to rounding
    assert got == pytest.approx(want, rel=1e-14)

    # the worst-case scale factor cancels exactly within max_risk
    spec = LossSpec("plugin", 0.5, unnormalized=True)
    base = max_risk(mini, T, 1.0, spec) / max_risk(bal, T, 1.0, spec)
    for vstar in (0.25, 8.0):
        assert max_risk(mini, T, vstar, spec) / max_risk(bal, T, vstar, spec) == base


def test_habituation_interval_coverage():
    # habituation-target intervals should cover at close to nominal rate
    N, T, reps = 120, 4, 400
    rng = np.random.default_rng(77)
    sched = habituation_model(ModelParams(noise_sd=3.0), N, T, seed=13)
    hab_true, _ = estimands(sched)
    alloc = integer_solve(N, T, ObjectiveMode.basic())
    spec = LossSpec("plugin", 0.5)
    hits = 0
    for rep in range(reps):
        Z = draw_assignment(alloc, seed=rep)
        obs = observe(Z, sched)
        for t in range(2, T + 1):
            est, hw = conservative_ci(Z, obs, t, spec, 0.95, target="habituation")
            hits += abs(est - hab_true.at(t)) <= hw
    assert hits / (reps * (T - 1)) >= 0.93
