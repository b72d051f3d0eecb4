"""Acceptance suite: one test per criterion, each printing a PASS/FAIL line.

Run ``pytest -s tests/test_acceptance.py`` to see the per-criterion lines
(under plain ``pytest`` they appear for failing criteria only).  Every
tolerance and runtime cap is asserted exactly as stated; nothing is
deferred to later calibration.
"""

import itertools
import time
from math import fsum

import numpy as np

from conftest import random_schedule, spread_allocation
from tminimax.allocation import (
    ObjectiveMode,
    balanced,
    brute_force_opt,
    integer_solve,
    objective,
    relaxed_augmented,
    relaxed_basic,
    relaxed_weighted,
    stationarity_residual,
)
from tminimax.core import (
    ALWAYS_CONTROL,
    ALWAYS_TREATED,
    Allocation,
    AssignmentMatrix,
    Family,
    ObservedOutcomes,
    PotentialOutcomeSchedule,
    draw_assignment,
    enumerate_assignments,
    observe,
    permute_units,
    pulse_arm,
)
from tminimax.estimators import (
    augmented_instantaneous_estimate,
    estimands,
    habituation_estimate,
    instantaneous_estimate,
    recycling_instantaneous_estimate,
)
from tminimax.risk import (
    LossSpec,
    box_max_variance,
    conservative_ci,
    exact_risk,
    loss,
    max_risk,
    mc_risk,
    worst_case_schedule,
)
from tminimax.simulate import expected_risk_comparison, maxrisk_table


def _report(num: int, ok: bool, detail: str) -> bool:
    print(f"[criterion {num:02d}] {'PASS' if ok else 'FAIL'}: {detail}")
    return ok


def _positive_allocations(N, T):
    for parts in itertools.product(range(1, N), repeat=T):
        n1, *ne = parts
        n0 = N - n1 - sum(ne)
        if n0 >= 1:
            yield Allocation(n0, n1, tuple(ne))


def test_criterion_01_closed_form_reference_values():
    relaxed_basic(10000, 30), balanced(10000, 30)  # warm any lazy setup
    elapsed = min(
        _timed(lambda: (relaxed_basic(10000, 30), balanced(10000, 30)))
        for _ in range(5)
    )
    alloc = relaxed_basic(10000, 30)
    bal = balanced(10000, 30)
    ok = (
        abs(alloc.n1 - 1040) < 0.5
        and abs(alloc.n0 - 1040) < 0.5
        and all(abs(v - 273) < 0.5 for v in alloc.ne)
        and set(bal.counts) <= {322, 323}
        and elapsed < 1e-3
    )
    assert _report(1, ok, f"n1=n0={alloc.n1:.2f}, pulses={alloc.ne[0]:.2f}, "
                          f"balanced in {sorted(set(bal.counts))}, {elapsed * 1e6:.0f}us")


def _timed(fn):
    start = time.perf_counter()
    fn()
    return time.perf_counter() - start


def test_criterion_02_integer_solver_matches_enumeration():
    modes = [
        ObjectiveMode.basic(),
        ObjectiveMode.augmented(),
        ObjectiveMode.weighted(0.0),
        ObjectiveMode.weighted(0.3),
        ObjectiveMode.weighted(0.5),
        ObjectiveMode.weighted(0.8),
        ObjectiveMode.weighted(1.0),
        ObjectiveMode.recycling(1),
        ObjectiveMode.recycling(2),
    ]
    start = time.perf_counter()
    checked, mismatches = 0, []
    for T in (2, 3, 4):
        for N in range(T + 1, 31):
            for mode in modes:
                got = objective(integer_solve(N, T, mode), T, mode)
                want = objective(brute_force_opt(N, T, mode), T, mode)
                checked += 1
                if got != want:
                    mismatches.append((N, T, mode, got, want))
    elapsed = time.perf_counter() - start
    ok = not mismatches and elapsed < 60.0
    assert _report(2, ok, f"{checked} instances, {len(mismatches)} mismatches, "
                          f"{elapsed:.1f}s")


def test_criterion_03_relaxations_satisfy_first_order_conditions():
    worst = 0.0
    N = 777.0
    for T in (2, 3, 5, 10, 30, 50):
        worst = max(worst, stationarity_residual(relaxed_basic(N, T), T, ObjectiveMode.basic()))
        worst = max(worst, stationarity_residual(relaxed_augmented(N, T), T,
                                                 ObjectiveMode.augmented()))
        for rho in (0.0, 0.3, 0.5, 0.8, 1.0):
            worst = max(worst, stationarity_residual(relaxed_weighted(N, T, rho), T,
                                                     ObjectiveMode.weighted(rho)))
    agreement = 0.0
    for T in (2, 3, 10, 40):
        w = relaxed_weighted(N, T, 0.5)
        a = relaxed_augmented(N, T)
        agreement = max(agreement, max(
            abs(x - y) / y for x, y in zip(w.counts, a.counts) if y > 0
        ))
    zero_n1 = relaxed_weighted(N, 10, 0.0).n1
    zero_n0 = relaxed_weighted(N, 10, 1.0).n0
    ok = worst < 1e-8 and agreement < 1e-12 and zero_n1 == 0.0 and zero_n0 == 0.0
    assert _report(3, ok, f"max gradient residual {worst:.2e}, "
                          f"weighted-vs-augmented {agreement:.2e}, "
                          f"boundary counts ({zero_n1}, {zero_n0})")


def test_criterion_04_worst_case_risk_identity():
    start = time.perf_counter()
    spec = LossSpec("plugin", 0.5, unnormalized=True)
    worst_rel = 0.0
    checked = 0
    for T in (2, 3):
        for N in range(T + 1, 9):
            sched = worst_case_schedule(N, T, 0.0, 1.0)
            vstar = box_max_variance(N, 0.0, 1.0)
            for alloc in _positive_allocations(N, T):
                got = exact_risk(alloc, sched, spec)
                want = max_risk(alloc, T, vstar, spec)
                worst_rel = max(worst_rel, abs(got - want) / want)
                checked += 1
    N, T = 200, 5
    alloc = integer_solve(N, T, ObjectiveMode.basic())
    sched = worst_case_schedule(N, T, 0.0, 1.0)
    vstar = box_max_variance(N, 0.0, 1.0)
    want = max_risk(alloc, T, vstar, spec)
    report = mc_risk(alloc, sched, spec, draws=100_000, seed=20260809)
    z = abs(report.mc_risk - want) / report.mc_se
    elapsed = time.perf_counter() - start
    ok = worst_rel < 1e-12 and z < 3.0 and elapsed < 30.0
    assert _report(4, ok, f"{checked} enumerations (max rel err {worst_rel:.2e}), "
                          f"MC z-score {z:.2f} over {report.draws} draws, {elapsed:.1f}s")


def test_criterion_05_estimators_unbiased_over_all_assignments():
    cases = [(5, 2), (6, 2), (6, 3), (7, 3), (8, 3)]
    worst = 0.0
    schedules = 0
    for rep in range(4):  # 4 seeds x 5 sizes = 20 schedules
        for N, T in cases:
            rng = np.random.default_rng(1000 + 17 * rep + N + T)
            sched = random_schedule(rng, N, T, k=1)
            alloc = spread_allocation(N, T)
            hab, inst = estimands(sched)
            schedules += 1
            acc = {name: {t: [] for t in range(2, T + 1)}
                   for name in ("hab", "plug", "aug", "rec")}
            for Z in enumerate_assignments(alloc):
                obs = observe(Z, sched)
                for t in range(2, T + 1):
                    acc["hab"][t].append(habituation_estimate(Z, obs, t))
                    acc["plug"][t].append(instantaneous_estimate(Z, obs, t))
                    acc["aug"][t].append(augmented_instantaneous_estimate(Z, obs, t))
                    acc["rec"][t].append(recycling_instantaneous_estimate(Z, obs, t, 1))
            for t in range(2, T + 1):
                for name, target in (("hab", hab.at(t)), ("plug", inst.at(t)),
                                     ("aug", inst.at(t)), ("rec", inst.at(t))):
                    mean = fsum(acc[name][t]) / len(acc[name][t])
                    worst = max(worst, abs(mean - target))
    ok = schedules == 20 and worst < 1e-12
    assert _report(5, ok, f"{schedules} schedules, max |enumeration mean - estimand| "
                          f"= {worst:.2e}")


def test_criterion_06_loss_permutation_invariance():
    specs = [
        LossSpec("plugin", 0.5, unnormalized=True),
        LossSpec("augmented", 0.5, unnormalized=True),
        LossSpec("recycling", 0.5, k=1, unnormalized=True),
    ]
    rng = np.random.default_rng(424242)
    failures = 0
    for spec in specs:
        for trial in range(100):
            N, T = int(rng.integers(5, 10)), int(rng.integers(2, 4))
            sched = random_schedule(rng, N, T, k=spec.k)
            Z = draw_assignment(spread_allocation(N, T), seed=trial)
            perm = rng.permutation(N)
            if loss(permute_units(Z, perm), permute_units(sched, perm), spec) != (
                loss(Z, sched, spec)
            ):
                failures += 1
    ok = failures == 0
    assert _report(6, ok, f"300 (assignment, schedule, permutation) triples, "
                          f"{failures} exact mismatches")


def test_criterion_07_worst_case_risk_ratio_table():
    start = time.perf_counter()
    rows = maxrisk_table(1000, [10, 20, 30, 40, 50])
    elapsed = time.perf_counter() - start
    ok = True
    for panel in ("augmented_only", "augmented_everywhere"):
        for design in ("minimax", "augmented_minimax"):
            series = [r["ratio_to_balanced"] for r in rows
                      if r["panel"] == panel and r["design"] == design]
            ok &= all(v <= 1.0 for v in series)
            ok &= all(x > y for x, y in zip(series, series[1:]))
    left50 = next(r["ratio_to_balanced"] for r in rows
                  if r["panel"] == "augmented_only"
                  and r["design"] == "augmented_minimax" and r["T"] == 50)
    ok &= left50 <= 0.85 and elapsed < 1.0
    assert _report(7, ok, f"ratios <= 1 and decreasing in T; augmented ratio at "
                          f"T=50 is {left50:.3f} (<= 0.85), {elapsed:.2f}s")


def test_criterion_08_expected_risk_ordering():
    start = time.perf_counter()
    ok = True
    details = []
    for model in ("standard", "habituation"):
        rows = expected_risk_comparison([500], [10, 15, 20, 25, 30], model=model,
                                        reps=100, seed=0)
        by = {(r["T"], r["design"]): r["mean_loss"] for r in rows}
        gaps = []
        for T in (10, 15, 20, 25, 30):
            gaps.append(by[(T, "balanced")] - by[(T, "minimax")])
            ok &= by[(T, "minimax")] < by[(T, "balanced")]
        for design in ("balanced", "minimax"):
            series = [by[(T, design)] for T in (10, 15, 20, 25, 30)]
            ok &= all(x < y for x, y in zip(series, series[1:]))
        details.append(f"{model}: min gap {min(gaps):.2f}")
    elapsed = time.perf_counter() - start
    ok &= elapsed < 300.0
    assert _report(8, ok, f"minimax < balanced and loss increasing in T "
                          f"({'; '.join(details)}), {elapsed:.0f}s")


def test_criterion_09_wedge_assignments_reproduce_pulse_estimates():
    rng = np.random.default_rng(99)
    failures = 0
    for case in range(50):
        N, T = int(rng.integers(6, 11)), int(rng.integers(2, 5))
        sched = random_schedule(rng, N, T)
        Zp = draw_assignment(spread_allocation(N, T), Family.PULSE, seed=case)
        Zw = AssignmentMatrix(
            [a.with_family(Family.WEDGE) if a.t is not None else a
             for a in Zp.arm_labels], T,
        )
        obs = observe(Zp, sched)
        wedge_values = obs.values.copy()
        for i, arm in enumerate(Zw.arm_labels):
            if arm.t is not None and arm.t < T:
                # cells where continued treatment diverges from the pulse
                wedge_values[i, arm.t:] = rng.normal(size=T - arm.t) * 50
        wobs = ObservedOutcomes(wedge_values)
        for t in range(2, T + 1):
            same = (
                habituation_estimate(Zw, wobs, t) == habituation_estimate(Zp, obs, t)
                and instantaneous_estimate(Zw, wobs, t) == instantaneous_estimate(Zp, obs, t)
                and augmented_instantaneous_estimate(Zw, wobs, t)
                == augmented_instantaneous_estimate(Zp, obs, t)
            )
            failures += not same
    ok = failures == 0
    assert _report(9, ok, f"50 wedge runs with corrupted post-pulse cells, "
                          f"{failures} estimate mismatches")


def test_criterion_10_conservative_interval_coverage():
    start = time.perf_counter()
    N, T, reps, level = 200, 5, 2000, 0.95
    rng = np.random.default_rng(321)
    base = rng.normal(size=(N, T))
    gain = rng.uniform(0.0, 7.0, size=N)  # strongly heterogeneous unit effects
    arms = {ALWAYS_CONTROL: base, ALWAYS_TREATED: base + 1.0 + 0.2 * gain[:, None]}
    for tp in range(2, T + 1):
        m = base.copy()
        m[:, tp - 1] += gain
        m[:, tp:] += 0.3 * gain[:, None]
        arms[pulse_arm(tp)] = m
    sched = PotentialOutcomeSchedule(arms)
    _, inst = estimands(sched)
    alloc = integer_solve(N, T, ObjectiveMode.basic())
    spec = LossSpec("plugin", 0.5)
    covered = {t: 0 for t in range(2, T + 1)}
    for rep in range(reps):
        Z = draw_assignment(alloc, seed=rep)
        obs = observe(Z, sched)
        for t in range(2, T + 1):
            estimate, half_width = conservative_ci(Z, obs, t, spec, level)
            covered[t] += abs(estimate - inst.at(t)) <= half_width
    rates = {t: covered[t] / reps for t in covered}
    elapsed = time.perf_counter() - start
    ok = all(rate >= 0.94 for rate in rates.values()) and elapsed < 120.0
    assert _report(10, ok, f"coverage by t: "
                           f"{ {t: round(r, 3) for t, r in rates.items()} }, {elapsed:.0f}s")
