"""The benchmark's four workloads and their correctness checks.

Every workload is a closed loop: one caller, one process, one thread, the
next op starts when the previous one returns.  One op is one in-process
``tminimax.cli.main(argv)`` call (what a user of the ``tminimax`` command
waits on), except in ``estimate-files``, where it is one write-then-estimate
round trip.  The program sees only inputs generated from the workload seed.

Checks run outside the timed region and raise `CheckFailed`.
"""

from __future__ import annotations

import csv
import io
import json
import math
import os

import numpy as np

from tminimax import cli, core, serialize
from tminimax.allocation import (
    ObjectiveMode,
    balanced,
    integer_solve,
    objective,
    relaxed_augmented,
    relaxed_basic,
    relaxed_recycling,
    relaxed_weighted,
)
from tminimax.core import Allocation
from tminimax.estimators import augmented_instantaneous_estimate, habituation_estimate
from tminimax.simulate import ModelParams, habituation_model


class CheckFailed(Exception):
    """An op's output is wrong."""


# ---------------------------------------------------------------------------
# design
# ---------------------------------------------------------------------------

DESIGN_MODES = ((ObjectiveMode.basic(), ()), (ObjectiveMode.augmented(), ()),
                (ObjectiveMode.weighted(0.3), ("--rho", "0.3")),
                (ObjectiveMode.recycling(2), ("--k", "2")))
DESIGN_T = (30, 50)
# Solve time swings up to 10x between N a few thousand apart (it follows how
# far the rounded relaxation lies from the integer optimum), so N comes from
# a fixed grid over [5000, 50000] and the seed only orders each pass.  With
# a fresh N drawn from the seed for every op, the quartile spread over five
# seeds was 0.15 for throughput and 0.34 for the tail; with the grid, 0.10
# and 0.14.
DESIGN_N = (5000, 20000, 35000, 50000)
DESIGN_INSTANCES = tuple((N, T, mode, extra) for N in DESIGN_N for mode, extra in DESIGN_MODES
                         for T in DESIGN_T)


def _relaxed(N: int, T: int, mode: ObjectiveMode):
    if mode.kind == "basic":
        return relaxed_basic(float(N), T)
    if mode.kind == "augmented":
        return relaxed_augmented(float(N), T)
    if mode.kind == "weighted":
        return relaxed_weighted(float(N), T, mode.rho)
    return relaxed_recycling(float(N), T, mode.k)


def check_design(rows: list[dict], N: int, T: int, mode: ObjectiveMode) -> None:
    """Counts sum to N with every arm holding a unit (no mode in the list
    drops an arm); the reported objective is the objective of the counts;
    relaxed <= integer <= balanced objective; no single-unit transfer
    improves the integer objective."""
    if len(rows) != T + 2 or rows[-1]["arm"] != "objective":
        raise CheckFailed(f"design output has {len(rows)} rows, expected {T + 2}")
    counts = [row["count"] for row in rows[:-1]]
    if any(not isinstance(c, int) for c in counts):
        raise CheckFailed(f"non-integer count in {counts}")
    if sum(counts) != N:
        raise CheckFailed(f"counts sum to {sum(counts)}, expected N={N}")
    if min(counts) < 1:
        raise CheckFailed(f"empty arm in {counts}")
    alloc = Allocation(counts[0], counts[1], tuple(counts[2:]))
    value = objective(alloc, T, mode)
    if rows[-1]["count"] != value:
        raise CheckFailed(f"reported objective {rows[-1]['count']!r} != {value!r}")
    relaxed_value = objective(_relaxed(N, T, mode), T, mode)
    if relaxed_value > value * (1.0 + 1e-12):
        raise CheckFailed(f"relaxed objective {relaxed_value!r} > integer {value!r}")
    balanced_value = objective(balanced(N, T), T, mode)
    if value > balanced_value:
        raise CheckFailed(f"integer objective {value!r} > balanced {balanced_value!r}")
    for src in range(T + 1):
        if counts[src] <= 1:
            continue
        for dst in range(T + 1):
            if dst == src:
                continue
            moved = list(counts)
            moved[src] -= 1
            moved[dst] += 1
            if objective(Allocation(moved[0], moved[1], tuple(moved[2:])), T, mode) < value:
                raise CheckFailed(f"moving a unit from arm {src} to arm {dst} improves "
                                  f"the objective")


class Design:
    """``design``: ``tminimax design`` over a fixed list of 32 instances,
    modes {basic, augmented, weighted --rho 0.3, recycling --k 2} x T in
    {30, 50} x N in {5000, 20000, 35000, 50000}.  The seed shuffles the
    order of each pass over the list.  A run always completes whole passes
    over the list, so the mix of instances is fixed.

    Why: ``allocation`` does about 99% of the work.  It rescans (T+1)^2
    transfers and re-evaluates the objective each time, and the recycling
    case also runs a Newton solve.  Every other layer is idle.

    Moves: ``allocation.integer_solve.self_ms`` and
    ``allocation.integer_solve.calls`` -> ``throughput_ops_s`` and
    ``latency_p50_ms`` here; ``allocation.relaxed.ms`` -> the recycling
    instances here; ``allocation.objective.ms`` and
    ``allocation.balanced.ms`` -> here and ``mc-risk`` (small).  This is
    the bypass workload for a Monte Carlo change: the prediction is no
    change.
    """

    name = "design"
    pass_len = len(DESIGN_INSTANCES)

    def setup(self, seed: int, workdir: str) -> None:
        self.seed = seed
        self.out = os.path.join(workdir, "design.json")
        self.orders: dict[int, np.ndarray] = {}
        self.seen: dict[tuple, bytes] = {}

    def instance(self, i: int) -> tuple[int, int, ObjectiveMode, tuple[str, ...]]:
        p = i // self.pass_len
        if p not in self.orders:
            rng = np.random.default_rng(np.random.SeedSequence((self.seed, p)))
            self.orders[p] = rng.permutation(self.pass_len)
        return DESIGN_INSTANCES[self.orders[p][i % self.pass_len]]

    def op(self, i: int) -> int:
        N, T, mode, extra = self.instance(i)
        return cli.main(["design", "--n", str(N), "--t", str(T), "--mode", mode.kind, *extra,
                         "--out", self.out])

    def output(self, i: int) -> bytes:
        with open(self.out, "rb") as handle:
            return handle.read()

    def check(self, i: int, data: bytes) -> None:
        key = self.instance(i)
        if key in self.seen:
            # every pass repeats the list: same inputs, same bytes
            if data != self.seen[key]:
                raise CheckFailed(f"{key}: output differs from the previous pass")
            return
        N, T, mode, _ = key
        check_design(json.loads(data), N, T, mode)
        self.seen[key] = data

    def finish(self) -> None:
        pass


# ---------------------------------------------------------------------------
# mc-risk
# ---------------------------------------------------------------------------

RISK_ESTIMATORS = (("plugin", ()), ("augmented", ()), ("recycling", ("--k", "2")))
RISK_DESIGNS = ("balanced", "minimax", "augmented")


# Measured over 900 (op, design) rows of this workload: z = (mc_risk -
# max_risk) / mc_se has mean -0.10 and sd 0.99, but a heavier tail than a
# normal (|z| reached 3.9), because with 100 draws a low sample mean comes
# with a low sample se.  A per-op 4-se test over the thousands of rows a
# campaign of runs checks would fail by chance, so each op gets a sanity
# check and the identity is tested on the estimate pooled over the run.
RISK_POOLED_SE = 5.0


def check_risk(rows: list[dict]) -> None:
    """One op's rows: the three designs, finite risks, a positive se."""
    if [row["design"] for row in rows] != list(RISK_DESIGNS):
        raise CheckFailed(f"risk rows are for {[row['design'] for row in rows]}")
    for row in rows:
        if not all(math.isfinite(row[k]) for k in ("max_risk", "mc_risk", "mc_se")) or (
                row["mc_se"] <= 0.0 or row["max_risk"] <= 0.0):
            raise CheckFailed(f"{row['design']}: non-finite or non-positive risk in {row}")


def check_risk_pooled(pooled: dict[tuple[str, str], list[dict]]) -> None:
    """Per (estimator, design), the Monte Carlo risk pooled over the run's
    ops (independent seeds) lies within 5 pooled standard errors of the
    closed-form maximum risk, which every op must report identically: at
    the worst-case schedule the two agree (the paper's worst-case
    identity)."""
    for (estimator, design), rows in sorted(pooled.items()):
        analytic = rows[0]["max_risk"]
        if any(row["max_risk"] != analytic for row in rows):
            raise CheckFailed(f"{estimator}/{design}: max_risk differs between ops")
        mean = math.fsum(row["mc_risk"] for row in rows) / len(rows)
        se = math.sqrt(math.fsum(row["mc_se"] ** 2 for row in rows)) / len(rows)
        if abs(mean - analytic) > RISK_POOLED_SE * se:
            raise CheckFailed(f"{estimator}/{design}: pooled mc_risk {mean!r} is "
                              f"{abs(mean - analytic) / se:.2f} se from max_risk {analytic!r}")


class MCRisk:
    """``mc-risk``: ``tminimax risk --n 10000 --t 20 --designs
    balanced,minimax,augmented --draws 100 --unnormalized``.  The estimator
    cycles through plugin, augmented and recycling --k 2; the seed is the
    workload seed plus the op index.  A run covers whole cycles.

    Why: ``risk.mc_risk``'s per-draw Python loop is about 95% of an op, and
    ``integer_solve`` at T=20 about 3%.  This is the bypass workload for an
    allocation change, and ``design`` is the bypass workload for a Monte
    Carlo change.

    Moves: ``risk.mc_risk.ms`` and ``risk.mc_risk.us_per_draw`` ->
    ``throughput_ops_s`` here, no change anywhere else;
    ``risk.max_risk.ms``, ``risk.box_max_variance.ms`` and
    ``risk.worst_case_schedule.ms`` -> here; ``allocation.integer_solve.*``
    is about 3% here, so the prediction for an allocation change is no
    change; ``core.*``: no change here.
    """

    name = "mc-risk"
    pass_len = len(RISK_ESTIMATORS)

    def setup(self, seed: int, workdir: str) -> None:
        self.seed = seed
        self.out = os.path.join(workdir, "risk.json")
        self.pooled: dict[tuple[str, str], list[dict]] = {}

    def op(self, i: int) -> int:
        estimator, extra = RISK_ESTIMATORS[i % len(RISK_ESTIMATORS)]
        return cli.main(["risk", "--n", "10000", "--t", "20",
                         "--designs", ",".join(RISK_DESIGNS), "--draws", "100",
                         "--unnormalized", "--estimator", estimator, *extra,
                         "--seed", str(self.seed + i), "--out", self.out])

    def output(self, i: int) -> bytes:
        with open(self.out, "rb") as handle:
            return handle.read()

    def check(self, i: int, data: bytes) -> None:
        rows = json.loads(data)
        check_risk(rows)
        estimator = RISK_ESTIMATORS[i % len(RISK_ESTIMATORS)][0]
        for row in rows:
            self.pooled.setdefault((estimator, row["design"]), []).append(row)

    def finish(self) -> None:
        check_risk_pooled(self.pooled)


# ---------------------------------------------------------------------------
# estimate-files
# ---------------------------------------------------------------------------

ESTIMATE_N, ESTIMATE_T = 20000, 20


def check_estimates(rows: list[dict], Z, obs) -> None:
    """The CLI's estimates equal the library estimators on the in-memory
    assignment and outcomes, bit for bit."""
    if [row["t"] for row in rows] != list(range(2, Z.T + 1)):
        raise CheckFailed(f"estimate rows cover t={[row['t'] for row in rows]}")
    for row in rows:
        t = row["t"]
        hab = habituation_estimate(Z, obs, t)
        inst = augmented_instantaneous_estimate(Z, obs, t)
        if row["habituation"] != hab or row["instantaneous"] != inst:
            raise CheckFailed(f"t={t}: CLI gave ({row['habituation']!r}, "
                              f"{row['instantaneous']!r}), library gives ({hab!r}, {inst!r})")


class EstimateFiles:
    """``estimate-files``: set-up builds a ``habituation_model`` schedule at
    N=20000, T=20 plus the augmented integer design.  Each op does four
    steps: ``core.draw_assignment`` seeded by (workload seed, op);
    ``core.observe``; ``serialize.write_assignment_csv`` and
    ``serialize.write_matrix_csv``; ``tminimax estimate --estimator
    augmented`` on those files.

    Why: ``serialize`` runs both ways in this workload, writes beside
    reads.  Reading is about 80% of the CLI time, because of a per-row
    ``np.isin`` decode.  ``core`` builds ``AssignmentMatrix`` through the
    per-unit ``ArmId`` and ``make_arm_vector`` path, which ``mc-risk``
    never takes.

    Moves: ``serialize.read_*.ms``, ``serialize.write_*.ms``,
    ``serialize.table_write.ms``, ``serialize.read_mb_s`` and
    ``serialize.write_mb_s`` -> ``latency_p50_ms`` here;
    ``core.draw_assignment.ms``, ``core.observe.ms`` and
    ``core.make_arm_vector.calls`` -> here and ``fig3-sim``;
    ``estimators.estimate.ms`` and ``estimators.estimate.calls`` -> here,
    small; ``simulate.model.ms`` only moves ``setup_s`` here.
    """

    name = "estimate-files"
    pass_len = 1

    def setup(self, seed: int, workdir: str) -> None:
        self.seed = seed
        self.sched = habituation_model(ModelParams(), ESTIMATE_N, ESTIMATE_T,
                                       seed=np.random.SeedSequence((seed,)))
        self.alloc = integer_solve(ESTIMATE_N, ESTIMATE_T, ObjectiveMode.augmented())
        self.assignment = os.path.join(workdir, "assignment.csv")
        self.outcomes = os.path.join(workdir, "outcomes.csv")
        self.out = os.path.join(workdir, "estimate.json")
        self.last = None

    def op(self, i: int) -> int:
        Z = core.draw_assignment(self.alloc, seed=np.random.SeedSequence((self.seed, i)))
        obs = core.observe(Z, self.sched)
        serialize.write_assignment_csv(self.assignment, Z)
        serialize.write_matrix_csv(self.outcomes, obs.values)
        self.last = (Z, obs)
        return cli.main(["estimate", "--assignment", self.assignment,
                         "--outcomes", self.outcomes, "--estimator", "augmented",
                         "--out", self.out])

    def output(self, i: int) -> bytes:
        parts = []
        for path in (self.assignment, self.outcomes, self.out):
            with open(path, "rb") as handle:
                parts.append(handle.read())
        return b"\0".join(parts)

    def check(self, i: int, data: bytes) -> None:
        Z, obs = self.last
        check_estimates(json.loads(data.rsplit(b"\0", 1)[1]), Z, obs)

    def finish(self) -> None:
        pass


# ---------------------------------------------------------------------------
# fig3-sim
# ---------------------------------------------------------------------------

FIG3_T = (10, 20, 30)
_LOSS_FIELDS = ("mean_loss", "sd_loss", "q10_loss", "q50_loss", "q90_loss")


def parse_fig3(data: bytes) -> list[dict]:
    return list(csv.DictReader(io.StringIO(data.decode())))


def check_fig3_rows(rows: list[dict], t_list=FIG3_T) -> None:
    """2 x |T| rows, one per (T, design), every loss finite and >= 0."""
    keys = [(int(row["T"]), row["design"]) for row in rows]
    expected = [(T, design) for T in t_list for design in ("balanced", "minimax")]
    if keys != expected:
        raise CheckFailed(f"figure-3 rows are {keys}, expected {expected}")
    for row in rows:
        for field in _LOSS_FIELDS:
            value = float(row[field])
            if not (math.isfinite(value) and value >= 0.0):
                raise CheckFailed(f"T={row['T']} {row['design']}: {field}={row[field]}")


def check_fig3_pooled(pooled: dict[tuple[int, str], float]) -> None:
    """Pooled over the run, minimax's mean loss is below balanced's at
    every T (the paper's Figure 3 claim)."""
    for T in sorted({T for T, _ in pooled}):
        if not pooled[(T, "minimax")] < pooled[(T, "balanced")]:
            raise CheckFailed(f"T={T}: pooled minimax loss {pooled[(T, 'minimax')]!r} is not "
                              f"below balanced {pooled[(T, 'balanced')]!r}")


class Fig3Sim:
    """``fig3-sim``: ``tminimax simulate --figure 3 --n 2000 --t-list
    10,20,30 --reps 10 --model habituation``, with seed = workload seed
    plus the op index.

    Why: this is the paper's Figure 3.  It is the only workload that uses
    ``simulate`` and the exact-``fsum`` path of ``risk.loss``.  Its time
    splits as ``core.draw_assignment`` about 50%, ``risk.loss`` together
    with ``estimators.estimands`` about 20%, ``simulate`` model generation
    about 15% and ``allocation`` about 10%.  A change to the loss or the
    assignment type that helps ``mc-risk`` at the cost of the exact path
    shows up here.

    Moves: ``risk.loss.ms``, ``risk.loss.calls``,
    ``estimators.estimands.ms`` and
    ``estimators.estimands.calls_per_schedule`` (2.0 today: ``loss()``
    recomputes the estimands per design), ``core.draw_assignment.ms`` and
    ``core.make_arm_vector.calls``, ``simulate.model.ms`` and
    ``simulate.expected_risk_comparison.self_ms`` -> ``throughput_ops_s``
    and ``latency_p50_ms`` here.  ``allocation.integer_solve.*`` is about
    10% here.
    """

    name = "fig3-sim"
    pass_len = 1

    def setup(self, seed: int, workdir: str) -> None:
        self.seed = seed
        self.outdir = os.path.join(workdir, "fig3")
        self.pooled: dict[tuple[int, str], float] = {}

    def op(self, i: int) -> int:
        return cli.main(["simulate", "--figure", "3", "--n", "2000",
                         "--t-list", ",".join(map(str, FIG3_T)), "--reps", "10",
                         "--model", "habituation", "--seed", str(self.seed + i),
                         "--out", self.outdir])

    def output(self, i: int) -> bytes:
        # the run manifest beside it carries a timestamp, so only the table
        # is compared
        with open(os.path.join(self.outdir, "expected_risk_habituation.csv"), "rb") as handle:
            return handle.read()

    def check(self, i: int, data: bytes) -> None:
        rows = parse_fig3(data)
        check_fig3_rows(rows)
        for row in rows:
            key = (int(row["T"]), row["design"])
            self.pooled[key] = self.pooled.get(key, 0.0) + float(row["mean_loss"]) * int(row["reps"])

    def finish(self) -> None:
        check_fig3_pooled(self.pooled)


WORKLOADS = {w.name: w for w in (Design, MCRisk, EstimateFiles, Fig3Sim)}
