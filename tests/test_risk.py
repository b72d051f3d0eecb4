"""Tests for loss, risk (Monte-Carlo, exact, worst-case) and CIs."""

import hashlib
import itertools
import re
import tracemalloc
from math import fsum, sqrt
from statistics import NormalDist

import numpy as np
import pytest

from conftest import constant_schedule, numpy_stack, random_schedule, spread_allocation
from tminimax.allocation import ObjectiveMode, balanced, integer_solve, objective
from tminimax.core import (
    ALWAYS_CONTROL,
    ALWAYS_TREATED,
    Allocation,
    ObservedOutcomes,
    PotentialOutcomeSchedule,
    arms_for_horizon,
    draw_assignment,
    observe,
    permute_units,
    pulse_arm,
)
from tminimax.estimators import estimands
from tminimax.risk import (
    LossSpec,
    RiskOverflowError,
    RiskReport,
    box_max_variance,
    conservative_ci,
    exact_risk,
    loss,
    max_risk,
    mc_risk,
    mc_risks,
    worst_case_schedule,
)
from tminimax.simulate import ModelParams, habituation_model

SPECS = [
    LossSpec("plugin", 0.5, unnormalized=True),
    LossSpec("augmented", 0.5, unnormalized=True),
    LossSpec("recycling", 0.5, k=1, unnormalized=True),
    LossSpec("augmented", 0.25),
    LossSpec("plugin", 0.3),
    LossSpec("plugin", 1.0),
    LossSpec("plugin", 0.0),
]


def _positive_allocations(N, T):
    for parts in itertools.product(range(1, N), repeat=T):
        n1, *ne = parts
        n0 = N - n1 - sum(ne)
        if n0 >= 1:
            yield Allocation(n0, n1, tuple(ne))


class TestLossSpec:
    def test_validation(self):
        with pytest.raises(ValueError):
            LossSpec("plugin", 1.5)
        with pytest.raises(ValueError):
            LossSpec("recycling", 0.5)
        with pytest.raises(ValueError):
            LossSpec("plugin", 0.5, k=2)
        with pytest.raises(ValueError):
            LossSpec("huber", 0.5)


def _naive_loss(codes, values, hab, inst, spec):
    """The loss as a boolean mask over each column picks each pool: the
    reference ``_loss_from_codes`` must match bit for bit."""
    from tminimax.core import _pool_arms
    from tminimax.estimators import EstimatorUndefinedError, _pool_name

    def pool_mean(mask, col, what):
        n = np.count_nonzero(mask)
        if n == 0:
            raise EstimatorUndefinedError(f"estimator undefined: no units in {what}")
        picked = values[:, col][mask]
        return fsum(picked.tolist()) / n

    T = values.shape[1]
    pools = _pool_arms(T, spec.estimator, spec.k)
    hab_terms, inst_terms = [], []
    for t in range(2, T + 1):
        col = t - 1
        if spec.rho > 0.0:
            treated_mean = pool_mean(codes == 1, col, "the always-treated arm")
        pulse_mean = pool_mean(codes == t, col, f"the pulse arm at t={t}")
        if spec.rho > 0.0:
            err = (treated_mean - pulse_mean) - hab[t - 2]
            hab_terms.append(err * err)
        if spec.rho < 1.0:
            pool = pool_mean(pools[t - 2][codes], col, _pool_name(spec.estimator, t))
            err = (pulse_mean - pool) - inst[t - 2]
            inst_terms.append(err * err)
    val = spec.rho * fsum(hab_terms) + (1.0 - spec.rho) * fsum(inst_terms)
    return 2.0 * val if spec.unnormalized else val


class TestLoss:
    def test_constant_schedule_gives_zero(self):
        sched = constant_schedule(6, 3)
        Z = draw_assignment(spread_allocation(6, 3), seed=0)
        for spec in SPECS:
            assert loss(Z, sched, spec) == 0.0

    def test_all_habituation_weight_ignores_control_outcomes(self):
        rng = np.random.default_rng(5)
        sched = random_schedule(rng, 6, 3)
        arms = {arm: sched.matrix(arm).copy() for arm in sched.arms}
        arms[ALWAYS_CONTROL] += 100.0
        perturbed = PotentialOutcomeSchedule(arms)
        # perturbing the control arm breaks non-anticipation, but the
        # rho=1 loss never reads it
        Z = draw_assignment(spread_allocation(6, 3), seed=1)
        spec = LossSpec("plugin", 1.0)
        assert loss(Z, sched, spec) == loss(Z, perturbed, spec)

    def test_unnormalized_doubles(self):
        rng = np.random.default_rng(6)
        sched = random_schedule(rng, 6, 3)
        Z = draw_assignment(spread_allocation(6, 3), seed=2)
        a = loss(Z, sched, LossSpec("augmented", 0.5))
        b = loss(Z, sched, LossSpec("augmented", 0.5, unnormalized=True))
        assert b == 2.0 * a

    def test_permutation_invariance_exact(self):
        rng = np.random.default_rng(7)
        N, T = 8, 3
        for spec in SPECS:
            for trial in range(10):
                sched = random_schedule(rng, N, T, k=spec.k)
                Z = draw_assignment(spread_allocation(N, T), seed=trial)
                perm = rng.permutation(N)
                assert loss(permute_units(Z, perm), permute_units(sched, perm), spec) == (
                    loss(Z, sched, spec)
                )

    @pytest.mark.parametrize("codes,spec,message", [
        ([0, 2, 3], LossSpec("plugin", 0.5), "no units in the always-treated arm"),
        ([0, 1, 2], LossSpec("plugin", 0.5), "no units in the pulse arm at t=3"),
        ([0, 3], LossSpec("plugin", 0.5), "no units in the always-treated arm"),
        ([0, 3], LossSpec("plugin", 0.0), "no units in the pulse arm at t=2"),
        ([1, 2, 3], LossSpec("plugin", 0.5), "no units in the always-control arm"),
        ([1, 2, 3], LossSpec("augmented", 0.5),
         "no units in the augmented control pool at t=3"),
        ([1, 2, 3], LossSpec("recycling", 0.5, k=2),
         "no units in the recycled control pool at t=3"),
        ([0, 0, 0], LossSpec("plugin", 0.5), "no units in the always-treated arm"),
        ([0, 0, 0], LossSpec("plugin", 0.0), "no units in the pulse arm at t=2"),
        ([3, 3, 3], LossSpec("augmented", 0.0), "no units in the pulse arm at t=2"),
        ([1, 2, 2], LossSpec("plugin", 0.5), "no units in the always-control arm"),
        ([1, 2, 2], LossSpec("augmented", 0.5),
         "no units in the augmented control pool at t=2"),
        ([1, 2, 2], LossSpec("plugin", 1.0), "no units in the pulse arm at t=3"),
    ], ids=["treated", "pulse", "treated-before-pulse", "pulse-at-rho-0", "plugin-pool",
            "augmented-pool", "recycled-pool", "all-but-control-empty",
            "all-but-control-empty-rho-0", "only-last-pulse", "pool-before-later-pulse",
            "augmented-pool-before-later-pulse", "later-pulse-at-rho-1"])
    def test_an_empty_arm_raises_its_message(self, codes, spec, message):
        from tminimax.estimators import EstimatorUndefinedError
        from tminimax.risk import _loss_from_codes

        codes = np.array(codes)
        values = np.zeros((len(codes), 3))
        with pytest.raises(EstimatorUndefinedError) as info:
            _loss_from_codes(codes, values, np.zeros(2), np.zeros(2), spec)
        assert str(info.value) == "estimator undefined: " + message

    @pytest.mark.parametrize("spec", [
        LossSpec("plugin", 0.5), LossSpec("plugin", 0.0), LossSpec("plugin", 1.0),
        LossSpec("augmented", 0.3, unnormalized=True), LossSpec("augmented", 0.0),
        LossSpec("recycling", 0.5, k=1), LossSpec("recycling", 0.3, k=3),
    ], ids=lambda s: f"{s.estimator}-{s.rho}")
    def test_matches_the_boolean_mask_loss_bitwise(self, spec):
        from tminimax.estimators import EstimatorUndefinedError
        from tminimax.risk import _loss_from_codes

        rng = np.random.default_rng(41)
        # T = 300 sorts the codes as uint16; N = 12 at T = 8 leaves arms empty
        for N, T in ((37, 4), (12, 8), (1500, 20), (5000, 300)):
            values = rng.normal(size=(N, T))
            hab, inst = rng.normal(size=T - 1), rng.normal(size=T - 1)
            for _ in range(3):
                codes = rng.integers(0, T + 1, size=N)
                try:
                    want = _naive_loss(codes, values, hab, inst, spec).hex()
                except EstimatorUndefinedError as exc:
                    want = str(exc)
                try:
                    got = _loss_from_codes(codes, values, hab, inst, spec).hex()
                except EstimatorUndefinedError as exc:
                    got = str(exc)
                assert got == want

    def test_recycling_loss_rejects_wedge(self):
        from tminimax.core import AssignmentMatrix, Family

        sched = constant_schedule(3, 3)
        Z = AssignmentMatrix(
            [ALWAYS_CONTROL, pulse_arm(2, Family.WEDGE), pulse_arm(3, Family.WEDGE)], 3
        )
        with pytest.raises(ValueError, match="pulse-family"):
            loss(Z, sched, LossSpec("recycling", 0.5, k=1))


def _broadcast_schedule(y, T):
    """A schedule whose arms are all one N x T matrix with every column y."""
    matrix = np.broadcast_to(np.asarray(y, dtype=float)[:, None], (len(y), T))
    return PotentialOutcomeSchedule({arm: matrix for arm in arms_for_horizon(T)})


def _counted_schedules():
    """Integer boxes and columns (c = 1), and boxes [0, u] and [-u, u] of a
    u that ``tminimax risk --vstar`` gives, or a random one (c = u)."""
    rng = np.random.default_rng(43)
    for N, T in ((37, 4), (12, 8), (1500, 20)):
        yield f"unit-{N}x{T}", worst_case_schedule(N, T, 0.0, 1.0)
        yield f"minus3-5-{N}x{T}", worst_case_schedule(N, T, -3.0, 5.0)
        yield f"minus2-3-{N}x{T}", worst_case_schedule(N, T, -2.0, 3.0)
        yield f"two-40-{N}x{T}", worst_case_schedule(N, T, 0.0, 2.0 ** 40)
        yield f"dict-{N}x{T}", _broadcast_schedule(rng.integers(-9, 10, size=N), T)
        unit = box_max_variance(N, 0.0, 1.0)
        for name, u in [("vstar-0.3", (0.3 / unit) ** 0.5), ("vstar-1", (1.0 / unit) ** 0.5),
                        ("vstar-1e-320", (1e-320 / unit) ** 0.5),
                        ("random", float(rng.uniform(0.01, 30.0)))]:
            yield f"{name}-u-{N}x{T}", worst_case_schedule(N, T, 0.0, u)
            yield f"{name}-pm-u-{N}x{T}", worst_case_schedule(N, T, -u, u)


def _general_schedules():
    """Schedules one column short of counting: cells that are no exact
    integer multiple of the smallest, a -0.0 cell (in an integer column and
    in a scaled one), one cell off, more than one stored matrix,
    sum(|y|) = 2**53."""
    N, T = 40, 5
    y = np.arange(N, dtype=float) % 3
    yield "ratio-0.1-0.3", _broadcast_schedule(np.where(y > 0, 0.3, 0.1), T)
    # fl(30 c) / c rounds to 30 and 30.0 * c to fl(30 c), but 30 c is no float
    c = float.fromhex("0x1.8306bdf37922ep-1")
    yield "inexact-multiple", _broadcast_schedule(np.where(y > 0, 30 * c, c), T)
    negative_zero = y.copy()
    negative_zero[3] = -0.0
    yield "negative-zero", _broadcast_schedule(negative_zero, T)
    yield "negative-zero-scaled", _broadcast_schedule(0.3 * negative_zero, T)
    one_cell = np.repeat(y[:, None], T, axis=1)
    one_cell[7, 3] += 1.0
    yield "one-cell", PotentialOutcomeSchedule({arm: one_cell for arm in arms_for_horizon(T)})
    yield "habituation-model", habituation_model(ModelParams(), N, T, seed=1)
    yield "sum-2**53", _broadcast_schedule([2.0 ** 52, 2.0 ** 52 - 19] + [0.0, 1.0] * 19, T)


def _loss_or_error(call):
    from tminimax.estimators import EstimatorUndefinedError

    try:
        return call().hex()
    except EstimatorUndefinedError as exc:
        return str(exc)


class TestCountedLoss:
    """A schedule with one outcome column y = c * b, b integer-valued,
    scores each assignment by counting; its losses must be those of
    ``_loss_from_codes``, bit for bit, and every other schedule must keep
    ``_loss_from_codes``."""

    @pytest.fixture
    def general_calls(self, monkeypatch):
        from tminimax import risk

        calls = []
        general = risk._loss_from_codes

        def spy(*args, **kwargs):
            calls.append(args[0])
            return general(*args, **kwargs)

        monkeypatch.setattr(risk, "_loss_from_codes", spy)
        return calls

    @pytest.mark.parametrize("name,sched", list(_counted_schedules()),
                             ids=lambda v: v if isinstance(v, str) else "")
    @pytest.mark.parametrize("estimator,k", [("plugin", None), ("augmented", None),
                                             ("recycling", 1), ("recycling", 2)],
                             ids=["plugin", "augmented", "recycling-1", "recycling-2"])
    def test_matches_the_general_loss_bitwise(self, name, sched, estimator, k):
        from tminimax.risk import _LossEvaluator, _loss_from_codes

        N, T = sched.N, sched.T
        hab, inst = estimands(sched)
        rng = np.random.default_rng(N * T)
        codes_list = [rng.integers(0, T + 1, size=N) for _ in range(3)]
        full = draw_assignment(spread_allocation(N, T), seed=N).codes
        codes_list.append(full)
        for empty in (1, 2, T, 0):  # treated, the first and last pulse, the control arm
            codes = full.copy()
            codes[codes == empty] = (empty + 1) % (T + 1)
            codes_list.append(codes)
        # only treated and pulse-2 units: every pool at t = 2 is empty
        codes_list.append(np.where((full > 2) | (full == 0), 1, full))
        for rho, unnormalized in itertools.product((0.0, 0.3, 0.5, 1.0), (False, True)):
            spec = LossSpec(estimator, rho, k, unnormalized)
            evaluate = _LossEvaluator(sched, spec)
            assert evaluate.b is not None
            for codes in codes_list:
                values = sched._observed_rows(codes)
                want = _loss_or_error(lambda: _loss_from_codes(codes, values, hab.values,
                                                               inst.values, spec))
                assert _loss_or_error(lambda: evaluate(codes)) == want

    @pytest.mark.parametrize("name,sched", list(_counted_schedules()),
                             ids=lambda v: v if isinstance(v, str) else "")
    def test_qualifying_schedules_are_counted(self, general_calls, name, sched):
        from tminimax.risk import _counted_column

        # an integer column keeps c = 1, and any other is scaled by its
        # smallest nonzero |y|, exactly
        y = sched._stored[0][:, 0]
        b, c = _counted_column(sched)
        assert c == (1.0 if (np.trunc(y) == y).all() else np.abs(y[y != 0.0]).min())
        assert np.array_equal(b * c, y) and (np.trunc(b) == b).all()
        alloc = spread_allocation(sched.N, sched.T)
        for spec in SPECS:
            mc_risk(alloc, sched, spec, draws=3, seed=1)
            loss(draw_assignment(alloc, seed=2), sched, spec)
        assert general_calls == []

    def test_an_empty_arm_goes_to_the_general_loss(self, general_calls):
        from tminimax.estimators import EstimatorUndefinedError

        sched = worst_case_schedule(6, 3, 0.0, 1.0)
        Z = draw_assignment(Allocation(3, 0, (1, 2)), seed=0)
        with pytest.raises(EstimatorUndefinedError, match="no units in the always-treated arm"):
            loss(Z, sched, LossSpec("plugin", 0.5))
        assert len(general_calls) == 1

    @pytest.mark.parametrize("name,sched", [
        *_general_schedules(),
        # c * sum(|b|) overflows, and so do the losses (see
        # test_overflowing_loss_raises)
        ("overflow", _broadcast_schedule([1.5e308, -1.5e308] + [0.0, 1.0] * 19, 5)),
    ], ids=lambda v: v if isinstance(v, str) else "")
    def test_other_schedules_take_the_general_loss(self, general_calls, name, sched):
        from tminimax.risk import _counted_column

        alloc = spread_allocation(sched.N, sched.T)
        spec = LossSpec("augmented", 0.5)
        assert _counted_column(sched) is None
        if name == "overflow":
            for r in range(3):
                with pytest.raises(RiskOverflowError, match="^the loss overflows: inf$"):
                    loss(draw_assignment(alloc, seed=r), sched, spec)
        else:
            mc_risk(alloc, sched, spec, draws=3, seed=1)
        assert len(general_calls) == 3

    @pytest.mark.parametrize("name,sched", [
        *_counted_schedules(), *_general_schedules(),
        ("sum-below-2**53", _broadcast_schedule([2.0 ** 52, 2.0 ** 52 - 20] + [0.0, 1.0] * 19, 5)),
    ], ids=lambda v: v if isinstance(v, str) else "")
    def test_mc_risks_is_the_per_design_replicate_loop(self, name, sched):
        # each design's draw r is draw_assignment's, scored by the evaluator
        # that loss uses, whichever designs share the permutation
        from tminimax.risk import _LossEvaluator

        N, T = sched.N, sched.T
        allocs = [spread_allocation(N, T), balanced(N, T), spread_allocation(N, T)]
        for spec in SPECS:
            evaluate = _LossEvaluator(sched, spec)
            got = mc_risks(allocs, sched, spec, draws=4, seed=6)
            for alloc, report in zip(allocs, got):
                losses = np.array([evaluate(draw_assignment(
                    alloc, seed=np.random.SeedSequence((6, r))).codes) for r in range(4)])
                want = (float(np.mean(losses)).hex(), float(np.std(losses, ddof=1) / 2.0).hex())
                assert (report.mc_risk.hex(), report.mc_se.hex()) == want
                assert report.draws == 4

    @pytest.mark.parametrize("bad,message", [
        ([Allocation(3, 0, (1, 2)), Allocation(3, 1, (0, 2))], "always-treated"),
        ([Allocation(3, 1, (0, 2)), Allocation(3, 0, (1, 2))], "pulse"),
    ], ids=["treated-first", "pulse-first"])
    def test_mc_risks_raise_on_the_first_empty_arm_at_the_first_draw(self, general_calls,
                                                                     bad, message):
        from tminimax.estimators import EstimatorUndefinedError

        sched = worst_case_schedule(6, 3, 0.0, 1.0)
        with pytest.raises(EstimatorUndefinedError, match=message):
            mc_risks([Allocation(2, 2, (1, 1)), *bad], sched, LossSpec("plugin", 0.5),
                     draws=50, seed=0)
        # the full design is counted; only the first empty one reaches the general loss
        assert len(general_calls) == 1

    def test_sum_just_below_2_53_is_counted(self, general_calls):
        from tminimax.risk import _LossEvaluator, _loss_from_codes

        y = [2.0 ** 52, 2.0 ** 52 - 20] + [0.0, 1.0] * 19
        assert sum(map(int, y)) == 2 ** 53 - 1
        sched = _broadcast_schedule(y, 5)
        hab, inst = estimands(sched)
        alloc = spread_allocation(sched.N, sched.T)
        for spec in SPECS:
            evaluate = _LossEvaluator(sched, spec)
            for seed in range(5):
                codes = draw_assignment(alloc, seed=seed).codes
                got = evaluate(codes).hex()
                assert general_calls == []
                want = _loss_from_codes(codes, sched._observed_rows(codes), hab.values,
                                        inst.values, spec).hex()
                general_calls.clear()
                assert got == want


class TestChunkedReplicates:
    """On a counted schedule ``mc_risks`` bins each replicate's nonzero
    units into the cut intervals and scores the losses ``_CHUNK``
    replicates at a time; every report must keep the bits of the
    per-replicate, unit-by-unit loop, wherever a chunk ends."""

    @pytest.mark.parametrize("chunk,draws", [(1, 5), (3, 7), (None, 300)],
                             ids=["chunk-1", "chunk-3", "default"])
    @pytest.mark.parametrize("box", [(0.0, 1.0), (0.0, 2.0), (-2.0, 3.0), (0.0, 0.3)],
                             ids=["0-1", "0-2", "minus2-3", "0-0.3"])
    @pytest.mark.parametrize("estimator,k", [("plugin", None), ("augmented", None),
                                             ("recycling", 1), ("recycling", 2)],
                             ids=["plugin", "augmented", "recycling-1", "recycling-2"])
    def test_reports_match_the_per_replicate_loop(self, monkeypatch, chunk, draws, box,
                                                  estimator, k):
        from tminimax import risk

        if chunk is not None:
            monkeypatch.setattr(risk, "_CHUNK", chunk)
        assert risk._CHUNK == 1 or draws % risk._CHUNK  # the last chunk is cut short
        N, T = 37, 5
        sched = worst_case_schedule(N, T, *box)
        designs = [balanced(N, T), integer_solve(N, T, ObjectiveMode.basic()),
                   integer_solve(N, T, ObjectiveMode.augmented())]
        for rho in (0.0, 0.5, 1.0):
            spec = LossSpec(estimator, rho, k)
            # at rho = 0 a design without an always-treated arm is counted too
            allocs = designs + [integer_solve(N, T, ObjectiveMode.weighted(0.0))] * (rho == 0.0)
            evaluate = risk._LossEvaluator(sched, spec)
            assert evaluate.b is not None
            for alloc, report in zip(allocs, mc_risks(allocs, sched, spec, draws, seed=8)):
                assert evaluate.countable(np.array(alloc.counts))
                losses = np.array([evaluate.general(draw_assignment(
                    alloc, seed=np.random.SeedSequence((8, r))).codes) for r in range(draws)])
                want = (float(np.mean(losses)).hex(),
                        float(np.std(losses, ddof=1) / sqrt(draws)).hex())
                assert (report.mc_risk.hex(), report.mc_se.hex()) == want

    @pytest.mark.parametrize("chunk", [1, 3, None], ids=["chunk-1", "chunk-3", "default"])
    @pytest.mark.parametrize("rho", [0.5, 1.0])
    def test_an_uncounted_design_beside_counted_ones_raises_at_the_first_draw(
            self, monkeypatch, chunk, rho):
        from tminimax import risk
        from tminimax.estimators import EstimatorUndefinedError

        if chunk is not None:
            monkeypatch.setattr(risk, "_CHUNK", chunk)
        calls = []
        general = risk._loss_from_codes
        monkeypatch.setattr(risk, "_loss_from_codes",
                            lambda *args: calls.append(args[0]) or general(*args))
        N, T = 37, 5
        sched = worst_case_schedule(N, T, 0.0, 1.0)
        allocs = [balanced(N, T), integer_solve(N, T, ObjectiveMode.weighted(0.0)),
                  integer_solve(N, T, ObjectiveMode.basic())]
        with pytest.raises(EstimatorUndefinedError, match="always-treated"):
            mc_risks(allocs, sched, LossSpec("augmented", rho), draws=10, seed=0)
        assert len(calls) == 1

    @pytest.mark.parametrize("spec", [*SPECS, LossSpec("recycling", 0.5, k=2)],
                             ids=lambda s: f"{s.estimator}-rho{s.rho}")
    def test_from_sums_scores_each_row_as_a_one_row_call(self, spec):
        from tminimax.risk import _LossEvaluator

        N, T = 50, 6
        sched = worst_case_schedule(N, T, -2.0, 3.0)
        evaluate = _LossEvaluator(sched, spec)
        alloc = spread_allocation(N, T)
        counts = np.array(alloc.counts)
        sums = np.array([np.bincount(draw_assignment(alloc, seed=s).codes, weights=evaluate.b,
                                     minlength=T + 1) for s in range(9)])
        got = evaluate.from_sums(counts, sums)
        assert got.shape == (9,)
        want = [evaluate.from_sums(counts, row[None])[0].hex() for row in sums]
        assert [v.hex() for v in got.tolist()] == want


# The numpy version that MC_RISK_GOLDEN, MC_RISK_N2000_GOLDEN,
# WORST_CASE_MC_GOLDEN and LOSS_PATH_GOLDEN were recorded on: they pin its
# Generator streams, which may change across versions.
GOLDEN_NUMPY = "2.4.6"

# float.hex of (mc_risk, mc_se), and of (exact_risk,
# loss), for the seeded cases below; recorded before the loss was written
# as one loop, and the bits must not move
MC_RISK_GOLDEN = {
    "plugin": ("0x1.00daf062ec57fp+1", "0x1.81b37b0750185p-3"),
    "augmented": ("0x1.7919ef156f39ap-1", "0x1.2ecae333a01cbp-4"),
    "recycling": ("0x1.818d71d3c1b19p+0", "0x1.3e59ae3ebf324p-3"),
}
EXACT_RISK_GOLDEN = {
    "plugin": ("0x1.bb7535ac21c3bp+1", "0x1.14c2d254e0de0p-2"),
    "augmented": ("0x1.e8adc4d2e549cp+0", "0x1.42a1bdb5bbaf9p-3"),
    "recycling": ("0x1.631b543e39e8ep+0", "0x1.a496fc2828050p-3"),
}

# float.hex of (mc_risk, mc_se) at N=2000, T=20, for the
# seeded case in test_mc_risk_at_benchmark_shape: the mean and standard
# error of ``loss`` over the draws, recorded when every Monte-Carlo draw
# took fsum's bits, and the bits must not move
MC_RISK_N2000_GOLDEN = {
    ('plugin', 0.0): ('0x1.3d06bab9b39a2p-2', '0x1.ec582d12d603bp-6'),
    ('plugin', 0.3): ('0x1.67c9725bab100p-2', '0x1.ce5908fa7493ap-6'),
    ('plugin', 1.0): ('0x1.cb8fc98041ce1p-2', '0x1.7ff9cadcde090p-5'),
    ('augmented', 0.0): ('0x1.e8ab70b37c10fp-3', '0x1.88934fc296e96p-6'),
    ('augmented', 0.3): ('0x1.34e723e54bf6dp-2', '0x1.b8eff7d83c429p-6'),
    ('augmented', 1.0): ('0x1.cb8fc98041ce1p-2', '0x1.7ff9cadcde090p-5'),
    ('recycling', 0.0): ('0x1.c5c3dfd7fe7a7p-3', '0x1.4c79aca2791ddp-6'),
    ('recycling', 0.3): ('0x1.28afb13213357p-2', '0x1.9d849970f2642p-6'),
    ('recycling', 1.0): ('0x1.cb8fc98041ce1p-2', '0x1.7ff9cadcde090p-5'),
}

# float.hex of (mc_risk, mc_se) on worst_case_schedule(2000, 20, 0, 1), whose
# arms are all one matrix; recorded while the schedule
# still kept one copy per arm, and the bits must not move
WORST_CASE_MC_GOLDEN = {
    "plugin": ("0x1.60fd0838863f4p-3", "0x1.d91264c9dc369p-7"),
    "augmented": ("0x1.15aeed4ce955ap-4", "0x1.6eedbaa708048p-8"),
    "recycling": ("0x1.1c1b6ef9dff69p-4", "0x1.c688f8f443611p-8"),
}

# sha256 of the float.hex of _loss_from_codes on draws 0..19 of the seeded
# N=400 case below; the fsum pool sums must not move
LOSS_PATH_GOLDEN = {
    "plugin": "04ab1a08482e2ae8489f409c9bf20886172c167dd078eac4396b11423df9cb07",
    "augmented": "868308b660208a79227a7bb89678ec214a3b891a028e2b1b4e28f341126b6ad3",
    "recycling": "3ffdec0e18edba6fb8d842c4254527650bf07282c07d3de608748de8cabe7688",
}


# sha256 of the float.hex of max_risk over the seeded sweep in
# _max_risk_sweep_digest; recorded before max_risk read the term table
MAX_RISK_GOLDEN = "53bc87933b168a8c37ae85a03f9a6c761bee209fe150063db59cc0871016e330"


def _max_risk_sweep_digest():
    rng = np.random.default_rng(31)
    digest = hashlib.sha256()
    for T in range(2, 41):
        for estimator in ("plugin", "augmented", "recycling"):
            k = int(rng.integers(1, T + 1)) if estimator == "recycling" else None
            for rho in (0.0, 0.3, 0.5, 1.0):
                for unnormalized in (False, True):
                    counts = rng.integers(1, 1000, size=T + 1)
                    alloc = Allocation(int(counts[0]), int(counts[1]),
                                       tuple(counts[2:].tolist()))
                    spec = LossSpec(estimator, rho, k, unnormalized)
                    digest.update(max_risk(alloc, T, 1.7, spec).hex().encode())
    return digest.hexdigest()


class TestGoldenBits:
    def test_max_risk(self):
        assert _max_risk_sweep_digest() == MAX_RISK_GOLDEN

    @pytest.mark.parametrize("spec", [
        LossSpec("plugin", 0.5, unnormalized=True),
        LossSpec("augmented", 0.3),
        LossSpec("recycling", 0.5, k=2, unnormalized=True),
    ], ids=lambda s: s.estimator)
    def test_mc_risk(self, spec):
        sched = random_schedule(np.random.default_rng(2024), 40, 5, k=2)
        alloc = Allocation(6, 7, (7, 6, 7, 7))
        report = mc_risk(alloc, sched, spec, draws=30, seed=11)
        assert (report.mc_risk.hex(), report.mc_se.hex()) == MC_RISK_GOLDEN[spec.estimator], \
            numpy_stack(GOLDEN_NUMPY)

    @pytest.mark.parametrize("estimator,k", [("plugin", None), ("augmented", None),
                                             ("recycling", 2)])
    @pytest.mark.parametrize("rho", [0.0, 0.3, 1.0])
    def test_mc_risk_at_benchmark_shape(self, estimator, k, rho):
        sched = random_schedule(np.random.default_rng(2020), 2000, 20, k=2)
        alloc = Allocation(198, 130, tuple(range(70, 108, 2)))
        report = mc_risk(alloc, sched, LossSpec(estimator, rho, k), draws=12, seed=5)
        got = (report.mc_risk.hex(), report.mc_se.hex())
        assert got == MC_RISK_N2000_GOLDEN[(estimator, rho)], numpy_stack(GOLDEN_NUMPY)

    @pytest.mark.parametrize("spec", [
        LossSpec("plugin", 0.5, unnormalized=True),
        LossSpec("augmented", 0.3),
        LossSpec("recycling", 0.5, k=2),
    ], ids=lambda s: s.estimator)
    def test_mc_risk_on_the_worst_case(self, spec):
        sched = worst_case_schedule(2000, 20, 0.0, 1.0)
        alloc = Allocation(198, 130, tuple(range(70, 108, 2)))
        report = mc_risk(alloc, sched, spec, draws=12, seed=9)
        got = (report.mc_risk.hex(), report.mc_se.hex())
        assert got == WORST_CASE_MC_GOLDEN[spec.estimator], numpy_stack(GOLDEN_NUMPY)

    @pytest.mark.parametrize("spec", [
        LossSpec("plugin", 0.5, unnormalized=True),
        LossSpec("augmented", 0.3),
        LossSpec("recycling", 0.5, k=1),
    ], ids=lambda s: s.estimator)
    def test_exact_risk_and_loss(self, spec):
        sched = random_schedule(np.random.default_rng(77), 7, 3, k=1)
        alloc = Allocation(2, 2, (1, 2))
        Z = draw_assignment(alloc, seed=5)
        got = (exact_risk(alloc, sched, spec).hex(), loss(Z, sched, spec).hex())
        assert got == EXACT_RISK_GOLDEN[spec.estimator]

    @pytest.mark.parametrize("spec", [
        LossSpec("plugin", 0.5, unnormalized=True),
        LossSpec("augmented", 0.3),
        LossSpec("recycling", 0.5, k=2, unnormalized=True),
    ], ids=lambda s: s.estimator)
    def test_loss_paths(self, spec):
        from tminimax.risk import _loss_from_codes

        sched = random_schedule(np.random.default_rng(2024), 400, 5, k=2)
        hab, inst = estimands(sched)
        alloc = Allocation(60, 70, (70, 60, 70, 70))
        digest = hashlib.sha256()
        for seed in range(20):
            Z = draw_assignment(alloc, seed=seed)
            values = observe(Z, sched).values
            val = _loss_from_codes(Z.codes, values, hab.values, inst.values, spec)
            digest.update(val.hex().encode())
        assert digest.hexdigest() == LOSS_PATH_GOLDEN[spec.estimator], \
            numpy_stack(GOLDEN_NUMPY)


class TestWorstCaseSchedule:
    def test_four_unit_box(self):
        sched = worst_case_schedule(4, 3, 0.0, 1.0)
        col = sched.matrix(ALWAYS_CONTROL)[:, 0]
        assert sorted(col.tolist()) == [0.0, 0.0, 1.0, 1.0]
        assert box_max_variance(4, 0.0, 1.0) == pytest.approx(1 / 3, rel=1e-15)

    def test_two_unit_box(self):
        assert box_max_variance(2, 0.0, 1.0) == pytest.approx(0.5, rel=1e-15)

    def test_estimands_vanish(self):
        hab, inst = estimands(worst_case_schedule(5, 4, -2.0, 3.0))
        assert np.all(hab.values == 0) and np.all(inst.values == 0)

    @pytest.mark.parametrize("N", [2, 3, 4, 5, 6, 7])
    def test_split_maximizes_over_all_corner_vectors(self, N):
        # brute force over every {lower, upper}^N corner; interior points
        # cannot beat corners because the variance is convex per coordinate
        lower, upper = -1.0, 2.0
        best = 0.0
        for bits in itertools.product((lower, upper), repeat=N):
            y = np.array(bits)
            best = max(best, y.var(ddof=1))
        assert box_max_variance(N, lower, upper) == pytest.approx(best, rel=1e-12)

    def test_degenerate_box_rejected(self):
        with pytest.raises(ValueError):
            worst_case_schedule(4, 3, 1.0, 1.0)

    @pytest.mark.parametrize("T", [-3, 0, 1])
    def test_short_horizon_is_named_before_the_broadcast(self, T):
        # a negative T reached np.broadcast_to, whose message names no horizon
        with pytest.raises(ValueError, match=f"^horizon T must be >= 2, got {T}$"):
            worst_case_schedule(100, T, 0.0, 1.0)

    @pytest.mark.parametrize("shifted", [False, True], ids=["shared", "treated-shifted"])
    @pytest.mark.parametrize("estimator", ["plugin", "augmented"])
    @pytest.mark.parametrize("T", [20, 200])
    def test_exact_loss_memory_does_not_grow_with_the_horizon(self, T, estimator, shifted):
        # the shared box is scored by counting and the treated-shifted one
        # by the extraction pass, which holds one block of periods' cells
        # (2**14, under two periods here), where the N x T observed rows of
        # a two-matrix schedule would take 8 N T bytes
        N = 10000
        sched = worst_case_schedule(N, T, 0.0, 0.7)
        if shifted:
            y = sched.matrix(ALWAYS_CONTROL)
            arms = {arm: y for arm in sched.arms}
            arms[ALWAYS_TREATED] = y + 1.0
            sched = PotentialOutcomeSchedule(arms)
            del y, arms
        spec = LossSpec(estimator, 0.5)
        Z = draw_assignment(integer_solve(N, T, ObjectiveMode.augmented()), seed=3)
        loss(Z, sched, spec)  # the estimands and the cached tables
        tracemalloc.start()
        try:
            loss(Z, sched, spec)
            peak = tracemalloc.get_traced_memory()[1]
        finally:
            tracemalloc.stop()
        assert peak < 12 * 8 * N

    def test_stores_one_matrix(self):
        N, T = 20000, 50
        tracemalloc.start()
        try:
            sched = worst_case_schedule(N, T, 0.0, 1.0)
            _, peak = tracemalloc.get_traced_memory()
        finally:
            tracemalloc.stop()
        assert peak < 2 * N * T * 8
        assert len(sched._stored) == 1

    @staticmethod
    def _box_max_variance_on_vector(N, lower, upper):
        """The O(N) form: fsum variance of the extreme vector itself."""
        y = np.full(N, lower, dtype=float)
        y[: (N + 1) // 2] = upper
        mean = fsum(y.tolist()) / N
        return fsum(((y - mean) ** 2).tolist()) / (N - 1)

    @pytest.mark.parametrize("N", [2, 3, 4, 7, 10, 999, 1000, 100_000, 100_001])
    @pytest.mark.parametrize("lower,upper", [
        (0.0, 1.0), (-1.0, 2.0), (-0.3, 0.1), (-7.25e3, 1.1e-2), (0.1, 0.7),
        (1e-300, 3e-300), (-5e-310, 2e-309), (-1e150, 3e150), (2e140, 9e149),
        (-1e200, 1e200),
    ], ids=["unit", "mixed", "mixed_small", "mixed_skew", "positive", "tiny",
            "subnormal", "huge", "huge_positive", "square_overflows"])
    def test_box_max_variance_matches_vector_form_bitwise(self, N, lower, upper):
        with np.errstate(over="ignore"):
            expected = self._box_max_variance_on_vector(N, lower, upper)
        assert box_max_variance(N, lower, upper) == expected

    def test_box_max_variance_is_constant_time(self):
        assert box_max_variance(10_000_000, 0.0, 1.0) == 0.2500000250000025

    @pytest.mark.parametrize("N,lower,upper,message", [
        (1, 0.0, 1.0, "need N >= 2, got 1"),
        (4, 1.0, 1.0, r"degenerate box \[1.0, 1.0\]"),
        (4, float("nan"), 1.0, r"degenerate box \[nan, 1.0\]"),
        (4, -float("inf"), 1.0, r"box bounds must be finite, got \[-inf, 1.0\]"),
        (4, 0.0, float("inf"), r"box bounds must be finite, got \[0.0, inf\]"),
    ])
    def test_box_max_variance_rejects_bad_boxes(self, N, lower, upper, message):
        with pytest.raises(ValueError, match=message):
            box_max_variance(N, lower, upper)


class TestMaxRisk:
    def test_reference_value(self):
        spec = LossSpec("plugin", 0.5, unnormalized=True)
        assert max_risk(Allocation(2, 2, (2,)), 2, 1.0, spec) == 2.0

    def test_equals_vstar_times_objective_on_matching_scale(self):
        alloc = Allocation(4, 3, (2, 3, 5))
        pairs = [
            (LossSpec("plugin", 0.5, unnormalized=True), ObjectiveMode.basic()),
            (LossSpec("augmented", 0.5, unnormalized=True), ObjectiveMode.augmented()),
            (LossSpec("recycling", 0.5, k=2, unnormalized=True), ObjectiveMode.recycling(2)),
            (LossSpec("augmented", 0.3), ObjectiveMode.weighted(0.3)),
        ]
        for spec, mode in pairs:
            assert max_risk(alloc, 4, 1.7, spec) == pytest.approx(
                1.7 * objective(alloc, 4, mode), rel=1e-14
            )

    def test_equals_vstar_times_objective_bit_for_bit(self):
        # one term table serves both, so the pairings that share its
        # grouping agree exactly, not just to rounding
        rng = np.random.default_rng(52)
        for T in range(2, 16):
            counts = rng.integers(1, 300, size=T + 1)
            alloc = Allocation(int(counts[0]), int(counts[1]), tuple(counts[2:].tolist()))
            vstar = float(rng.uniform(0.1, 5.0))
            k = int(rng.integers(1, T + 1))
            pairs = [(LossSpec("augmented", 0.5, unnormalized=True), ObjectiveMode.augmented()),
                     (LossSpec("recycling", 0.5, k=k, unnormalized=True),
                      ObjectiveMode.recycling(k))]
            pairs += [(LossSpec("augmented", rho), ObjectiveMode.weighted(rho))
                      for rho in (0.0, 0.3, 0.5, 0.8, 1.0)]
            for spec, mode in pairs:
                assert max_risk(alloc, T, vstar, spec) == vstar * objective(alloc, T, mode)

    def test_minimax_beats_balanced(self):
        spec = LossSpec("plugin", 0.5, unnormalized=True)
        for N, T in [(30, 3), (100, 6), (1000, 20)]:
            mini = integer_solve(N, T, ObjectiveMode.basic())
            assert max_risk(mini, T, 1.0, spec) <= max_risk(balanced(N, T), T, 1.0, spec)

    def test_augmented_pool_never_hurts(self):
        for N, T in [(30, 3), (100, 6)]:
            alloc = balanced(N, T)
            plug = max_risk(alloc, T, 1.0, LossSpec("plugin", 0.5, unnormalized=True))
            aug = max_risk(alloc, T, 1.0, LossSpec("augmented", 0.5, unnormalized=True))
            assert aug <= plug

    def test_empty_pool_rejected(self):
        with pytest.raises(ValueError):
            max_risk(Allocation(0, 2, (2,)), 2, 1.0, LossSpec("plugin", 0.5))

    @pytest.mark.parametrize("vstar", [float("nan"), float("inf"), float("-inf"), -1.0])
    def test_vstar_must_be_finite_and_nonnegative(self, vstar):
        with pytest.raises(ValueError, match="vstar must be finite and >= 0"):
            max_risk(Allocation(2, 2, (2,)), 2, vstar, LossSpec("plugin", 0.5))

    @pytest.mark.parametrize("unnormalized", [False, True])
    def test_overflowing_risk_names_vstar(self, unnormalized):
        alloc = integer_solve(100, 20, ObjectiveMode.basic())
        spec = LossSpec(unnormalized=unnormalized)
        with pytest.raises(RiskOverflowError, match=r"^vstar 1e\+308 is too large: "
                                                    r"the maximum risk overflows$"):
            max_risk(alloc, 20, 1e308, spec)
        assert issubclass(RiskOverflowError, ValueError)
        # the largest finite risk is still returned
        unit = max_risk(alloc, 20, 1.0, spec)
        assert max_risk(alloc, 20, 1e300, spec) == 1e300 * unit

    def test_doubling_that_overflows_names_vstar(self):
        alloc = Allocation(2, 2, (2,))
        vstar = float.fromhex("0x1.8p1023") / max_risk(alloc, 2, 1.0, LossSpec())
        assert max_risk(alloc, 2, vstar, LossSpec()) < float("inf")
        with pytest.raises(RiskOverflowError, match="^vstar .* is too large"):
            max_risk(alloc, 2, vstar, LossSpec(unnormalized=True))

    @pytest.mark.parametrize("vstar", [0.0, -0.0])
    @pytest.mark.parametrize("unnormalized", [False, True])
    def test_zero_vstar_gives_zero_risk(self, vstar, unnormalized):
        spec = LossSpec("plugin", 0.5, unnormalized=unnormalized)
        assert max_risk(Allocation(2, 2, (2,)), 2, vstar, spec).hex() == "0x0.0p+0"


class TestExactAndMcRisk:
    def test_constant_schedule(self):
        sched = constant_schedule(5, 2)
        alloc = spread_allocation(5, 2)
        report = mc_risk(alloc, sched, LossSpec("plugin", 0.5), draws=50, seed=0)
        assert report.mc_risk == 0.0 and report.mc_se == 0.0

    def test_mc_matches_enumeration_within_3_se(self):
        rng = np.random.default_rng(9)
        sched = random_schedule(rng, 7, 3, k=1)
        alloc = spread_allocation(7, 3)
        for spec in SPECS[:3]:
            exact = exact_risk(alloc, sched, spec)
            report = mc_risk(alloc, sched, spec, draws=4000, seed=5)
            assert abs(report.mc_risk - exact) < 3 * report.mc_se

    def test_estimands_computed_once_per_risk(self, monkeypatch):
        from tminimax import risk

        calls = []
        monkeypatch.setattr(risk, "estimands", lambda sched: calls.append(sched) or estimands(sched))
        sched = random_schedule(np.random.default_rng(11), 6, 3)
        alloc = spread_allocation(6, 3)
        mc_risk(alloc, sched, LossSpec("augmented", 0.5), draws=20, seed=1)
        exact_risk(alloc, sched, LossSpec("plugin", 0.5))
        assert calls == [sched, sched]  # once per call, not per assignment

    @pytest.mark.parametrize("spec", SPECS,
                             ids=lambda s: f"{s.estimator}-rho{s.rho}")
    def test_worst_case_identity_at_enumeration_scale(self, spec):
        # exact risk on the worst-case schedule equals the closed form,
        # whatever the estimator and weighting
        for N, T in [(6, 2), (7, 3)]:
            sched = worst_case_schedule(N, T, 0.0, 1.0)
            vstar = box_max_variance(N, 0.0, 1.0)
            for alloc in _positive_allocations(N, T):
                got = exact_risk(alloc, sched, spec)
                want = max_risk(alloc, T, vstar, spec)
                assert got == pytest.approx(want, rel=1e-12)

    def test_box_schedules_never_exceed_max_risk(self):
        rng = np.random.default_rng(12)
        N, T = 7, 3
        alloc = spread_allocation(N, T)
        vstar = box_max_variance(N, 0.0, 1.0)
        spec = LossSpec("plugin", 0.5, unnormalized=True)
        bound = max_risk(alloc, T, vstar, spec)
        for _ in range(5):
            arms = {arm: rng.uniform(0.0, 1.0, size=(N, T)) for arm in
                    worst_case_schedule(N, T, 0, 1).arms}
            sched = PotentialOutcomeSchedule(arms)
            report = mc_risk(alloc, sched, spec, draws=2000, seed=8)
            assert report.mc_risk <= bound + 3 * report.mc_se

    def test_bad_draws_rejected(self):
        with pytest.raises(ValueError):
            mc_risk(spread_allocation(5, 2), constant_schedule(5, 2),
                    LossSpec("plugin"), draws=0, seed=0)

    @pytest.mark.parametrize("y,estimator,stats", [
        # the losses overflow: an inf mean, and an SE of inf - inf
        ([1.5e308, -1.5e308] + [0.0, 1.0] * 19, "augmented", "mean inf, standard error nan"),
        # finite losses near 1e308 whose sum overflows
        ([1e154] * 20 + [-1e154] * 20, "plugin", "mean inf, standard error inf"),
    ], ids=["infinite-losses", "overflowing-sum"])
    def test_overflowing_mc_risk_raises(self, recwarn, y, estimator, stats):
        sched = _broadcast_schedule(y, 5)
        with pytest.raises(RiskOverflowError) as info:
            mc_risk(spread_allocation(40, 5), sched, LossSpec(estimator, 0.5), draws=3, seed=1)
        assert str(info.value) == f"design 0's Monte-Carlo risk overflows: {stats}"
        assert not recwarn.list

    @pytest.mark.parametrize("y,estimator,overflows", [
        ([1.5e308, -1.5e308] + [0.0, 1.0] * 19, "augmented", True),
        # each loss is finite; only their Monte-Carlo sum overflows
        ([1e154] * 20 + [-1e154] * 20, "plugin", False),
    ], ids=["infinite-losses", "overflowing-sum"])
    def test_overflowing_loss_raises(self, recwarn, y, estimator, overflows):
        sched = _broadcast_schedule(y, 5)
        spec = LossSpec(estimator, 0.5)
        for r in range(3):
            Z = draw_assignment(spread_allocation(40, 5), seed=np.random.SeedSequence((1, r)))
            if overflows:
                with pytest.raises(RiskOverflowError, match=r"^the loss overflows: inf$"):
                    loss(Z, sched, spec)
            else:
                assert 1e307 < loss(Z, sched, spec) < np.inf
        assert not recwarn.list

    @pytest.mark.parametrize("y", [
        [1.5e308, -1.5e308, 0.0, 1.0, 0.0, 1.0],
        # each loss is finite, and their exact sum overflows
        [1e154] * 3 + [-1e154] * 3,
    ], ids=["infinite-losses", "overflowing-sum"])
    def test_overflowing_exact_risk_raises(self, recwarn, y):
        with pytest.raises(RiskOverflowError, match=r"^the exact risk overflows: inf$"):
            exact_risk(Allocation(2, 2, (2,)), _broadcast_schedule(y, 2), LossSpec("plugin", 0.5))
        assert not recwarn.list

    def test_overflowing_mc_risks_names_the_design(self):
        # a finite mean whose standard error overflows, for the second design only
        sched = _broadcast_schedule([1e77] * 20 + [-1e77] * 20, 5)
        spec = LossSpec("plugin", 0.5)
        allocs = [spread_allocation(40, 5), Allocation(35, 1, (1, 1, 1, 1))]
        report, = mc_risks(allocs[:1], sched, spec, draws=3, seed=1)
        assert np.isfinite([report.mc_risk, report.mc_se]).all()
        with pytest.raises(RiskOverflowError, match=r"^design 1's Monte-Carlo risk overflows: "
                                                    r"mean 7\.4\d*e\+154, standard error inf$"):
            mc_risks(allocs, sched, spec, draws=3, seed=1)

    # arms whose exact sums overflow fsum (1.5e308), or finite squared
    # errors whose exact sum does for some draws (1.3e154): each entry
    # point raises RiskOverflowError with the overflow's message; losses
    # maps a draw_assignment seed to its message
    @pytest.mark.parametrize("y,T,alloc,losses,exact,mc", [
        ([1.5e308] * 3 + [-1.5e308] * 3, 2, Allocation(2, 2, (2,)),
         {0: "estimator overflows at t=2: the sum of the always-treated arm exceeds the "
             "float range",
          3: "estimator overflows at t=2: the sum of the pulse arm at t=2 exceeds the "
             "float range"},
         "estimator overflows at t=2: the sum of the pulse arm at t=2 exceeds the float range",
         "estimator overflows at t=2: the sum of the always-treated arm exceeds the float "
         "range"),
        ([1.3e154] * 4 + [-1.3e154] * 4, 3, Allocation(2, 2, (2, 2)),
         {0: "intermediate overflow in fsum", 1: "inf", 3: "intermediate overflow in fsum"},
         "intermediate overflow in fsum", "intermediate overflow in fsum"),
    ], ids=["arm-sum", "squared-errors"])
    def test_overflowing_exact_sums_raise_risk_overflow(self, recwarn, y, T, alloc, losses,
                                                        exact, mc):
        sched = _broadcast_schedule(y, T)
        spec = LossSpec("plugin", 0.5)
        for seed, want in losses.items():
            with pytest.raises(RiskOverflowError) as info:
                loss(draw_assignment(alloc, seed=seed), sched, spec)
            assert str(info.value) == f"the loss overflows: {want}"
        with pytest.raises(RiskOverflowError) as info:
            exact_risk(alloc, sched, spec)
        assert str(info.value) == f"the loss overflows: {exact}"
        with pytest.raises(RiskOverflowError) as info:
            mc_risk(alloc, sched, spec, draws=5, seed=1)
        assert str(info.value) == f"design 0's loss overflows: {mc}"
        assert not recwarn.list

    # the always-treated arm is all 1e308 and every other arm zeros, so the
    # habituation effect's exact sum overflows before any loss is scored
    @pytest.mark.parametrize("call", [
        lambda a, s, spec: loss(draw_assignment(a, seed=0), s, spec),
        lambda a, s, spec: exact_risk(a, s, spec),
        lambda a, s, spec: mc_risk(a, s, spec, draws=3, seed=1),
    ], ids=["loss", "exact_risk", "mc_risk"])
    def test_overflowing_estimands_raise_risk_overflow(self, recwarn, call):
        zeros = np.zeros((6, 2))
        sched = PotentialOutcomeSchedule({ALWAYS_TREATED: np.full((6, 2), 1e308),
                                          ALWAYS_CONTROL: zeros, pulse_arm(2): zeros})
        with pytest.raises(RiskOverflowError) as info:
            call(Allocation(2, 2, (2,)), sched, LossSpec("plugin", 0.5))
        assert str(info.value) == "the estimands overflow: intermediate overflow in fsum"
        assert not recwarn.list

    @pytest.mark.parametrize("mean,se", [(np.inf, 0.0), (np.nan, 0.0), (1.0, np.nan),
                                         (1.0, np.inf)])
    def test_report_rejects_non_finite_values(self, mean, se):
        with pytest.raises(ValueError, match="mc_risk and mc_se must be finite"):
            RiskReport(mean, se, 3)

    @pytest.mark.parametrize("draws", [1, 5])
    @pytest.mark.parametrize("spec", SPECS,
                             ids=lambda s: f"{s.estimator}-rho{s.rho}")
    @pytest.mark.parametrize("sched", [
        random_schedule(np.random.default_rng(21), 9, 3, k=1),
        worst_case_schedule(9, 3, 0.0, (0.3 / box_max_variance(9, 0.0, 1.0)) ** 0.5),
    ], ids=["random", "scaled-worst-case"])
    def test_mc_risk_is_the_replicate_loop(self, sched, spec, draws):
        # replicate r draws from SeedSequence((seed, r)) whatever the draw
        # count, its loss is the public loss bit for bit, and the losses are
        # reduced in replicate order
        alloc = spread_allocation(9, 3)
        losses = np.array([loss(draw_assignment(alloc, seed=np.random.SeedSequence((4, r))),
                                sched, spec) for r in range(draws)])
        se = float(np.std(losses, ddof=1) / sqrt(draws)) if draws > 1 else 0.0
        report = mc_risk(alloc, sched, spec, draws=draws, seed=4)
        assert (report.mc_risk.hex(), report.mc_se.hex()) == (float(np.mean(losses)).hex(), se.hex())
        assert report.draws == draws

    def test_workers_keyword_is_gone(self):
        with pytest.raises(TypeError, match="workers"):
            mc_risk(spread_allocation(5, 2), constant_schedule(5, 2),
                    LossSpec("plugin"), draws=2, seed=0, workers=2)

    @pytest.mark.parametrize("cap", ["abc", "2.5", "0x2", "0", "2"])
    def test_thread_env_is_not_read(self, monkeypatch, cap):
        sched = random_schedule(np.random.default_rng(22), 8, 3)
        alloc = spread_allocation(8, 3)
        spec = LossSpec("augmented", 0.5)
        monkeypatch.delenv("TMINIMAX_THREADS", raising=False)
        want = mc_risk(alloc, sched, spec, draws=50, seed=3)
        monkeypatch.setenv("TMINIMAX_THREADS", cap)
        got = mc_risk(alloc, sched, spec, draws=50, seed=3)
        assert (got.mc_risk.hex(), got.mc_se.hex()) == (want.mc_risk.hex(), want.mc_se.hex())

    def test_boundary_designs_evaluate_under_matching_weights(self):
        # an all-instantaneous design drops the treated arm; the matching
        # rho=0 loss never needs it
        rng = np.random.default_rng(18)
        N, T = 12, 3
        sched = random_schedule(rng, N, T)
        alloc = integer_solve(N, T, ObjectiveMode.weighted(0.0))
        assert alloc.n1 == 0
        spec = LossSpec("augmented", 0.0)
        exact = exact_risk(alloc, sched, spec)
        report = mc_risk(alloc, sched, spec, draws=3000, seed=4)
        assert abs(report.mc_risk - exact) < 3 * max(report.mc_se, 1e-12)


class TestSizeMismatch:
    def test_loss_names_the_assignment_and_schedule_shapes(self):
        Z = draw_assignment(Allocation(1, 1, (1, 2)), seed=0)
        with pytest.raises(ValueError,
                           match=re.escape("assignment is 5 x 3 but schedule is 4 x 3")):
            loss(Z, constant_schedule(4, 3), LossSpec("plugin", 0.5))

    @pytest.mark.parametrize("sched", [constant_schedule(4, 3), constant_schedule(5, 4)],
                             ids=["N", "T"])
    @pytest.mark.parametrize("call", [
        lambda a, s: mc_risk(a, s, LossSpec("plugin", 0.5), draws=2, seed=0),
        lambda a, s: exact_risk(a, s, LossSpec("plugin", 0.5)),
    ], ids=["mc_risk", "exact_risk"])
    def test_risks_name_the_allocation_and_schedule_sizes(self, sched, call):
        alloc = Allocation(1, 1, (1, 2))
        message = f"allocation is N=5, T=3 but schedule is N={sched.N}, T={sched.T}"
        with pytest.raises(ValueError, match=re.escape(message)):
            call(alloc, sched)


def _mask_ci(codes, values, t, spec, level):
    """``conservative_ci`` with each pool picked by a boolean mask over the
    codes: the reference ``conservative_ci`` must match bit for bit."""
    from tminimax.estimators import EstimatorUndefinedError, _pool_name

    pool = codes == 0
    if spec.estimator != "plugin":
        pool |= codes > t
    if spec.estimator == "recycling":
        pool |= (codes >= 2) & (codes <= t - spec.k)
    masks = (codes == t, pool)
    names = (f"the pulse arm at t={t}", _pool_name(spec.estimator, t))
    means = []
    for mask, name in zip(masks, names):
        if not mask.any():
            raise EstimatorUndefinedError(f"estimator undefined: no units in {name}")
        means.append(fsum(values[mask, t - 1].tolist()) / int(mask.sum()))
    variance = 0.0
    for mask in masks:
        y = values[mask, t - 1]
        if len(y) < 2:
            raise ValueError(f"conservative variance needs >= 2 units per pool, got {len(y)}")
        mean = fsum(y.tolist()) / len(y)
        variance += fsum(((y - mean) ** 2).tolist()) / (len(y) - 1) / len(y)
    return means[0] - means[1], NormalDist().inv_cdf(0.5 + level / 2.0) * sqrt(variance)


class TestConservativeCI:
    @pytest.mark.parametrize("spec", [LossSpec("plugin"), LossSpec("augmented"),
                                      LossSpec("recycling", k=1), LossSpec("recycling", k=3)],
                             ids=lambda s: f"{s.estimator}-{s.k}")
    def test_matches_the_boolean_mask_reference_bitwise(self, spec):
        from tminimax.core import AssignmentMatrix, Family

        rng = np.random.default_rng(17)
        # N = 14 at T = 6 leaves pools with fewer than two units
        for N, T in ((14, 6), (90, 5), (600, 300)):
            values = rng.normal(size=(N, T))
            obs = ObservedOutcomes(values)
            for _ in range(3):
                codes = rng.integers(0, T + 1, size=N)
                Z = AssignmentMatrix._from_codes(codes.copy(), T, Family.PULSE)
                for t in sorted({2, 3, T // 2, T}):
                    try:
                        want = tuple(v.hex() for v in _mask_ci(codes, values, t, spec, 0.9))
                    except ValueError as exc:
                        want = str(exc)
                    try:
                        got = tuple(v.hex() for v in conservative_ci(Z, obs, t, spec, 0.9))
                    except ValueError as exc:
                        got = str(exc)
                    assert got == want

    def test_constant_outcomes(self):
        sched = constant_schedule(8, 3)
        Z = draw_assignment(spread_allocation(8, 3), seed=0)
        obs = observe(Z, sched)
        est, hw = conservative_ci(Z, obs, 2, LossSpec("plugin"), 0.95)
        assert est == 0.0 and hw == 0.0

    def test_normal_quantile(self):
        # half-width is z * sqrt(sum of within-pool variance/size); check z
        # at the 95% level against its known value
        rng = np.random.default_rng(3)
        N, T = 12, 3
        sched = random_schedule(rng, N, T)
        Z = draw_assignment(spread_allocation(N, T), seed=1)
        obs = observe(Z, sched)
        est, hw = conservative_ci(Z, obs, 2, LossSpec("plugin"), 0.95)
        codes = Z.codes
        s_pulse = obs.values[codes == 2, 1].var(ddof=1) / (codes == 2).sum()
        s_ctrl = obs.values[codes == 0, 1].var(ddof=1) / (codes == 0).sum()
        assert hw == pytest.approx(1.959964 * sqrt(s_pulse + s_ctrl), rel=1e-6)

    @pytest.mark.parametrize("level", [0.5, 0.8, 0.9, 0.95, 0.99, 0.999, 1 - 1e-12,
                                       1 - 2 ** -52])
    def test_quantile_bits_match_normal_dist(self, level):
        z = NormalDist().inv_cdf(0.5 + level / 2.0)
        rng = np.random.default_rng(5)
        N, T = 12, 3
        sched = random_schedule(rng, N, T)
        Z = draw_assignment(spread_allocation(N, T), seed=3)
        obs = observe(Z, sched)
        _, hw = conservative_ci(Z, obs, 2, LossSpec("plugin"), level)
        variance = 0.0
        for mask in (Z.codes == 2, Z.codes == 0):
            y = obs.values[mask, 1]
            mean = fsum(y.tolist()) / len(y)
            variance += fsum(((y - mean) ** 2).tolist()) / (len(y) - 1) / len(y)
        assert hw == z * sqrt(variance)

    def test_two_unit_pools_hand_value(self):
        # pulse outcomes 0 and 2 have sample variance 2, over 2 units 1; the
        # control outcomes are equal, so the half-width is the quantile
        from tminimax.core import AssignmentMatrix, Family

        Z = AssignmentMatrix._from_codes(np.array([0, 0, 1, 1, 2, 2]), 2, Family.PULSE)
        values = np.zeros((6, 2))
        values[:, 1] = [1.0, 1.0, 5.0, 5.0, 0.0, 2.0]
        est, hw = conservative_ci(Z, ObservedOutcomes(values), 2, LossSpec("plugin"), 0.9)
        assert est == 0.0
        assert hw == NormalDist().inv_cdf(0.95)

    def test_shift_invariance_and_square_scaling(self):
        rng = np.random.default_rng(41)
        N, T = 12, 3
        sched = random_schedule(rng, N, T)
        Z = draw_assignment(spread_allocation(N, T), seed=2)
        spec = LossSpec("augmented")
        values = observe(Z, sched).values
        est, hw = conservative_ci(Z, ObservedOutcomes(values), 2, spec, 0.9)
        est_shift, hw_shift = conservative_ci(Z, ObservedOutcomes(values + 9.0), 2, spec, 0.9)
        est_scale, hw_scale = conservative_ci(Z, ObservedOutcomes(values * 3.0), 2, spec, 0.9)
        assert est_shift == pytest.approx(est, rel=1e-9, abs=1e-12)
        assert hw_shift == pytest.approx(hw, rel=1e-9)
        assert est_scale == pytest.approx(3.0 * est, rel=1e-12)
        assert hw_scale == pytest.approx(3.0 * hw, rel=1e-12)

    @pytest.mark.parametrize("spec", [
        LossSpec("plugin"), LossSpec("augmented"), LossSpec("recycling", k=1),
    ], ids=lambda s: s.estimator)
    def test_expected_variance_exceeds_the_true_variance(self, spec):
        # over every assignment, the estimate is unbiased and the mean
        # variance estimate exceeds the estimate's variance by exactly the
        # dropped term, the unit effects' population variance over N
        from tminimax.core import enumerate_assignments

        rng = np.random.default_rng(31)
        N, T = 8, 3
        sched = random_schedule(rng, N, T, k=spec.k)
        alloc = spread_allocation(N, T)
        z = NormalDist().inv_cdf(0.95)
        _, inst = estimands(sched)
        for t in (2, 3):
            ests, variances = [], []
            for Z in enumerate_assignments(alloc):
                est, hw = conservative_ci(Z, observe(Z, sched), t, spec, 0.9)
                ests.append(est)
                variances.append((hw / z) ** 2)
            mean = fsum(ests) / len(ests)
            enum_var = fsum([(v - mean) ** 2 for v in ests]) / len(ests)
            effects = sched.matrix(pulse_arm(t))[:, t - 1] - sched.matrix(ALWAYS_CONTROL)[:, t - 1]
            dropped = effects.var(ddof=1) / N
            assert mean == pytest.approx(inst.at(t), rel=1e-9, abs=1e-12)
            assert dropped > 0.0
            assert fsum(variances) / len(variances) - enum_var == pytest.approx(dropped,
                                                                                rel=1e-9)

    # the pulse arm's outcomes at t = 2: their exact sum overflows, their
    # squared deviations do, or the exact sum of finite squares does
    @pytest.mark.parametrize("pulse,message", [
        ([1.5e308, 1.5e308, -1.5e308],
         "estimator overflows at t=2: the sum of the pulse arm at t=2 exceeds the float range"),
        ([1e200, -1e200, 0.0], "variance inf"),
        ([1.2e154, -1.2e154, 0.0], "intermediate overflow in fsum"),
    ], ids=["arm-sum", "squares", "sum-of-squares"])
    def test_overflow_raises_risk_overflow(self, recwarn, pulse, message):
        from tminimax.core import AssignmentMatrix, Family

        Z = AssignmentMatrix._from_codes(np.array([0, 0, 0, 1, 1, 1, 2, 2, 2]), 2, Family.PULSE)
        values = np.zeros((9, 2))
        values[6:, 1] = pulse
        with pytest.raises(RiskOverflowError) as info:
            conservative_ci(Z, ObservedOutcomes(values), 2, LossSpec("plugin"), 0.9)
        assert str(info.value) == f"the interval overflows: {message}"
        assert not recwarn.list

    def test_small_pool_rejected(self):
        Z = draw_assignment(Allocation(2, 2, (1, 1)), seed=0)
        obs = observe(Z, constant_schedule(6, 3))
        with pytest.raises(ValueError, match=">= 2 units"):
            conservative_ci(Z, obs, 2, LossSpec("plugin"), 0.95)

    def test_bad_level(self):
        Z = draw_assignment(spread_allocation(8, 3), seed=0)
        obs = observe(Z, constant_schedule(8, 3))
        with pytest.raises(ValueError):
            conservative_ci(Z, obs, 2, LossSpec("plugin"), 1.0)

    def test_level_next_to_one(self):
        # 0.5 + level / 2 rounds to 1.0 at 1 - 2**-53, whose quantile is
        # infinite, and to the float just below 1.0 at 1 - 2**-52
        rng = np.random.default_rng(3)
        sched = random_schedule(rng, 12, 3)
        Z = draw_assignment(spread_allocation(12, 3), seed=1)
        obs = observe(Z, sched)
        with pytest.raises(ValueError, match=r"^level must be in \(0, 1\) with 0\.5 \+ level / 2 "
                                             r"below 1\.0, got 0\.9999999999999999$"):
            conservative_ci(Z, obs, 2, LossSpec("plugin"), 1 - 2 ** -53)
        _, hw = conservative_ci(Z, obs, 2, LossSpec("plugin"), 1 - 2 ** -52)
        assert hw == pytest.approx(5.752002665587116, rel=1e-15)

    @pytest.mark.parametrize("t", [0, 1, 5])
    def test_time_outside_horizon_rejected(self, t):
        rng = np.random.default_rng(8)
        Z = draw_assignment(spread_allocation(40, 4), seed=0)
        obs = observe(Z, random_schedule(rng, 40, 4))
        with pytest.raises(ValueError, match=f"time index {t} outside 2..4"):
            conservative_ci(Z, obs, t, LossSpec("plugin"), 0.95)

    def test_outcome_rows_must_match_units(self):
        rng = np.random.default_rng(9)
        Z = draw_assignment(spread_allocation(40, 4), seed=0)
        obs = ObservedOutcomes(observe(Z, random_schedule(rng, 40, 4)).values[:30])
        with pytest.raises(ValueError, match="assignment is 40 x 4 but outcomes are 30 x 4"):
            conservative_ci(Z, obs, 2, LossSpec("augmented"), 0.95)
