"""Tests for estimands and the four randomization estimators."""

import threading
import tracemalloc
from concurrent.futures import ThreadPoolExecutor
from math import fsum

import numpy as np
import pytest

from conftest import constant_schedule, random_schedule, spread_allocation
from tminimax.core import (
    ALWAYS_CONTROL,
    ALWAYS_TREATED,
    AssignmentMatrix,
    Family,
    ObservedOutcomes,
    PotentialOutcomeSchedule,
    arms_for_horizon,
    draw_assignment,
    enumerate_assignments,
    observe,
    permute_units,
    pulse_arm,
)
from tminimax import estimators
from tminimax.estimators import (
    EffectKind,
    EffectSeries,
    EstimatorUndefinedError,
    augmented_instantaneous_estimate,
    estimands,
    habituation_estimate,
    instantaneous_estimate,
    recycling_instantaneous_estimate,
)
from tminimax.estimators import _exact_sums
from tminimax.risk import worst_case_schedule
from tminimax.simulate import ModelParams, habituation_model, standard_model


def _series_2x2(y1_col2, ye_col2, y0_col2):
    """Two-unit, two-period schedule with chosen outcomes at t=2."""
    def mat(col2):
        m = np.zeros((2, 2))
        m[:, 1] = col2
        return m
    return PotentialOutcomeSchedule({
        ALWAYS_TREATED: mat(y1_col2),
        ALWAYS_CONTROL: mat(y0_col2),
        pulse_arm(2): mat(ye_col2),
    })


class TestEstimands:
    def test_constant_schedule_is_all_zero(self):
        hab, inst = estimands(constant_schedule(5, 4))
        assert np.all(hab.values == 0) and np.all(inst.values == 0)

    def test_hand_case(self):
        sched = _series_2x2([3, 1], [2, 0], [1, 1])
        hab, inst = estimands(sched)
        assert hab.at(2) == 1.0
        assert inst.at(2) == 0.0

    def test_series_indexing(self):
        hab, _ = estimands(constant_schedule(3, 5))
        assert hab.T == 5 and hab.kind is EffectKind.HABITUATION
        with pytest.raises(ValueError):
            hab.at(1)

    def test_non_finite_rejected(self):
        with pytest.raises(ValueError):
            EffectSeries(np.array([1.0, np.nan]), EffectKind.HABITUATION)


class TestEstimandsMemo:
    def test_repeat_call_returns_the_same_tuple(self):
        sched = random_schedule(np.random.default_rng(3), 7, 5)
        assert estimands(sched) is estimands(sched)

    @pytest.mark.parametrize("build", ["public", "model"])
    def test_bits_match_a_fresh_computation(self, build):
        if build == "public":
            sched = random_schedule(np.random.default_rng(4), 9, 6)
        else:  # the trusted constructor, through an outcome model
            sched = habituation_model(ModelParams(), 40, 7, seed=4)
        first = estimands(sched)
        twin = PotentialOutcomeSchedule({arm: sched.matrix(arm) for arm in sched.arms})
        assert twin is not sched and twin == sched
        for a, b in zip(first, estimands(twin)):
            assert a.kind is b.kind
            assert a.values.tobytes() == b.values.tobytes()

    def test_threads_filling_one_schedule_agree(self):
        sched = habituation_model(ModelParams(), 2000, 20, seed=5)
        start = threading.Barrier(4)

        def run(_):
            start.wait()
            return estimands(sched)

        with ThreadPoolExecutor(4) as pool:
            results = list(pool.map(run, range(4)))
        twin = PotentialOutcomeSchedule({arm: sched.matrix(arm) for arm in sched.arms})
        expected = [s.values.tobytes() for s in estimands(twin)]
        for got in results:
            assert [s.values.tobytes() for s in got] == expected

    def test_kept_series_are_read_only(self):
        sched = random_schedule(np.random.default_rng(6), 5, 4)
        estimands(sched)
        for series in estimands(sched):
            assert not series.values.flags.writeable
            with pytest.raises(ValueError):
                series.values[0] = 1.0


def _outcome(compute):
    """The bits of what ``compute`` returns, or the type and message of
    the ``ValueError`` or ``OverflowError`` it raises."""
    try:
        return np.asarray(compute(), dtype=float).view(np.int64).tolist()
    except (ValueError, OverflowError) as exc:
        return type(exc), str(exc)


def _rows(case, rng):
    """A 2-D float array of one kind that exact summation must get right."""
    if case == "wide_exponents":
        return rng.normal(size=(6, 300)) * np.ldexp(1.0, rng.integers(-1074, 990, size=(6, 300)))
    if case == "every_scale":  # a cell at nearly every scale: the most passes
        e = np.linspace(-1074, 1000, 2000).astype(int)
        return (1.0 + rng.random((2, 2000))) * np.ldexp(rng.choice([-1.0, 1.0], (2, 2000)), e)
    if case == "same_sign":  # partial sums grow to n max|x|: the largest sigma must cover
        return np.concatenate([1.0 + rng.random((3, 2000)), -rng.random((1, 2000)) * 1e-3])
    if case == "subnormals":
        return rng.integers(-2**52, 2**52, size=(5, 500)) * 2.0**-1074
    if case == "cancelling_pairs":
        half = rng.normal(size=(5, 200)) * np.ldexp(1.0, rng.integers(-300, 300, size=(5, 200)))
        x = np.concatenate([half, -half], axis=1)
        x[:, 0] += rng.normal(size=5) * 1e-300
        x[4, 0] = half[4, 0]  # one row cancels exactly to zero
        return rng.permuted(x, axis=1)
    if case == "signed_zeros":
        return np.array([[0.0] * 7, [-0.0] * 7, [0.0, -0.0] * 3 + [-0.0], [-0.0] * 6 + [0.0]])
    if case == "single_element":
        return np.array([[1.5], [-0.0], [0.0], [5e-324], [-1e308], [np.inf], [np.nan]])
    if case == "large_n":
        return rng.normal(size=(3, 10**5)) * np.ldexp(1.0, rng.integers(-60, 60, size=(3, 10**5)))
    if case == "near_overflow":  # an intermediate overflow in fsum, then rows that sum
        x = rng.normal(size=(4, 50))
        x[1, :3] = 1e308
        x[2, :2] = [1e308, -1e308]
        x[3, 0] = 2.0**1017  # just past the extraction's limit at n = 50
        return x
    if case == "near_overflow_sums":  # near-overflow rows that fsum can sum
        x = rng.normal(size=(3, 50))
        x[0, :2] = [1e308, -1e308]
        x[1, 0] = -1.7e308
        x[2, :] = 2.0**1016  # the limit at n = 50: (2n - 1).bit_length() = 7
        return x
    if case == "non_finite":
        x = rng.normal(size=(5, 40))
        x[1, 3] = np.inf
        x[2, 5] = np.nan
        x[3, [0, 9]] = [np.inf, -np.inf]
        x[4, 0] = -np.inf
        return x
    if case == "inf_rows":  # no row raises: each sums to +-inf or nan
        x = rng.normal(size=(3, 40))
        x[0, 3], x[1, 4], x[2, [0, 1]] = np.inf, -np.inf, [np.nan, np.inf]
        return x
    raise AssertionError(case)


class TestExactSums:
    """``_exact_sums`` gives ``math.fsum`` of each row, bit for bit, or
    raises what summing the rows in order with ``fsum`` raises."""

    @pytest.mark.parametrize("seed", range(3))
    @pytest.mark.parametrize("case", [
        "wide_exponents", "every_scale", "same_sign", "subnormals", "cancelling_pairs", "signed_zeros",
        "single_element", "large_n", "near_overflow", "near_overflow_sums", "non_finite",
        "inf_rows",
    ])
    def test_matches_fsum(self, case, seed):
        rows = _rows(case, np.random.default_rng(seed))
        want = _outcome(lambda: [fsum(row.tolist()) for row in rows])
        assert _outcome(lambda: _exact_sums(rows)) == want
        if case == "near_overflow":
            assert want == (OverflowError, "intermediate overflow in fsum")
        elif case == "non_finite":
            assert want == (ValueError, "-inf + inf in fsum")
        else:
            assert isinstance(want, list)

    @pytest.mark.parametrize("seed", range(20))
    def test_random_rows_match_fsum(self, seed):
        rng = np.random.default_rng(100 + seed)
        m, n = int(rng.integers(1, 8)), int(rng.choice([1, 2, 3, 17, 2000]))
        scale = np.ldexp(1.0, rng.integers(int(rng.integers(-1074, 0)),
                                           int(rng.integers(1, 1000)), size=(m, n)))
        rows = rng.normal(size=(m, n)) * scale
        rows[rng.random((m, n)) < 0.1] = 0.0
        assert _outcome(lambda: _exact_sums(rows)) == _outcome(
            lambda: [fsum(row.tolist()) for row in rows])

    def test_input_is_not_changed(self):
        rows = np.random.default_rng(1).normal(size=(4, 100))
        before = rows.tobytes()
        _exact_sums(rows)
        assert rows.tobytes() == before


def _fsum_estimands(sched):
    """The estimands as one ``fsum`` per (t, effect), in (t, effect) order,
    from the public arm matrices: the reference for ``estimands``."""
    N, T = sched.N, sched.T
    sums = np.empty((2, T - 1))
    for t in range(2, T + 1):
        treated, pulse, control = (sched.matrix(arm)[:, t - 1]
                                   for arm in (ALWAYS_TREATED, pulse_arm(t), ALWAYS_CONTROL))
        for e, (a, b) in enumerate([(treated, pulse), (pulse, control)]):
            sums[e, t - 2] = fsum((a - b).tolist()) / N
    return tuple(EffectSeries(v, kind) for v, kind in zip(sums, EffectKind))


def _schedules():
    rng = np.random.default_rng(8)
    yield "habituation", habituation_model(ModelParams(), 2000, 30, seed=1)
    yield "standard", standard_model(ModelParams(noise_sd=1.0), 300, 12, seed=2)
    # one independent draw per arm: T+1 distinct stored matrices
    per_arm = np.random.default_rng(3)
    yield "per_arm_noise", PotentialOutcomeSchedule(
        {arm: per_arm.normal(scale=4.0, size=(200, 9)) for arm in arms_for_horizon(9)})
    yield "worst_case", worst_case_schedule(1001, 7, -2.0, 3.0)
    for N, T in ((1, 2), (5, 4), (64, 11)):
        yield f"random_{N}x{T}", random_schedule(rng, N, T)
    wide = {arm: rng.normal(size=(40, 6)) * np.ldexp(1.0, rng.integers(-1000, 1000, size=(40, 6)))
            for arm in random_schedule(rng, 40, 6).arms}
    yield "random_wide_exponents", PotentialOutcomeSchedule(wide)


class TestEstimandsAreExactSums:
    @pytest.mark.parametrize("name,sched", list(_schedules()), ids=lambda v: v
                             if isinstance(v, str) else "")
    @pytest.mark.parametrize("block", [None, 1, 3000])
    def test_bits_match_one_fsum_per_effect(self, monkeypatch, name, sched, block):
        if block is not None:  # one period per block, or two to five
            monkeypatch.setattr(estimators, "_BLOCK_CELLS", block)
        got = estimators._compute_estimands(sched)
        want = _fsum_estimands(sched)
        for g, w in zip(got, want):
            assert g.kind is w.kind
            assert g.values.tobytes() == w.values.tobytes()

    @pytest.mark.parametrize("cells,error", [
        ({(ALWAYS_TREATED, 0, 3): np.inf},
         (ValueError, "non-finite effect value in habituation series")),
        ({(pulse_arm(2), 0, 2): np.nan},
         (ValueError, "non-finite effect value in habituation series")),
        ({(ALWAYS_TREATED, 0, 3): np.inf, (pulse_arm(3), 1, 3): np.inf},
         (ValueError, "-inf + inf in fsum")),
        # t = 2 overflows in its instantaneous effect before t = 3's inf - inf
        ({(ALWAYS_TREATED, 0, 3): np.inf, (pulse_arm(3), 1, 3): np.inf,
          (pulse_arm(2), 0, 2): 1e308, (pulse_arm(2), 1, 2): 1e308},
         (OverflowError, "intermediate overflow in fsum")),
        # at one t, the habituation effect's inf - inf is raised; the
        # instantaneous effect is inf, which only the series rejects
        ({(ALWAYS_TREATED, 0, 4): np.inf, (pulse_arm(4), 1, 4): np.inf,
          (ALWAYS_TREATED, 2, 4): 1.6e308, (ALWAYS_TREATED, 3, 4): 1.6e308,
          (pulse_arm(4), 2, 4): 0.8e308, (pulse_arm(4), 3, 4): 0.8e308,
          (ALWAYS_CONTROL, 2, 4): 0.0, (ALWAYS_CONTROL, 3, 4): 0.0},
         (ValueError, "-inf + inf in fsum")),
    ], ids=["inf", "nan", "inf_minus_inf", "overflow_first", "habituation_first"])
    @pytest.mark.parametrize("block", [None, 1])
    def test_non_finite_cells_fail_as_one_fsum_per_effect(self, monkeypatch, cells, error,
                                                          block):
        if block is not None:
            monkeypatch.setattr(estimators, "_BLOCK_CELLS", block)
        rng = np.random.default_rng(5)
        arms = {arm: rng.normal(size=(6, 5)) for arm in random_schedule(rng, 6, 5).arms}
        for (arm, unit, t), value in cells.items():
            arms[arm][unit, t - 1] = value
        sched = PotentialOutcomeSchedule(arms)
        want = _outcome(lambda: _fsum_estimands(sched))
        assert want == error
        assert _outcome(lambda: estimands(sched)) == want

    @pytest.mark.parametrize("shifted", [False, True], ids=["shared", "treated-shifted"])
    @pytest.mark.parametrize("T", [20, 200])
    def test_memory_does_not_grow_with_the_horizon(self, T, shifted):
        # one period per block at N = 10000: a few rows of N cells, where
        # one gather of all T - 1 periods would take 3 (T - 1) 8N bytes;
        # a shifted treated arm makes every period gather its columns
        N = 10000
        sched = worst_case_schedule(N, T, 0.0, 1.0)
        if shifted:
            y = sched.matrix(ALWAYS_CONTROL)
            arms = {arm: y for arm in sched.arms}
            arms[ALWAYS_TREATED] = y + 1.0
            sched = PotentialOutcomeSchedule(arms)
            del y, arms
        tracemalloc.start()
        try:
            estimators._compute_estimands(sched)
            peak = tracemalloc.get_traced_memory()[1]
        finally:
            tracemalloc.stop()
        assert peak < 20 * 8 * N


def _shared_schedule(N, T, cells=(), own=()):
    """Every arm one N x T integer matrix, with ``cells`` set to their
    values, except the pulse arms at the periods in ``own``, which get a
    shifted copy: those periods are the only ones whose slots differ."""
    m = np.repeat((np.arange(N, dtype=float) % 5)[:, None], T, axis=1)
    for (unit, t), value in dict(cells).items():
        m[unit, t - 1] = value
    arms = {arm: m for arm in arms_for_horizon(T)}
    for t in own:
        arms[pulse_arm(t)] = m + 1.0
    return PotentialOutcomeSchedule(arms)


class TestSharedSlotPeriods:
    """A period whose treated, pulse and control slots are one finite
    column has zero effects, written without an extraction pass."""

    def test_worst_case_estimands_skip_the_extraction(self, monkeypatch):
        def fail(rows):
            raise AssertionError("extraction ran")

        monkeypatch.setattr(estimators, "_exact_sums", fail)
        for sched in (worst_case_schedule(1001, 7, -2.0, 3.0), _shared_schedule(30, 6)):
            for series in estimators._compute_estimands(sched):
                assert [v.hex() for v in series.values.tolist()] == ["0x0.0p+0"] * (sched.T - 1)

    @pytest.mark.parametrize("own", [(), (2,), (3, 6), (2, 3, 4, 5, 6)])
    @pytest.mark.parametrize("block", [None, 1])
    def test_mixed_periods_match_one_fsum_per_effect(self, monkeypatch, own, block):
        if block is not None:
            monkeypatch.setattr(estimators, "_BLOCK_CELLS", block)
        sched = _shared_schedule(30, 6, own=own)
        got = estimators._compute_estimands(sched)
        for g, w in zip(got, _fsum_estimands(sched)):
            assert g.values.tobytes() == w.values.tobytes()
        assert [t for t in range(2, 7) if got[1].at(t) != 0.0] == list(own)

    @pytest.mark.parametrize("cells,own", [
        ({(0, 3): np.inf}, ()),
        ({(4, 2): np.nan}, ()),
        ({(0, 3): -np.inf, (1, 5): np.nan}, (5,)),
        ({(0, 1): np.inf}, ()),  # period 1 has no effects, so nothing fails
    ], ids=["inf", "nan", "inf-before-own-nan", "t1-inf"])
    def test_non_finite_shared_columns_fail_as_one_fsum_per_effect(self, cells, own):
        sched = _shared_schedule(8, 6, cells, own)
        with np.errstate(invalid="ignore"):  # inf - inf is the nan under test
            want = _outcome(lambda: [e.values for e in _fsum_estimands(sched)])
            assert _outcome(lambda: [e.values for e in estimands(sched)]) == want
        assert (want[0] is ValueError) == (cells != {(0, 1): np.inf})


class TestTwoUnitExamples:
    def test_habituation_difference(self):
        Z = AssignmentMatrix([ALWAYS_TREATED, pulse_arm(2)], 2)
        obs = ObservedOutcomes(np.array([[0.0, 5.0], [0.0, 3.0]]))
        assert habituation_estimate(Z, obs, 2) == 2.0

    def test_instantaneous_difference(self):
        Z = AssignmentMatrix([pulse_arm(2), ALWAYS_CONTROL], 2)
        obs = ObservedOutcomes(np.array([[0.0, 4.0], [0.0, 1.0]]))
        assert instantaneous_estimate(Z, obs, 2) == 3.0

    def test_augmented_pools_future_pulses(self):
        Z = AssignmentMatrix([pulse_arm(2), pulse_arm(3), ALWAYS_CONTROL], 3)
        obs = ObservedOutcomes(np.array([[0, 4, 0], [0, 1, 0], [0, 1, 0]], dtype=float))
        assert augmented_instantaneous_estimate(Z, obs, 2) == 3.0

    def test_constant_outcomes_give_zero(self):
        Z = AssignmentMatrix(
            [ALWAYS_TREATED, ALWAYS_CONTROL, pulse_arm(2), pulse_arm(3)], 3
        )
        obs = ObservedOutcomes(np.full((4, 3), 7.0))
        for t in (2, 3):
            assert habituation_estimate(Z, obs, t) == 0.0
            assert instantaneous_estimate(Z, obs, t) == 0.0
            assert augmented_instantaneous_estimate(Z, obs, t) == 0.0
            assert recycling_instantaneous_estimate(Z, obs, t, 1) == 0.0


class TestErrors:
    def test_empty_pulse_arm(self):
        Z = AssignmentMatrix([ALWAYS_TREATED, ALWAYS_CONTROL, pulse_arm(2)], 3)
        obs = ObservedOutcomes(np.zeros((3, 3)))
        with pytest.raises(EstimatorUndefinedError):
            habituation_estimate(Z, obs, 3)
        with pytest.raises(EstimatorUndefinedError):
            recycling_instantaneous_estimate(Z, obs, 3, 2)

    def test_empty_control_pool(self):
        Z = AssignmentMatrix([ALWAYS_TREATED, pulse_arm(2)], 2)
        obs = ObservedOutcomes(np.zeros((2, 2)))
        with pytest.raises(EstimatorUndefinedError):
            instantaneous_estimate(Z, obs, 2)
        with pytest.raises(EstimatorUndefinedError):
            augmented_instantaneous_estimate(Z, obs, 2)

    def test_missing_pulse_arm_at_requested_time(self):
        # pool members exist at t=4 (pulse 2 recycled, pulse 5 in the
        # future) but nobody received the pulse being estimated
        Z = AssignmentMatrix([pulse_arm(2), pulse_arm(5), ALWAYS_CONTROL], 5)
        obs = ObservedOutcomes(np.zeros((3, 5)))
        with pytest.raises(EstimatorUndefinedError, match="pulse arm at t=4"):
            recycling_instantaneous_estimate(Z, obs, 4, 2)

    def test_recycling_rejects_wedge_assignments(self):
        Z = AssignmentMatrix(
            [ALWAYS_CONTROL, pulse_arm(2, Family.WEDGE), pulse_arm(3, Family.WEDGE)], 3
        )
        obs = ObservedOutcomes(np.zeros((3, 3)))
        with pytest.raises(ValueError, match="pulse-family"):
            recycling_instantaneous_estimate(Z, obs, 2, 1)

    def test_time_out_of_range(self):
        Z = AssignmentMatrix([ALWAYS_CONTROL, pulse_arm(2)], 2)
        obs = ObservedOutcomes(np.zeros((2, 2)))
        with pytest.raises(ValueError):
            habituation_estimate(Z, obs, 3)

    def test_shape_mismatch(self):
        Z = AssignmentMatrix([ALWAYS_CONTROL, pulse_arm(2)], 2)
        obs = ObservedOutcomes(np.zeros((3, 2)))
        with pytest.raises(ValueError):
            instantaneous_estimate(Z, obs, 2)


class TestRecyclingReductions:
    def test_large_k_equals_augmented(self):
        rng = np.random.default_rng(21)
        sched = random_schedule(rng, 8, 4, k=3)
        Z = draw_assignment(spread_allocation(8, 4), seed=9)
        obs = observe(Z, sched)
        for t in range(2, 5):
            for k in (3, 4, 9):
                assert recycling_instantaneous_estimate(Z, obs, t, k) == (
                    augmented_instantaneous_estimate(Z, obs, t)
                )


class TestUnbiasedness:
    @pytest.mark.parametrize("N,T", [(5, 2), (6, 3)])
    def test_enumeration_means_recover_estimands(self, N, T):
        rng = np.random.default_rng(100 + N)
        sched = random_schedule(rng, N, T, k=1)
        alloc = spread_allocation(N, T)
        hab, inst = estimands(sched)
        sums = {name: {t: [] for t in range(2, T + 1)} for name in
                ("habituation", "plugin", "augmented", "recycling")}
        for Z in enumerate_assignments(alloc):
            obs = observe(Z, sched)
            for t in range(2, T + 1):
                sums["habituation"][t].append(habituation_estimate(Z, obs, t))
                sums["plugin"][t].append(instantaneous_estimate(Z, obs, t))
                sums["augmented"][t].append(augmented_instantaneous_estimate(Z, obs, t))
                sums["recycling"][t].append(recycling_instantaneous_estimate(Z, obs, t, 1))
        for t in range(2, T + 1):
            targets = {"habituation": hab.at(t), "plugin": inst.at(t),
                       "augmented": inst.at(t), "recycling": inst.at(t)}
            for name, target in targets.items():
                mean = fsum(sums[name][t]) / len(sums[name][t])
                assert mean == pytest.approx(target, abs=1e-12)


class TestPermutationInvariance:
    def test_all_estimators_exactly_invariant(self):
        rng = np.random.default_rng(33)
        N, T = 7, 3
        sched = random_schedule(rng, N, T, k=1)
        alloc = spread_allocation(N, T)
        for trial in range(20):
            Z = draw_assignment(alloc, seed=trial)
            obs = observe(Z, sched)
            perm = rng.permutation(N)
            Zp = permute_units(Z, perm)
            obsp = ObservedOutcomes(obs.values[perm, :])
            for t in (2, 3):
                assert habituation_estimate(Zp, obsp, t) == habituation_estimate(Z, obs, t)
                assert instantaneous_estimate(Zp, obsp, t) == instantaneous_estimate(Z, obs, t)
                assert augmented_instantaneous_estimate(Zp, obsp, t) == (
                    augmented_instantaneous_estimate(Z, obs, t)
                )
                assert recycling_instantaneous_estimate(Zp, obsp, t, 1) == (
                    recycling_instantaneous_estimate(Z, obs, t, 1)
                )


class TestWedgePulseAgreement:
    def test_estimates_ignore_post_pulse_cells(self):
        # a wedge experiment differs from a pulse experiment only at cells
        # after a unit's pulse time; corrupting those cells must not move
        # any estimate
        rng = np.random.default_rng(55)
        N, T = 9, 4
        sched = random_schedule(rng, N, T)
        alloc = spread_allocation(N, T)
        for trial in range(10):
            codes_seed = 200 + trial
            Zp = draw_assignment(alloc, Family.PULSE, seed=codes_seed)
            Zw = AssignmentMatrix(
                [a.with_family(Family.WEDGE) if a.t is not None else a
                 for a in Zp.arm_labels], T
            )
            obs = observe(Zp, sched)
            wedge_values = obs.values.copy()
            for i, arm in enumerate(Zw.arm_labels):
                if arm.t is not None and arm.t < T:
                    wedge_values[i, arm.t:] = rng.normal(size=T - arm.t) * 100
            wobs = ObservedOutcomes(wedge_values)
            for t in range(2, T + 1):
                assert habituation_estimate(Zw, wobs, t) == habituation_estimate(Zp, obs, t)
                assert instantaneous_estimate(Zw, wobs, t) == instantaneous_estimate(Zp, obs, t)
                assert augmented_instantaneous_estimate(Zw, wobs, t) == (
                    augmented_instantaneous_estimate(Zp, obs, t)
                )


class TestAffineEquivariance:
    def test_shift_and_scale(self):
        rng = np.random.default_rng(8)
        N, T = 8, 3
        sched = random_schedule(rng, N, T, k=1)
        Z = draw_assignment(spread_allocation(N, T), seed=2)
        obs = observe(Z, sched)
        shifted = ObservedOutcomes(obs.values + 11.5)
        scaled = ObservedOutcomes(obs.values * -2.5)
        for t in (2, 3):
            for fn in (
                habituation_estimate,
                instantaneous_estimate,
                augmented_instantaneous_estimate,
                lambda z, o, tt: recycling_instantaneous_estimate(z, o, tt, 1),
            ):
                base = fn(Z, obs, t)
                assert fn(Z, shifted, t) == pytest.approx(base, abs=1e-12)
                assert fn(Z, scaled, t) == pytest.approx(-2.5 * base, rel=1e-12, abs=1e-12)


class TestEstimatePass:
    """A per-t step of ``_estimate_pass`` is row t of the full pass."""

    @pytest.mark.parametrize("estimator,k", [("plugin", None), ("augmented", None),
                                             ("recycling", 1), ("recycling", 3)],
                             ids=["plugin", "augmented", "recycling-1", "recycling-3"])
    @pytest.mark.parametrize("rho", [0.0, 0.5, 1.0])
    def test_a_step_is_the_row_of_the_full_pass(self, estimator, k, rho):
        from tminimax.estimators import _estimate_pass

        def bits(row_or_error):
            if isinstance(row_or_error, Exception):
                return str(row_or_error)
            return tuple(None if v is None else float(v).hex() for v in row_or_error)

        rng = np.random.default_rng(23)
        flags = {"hab": rho > 0.0, "inst": rho < 1.0}
        # N = 6 at T = 7 leaves arms empty; T = 260 sorts the codes as uint16
        for N, T in ((6, 7), (40, 5), (1000, 260)):
            values = rng.normal(size=(N, T))
            for _ in range(3):
                codes = rng.integers(0, T + 1, size=N)
                full = _estimate_pass(codes, values, estimator, k, **flags)
                for t in range(2, T + 1):
                    try:
                        row = next(full)
                    except EstimatorUndefinedError as exc:
                        row = exc
                    try:
                        step = next(_estimate_pass(codes, values, estimator, k,
                                                   **flags, start=t))
                    except EstimatorUndefinedError as exc:
                        step = exc
                    assert bits(step) == bits(row)
                    if isinstance(row, Exception):
                        break  # the full pass ends at its first empty arm


def _pass_rows(run):
    """The rows a pass yields, each value as its hex (None for an effect
    not asked for), then the type and message of what it raises, if it
    raises."""
    rows = []
    try:
        for t, h, i in run():
            rows.append((t, None if h is None else h.hex(), None if i is None else i.hex()))
    except (ValueError, OverflowError) as exc:  # EstimatorUndefinedError is a ValueError
        rows.append((type(exc), str(exc)))
    return rows


def _owned_schedule(rng, N, T):
    """A ``_owned`` schedule of three stored matrices on scales 1, 2**40
    and 2**-40 behind a random slot table, so a pool's arms read cells of
    different scales at one period."""
    stored = rng.normal(size=(3, N, T)) * np.ldexp(1.0, [0, 40, -40])[:, None, None]
    return stored, rng.integers(0, 3, size=(T + 1, T))


def _special(kind, stored, slots, codes, t):
    """Sets the cells of ``kind`` at period t (every stored matrix's
    column t - 1 and the slot table are changed in place)."""
    j = t - 1
    treated = np.flatnonzero(codes == 1)
    if kind in ("all_minus_zero", "underflow"):
        # zeros everywhere at t; the always-treated arm alone reads matrix 0
        stored[:, :, j] = 0.0
        slots[:, j] = 1
        slots[1, j] = 0
        if kind == "all_minus_zero":  # an arm of -0.0 only
            stored[0, :, j] = -0.0
        elif len(treated):  # a treated mean of -5e-324 / n, which rounds to -0.0
            stored[0, treated[0], j] = -5e-324
    elif kind == "minus_zero":
        stored[0, ::3, j] = -0.0
    elif kind == "huge":  # one arm overflows fsum, the others are near overflow
        stored[:, ::2, j] = 1e308
    elif kind == "nan":
        stored[1, 1, j] = np.nan
    elif kind == "inf":
        stored[:, 0, j] = np.inf
    elif kind == "inf_minus_inf":
        stored[:, 0, j] = np.inf
        stored[:, 1:, j] = -np.inf
    else:
        assert kind == "none", kind


def _emptied(codes, T, estimator, k, case):
    """``codes`` with the arms of ``case`` emptied: ("treated", None),
    ("pulse", t), ("pool", t) or ("none", None); their units join the
    control arm, or for a pool the pulse arm at t."""
    codes = codes.copy()
    what, t = case
    if what == "treated":
        codes[codes == 1] = 0
    elif what == "pulse":
        codes[codes == t] = 0
    elif what == "pool":
        from tminimax.core import _pool_arms

        codes[_pool_arms(T, estimator, k)[t - 2][codes]] = t
    return codes


_PASS_ESTIMATORS = [("plugin", None), ("augmented", None), ("recycling", 1), ("recycling", 2),
                    ("recycling", 3)]


class TestExactPassMatchesThePerPickLoop:
    """The exact pass sums a block of periods by extraction; the oracle is
    the per-pick ``fsum`` loop (``_pick_pass``), which the exact pass keeps
    as its fallback.  Every row's bits, and every exception's type, text
    and (t, effect), must agree, for full passes and single steps."""

    KINDS = ["none", "minus_zero", "all_minus_zero", "underflow", "huge", "nan", "inf",
             "inf_minus_inf"]

    @pytest.mark.parametrize("estimator,k", _PASS_ESTIMATORS,
                             ids=[f"{e}-{k}" if k else e for e, k in _PASS_ESTIMATORS])
    @pytest.mark.parametrize("rho", [0.0, 0.5, 1.0])
    @pytest.mark.parametrize("block", [None, 1, 50], ids=["all", "one-period", "two-periods"])
    def test_rows_and_errors_match(self, monkeypatch, estimator, k, rho, block):
        from tminimax.estimators import _cell_table, _estimate_pass, _pick_pass

        if block is not None:  # N = 30 cells at most per period
            monkeypatch.setattr(estimators, "_BLOCK_CELLS", block)
        rng = np.random.default_rng([7, int(rho * 2), block or 0, k or 0, len(estimator)])
        hab, inst = rho > 0.0, rho < 1.0
        picked = estimator if inst else "plugin"
        N, T = 30, 6
        # every arm has a unit and the always-treated arm two
        base = np.concatenate([np.arange(T + 1), [1], rng.integers(0, T + 1, size=N - T - 2)])
        cases = [("none", None), ("treated", None)]
        cases += [(what, t) for what in ("pulse", "pool") for t in range(2, T + 1)]
        minus_zero_estimate = False
        for kind in self.KINDS:
            for case in cases:
                codes = _emptied(rng.permutation(base), T, estimator, k, case)
                stored, slots = _owned_schedule(rng, N, T)
                _special(kind, stored, slots, codes, int(rng.integers(2, T + 1)))
                sched = PotentialOutcomeSchedule._owned(stored, slots)
                observed = sched._observed_rows(codes)
                cells, table = _cell_table(observed)
                with np.errstate(invalid="ignore", over="ignore"):
                    for start, stop in [(2, None)] + [(t, t + 1) for t in range(2, T + 1)]:
                        want = _pass_rows(lambda: _pick_pass(
                            codes, cells, table, picked, k, hab, inst, start,
                            T + 1 if stop is None else stop))
                        for values in (sched, observed):
                            got = _pass_rows(lambda: _estimate_pass(
                                codes, values, estimator, k, hab=hab, inst=inst, start=start,
                                stop=stop))
                            assert got == want, (kind, case, start)
                        if stop is not None:  # a step without a stop is the same row
                            got = _pass_rows(lambda: _estimate_pass(
                                codes, sched, estimator, k, hab=hab, inst=inst, start=start))
                            assert got[:1] == want
                        minus_zero_estimate |= any(
                            "-0x0.0p+0" in row for row in want if isinstance(row[0], int))
        # the treated mean -5e-324 / n rounds to -0.0, whatever fsum gives for -0.0
        assert minus_zero_estimate == hab

    @pytest.mark.parametrize("estimator,k", [("plugin", None), ("augmented", None)])
    @pytest.mark.parametrize("block", [None, 1], ids=["all", "one-period"])
    def test_a_wedge_loss_is_the_per_pick_loss(self, monkeypatch, estimator, k, block):
        from tminimax.estimators import _cell_table, _pick_pass
        from tminimax.risk import LossSpec, loss

        if block is not None:
            monkeypatch.setattr(estimators, "_BLOCK_CELLS", block)
        rng = np.random.default_rng(12)
        N, T = 40, 7
        stored, slots = _owned_schedule(rng, N, T)
        sched = PotentialOutcomeSchedule._owned(stored, slots)
        hab, inst = (e.values for e in estimands(sched))
        for seed in range(5):
            pulse = draw_assignment(spread_allocation(N, T), seed=seed)
            wedge = draw_assignment(spread_allocation(N, T), Family.WEDGE, seed=seed)
            assert wedge.family is Family.WEDGE and np.array_equal(wedge.codes, pulse.codes)
            for rho in (0.0, 0.5, 1.0):
                spec = LossSpec(estimator, rho, k)
                cells, table = _cell_table(sched._observed_rows(wedge.codes))
                h_sq, i_sq = [], []
                for t, h, i in _pick_pass(wedge.codes, cells, table,
                                          estimator if rho < 1.0 else "plugin", k,
                                          rho > 0.0, rho < 1.0, 2, T + 1):
                    if h is not None:
                        h_sq.append((h - hab[t - 2]) ** 2)
                    if i is not None:
                        i_sq.append((i - inst[t - 2]) ** 2)
                want = rho * fsum(h_sq) + (1.0 - rho) * fsum(i_sq)
                assert loss(wedge, sched, spec).hex() == want.hex()
                assert loss(pulse, sched, spec).hex() == want.hex()
