"""Tests for arm algebra, randomization, and schedule handling."""

import math
from collections.abc import Mapping

import numpy as np
import pytest

from conftest import (
    arm_bytes,
    constant_schedule,
    random_schedule,
    schedule_violations,
    spread_allocation,
)
from tminimax.core import (
    ALWAYS_CONTROL,
    ALWAYS_TREATED,
    Allocation,
    AssignmentMatrix,
    Family,
    ObservedOutcomes,
    PotentialOutcomeSchedule,
    arms_for_horizon,
    draw_assignment,
    enumerate_assignments,
    make_arm_vector,
    observe,
    permute_units,
    pulse_arm,
)
from tminimax.risk import worst_case_schedule


class TestArmVectors:
    def test_always_control_is_zero(self):
        assert make_arm_vector(ALWAYS_CONTROL, 3).tolist() == [0, 0, 0]

    def test_always_treated_is_ones(self):
        assert make_arm_vector(ALWAYS_TREATED, 4).tolist() == [1, 1, 1, 1]

    def test_pulse_has_single_one(self):
        assert make_arm_vector(pulse_arm(2), 4).tolist() == [0, 1, 0, 0]

    def test_wedge_treats_through_the_end(self):
        assert make_arm_vector(pulse_arm(2, Family.WEDGE), 4).tolist() == [0, 1, 1, 1]

    @pytest.mark.parametrize("t,T", [(5, 4), (2, 1)])
    def test_pulse_outside_horizon_rejected(self, t, T):
        with pytest.raises(ValueError):
            make_arm_vector(pulse_arm(t), T)

    def test_pulse_time_below_two_rejected(self):
        with pytest.raises(ValueError):
            pulse_arm(1)

    def test_wedge_and_pulse_agree_up_to_pulse_time(self):
        for T in (2, 3, 6):
            for t in range(2, T + 1):
                p = make_arm_vector(pulse_arm(t), T)
                w = make_arm_vector(pulse_arm(t, Family.WEDGE), T)
                assert np.array_equal(p[:t], w[:t])

    def test_family_never_affects_arm_identity(self):
        assert pulse_arm(3) == pulse_arm(3, Family.WEDGE)
        assert hash(pulse_arm(3)) == hash(pulse_arm(3, Family.WEDGE))

    @pytest.mark.parametrize("family", list(Family), ids=lambda f: f.value)
    @pytest.mark.parametrize("T", [2, 5, 30])
    def test_arm_vector_table_is_kept_read_only(self, family, T):
        from tminimax.core import _arm_vectors

        table = _arm_vectors(T, family)
        assert _arm_vectors(T, family) is table  # built once per (T, family)
        assert not table.flags.writeable
        with pytest.raises(ValueError):
            table[0, 0] = 1
        fresh = np.stack([make_arm_vector(arm, T) for arm in arms_for_horizon(T, family)])
        assert table.dtype == fresh.dtype and np.array_equal(table, fresh)


class TestAllocation:
    def test_counts_layout(self):
        alloc = Allocation(3, 4, (1, 2))
        assert alloc.counts == (3, 4, 1, 2)
        assert alloc.N == 10 and alloc.T == 3
        # numpy integers are counts too, kept as Python ints
        same = Allocation(np.int64(3), np.int32(4), (np.uint8(1), 2))
        assert same.counts == alloc.counts and all(type(c) is int for c in same.counts)

    def test_negative_count_rejected(self):
        with pytest.raises(ValueError):
            Allocation(-1, 2, (1,))

    def test_needs_a_pulse_arm(self):
        with pytest.raises(ValueError):
            Allocation(1, 1, ())

    @pytest.mark.parametrize("counts,bad", [
        ((1.5, 1, (1,)), "1.5"),
        (("3", 1, (1,)), "'3'"),
        ((3, True, (1,)), "True"),
        ((3, 1, (np.float64(2.0),)), "np.float64(2.0)"),
        ((3, 1, (2, 1.0)), "1.0"),
    ], ids=["float", "str", "bool", "numpy_float", "float_pulse"])
    def test_non_integer_count_rejected(self, counts, bad):
        with pytest.raises(ValueError) as info:
            Allocation(*counts)
        assert str(info.value) == f"arm count must be an integer, got {bad}"


class TestDrawAssignment:
    def test_counts_forced_every_draw(self):
        alloc = Allocation(1, 1, (1,))
        for seed in range(10):
            Z = draw_assignment(alloc, seed=seed)
            assert Z.allocation == alloc
            assert sorted(a.label for a in Z.arm_labels) == ["always0", "always1", "pulse_2"]

    def test_same_seed_is_identical(self):
        alloc = Allocation(3, 2, (2, 3))
        assert draw_assignment(alloc, seed=99) == draw_assignment(alloc, seed=99)

    def test_rows_match_labels(self):
        Z = draw_assignment(Allocation(2, 2, (1, 1)), Family.WEDGE, seed=4)
        for i, arm in enumerate(Z.arm_labels):
            assert np.array_equal(Z.matrix[i], make_arm_vector(arm, Z.T))

    def test_marginal_assignment_frequency(self):
        # each unit should land in the control arm a third of the time
        alloc = Allocation(2, 2, (2,))
        hits = np.zeros(6)
        draws = 6000
        for seed in range(draws):
            hits += draw_assignment(alloc, seed=seed).codes == 0
        assert np.all(np.abs(hits / draws - 1 / 3) < 0.02)

    def test_arrangement_distribution_uniform(self):
        # chi-square of observed arrangements against the uniform law over
        # the full enumeration
        alloc = Allocation(1, 2, (2,))
        cells = {tuple(Z.codes): 0 for Z in enumerate_assignments(alloc)}
        assert len(cells) == 30
        draws = 6000
        for seed in range(draws):
            cells[tuple(draw_assignment(alloc, seed=seed).codes)] += 1
        expected = draws / len(cells)
        stat = sum((c - expected) ** 2 / expected for c in cells.values())
        # 99.9th percentile of chi-square with 29 dof
        assert stat < 58.3

    @pytest.mark.parametrize("family", list(Family), ids=lambda f: f.value)
    @pytest.mark.parametrize("N", [2, 3, 5, 64, 1001, 4096, 20000])
    def test_matches_an_in_place_shuffle(self, family, N):
        # reference: the sorted code vector Fisher-Yates shuffled in place
        rng = np.random.default_rng(N)
        for T in (2, 5, 9):
            counts = rng.multinomial(N, [1 / (T + 1)] * (T + 1)).tolist()
            alloc = Allocation(counts[0], counts[1], tuple(counts[2:]))
            for seed in (0, 7, 2**40, np.random.SeedSequence((3, 0)),
                         np.random.SeedSequence((2**31, 99))):
                want = np.repeat(np.arange(T + 1, dtype=np.int64), counts)
                np.random.default_rng(seed).shuffle(want)
                Z = draw_assignment(alloc, family, seed=seed)
                assert Z.codes.dtype == np.int64 and np.array_equal(Z.codes, want)
                assert Z.family is (family if (want >= 2).any() else Family.PULSE)


def _per_unit(codes, T, family):
    """Reference: the assignment built one ArmId per unit."""
    arms = [ALWAYS_CONTROL if c == 0 else ALWAYS_TREATED if c == 1 else pulse_arm(int(c), family)
            for c in codes]
    return arms, AssignmentMatrix(arms, T)


def _sweep_allocations(rng, count):
    for _ in range(count):
        T = int(rng.integers(2, 9))
        counts = rng.integers(0, 5, size=T + 1)
        counts[rng.integers(0, T + 1)] += 1  # N >= 1
        yield Allocation(int(counts[0]), int(counts[1]), tuple(int(c) for c in counts[2:]))


class TestCodesFirstAssignment:
    def _assert_matches_per_unit(self, Z, family):
        arms, ref = _per_unit(Z.codes, Z.T, family)
        assert Z.arm_labels == ref.arm_labels == tuple(arms)
        assert [repr(a) for a in Z.arm_labels] == [repr(a) for a in ref.arm_labels]
        expected = np.array([make_arm_vector(a, Z.T) for a in arms], dtype=np.int8)
        for m in (Z.matrix, ref.matrix):
            assert m.dtype == np.int8 and not m.flags.writeable
            assert np.array_equal(m, expected)
        assert Z.codes.dtype == np.int64 and not Z.codes.flags.writeable
        assert np.array_equal(Z.codes, ref.codes)
        assert Z.family is ref.family
        assert Z == ref and ref == Z
        assert repr(Z) == repr(ref)

    @pytest.mark.parametrize("family", [Family.PULSE, Family.WEDGE])
    def test_drawn_match_per_unit_construction(self, family):
        rng = np.random.default_rng(2024)
        for alloc in _sweep_allocations(rng, 60):
            for seed in range(3):
                Z = draw_assignment(alloc, family, seed=seed)
                self._assert_matches_per_unit(Z, family)
                perm = rng.permutation(Z.N)
                self._assert_matches_per_unit(permute_units(Z, perm), family)

    @pytest.mark.parametrize("family", [Family.PULSE, Family.WEDGE])
    def test_enumerated_match_per_unit_construction(self, family):
        for alloc in (Allocation(1, 1, (1, 1)), Allocation(2, 0, (1, 0)),
                      Allocation(1, 2, (0,))):
            for Z in enumerate_assignments(alloc, family):
                self._assert_matches_per_unit(Z, family)

    def test_family_differs_means_unequal(self):
        alloc = Allocation(1, 1, (1, 1))
        assert draw_assignment(alloc, Family.PULSE, 3) != draw_assignment(alloc, Family.WEDGE, 3)
        empty = Allocation(1, 1, (0, 0))
        assert draw_assignment(empty, Family.PULSE, 3) == draw_assignment(empty, Family.WEDGE, 3)

    def test_cached_views_cannot_be_written(self):
        Z = draw_assignment(Allocation(2, 2, (1, 2)), Family.WEDGE, seed=1)
        assert Z.matrix is Z.matrix and Z.arm_labels is Z.arm_labels
        with pytest.raises(ValueError):
            Z.matrix[0, 0] = 1
        with pytest.raises(ValueError):
            Z.codes[0] = 1
        with pytest.raises(TypeError):
            Z.arm_labels[0] = ALWAYS_CONTROL
        with pytest.raises(AttributeError):
            Z.matrix = np.zeros((6, 3), dtype=np.int8)
        with pytest.raises(AttributeError):
            Z.arm_labels = ()


def _wedges(*times):
    return [pulse_arm(t, Family.WEDGE) for t in times]


class TestErrorMessages:
    @pytest.mark.parametrize("make,message", [
        (lambda: AssignmentMatrix([ALWAYS_CONTROL, pulse_arm(5), pulse_arm(4)], 3),
         "ArmId(pulse_5) does not fit horizon T=3"),
        (lambda: AssignmentMatrix(_wedges(4, 5, 5), 3),
         "ArmId(pulse_5, wedge) does not fit horizon T=3"),
        (lambda: AssignmentMatrix([], 3), "assignment needs at least one unit"),
        (lambda: AssignmentMatrix([pulse_arm(5)], 1), "horizon T must be >= 2, got 1"),
        (lambda: AssignmentMatrix([pulse_arm(2), *_wedges(2), pulse_arm(5)], 3),
         "mixed pulse/wedge families in one assignment"),
        (lambda: pulse_arm(1), "pulse arm requires a time index >= 2, got 1"),
        (lambda: Family("diagonal"), "'diagonal' is not a valid Family"),
    ], ids=["past_T", "past_T_wedge", "no_units", "horizon", "mixed_families", "pulse_1",
            "family"])
    def test_message(self, make, message):
        with pytest.raises(ValueError) as info:
            make()
        assert str(info.value) == message


class TestObserve:
    def test_constant_schedule(self):
        sched = constant_schedule(4, 3, value=2.5)
        Z = draw_assignment(spread_allocation(4, 3), seed=0)
        assert np.all(observe(Z, sched).values == 2.5)

    def test_rows_follow_arm_labels(self):
        ones = np.ones((2, 2))
        sched = PotentialOutcomeSchedule({
            ALWAYS_TREATED: ones, ALWAYS_CONTROL: 0 * ones, pulse_arm(2): 0.5 * ones,
        })
        Z = AssignmentMatrix([ALWAYS_TREATED, ALWAYS_CONTROL], 2)
        assert observe(Z, sched).values.tolist() == [[1, 1], [0, 0]]

    def test_commutes_with_unit_permutation(self):
        rng = np.random.default_rng(3)
        N, T = 6, 3
        sched = random_schedule(rng, N, T)
        Z = draw_assignment(spread_allocation(N, T), seed=5)
        perm = rng.permutation(N)
        direct = observe(permute_units(Z, perm), permute_units(sched, perm)).values
        indirect = observe(Z, sched).values[perm, :]
        assert np.array_equal(direct, indirect)

    def test_size_mismatch_rejected(self):
        sched = constant_schedule(4, 3)
        Z = draw_assignment(spread_allocation(4, 2), seed=0)
        with pytest.raises(ValueError):
            observe(Z, sched)

    def test_rows_match_each_units_arm_and_are_frozen(self):
        sched = random_schedule(np.random.default_rng(9), 50, 4)
        Z = draw_assignment(spread_allocation(50, 4), seed=3)
        values = observe(Z, sched).values
        expected = [sched.matrix(arm)[i] for i, arm in enumerate(Z.arm_labels)]
        assert np.array_equal(values, expected)
        assert not values.flags.writeable

    @pytest.mark.parametrize("bad", [np.nan, np.inf, -np.inf])
    def test_public_constructor_rejects_non_finite_values(self, bad):
        values = np.zeros((3, 4))
        values[1, 2] = bad
        values[2, 0] = bad  # later in row order, so not the one named
        with pytest.raises(ValueError) as info:
            ObservedOutcomes(values)
        assert str(info.value) == (f"observed outcome at (row, column) (1, 2) is not finite: "
                                   f"{bad}")

    def test_public_constructor_copies(self):
        raw = np.zeros((2, 3))
        obs = ObservedOutcomes(raw)
        raw[0, 0] = 1.0
        assert obs.values[0, 0] == 0.0
        assert raw.flags.writeable and not obs.values.flags.writeable


class TestPermuteUnits:
    def test_identity(self):
        rng = np.random.default_rng(0)
        sched = random_schedule(rng, 4, 2)
        assert permute_units(sched, [0, 1, 2, 3]) == sched

    def test_inverse_round_trip(self):
        rng = np.random.default_rng(1)
        N = 6
        sched = random_schedule(rng, N, 3)
        perm = rng.permutation(N)
        inverse = np.argsort(perm)
        assert permute_units(permute_units(sched, perm), inverse) == sched

    def test_swap_two_rows(self):
        Z = AssignmentMatrix([ALWAYS_CONTROL, ALWAYS_TREATED], 2)
        swapped = permute_units(Z, [1, 0])
        assert swapped.arm_labels == (ALWAYS_TREATED, ALWAYS_CONTROL)

    def test_non_bijection_rejected(self):
        Z = AssignmentMatrix([ALWAYS_CONTROL, ALWAYS_TREATED], 2)
        with pytest.raises(ValueError):
            permute_units(Z, [0, 0])

    def test_shared_matrices_stay_shared(self):
        rng = np.random.default_rng(8)
        N, T = 9, 4
        sched = worst_case_schedule(N, T, -1.0, 2.0)
        perm = rng.permutation(N)
        permuted = permute_units(sched, perm)
        assert len(permuted._stored) == 1
        per_arm = PotentialOutcomeSchedule({arm: sched.matrix(arm)[perm] for arm in sched.arms})
        assert permuted == per_arm
        assert arm_bytes(permuted) == arm_bytes(per_arm)


class TestEnumeration:
    def test_count_and_distinctness(self):
        alloc = Allocation(2, 1, (1,))
        seen = {tuple(Z.codes) for Z in enumerate_assignments(alloc)}
        assert len(seen) == math.factorial(4) // 2

    def test_every_assignment_has_exact_counts(self):
        alloc = Allocation(1, 2, (2,))
        for Z in enumerate_assignments(alloc):
            assert Z.allocation == alloc


class TestScheduleType:
    def test_missing_arm_rejected(self):
        m = np.zeros((3, 3))
        with pytest.raises(ValueError, match="missing"):
            PotentialOutcomeSchedule({ALWAYS_CONTROL: m, ALWAYS_TREATED: m, pulse_arm(2): m})

    def test_shape_mismatch_rejected(self):
        arms = {arm: np.zeros((3, 3)) for arm in arms_for_horizon(3)}
        arms[pulse_arm(2)] = np.zeros((3, 4))
        with pytest.raises(ValueError):
            PotentialOutcomeSchedule(arms)

    def test_matrices_frozen(self):
        sched = constant_schedule(2, 2)
        with pytest.raises(ValueError):
            sched.matrix(ALWAYS_CONTROL)[0, 0] = 1.0


class _FreshArrays(Mapping):
    """A mapping that builds a new nested list on every lookup, so the ids
    of sources from earlier lookups are free to be recycled."""

    def __init__(self, arms):
        self._arms = arms

    def __getitem__(self, arm):
        return self._arms[arm].tolist()

    def __iter__(self):
        return iter(self._arms)

    def __len__(self):
        return len(self._arms)


def _two_arms_sharing(rng, N, T):
    """Random schedule whose always-treated and pulse-2 arms are one object."""
    arms = {arm: rng.normal(size=(N, T)) for arm in arms_for_horizon(T)}
    arms[pulse_arm(2)] = arms[ALWAYS_TREATED]
    return arms


def _pattern_schedule(rng, N, T):
    """Schedule over four random matrices whose slot table maps each (arm,
    period) to its pattern 2 z_t + z_{t-1}, as the outcome models do."""
    z = np.array([make_arm_vector(arm, T) for arm in arms_for_horizon(T)], dtype=np.intp)
    prev = np.zeros_like(z)
    prev[:, 1:] = z[:, :-1]
    return PotentialOutcomeSchedule._owned(rng.normal(size=(4, N, T)), 2 * z + prev)


class TestSharedStorage:
    N, T = 30, 5

    # at T = 3 the four pattern matrices are T+1 matrices, but not one per arm
    @pytest.mark.parametrize("T", [3, 5])
    def test_pattern_schedule_reads_through_the_slot_table(self, T):
        N = 7
        sched = _pattern_schedule(np.random.default_rng(T), N, T)
        stored, slots = sched._stored, sched._slots
        assert slots.shape == (T + 1, T) and not slots.flags.writeable
        want = np.array([[[stored[slots[c, t], i, t] for t in range(T)] for i in range(N)]
                         for c in range(T + 1)])
        for c, arm in enumerate(sched.arms):
            m = sched.matrix(arm)
            assert m.tobytes() == want[c].tobytes() and not m.flags.writeable
        assert np.shares_memory(sched.matrix(ALWAYS_CONTROL), stored)
        Z = draw_assignment(spread_allocation(N, T), seed=1)
        rows = want[Z.codes, np.arange(N)]
        assert sched._observed_rows(Z.codes).tobytes() == rows.tobytes()
        twin = PotentialOutcomeSchedule({arm: sched.matrix(arm) for arm in sched.arms})
        assert sched == twin and len(twin._stored) == T + 1
        # dict-built tables hold one slot per arm, so whole rows are gathered
        shared = {arm: sched.matrix(arm) for arm in sched.arms}
        shared[pulse_arm(2)] = shared[ALWAYS_TREATED]
        for built in (twin, PotentialOutcomeSchedule(shared)):
            slots = built._slots
            assert (slots == slots[:, :1]).all()
            cells = np.array([[[built._stored[slots[c, t], i, t] for t in range(T)]
                               for i in range(N)] for c in range(T + 1)])
            got = built._observed_rows(Z.codes)
            assert got.tobytes() == cells[Z.codes, np.arange(N)].tobytes()
            assert not got.flags.writeable
        # pattern (0, 1) follows each pulse, so only k = 1 finds violations
        assert not schedule_violations(sched) and not schedule_violations(sched, k=2)
        report = schedule_violations(sched, k=1)
        assert report == schedule_violations(twin, k=1) and report

    @pytest.mark.parametrize("kind", ["all_shared", "two_shared", "all_distinct", "owned"])
    def test_observed_rows_equal_the_per_arm_gather(self, kind):
        rng = np.random.default_rng(17)
        N, T = self.N, self.T
        if kind == "all_shared":
            sched, stored = worst_case_schedule(N, T, 0.0, 1.0), 1
        elif kind == "two_shared":
            sched, stored = PotentialOutcomeSchedule(_two_arms_sharing(rng, N, T)), T
        elif kind == "all_distinct":
            sched, stored = random_schedule(rng, N, T), T + 1
        else:
            identity = np.repeat(np.arange(T + 1), T).reshape(T + 1, T)
            sched = PotentialOutcomeSchedule._owned(rng.normal(size=(T + 1, N, T)), identity)
            stored = T + 1
        assert len(sched._stored) == stored
        for seed in range(4):
            Z = draw_assignment(spread_allocation(N, T), seed=seed)
            got = sched._observed_rows(Z.codes)
            want = np.array([sched.matrix(arm)[i] for i, arm in enumerate(Z.arm_labels)])
            assert got.shape == want.shape and got.tobytes() == want.tobytes()
            assert not got.flags.writeable

    def test_one_stored_matrix_is_observed_without_a_copy(self):
        sched = worst_case_schedule(self.N, self.T, 0.0, 1.0)
        Z = draw_assignment(spread_allocation(self.N, self.T), seed=2)
        assert np.shares_memory(sched._observed_rows(Z.codes), sched._stored)
        assert np.shares_memory(observe(Z, sched).values, sched.matrix(ALWAYS_CONTROL))

    def test_fresh_array_mapping_equals_the_dict(self):
        arms = {arm: np.random.default_rng(c).normal(size=(self.N, self.T))
                for c, arm in enumerate(arms_for_horizon(self.T))}
        sched = PotentialOutcomeSchedule(_FreshArrays(arms))
        assert len(sched._stored) == self.T + 1
        assert sched == PotentialOutcomeSchedule(arms)

    def test_shared_equals_its_unshared_twin(self):
        arms = _two_arms_sharing(np.random.default_rng(5), self.N, self.T)
        shared = PotentialOutcomeSchedule(arms)
        twin = PotentialOutcomeSchedule({arm: m.copy() for arm, m in arms.items()})
        assert len(shared._stored) == self.T and len(twin._stored) == self.T + 1
        assert shared == twin
        assert arm_bytes(shared) == arm_bytes(twin)

    def test_mutating_a_source_leaves_the_schedule(self):
        arms = _two_arms_sharing(np.random.default_rng(6), self.N, self.T)
        sched = PotentialOutcomeSchedule(arms)
        before = arm_bytes(sched)
        arms[ALWAYS_TREATED][:] = 7.0
        arms[ALWAYS_CONTROL][0, 0] = -7.0
        assert arm_bytes(sched) == before
