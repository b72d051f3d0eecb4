"""The control-pool table ``core._pool_arms`` against a reference.

The reference is a test-local copy of the separate encodings of the pool
rule that the table replaced: the allocation objective's arm groups, the
estimators' unit mask, the augmented control set, the risk module's pool
sizes and the non-anticipation check's column ranges.  Every consumer of
the table must agree with them exactly.
"""

from math import fsum

import numpy as np
import pytest

from conftest import random_schedule, schedule_violations
from tminimax.allocation import ObjectiveMode, _term_matrix
from tminimax.core import (
    ALWAYS_CONTROL,
    Allocation,
    AssignmentMatrix,
    Family,
    PotentialOutcomeSchedule,
    _picks,
    _pool_arms,
    observe,
    pulse_arm,
)
from tminimax.estimators import (
    augmented_instantaneous_estimate,
    instantaneous_estimate,
    recycling_instantaneous_estimate,
)
from tminimax.risk import LossSpec, max_risk, true_variances

# ---------------------------------------------------------------------------
# Reference: the old encodings, one per layer.
# ---------------------------------------------------------------------------


def _ref_controls_group(T, t, k):
    """Arm indices whose units are usable as controls at time t."""
    group = [0] + [tp for tp in range(t + 1, T + 1)]
    if k is not None:
        group += [tp for tp in range(2, min(t - k, T) + 1)]
    return tuple(sorted(group))


def _ref_control_mask(codes, t, estimator, k):
    if estimator == "plugin":
        return codes == 0
    mask = (codes == 0) | (codes > t)
    if estimator == "recycling":
        mask |= (codes >= 2) & (codes <= t - k)
    return mask


def _ref_augmented_controls(codes, t, k=None):
    mask = (codes == 0) | (codes > t)
    if k is not None:
        mask |= (codes >= 2) & (codes <= t - k)
    return frozenset(int(i) for i in np.nonzero(mask)[0])


def _ref_control_count(alloc, t, estimator, k):
    if estimator == "plugin":
        return alloc.n0
    total = alloc.n0 + sum(alloc.ne[t - 1:])  # pulses strictly after t
    if estimator == "recycling" and t - k >= 2:
        total += sum(alloc.ne[: t - k - 1])  # pulses at times <= t - k
    return total


def _cases():
    """(T, estimator, k) for T <= 10, each estimator, k in 1..T."""
    for T in range(2, 11):
        yield T, "plugin", None
        yield T, "augmented", None
        for k in range(1, T + 1):
            yield T, "recycling", k


CASES = list(_cases())


def _codes(rng, T):
    """Every arm code at least once, plus random extras, shuffled."""
    codes = np.concatenate([np.arange(T + 1), rng.integers(0, T + 1, size=2 * T)])
    rng.shuffle(codes)
    return codes


class TestTable:
    def test_shape_dtype_and_read_only(self):
        for T, estimator, k in CASES:
            table = _pool_arms(T, estimator, k)
            assert table.shape == (T - 1, T + 1) and table.dtype == bool
            assert not table.flags.writeable

    @pytest.mark.parametrize("T,estimator,k", CASES)
    def test_rows_match_the_reference_groups(self, T, estimator, k):
        table = _pool_arms(T, estimator, k)
        for t in range(2, T + 1):
            if estimator == "plugin":
                want = (0,)
            else:
                want = _ref_controls_group(T, t, k)
            assert tuple(np.flatnonzero(table[t - 2]).tolist()) == want

    def test_objective_pool_terms_are_the_reference_groups(self):
        for T in range(2, 11):
            modes = [(ObjectiveMode.augmented(), None), (ObjectiveMode.weighted(0.3), None)]
            modes += [(ObjectiveMode.recycling(k), k) for k in range(1, T + 1)]
            for mode, k in modes:
                _, m = _term_matrix(T, mode)
                pool_rows = m[-(T - 1):]
                for t in range(2, T + 1):
                    group = tuple(np.flatnonzero(pool_rows[t - 2]).tolist())
                    assert group == _ref_controls_group(T, t, k)


class TestUnitMasks:
    @pytest.mark.parametrize("T,estimator,k", CASES)
    def test_lookup_matches_the_reference_mask(self, T, estimator, k):
        rng = np.random.default_rng(T)
        table = _pool_arms(T, estimator, k)
        for _ in range(3):
            codes = _codes(rng, T)
            for t in range(2, T + 1):
                want = _ref_control_mask(codes, t, estimator, k)
                assert np.array_equal(table[t - 2][codes], want)

    @pytest.mark.parametrize("T", range(2, 11))
    def test_augmented_controls_match_the_reference(self, T):
        # the pool of a pass started at t is the augmented control set at t
        rng = np.random.default_rng(100 + T)
        for _ in range(3):
            codes = _codes(rng, T)
            for t in range(2, T + 1):
                _, _, _, pool = next(_picks(codes, T, "augmented", None, t))
                assert frozenset(pool.tolist()) == _ref_augmented_controls(codes, t)
                for k in range(1, T + 1):
                    _, _, _, pool = next(_picks(codes, T, "recycling", k, t))
                    assert frozenset(pool.tolist()) == _ref_augmented_controls(codes, t, k)

    @pytest.mark.parametrize("T", range(2, 9))
    def test_estimates_use_the_reference_pool(self, T):
        # each instantaneous estimate equals the pulse mean minus the mean
        # over the reference pool, summed exactly
        rng = np.random.default_rng(200 + T)
        sched = random_schedule(rng, 3 * T + 1, T)
        for _ in range(3):
            codes = _codes(rng, T)
            Z = AssignmentMatrix._from_codes(codes.astype(np.int64), T, Family.PULSE)
            obs = observe(Z, sched)
            for t in range(2, T + 1):
                col = obs.values[:, t - 1]
                pulse = fsum(col[codes == t].tolist()) / int((codes == t).sum())

                def ref(estimator, k=None):
                    mask = _ref_control_mask(codes, t, estimator, k)
                    return pulse - fsum(col[mask].tolist()) / int(mask.sum())

                assert instantaneous_estimate(Z, obs, t) == ref("plugin")
                assert augmented_instantaneous_estimate(Z, obs, t) == ref("augmented")
                for k in range(1, T + 1):
                    got = recycling_instantaneous_estimate(Z, obs, t, k)
                    assert got == ref("recycling", k)


class TestPicks:
    """``core._picks`` against the reference masks: at each t the treated,
    pulse and pool arrays are the units the boolean masks give, ascending,
    whatever step the pass starts at."""

    @pytest.mark.parametrize("estimator,k", [("plugin", None), ("augmented", None),
                                             ("recycling", 1), ("recycling", 3)])
    @pytest.mark.parametrize("N,T", [(12, 8), (60, 5), (700, 300)])
    def test_units_match_the_reference_masks(self, estimator, k, N, T):
        # N = 12 at T = 8 leaves arms empty; T = 300 sorts the codes as uint16
        rng = np.random.default_rng(700 + T)
        for _ in range(2):
            codes = rng.integers(0, T + 1, size=N)
            treated = np.flatnonzero(codes == 1)
            want = {t: (np.flatnonzero(codes == t),
                        np.flatnonzero(_ref_control_mask(codes, t, estimator, k)))
                    for t in range(2, T + 1)}
            for start in range(2, T + 1):
                steps = list(_picks(codes, T, estimator, k, start))
                assert [step[0] for step in steps] == list(range(start, T + 1))
                for t, got_treated, got_pulse, got_pool in steps:
                    assert np.array_equal(got_treated, treated)
                    assert np.array_equal(got_pulse, want[t][0])
                    assert np.array_equal(got_pool, want[t][1])


class TestPoolSizes:
    @pytest.mark.parametrize("T,estimator,k", CASES)
    def test_integer_sizes_match_the_reference(self, T, estimator, k):
        rng = np.random.default_rng(300 + T)
        table = _pool_arms(T, estimator, k)
        for _ in range(5):
            counts = rng.integers(0, 7, size=T + 1)
            alloc = Allocation(int(counts[0]) + 1, int(counts[1]), tuple(counts[2:].tolist()))
            sizes = table @ np.asarray(alloc.counts)
            for t in range(2, T + 1):
                assert sizes[t - 2] == _ref_control_count(alloc, t, estimator, k)

    @pytest.mark.parametrize("T,estimator,k", CASES)
    def test_max_risk_matches_the_reference_sum(self, T, estimator, k):
        rng = np.random.default_rng(400 + T)
        spec = LossSpec(estimator, 0.3, k)
        for _ in range(3):
            counts = rng.integers(1, 9, size=T + 1)
            alloc = Allocation(int(counts[0]), int(counts[1]), tuple(counts[2:].tolist()))
            terms = [1.0 / ne for ne in alloc.ne] + [0.3 * (T - 1) / alloc.n1]
            terms += [(1.0 - 0.3) / _ref_control_count(alloc, t, estimator, k)
                      for t in range(2, T + 1)]
            assert max_risk(alloc, T, 1.5, spec) == 1.5 * fsum(terms)

    @pytest.mark.parametrize("estimator,k", [("plugin", None), ("augmented", None),
                                             ("recycling", 1), ("recycling", 2)])
    def test_true_variances_use_the_reference_pool(self, estimator, k):
        from tminimax.risk import variance_components

        rng = np.random.default_rng(500)
        T = 5
        alloc = Allocation(3, 4, (2, 3, 4, 5))
        sched = random_schedule(rng, alloc.N, T)
        spec = LossSpec(estimator, 0.5, k)
        for t in range(2, T + 1):
            vc = variance_components(sched, t)
            pool = _ref_control_count(alloc, t, estimator, k)
            ne = alloc.ne[t - 2]
            want = vc.v0 / pool + vc.ve / ne - vc.v0e / alloc.N
            assert true_variances(alloc, sched, t, spec)[1] == want


def _pool_violations(sched, k):
    """Non-anticipation violations read off the pool table: a pulse arm must
    match the control arm at t = 1 and at every t whose pool holds it."""
    pools = _pool_arms(sched.T, "augmented" if k is None else "recycling", k)
    violations = []
    for tp in range(2, sched.T + 1):
        arm = pulse_arm(tp)
        for t in [1, *(np.flatnonzero(pools[:, tp]) + 2).tolist()]:
            bad = np.nonzero(sched._column(arm, t) != sched._column(ALWAYS_CONTROL, t))[0]
            violations.extend((arm, int(i), t) for i in bad)
    return tuple(violations)


class TestValidateSchedule:
    @pytest.mark.parametrize("T", range(2, 9))
    def test_violations_match_the_reference(self, T):
        # the columns a valid schedule must share with control are the
        # columns whose pool holds the pulse, so the test-side check and
        # the pool table are one rule
        rng = np.random.default_rng(600 + T)
        for trial in range(6):
            N = int(rng.integers(1, 5))
            sched = random_schedule(rng, N, T, k=int(rng.integers(1, T + 1)) if trial % 2 else None)
            arms = {arm: sched.matrix(arm).copy() for arm in sched.arms}
            for arm in sched.arms[2:]:
                arms[arm][rng.random((N, T)) < 0.3] += 1.0
            broken = PotentialOutcomeSchedule(arms)
            for k in [None, *range(1, T + 2)]:
                for s in (sched, broken):
                    assert _pool_violations(s, k) == schedule_violations(s, k)
