"""Shared builders for test schedules and allocations, the estimate pass's
boolean-mask oracle, and a umask fixture."""

import os
from math import fsum

import numpy as np
import pytest

from tminimax.core import (
    ALWAYS_CONTROL,
    ALWAYS_TREATED,
    Allocation,
    PotentialOutcomeSchedule,
    pulse_arm,
)


def random_schedule(rng, N, T, k=None):
    """Random schedule satisfying non-anticipation (pulse outcomes match
    control before the pulse) and, when k is given, the worn-off-after-k
    property as well."""
    y0 = rng.normal(size=(N, T))
    arms = {ALWAYS_CONTROL: y0, ALWAYS_TREATED: rng.normal(size=(N, T))}
    for tp in range(2, T + 1):
        m = rng.normal(size=(N, T))
        m[:, : tp - 1] = y0[:, : tp - 1]
        if k is not None:
            m[:, tp - 1 + k:] = y0[:, tp - 1 + k:]
        arms[pulse_arm(tp)] = m
    return PotentialOutcomeSchedule(arms)


def schedule_violations(sched, k=None):
    """The (arm, unit, t) cells, t 1-based, where a schedule breaks
    non-anticipation: a pulse-tp arm must match the control arm at t < tp
    and, with k, at t >= tp + k.  Empty for a valid schedule."""
    control = sched.matrix(ALWAYS_CONTROL)
    violations = []
    for tp in range(2, sched.T + 1):
        arm = pulse_arm(tp)
        m = sched.matrix(arm)
        cols = list(range(0, tp - 1))
        if k is not None:
            cols.extend(range(tp - 1 + k, sched.T))
        for c in cols:
            bad = np.nonzero(m[:, c] != control[:, c])[0]
            violations.extend((arm, int(i), c + 1) for i in bad)
    return tuple(violations)


def arm_bytes(sched, units=slice(None)):
    """The bytes of each arm's matrix (its rows ``units``), in arm-code
    order: two schedules with equal lists are bitwise equal."""
    return [sched.matrix(arm)[units].tobytes() for arm in sched.arms]


def numpy_stack(recorded):
    """Message for a golden that pins numpy's ``Generator`` streams and
    pairwise sums, which NumPy does not promise to keep across versions
    (NEP 19): the numpy version it was recorded on and the one running."""
    return f"golden recorded on numpy {recorded}, running numpy {np.__version__}"


def mask_pass(codes, values, estimator, k=None, hab=True, inst=True, start=2, stop=None):
    """The rows ``estimators._estimate_pass`` yields over the N x T array
    ``values``, by boolean masks: at each t, fsum in unit order of column
    t of the units ``codes == 1``, ``codes == t`` and the ``_pool_arms``
    pool at t, each over its size.  Before summing, an empty arm raises
    ``EstimatorUndefinedError``; an arm whose sum overflows raises
    ``OverflowError``; both name the arm with the library's text."""
    from tminimax.core import _pool_arms
    from tminimax.estimators import EstimatorUndefinedError, _arm_name

    T = values.shape[1]
    picked = estimator if inst else "plugin"
    pools = _pool_arms(T, picked, k)
    for t in range(start, T + 1 if stop is None else stop):
        masks = {role: mask for role, mask, on in [(0, codes == 1, hab), (1, codes == t, True),
                                                   (2, pools[t - 2][codes], inst)] if on}
        for role, mask in masks.items():
            if not mask.any():
                raise EstimatorUndefinedError(
                    f"estimator undefined: no units in {_arm_name(picked, t, role)}")
        means = {}
        for role, mask in masks.items():
            try:
                means[role] = fsum(values[mask, t - 1].tolist()) / np.count_nonzero(mask)
            except OverflowError:
                raise OverflowError(f"estimator overflows at t={t}: the sum of "
                                    f"{_arm_name(picked, t, role)} exceeds the float range"
                                    ) from None
        yield (t, means[0] - means[1] if hab else None,
               means[1] - means[2] if inst else None)


def constant_schedule(N, T, value=3.25):
    m = np.full((N, T), value)
    arms = {ALWAYS_CONTROL: m, ALWAYS_TREATED: m}
    arms.update({pulse_arm(t): m for t in range(2, T + 1)})
    return PotentialOutcomeSchedule(arms)


def spread_allocation(N, T):
    """Any valid allocation with every arm populated: balanced base plus
    leftovers on the first arms."""
    base, rem = divmod(N, T + 1)
    counts = [base] * (T + 1)
    for i in range(rem):
        counts[i] += 1
    if min(counts) < 1:
        raise ValueError(f"cannot populate {T + 1} arms with {N} units")
    return Allocation(counts[0], counts[1], tuple(counts[2:]))


@pytest.fixture
def umask():
    """``os.umask``, with the process umask restored after the test."""
    saved = os.umask(0o022)
    yield os.umask
    os.umask(saved)
