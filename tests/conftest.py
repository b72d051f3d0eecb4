"""Shared builders for test schedules and allocations, and a umask fixture."""

import os

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


def numpy_stack(recorded):
    """Message for a golden that pins numpy's ``Generator`` streams and
    pairwise sums, which NumPy does not promise to keep across versions
    (NEP 19): the numpy version it was recorded on and the one running."""
    return f"golden recorded on numpy {recorded}, running numpy {np.__version__}"


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
