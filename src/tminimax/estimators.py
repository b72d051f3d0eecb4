"""Causal estimands and their randomization estimators.

For each period t in 2..T two effects are defined on the full outcome
schedule: the habituation effect (always-treated minus pulse-t outcomes at
t, the part of the effect owed to treatment history) and the instantaneous
effect (pulse-t minus always-control outcomes at t, the part owed to the
current period's treatment).  Their sum is the average treatment effect
at t.

The estimators see only one realized experiment (assignment plus observed
outcomes).  The habituation effect always uses the plug-in difference in
arm means.  The instantaneous effect has three variants that differ in the
control pool: the always-control arm alone, the pool augmented with
future-pulse units, or the pool additionally recycling pulses older than k
periods (the rule is stated once, at ``core._pool_arms``).

All sums are exact (``math.fsum``), which makes every estimator invariant
under unit relabeling, bit for bit.
"""

from __future__ import annotations

import enum
from dataclasses import dataclass
from math import fsum

import numpy as np

from .core import (
    ALWAYS_CONTROL,
    ALWAYS_TREATED,
    AssignmentMatrix,
    Family,
    ObservedOutcomes,
    PotentialOutcomeSchedule,
    _check_carryover,
    _pool_arms,
    pulse_arm,
)

__all__ = [
    "EffectKind",
    "EffectSeries",
    "EstimatorUndefinedError",
    "estimands",
    "habituation_estimate",
    "instantaneous_estimate",
    "augmented_instantaneous_estimate",
    "recycling_instantaneous_estimate",
]


class EstimatorUndefinedError(ValueError):
    """An arm or control pool the estimator relies on is empty."""


class EffectKind(enum.Enum):
    HABITUATION = "habituation"
    INSTANTANEOUS = "instantaneous"
    ATE = "ate"


@dataclass(frozen=True)
class EffectSeries:
    """Effect values for t = 2..T; ``values[i]`` belongs to t = i + 2."""

    values: np.ndarray
    kind: EffectKind

    def __post_init__(self) -> None:
        v = np.asarray(self.values, dtype=float)
        if v.ndim != 1 or len(v) < 1:
            raise ValueError("effect series must cover at least t = 2")
        if not np.all(np.isfinite(v)):
            raise ValueError(f"non-finite effect value in {self.kind.value} series")
        v = v.copy()
        v.flags.writeable = False
        object.__setattr__(self, "values", v)

    @property
    def T(self) -> int:
        return len(self.values) + 1

    def at(self, t: int) -> float:
        if not 2 <= t <= self.T:
            raise ValueError(f"time index {t} outside 2..{self.T}")
        return float(self.values[t - 2])


def estimands(sched: PotentialOutcomeSchedule) -> tuple[EffectSeries, EffectSeries, EffectSeries]:
    """Population habituation, instantaneous, and average treatment effects
    of a schedule.  The first two sum to the third, up to float rounding."""
    N, T = sched.N, sched.T
    treated = sched.matrix(ALWAYS_TREATED)
    control = sched.matrix(ALWAYS_CONTROL)
    hab = np.empty(T - 1)
    inst = np.empty(T - 1)
    ate = np.empty(T - 1)
    for t in range(2, T + 1):
        col = t - 1
        pulse = sched.matrix(pulse_arm(t))
        hab[t - 2] = fsum((treated[:, col] - pulse[:, col]).tolist()) / N
        inst[t - 2] = fsum((pulse[:, col] - control[:, col]).tolist()) / N
        ate[t - 2] = fsum((treated[:, col] - control[:, col]).tolist()) / N
    return (
        EffectSeries(hab, EffectKind.HABITUATION),
        EffectSeries(inst, EffectKind.INSTANTANEOUS),
        EffectSeries(ate, EffectKind.ATE),
    )


# ---------------------------------------------------------------------------
# Code-level internals, shared with the risk module's hot paths.  ``codes``
# is the per-unit arm code array (0 control, 1 treated, t for pulse at t).
# ---------------------------------------------------------------------------


def _picked_mean(picked: np.ndarray, what: str, exact: bool = True) -> float:
    """Mean of one pool's outcomes, ``picked`` in unit order: summed with
    fsum, or with numpy's pairwise sum when not ``exact``."""
    if not len(picked):
        raise EstimatorUndefinedError(f"estimator undefined: no units in {what}")
    return (fsum(picked.tolist()) if exact else picked.sum()) / len(picked)


def _pool_mean(values: np.ndarray, mask: np.ndarray, col: int, what: str) -> float:
    """fsum mean of column ``col`` over the masked units."""
    return _picked_mean(np.compress(mask, values[:, col]), what)


def _habituation(codes: np.ndarray, values: np.ndarray, t: int) -> float:
    col = t - 1
    return _pool_mean(values, codes == 1, col, "the always-treated arm") - _pool_mean(
        values, codes == t, col, f"the pulse arm at t={t}"
    )


def _pool_name(estimator: str, t: int) -> str:
    return {
        "plugin": "the always-control arm",
        "augmented": f"the augmented control pool at t={t}",
        "recycling": f"the recycled control pool at t={t}",
    }[estimator]


def _instantaneous(codes: np.ndarray, values: np.ndarray, t: int,
                   estimator: str, k: int | None = None) -> float:
    col = t - 1
    pool = _pool_arms(values.shape[1], estimator, k)[t - 2][codes]
    return _pool_mean(values, codes == t, col, f"the pulse arm at t={t}") - _pool_mean(
        values, pool, col, _pool_name(estimator, t)
    )


def _check_inputs(Z: AssignmentMatrix, obs: ObservedOutcomes, t: int) -> None:
    if (Z.N, Z.T) != (obs.N, obs.T):
        raise ValueError(
            f"assignment is {Z.N} x {Z.T} but outcomes are {obs.N} x {obs.T}"
        )
    if not 2 <= t <= Z.T:
        raise ValueError(f"time index {t} outside 2..{Z.T}")


# ---------------------------------------------------------------------------
# Public estimators.
# ---------------------------------------------------------------------------


def habituation_estimate(Z: AssignmentMatrix, obs: ObservedOutcomes, t: int) -> float:
    """Mean observed outcome at t of always-treated units minus that of
    pulse-t units."""
    _check_inputs(Z, obs, t)
    return _habituation(Z.codes, obs.values, t)


def instantaneous_estimate(Z: AssignmentMatrix, obs: ObservedOutcomes, t: int) -> float:
    """Mean observed outcome at t of pulse-t units minus that of
    always-control units (plug-in variant)."""
    _check_inputs(Z, obs, t)
    return _instantaneous(Z.codes, obs.values, t, "plugin")


def augmented_instantaneous_estimate(Z: AssignmentMatrix, obs: ObservedOutcomes,
                                     t: int) -> float:
    """Plug-in variant with the control pool augmented by future-pulse
    units, whose outcomes at t match always-control as long as outcomes
    never anticipate future treatment."""
    _check_inputs(Z, obs, t)
    return _instantaneous(Z.codes, obs.values, t, "augmented")


def recycling_instantaneous_estimate(Z: AssignmentMatrix, obs: ObservedOutcomes,
                                     t: int, k: int) -> float:
    """Augmented variant that also recycles units whose pulse lies at least
    k periods in the past, valid when treatment effects wear off after k
    periods.  Pulse-family assignments only: a wedge unit never stops being
    treated, so its outcomes cannot be recycled as controls."""
    _check_inputs(Z, obs, t)
    _check_carryover(k)
    if Z.family is Family.WEDGE:
        raise ValueError("recycling estimator requires a pulse-family assignment")
    return _instantaneous(Z.codes, obs.values, t, "recycling", k)
