"""Causal estimands and their randomization estimators.

For each period t in 2..T two effects are defined on the full outcome
schedule: the habituation effect (always-treated minus pulse-t outcomes at
t, the part of the effect owed to treatment history) and the instantaneous
effect (pulse-t minus always-control outcomes at t, the part owed to the
current period's treatment).  Their sum is the average treatment effect
at t; ``estimands`` reports the two effects.

The estimators see only one realized experiment (assignment plus observed
outcomes).  The habituation effect always uses the plug-in difference in
arm means.  The instantaneous effect has three variants that differ in the
control pool: the always-control arm alone, the pool augmented with
future-pulse units, or the pool additionally recycling pulses older than k
periods (the rule is stated once, at ``core._pool_arms``).  How an
estimate is formed from its units is stated once too: ``_estimate_pass``
reads them from one pass of ``core._picks`` and yields both effects at
each t.  A per-t estimator takes one step of it; ``tminimax estimate``,
the loss in ``risk`` and ``conservative_ci`` read it as well.

All sums are exact, which makes every estimator invariant under unit
relabeling, bit for bit.  The estimators use ``math.fsum``.  The
estimands are summed in blocks of periods by ``_exact_sums``, which gives
``fsum``'s bits from a few vectorised error-free extraction passes and a
bounded pass count, and hands a row with a nan, an inf or a cell near
overflow to ``fsum`` itself.
"""

from __future__ import annotations

import enum
from dataclasses import dataclass
from math import fsum
from typing import Iterator

import numpy as np

from .core import (
    AssignmentMatrix,
    Family,
    ObservedOutcomes,
    PotentialOutcomeSchedule,
    _check_carryover,
    _picks,
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


def estimands(sched: PotentialOutcomeSchedule) -> tuple[EffectSeries, EffectSeries]:
    """Population habituation and instantaneous effects of a schedule.

    A schedule is frozen, so they are computed on first use and kept on it:
    later calls return the same tuple of read-only series."""
    cached = sched._estimands
    if cached is None:
        cached = sched._estimands = _compute_estimands(sched)
    return cached


# Cells gathered per arm at a time by ``_compute_estimands``: a block of
# periods, one row of N cells each, so its memory does not grow with T.
_BLOCK_CELLS = 1 << 14


def _compute_estimands(sched: PotentialOutcomeSchedule) -> tuple[EffectSeries, EffectSeries]:
    """Each effect at t is ``math.fsum`` of its N cell differences over N.
    The always-treated, pulse-t and always-control columns of a block of
    periods (at most ``_BLOCK_CELLS`` cells, and at least one period) are
    gathered through the slot table as one row per period, and the two
    difference blocks are summed together by ``_exact_sums``, in the rows'
    (t, effect) order: habituation, instantaneous at t, then t + 1.
    So a schedule that makes ``fsum`` raise raises the same exception, at
    the same (t, effect), as summing each difference with ``fsum``.

    A period whose three arms read one stored column that is finite, as
    every period of ``worst_case_schedule`` does, has two differences
    x - x = +0.0, so its effects are 0.0 and nothing is gathered for it."""
    N, T = sched.N, sched.T
    slots = sched._slots
    # 0-based columns j of t = j + 1; arm codes: 1 always-treated, t the
    # pulse at t, 0 always-control
    rest = np.array([j for j in range(1, T)
                     if not (slots[1, j] == slots[j + 1, j] == slots[0, j]
                             and np.isfinite(sched._stored[slots[0, j], :, j]).all())],
                    dtype=np.intp)
    sums = np.zeros((T - 1, 2))
    size = max(1, _BLOCK_CELLS // N)
    for b in range(0, len(rest), size):
        block = rest[b:b + size]
        treated, pulse, control = (sched._stored[slots[codes, block], :, block]
                                   for codes in (1, block + 1, 0))
        diffs = np.empty((len(block), 2, N))
        np.subtract(treated, pulse, out=diffs[:, 0])
        np.subtract(pulse, control, out=diffs[:, 1])
        sums[block - 1] = _exact_sums(diffs.reshape(-1, N)).reshape(-1, 2)
    sums /= N
    return (EffectSeries(sums[:, 0], EffectKind.HABITUATION),
            EffectSeries(sums[:, 1], EffectKind.INSTANTANEOUS))


def _exact_sums(rows: np.ndarray) -> np.ndarray:
    """``math.fsum`` of each row of a 2-D float64 array, bit for bit.

    Error-free extraction (Rump, Ogita & Oishi 2008, "Accurate
    floating-point summation"): with sigma a power of two at least
    2 n max|x| for a row of n cells, q = (sigma + x) - sigma is x rounded
    to a grid of sigma 2**-53 and r = x - q is exact, so x = q + r, and
    the row sum of q is exact in any order, every partial sum being a
    multiple of the grid no larger than sigma.  Extraction repeats on r
    until it is all zero, and ``fsum`` of each row's few exact partial
    sums rounds their total as ``fsum`` of the row would.

    Each pass shrinks sigma by at least 2**(52 - c), c = ceil(log2 2n),
    and a pass at sigma <= 2**-1022 leaves r = 0 (sigma + x is then exact
    on the 2**-1074 grid), so a row ends within 2 + 2045 // (52 - c)
    passes: 53 at n = 2000, 62 at n = 10**5, met only by rows that hold
    a cell at nearly every scale.  A row of one scale ends in two or
    three, and a row of subnormals (|x| < 2**-1022) in two while
    n <= 2**25.  Past the bound this raises ``RuntimeError`` rather than
    loop.  A row that holds a nan or an inf, or whose max|x| is at
    least 2**(1023 - c) (where sigma could overflow), is summed by
    ``fsum(row.tolist())`` instead, in row order, so it gives the value or
    raises the exception ``fsum`` would.  So does a row of -0.0 only,
    whose ``fsum`` sign the extraction cannot tell."""
    m, n = rows.shape
    c = (2 * n - 1).bit_length()  # 2**c >= 2n
    top = np.abs(rows).max(axis=1)
    slow = ~(top < 2.0 ** (1023 - c))  # nan, inf or near overflow
    zero = np.flatnonzero(top == 0)
    slow[zero] = np.signbit(rows[zero]).all(axis=1)
    out = np.empty(m)
    for i in np.flatnonzero(slow).tolist():
        out[i] = fsum(rows[i].tolist())
    fast = np.flatnonzero(~slow)
    live, x, top = fast, rows[fast], top[fast]
    partials = []
    while len(live):
        if len(partials) == 2 + 2045 // (52 - c):
            raise RuntimeError(f"exact sum did not end within {len(partials)} passes")
        sigma = np.ldexp(1.0, np.frexp(top)[1] + c)[:, None]
        q = x + sigma
        q -= sigma
        x -= q
        partial = np.zeros(m)
        partial[live] = q.sum(axis=1)
        partials.append(partial)
        top = np.abs(x, out=q).max(axis=1)
        more = top > 0
        if not more.all():
            live, x, top = live[more], x[more], top[more]
    for i, column in zip(fast.tolist(), np.array(partials).T[fast].tolist()):
        out[i] = fsum(column)
    return out


# ---------------------------------------------------------------------------
# Unit-level internals, shared with the risk module and the CLI.
# ---------------------------------------------------------------------------


def _picked_mean(picked: np.ndarray, exact: bool = True) -> float:
    """Mean of one nonempty pool's outcomes, ``picked`` in unit order:
    summed with fsum, or with numpy's pairwise sum when not ``exact``."""
    return (fsum(picked.tolist()) if exact else picked.sum()) / len(picked)


def _pool_name(estimator: str, t: int) -> str:
    return {
        "plugin": "the always-control arm",
        "augmented": f"the augmented control pool at t={t}",
        "recycling": f"the recycled control pool at t={t}",
    }[estimator]


def _undefined(estimator: str, t: int, treated_empty: bool,
               pulse_empty: bool) -> EstimatorUndefinedError:
    """The error for the first empty arm at t, in the order always-treated,
    pulse, pool; its text is built only here, when an arm is empty."""
    if treated_empty:
        what = "the always-treated arm"
    elif pulse_empty:
        what = f"the pulse arm at t={t}"
    else:
        what = _pool_name(estimator, t)
    return EstimatorUndefinedError(f"estimator undefined: no units in {what}")


def _check_inputs(Z: AssignmentMatrix, obs: ObservedOutcomes, t: int,
                  estimator: str = "plugin", k: int | None = None) -> None:
    if (Z.N, Z.T) != (obs.N, obs.T):
        raise ValueError(
            f"assignment is {Z.N} x {Z.T} but outcomes are {obs.N} x {obs.T}"
        )
    if not 2 <= t <= Z.T:
        raise ValueError(f"time index {t} outside 2..{Z.T}")
    if estimator == "recycling":
        _check_carryover(k)
        if Z.family is Family.WEDGE:
            raise ValueError("recycling estimator requires a pulse-family assignment")


def _estimate_pass(codes: np.ndarray, values: np.ndarray, estimator: str,
                   k: int | None = None, exact: bool = True, hab: bool = True,
                   inst: bool = True, start: int = 2
                   ) -> Iterator[tuple[int, float | None, float | None]]:
    """Yields ``(t, habituation, instantaneous)`` for t = start..T from one
    pass of ``core._picks`` over the arm ``codes``, reading column t of the
    observed N x T ``values``: treated mean minus pulse mean, and pulse mean
    minus pool mean, the pulse mean computed once.  An effect not asked for
    (``hab`` or ``inst`` false) is None and its arm is never read; without
    ``inst`` the plugin pool is picked, the cheapest.  An empty arm raises
    in the order always-treated, pulse, pool.  ``exact`` picks fsum over
    numpy's pairwise sum (see ``_picked_mean``)."""
    for t, treated, pulse, pool in _picks(codes, values.shape[1],
                                          estimator if inst else "plugin", k, start):
        if not (len(pulse) and (len(treated) or not hab) and (len(pool) or not inst)):
            raise _undefined(estimator, t, hab and not len(treated), not len(pulse))
        col = values[:, t - 1]
        treated_mean = _picked_mean(col[treated], exact) if hab else None
        pulse_mean = _picked_mean(col[pulse], exact)
        pool_mean = _picked_mean(col[pool], exact) if inst else None
        yield (t, treated_mean - pulse_mean if hab else None,
               pulse_mean - pool_mean if inst else None)


def _instantaneous_at(Z: AssignmentMatrix, obs: ObservedOutcomes, t: int,
                      estimator: str, k: int | None = None) -> float:
    _check_inputs(Z, obs, t, estimator, k)
    return next(_estimate_pass(Z.codes, obs.values, estimator, k, hab=False, start=t))[2]


# ---------------------------------------------------------------------------
# Public estimators.
# ---------------------------------------------------------------------------


def habituation_estimate(Z: AssignmentMatrix, obs: ObservedOutcomes, t: int) -> float:
    """Mean observed outcome at t of always-treated units minus that of
    pulse-t units."""
    _check_inputs(Z, obs, t)
    return next(_estimate_pass(Z.codes, obs.values, "plugin", inst=False, start=t))[1]


def instantaneous_estimate(Z: AssignmentMatrix, obs: ObservedOutcomes, t: int) -> float:
    """Mean observed outcome at t of pulse-t units minus that of
    always-control units (plug-in variant)."""
    return _instantaneous_at(Z, obs, t, "plugin")


def augmented_instantaneous_estimate(Z: AssignmentMatrix, obs: ObservedOutcomes,
                                     t: int) -> float:
    """Plug-in variant with the control pool augmented by future-pulse
    units, whose outcomes at t match always-control as long as outcomes
    never anticipate future treatment."""
    return _instantaneous_at(Z, obs, t, "augmented")


def recycling_instantaneous_estimate(Z: AssignmentMatrix, obs: ObservedOutcomes,
                                     t: int, k: int) -> float:
    """Augmented variant that also recycles units whose pulse lies at least
    k periods in the past, valid when treatment effects wear off after k
    periods.  Pulse-family assignments only: a wedge unit never stops being
    treated, so its outcomes cannot be recycled as controls."""
    return _instantaneous_at(Z, obs, t, "recycling", k)
