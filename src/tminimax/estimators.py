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
periods (the rule is stated once, at ``core._pool_arms``).  The arms an
estimate reads at t are stated once too, in the table ``_read_arms``, and
``_estimate_pass`` gathers their cells in one place and yields both
effects at each t.  A per-t estimator takes one step of it; ``tminimax estimate``,
the loss in ``risk`` and ``conservative_ci`` read it as well.

All sums are exact, which makes every estimator invariant under unit
relabeling, bit for bit: each is the float ``math.fsum`` gives.  One
kernel, ``_extract``, computes them by a few vectorised error-free
extraction passes with a bounded pass count.  The estimands are summed in
blocks of periods by ``_exact_sums``, one scale group per (t, effect)
row; an estimate pass gathers a block of periods' arm cells and extracts
each period on one grid.  A row or block that holds a nan, an inf, a
cell near overflow or a -0.0 (whose ``fsum`` sign extraction cannot
tell), or that belongs to a pass too small to repay the extraction, is
summed by ``fsum`` itself, in unit order, so it gives the value or raises
the exception ``fsum`` would.
"""

from __future__ import annotations

import enum
from dataclasses import dataclass
from functools import lru_cache
from math import fsum
from typing import Iterator

import numpy as np

from .core import (
    AssignmentMatrix,
    Family,
    ObservedOutcomes,
    PotentialOutcomeSchedule,
    _arm_order,
    _check_carryover,
    _pool_arms,
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
    """``math.fsum`` of each row of a 2-D float64 array, bit for bit: each
    row is one scale group and one segment of ``_extract``, and its few
    per-pass sums are rounded once (``_rounded``).

    A row that holds a nan or an inf, or whose max|x| is at least
    2**(1023 - c), c = ceil(log2 2n) for rows of n cells (where sigma
    could overflow), is summed by ``fsum(row.tolist())`` instead, in row
    order, so it gives the value or raises the exception ``fsum`` would.
    So does a row of -0.0 only, whose ``fsum`` sign the extraction cannot
    tell."""
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
    starts = np.arange(0, len(fast) * n, n)
    out[fast] = _rounded(_extract(rows[fast].reshape(-1), top[fast], starts, starts, c),
                         len(fast))
    return out


def _extract(x: np.ndarray, top: np.ndarray, groups: np.ndarray, segments: np.ndarray,
             c: int) -> list[np.ndarray]:
    """Exact per-pass sums of the segments of ``x``, a fresh 1-D float64
    array of finite cells that this overwrites.

    The cells come in scale groups, group g being ``x[groups[g]:
    groups[g + 1]]`` (the last runs to the end), with ``top[g]`` its
    max|x|, below 2**(1023 - c), and at most 2**(c - 1) cells.  The
    segments, ``x[segments[s]:segments[s + 1]]``, refine the groups; no
    group or segment is empty.

    Error-free extraction (Rump, Ogita & Oishi 2008, "Accurate
    floating-point summation"): with sigma a power of two at least
    2 n max|x| for a group of n cells, q = (sigma + x) - sigma is x
    rounded to a grid of sigma 2**-53 and r = x - q is exact, so x = q + r,
    and any sum of the group's q is exact in any order, every partial sum
    being a multiple of the grid no larger than sigma.  So each segment's
    sum of q is exact, and so is a sum of such segment sums within one
    group.  Extraction repeats on r until it is all zero; the list holds
    one array of segment sums per pass, whose exact column totals are the
    segments' exact sums.

    Each pass shrinks sigma by at least 2**(52 - c), and a pass at
    sigma <= 2**-1022 leaves r = 0 (sigma + x is then exact on the 2**-1074
    grid), so a group ends within 2 + 2045 // (52 - c) passes: 53 at
    n = 2000, 62 at n = 10**5, met only by groups that hold a cell at
    nearly every scale.  A group of one scale ends in two or three, and a
    group of subnormals (|x| < 2**-1022) in two while n <= 2**25.  Past
    the bound this raises ``RuntimeError`` rather than loop."""
    lengths = np.diff(groups, append=len(x))
    q = np.empty_like(x)
    partials = []
    while top.any():
        if len(partials) == 2 + 2045 // (52 - c):
            raise RuntimeError(f"exact sum did not end within {len(partials)} passes")
        sigma = np.repeat(np.ldexp(1.0, np.frexp(top)[1] + c), lengths)
        np.add(x, sigma, out=q)
        q -= sigma
        x -= q
        partials.append(np.add.reduceat(q, segments))
        top = np.maximum.reduceat(np.abs(x, out=q), groups)
    return partials


def _rounded(partials: list[np.ndarray], m: int) -> np.ndarray:
    """The exact total of each of the m columns of ``_extract``'s per-pass
    sums, rounded once: ``fsum`` of the column, or with at most two passes
    their float sum, which IEEE rounds to the same nearest float.  No
    per-pass sum is -0.0, so neither is a zero total."""
    if len(partials) <= 2:
        return sum(partials, np.zeros(m))
    return np.array([fsum(column) for column in np.array(partials).T.tolist()])


# ---------------------------------------------------------------------------
# Unit-level internals, shared with the risk module and the CLI.
# ---------------------------------------------------------------------------


def _pool_name(estimator: str, t: int) -> str:
    return {
        "plugin": "the always-control arm",
        "augmented": f"the augmented control pool at t={t}",
        "recycling": f"the recycled control pool at t={t}",
    }[estimator]


def _arm_name(estimator: str, t: int, role: int) -> str:
    """The arm a pass reads at t in ``role``: 0 the always-treated arm, 1
    the pulse arm at t, 2 the estimator's control pool."""
    if role == 0:
        return "the always-treated arm"
    if role == 1:
        return f"the pulse arm at t={t}"
    return _pool_name(estimator, t)


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


# Below this many unit-periods (N times the periods) a pass sums the cells
# it gathered by fsum, whose calls cost less than the extraction's set-up:
# it chooses a summer, not a path.  On a 2-vCPU x86-64 VM (numpy 2.4) one
# period at N = 8 took about 15 us by fsum against 85 us by extraction, and
# the crossover lay between 2000 and 4000 unit-periods; 256 keeps a wide
# margin, and a period at the N of every benchmarked command (2000 and up)
# is above it.
_PICK_CELLS = 256


def _estimate_pass(codes: np.ndarray, values: np.ndarray | PotentialOutcomeSchedule,
                   estimator: str, k: int | None = None, hab: bool = True,
                   inst: bool = True, start: int = 2, stop: int | None = None
                   ) -> Iterator[tuple[int, float | None, float | None]]:
    """Yields ``(t, habituation, instantaneous)`` for t = start..stop - 1
    (by default through T): treated mean minus pulse mean, and pulse mean
    minus pool mean, the pulse mean computed once, over the arms that
    ``_read_arms`` marks.  Unit i observes row i of ``values``, an N x T
    array, or of the schedule matrix of its arm ``codes[i]`` when
    ``values`` is a schedule.  An effect not asked for (``hab`` or
    ``inst`` false) is None and its arm is never read; without ``inst``
    the plugin pool is read, the cheapest.  An empty arm ends the pass at
    the first period that reads one: the earlier periods are yielded, then
    it raises, naming the arm in the order always-treated, pulse, pool.

    Every arm is summed with fsum's bits, its exact sum rounded once.  The
    pass works a block of periods at a time, at most ``_BLOCK_CELLS``
    cells and at least one period: one gather takes the cells each period
    reads, grouped by (period, role).  A pass of at least ``_PICK_CELLS``
    unit-periods (N times its periods, a bound on the cells it reads) sums
    a block by ``_extract`` with one scale group per period, then rounds
    each treated, pulse and pool sum once.  A smaller pass, or a block that
    reads a cell that is non-finite, -0.0 or at least 2**(1023 - c) (see
    ``_extract``), is summed by ``_fsum_means`` instead, so it yields and
    raises in unit order exactly as summing each arm with fsum does."""
    cells, slots = _cell_table(values)
    N, T = len(codes), slots.shape[1]
    stop = T + 1 if stop is None else stop
    extract = N * (stop - start) >= _PICK_CELLS
    picked = estimator if inst else "plugin"
    by_arm, bounds = _arm_order(codes, T)
    counts = bounds[1:] - bounds[:-1]
    read = _read_arms(T, picked, k, hab, inst)[start - 2:stop - 2]
    filled = counts > 0
    roles = [r for r, on in enumerate((hab, True, inst)) if on]
    pulse = roles.index(1)
    # einsum casts the bools in buffers, where matmul would copy them all
    sizes = np.einsum("prc,c->pr", read, counts)[:, roles]
    empty = (sizes == 0).any(axis=1)
    periods = int(empty.argmax()) if empty.any() else len(sizes)
    ends = sizes[:periods].sum(axis=1).cumsum()
    offset = by_arm * T  # offset[j]: the first cell of unit by_arm[j]'s row
    c = (2 * N - 1).bit_length()
    first = 0
    while first < periods:
        # the block: periods first..last - 1 of the pass
        limit = (ends[first - 1] if first else 0) + _BLOCK_CELLS
        last = max(first + 1, int(ends.searchsorted(limit, "right")))
        t0, block = start + first, sizes[first:last]
        # one piece per read arm, each arm's units ascending
        p, role, arm = (read[first:last] & filled).nonzero()
        lengths = counts[arm]
        piece_ends = lengths.cumsum()
        at = (bounds[arm] - piece_ends + lengths).repeat(lengths)
        at += np.arange(piece_ends[-1])
        column = t0 - 1 + p
        x = cells.take(offset[at] + (slots[arm, column] * (N * T) + column).repeat(lengths))
        means = None
        if extract:
            segments = block.ravel().cumsum() - block.ravel()
            groups = segments[::len(roles)]
            top = np.maximum.reduceat(np.abs(x), groups)
            # -0.0 is the only float whose bits are those of int64's minimum
            if (top < 2.0 ** (1023 - c)).all() and not (
                    x.view(np.int64) == np.iinfo(np.int64).min).any():
                sums = _rounded(_extract(x, top, groups, segments, c), len(segments))
                means = (sums.reshape(block.shape) / block).tolist()
        if means is None:
            means = _fsum_means(x, by_arm[at], block, roles, picked, t0)
        for t, m in zip(range(t0, start + last), means):
            yield (t, m[0] - m[pulse] if hab else None,
                   m[pulse] - m[-1] if inst else None)
        first = last
    if periods < len(sizes):  # its first empty arm, in the order of the roles
        what = _arm_name(picked, start + periods, roles[int(sizes[periods].argmin())])
        raise EstimatorUndefinedError(f"estimator undefined: no units in {what}")


def _fsum_means(x: np.ndarray, units: np.ndarray, sizes: np.ndarray, roles: list[int],
                picked: str, t0: int) -> Iterator[list[float]]:
    """The arm means of a block's gathered cells ``x`` (unit ``units[i]``'s
    cell is ``x[i]``), one period's row at a time: fsum of each (period,
    role) segment of ``sizes`` cells, put in unit order by one stable
    lexsort, since fsum's intermediate overflow depends on the order.  A
    sum that overflows raises ``OverflowError`` naming its arm and t."""
    n = sizes.ravel()
    x = x[np.lexsort((units, np.arange(len(n)).repeat(n)))].tolist()
    row = []
    for s, (end, size) in enumerate(zip(n.cumsum().tolist(), n.tolist())):
        try:
            row.append(fsum(x[end - size:end]) / size)
        except OverflowError:  # fsum's exact sum of finite cells overflowed
            t, role = t0 + s // len(roles), roles[s % len(roles)]
            raise OverflowError(f"estimator overflows at t={t}: the sum of "
                                f"{_arm_name(picked, t, role)} exceeds the float range"
                                ) from None
        if len(row) == len(roles):
            yield row
            row = []


def _cell_table(values: np.ndarray | PotentialOutcomeSchedule
                ) -> tuple[np.ndarray, np.ndarray]:
    """``(cells, slots)``: a flat view of the N x T matrices behind
    ``values`` and a (T+1) x T slot table, so that unit i of arm code c
    observes ``cells[(slots[c, t - 1] * N + i) * T + t - 1]`` at period t.
    An N x T array is the one matrix every arm reads; a schedule is read
    from its stored matrices through its own slot table, with no N x T
    copy."""
    if isinstance(values, PotentialOutcomeSchedule):
        return values._stored.reshape(-1), values._slots
    return (np.ascontiguousarray(values).reshape(-1),
            np.zeros((values.shape[1] + 1, values.shape[1]), dtype=np.intp))


@lru_cache(maxsize=None)
def _read_arms(T: int, picked: str, k: int | None, hab: bool, inst: bool) -> np.ndarray:
    """(T-1) x 3 x (T+1) read-only bool table of the arms a pass reads:
    entry [t-2, r, c] marks arm code c as read at t in role r, 0 the
    always-treated arm (with ``hab``), 1 the pulse arm at t, 2 the
    ``core._pool_arms`` pool of ``picked`` (with ``inst``).  The three
    roles never share an arm."""
    table = np.zeros((T - 1, 3, T + 1), dtype=bool)
    table[:, 0, 1] = hab
    table[np.arange(T - 1), 1, np.arange(2, T + 1)] = True
    if inst:
        table[:, 2] = _pool_arms(T, picked, k)
    table.flags.writeable = False
    return table


def _instantaneous_at(Z: AssignmentMatrix, obs: ObservedOutcomes, t: int,
                      estimator: str, k: int | None = None) -> float:
    _check_inputs(Z, obs, t, estimator, k)
    return next(_estimate_pass(Z.codes, obs.values, estimator, k, hab=False, start=t,
                               stop=t + 1))[2]


# ---------------------------------------------------------------------------
# Public estimators.
# ---------------------------------------------------------------------------


def habituation_estimate(Z: AssignmentMatrix, obs: ObservedOutcomes, t: int) -> float:
    """Mean observed outcome at t of always-treated units minus that of
    pulse-t units."""
    _check_inputs(Z, obs, t)
    return next(_estimate_pass(Z.codes, obs.values, "plugin", inst=False, start=t,
                               stop=t + 1))[1]


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
