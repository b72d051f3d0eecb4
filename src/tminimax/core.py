"""Treatment arms, randomized assignments, and potential-outcome schedules.

A temporal experiment assigns each of N units one treatment pattern over T
periods.  Three kinds of pattern are used: always-control, always-treated,
and a pulse at a single period t in 2..T.  In the wedge variant a "pulse"
arm keeps treating from t through T instead of treating only at t; that
variant changes the assignment vector, never the arm's identity.

Unit indices are 0-based throughout; time indices are 1-based (t = 1..T),
matching the t1..tT column headers used by the CSV formats.

Control pools.  The instantaneous effect at t compares the pulse-t arm
with a pool of control units, and ``_pool_arms`` is the one place that
says which arms the pool holds:

* ``plugin``    -- the always-control arm;
* ``augmented`` -- also every pulse after t (no outcome anticipates a
                   future treatment);
* ``recycling`` -- also every pulse at or before t - k (a pulse's effect
                   wears off after k periods).

The pool rows of ``_risk_terms`` (the term table of the worst-case risk
and the allocation objectives) come from it.  ``_picks`` says which units
each estimate reads; the estimators, the loss and the confidence interval
take them from it.
"""

from __future__ import annotations

import enum
import numbers
from dataclasses import dataclass, field
from functools import lru_cache
from typing import Iterator, Mapping, Sequence

import numpy as np

__all__ = [
    "Family",
    "ArmKind",
    "ArmId",
    "ALWAYS_CONTROL",
    "ALWAYS_TREATED",
    "pulse_arm",
    "arms_for_horizon",
    "make_arm_vector",
    "Allocation",
    "RealAllocation",
    "AssignmentMatrix",
    "draw_assignment",
    "PotentialOutcomeSchedule",
    "ObservedOutcomes",
    "observe",
    "permute_units",
    "enumerate_assignments",
]


class Family(enum.Enum):
    """How a pulse arm expands to an assignment vector."""

    PULSE = "pulse"
    WEDGE = "wedge"


class ArmKind(enum.Enum):
    ALWAYS_CONTROL = "always0"
    ALWAYS_TREATED = "always1"
    PULSE = "pulse"


@dataclass(frozen=True)
class ArmId:
    """One treatment arm.

    ``family`` only affects how the arm expands to an assignment vector, so
    it is excluded from equality and hashing: the wedge and pulse variants
    of the same arm index the same potential outcomes.
    """

    kind: ArmKind
    t: int | None = None
    family: Family = field(default=Family.PULSE, compare=False)

    def __post_init__(self) -> None:
        if self.kind is ArmKind.PULSE:
            if self.t is None or self.t < 2:
                raise ValueError(f"pulse arm requires a time index >= 2, got {self.t}")
        elif self.t is not None:
            raise ValueError(f"{self.kind.value} arm takes no time index")

    @property
    def label(self) -> str:
        """Stable string key: ``always0``, ``always1``, or ``pulse_<t>``."""
        if self.kind is ArmKind.PULSE:
            return f"pulse_{self.t}"
        return self.kind.value

    def with_family(self, family: Family) -> "ArmId":
        return ArmId(self.kind, self.t, family)

    def __repr__(self) -> str:  # keep error messages short
        if self.kind is ArmKind.PULSE and self.family is Family.WEDGE:
            return f"ArmId({self.label}, wedge)"
        return f"ArmId({self.label})"


ALWAYS_CONTROL = ArmId(ArmKind.ALWAYS_CONTROL)
ALWAYS_TREATED = ArmId(ArmKind.ALWAYS_TREATED)


def pulse_arm(t: int, family: Family = Family.PULSE) -> ArmId:
    return ArmId(ArmKind.PULSE, t, family)


def _check_horizon(T: int) -> None:
    if T < 2:
        raise ValueError(f"horizon T must be >= 2, got {T}")


def arms_for_horizon(T: int, family: Family = Family.PULSE) -> tuple[ArmId, ...]:
    """All T+1 arms of a horizon-T design, in canonical order."""
    _check_horizon(T)
    return (ALWAYS_CONTROL, ALWAYS_TREATED) + tuple(
        pulse_arm(t, family) for t in range(2, T + 1)
    )


def make_arm_vector(arm: ArmId, T: int) -> np.ndarray:
    """Expand an arm to its length-T 0/1 assignment vector."""
    _check_horizon(T)
    bits = np.zeros(T, dtype=np.int8)
    if arm.kind is ArmKind.ALWAYS_TREATED:
        bits[:] = 1
    elif arm.kind is ArmKind.PULSE:
        if not 2 <= arm.t <= T:
            raise ValueError(f"pulse time {arm.t} outside 2..{T}")
        if arm.family is Family.WEDGE:
            bits[arm.t - 1:] = 1
        else:
            bits[arm.t - 1] = 1
    bits.flags.writeable = False
    return bits


def _arm_code(arm: ArmId) -> int:
    """Internal arm index: 0 control, 1 treated, t for the pulse at time t."""
    if arm.kind is ArmKind.ALWAYS_CONTROL:
        return 0
    if arm.kind is ArmKind.ALWAYS_TREATED:
        return 1
    return arm.t


@dataclass(frozen=True)
class Allocation:
    """Integer unit counts per arm: ``ne[i]`` is the count for the pulse at
    time i+2.  Zero counts are tolerated so that weighted designs can drop
    an arm entirely; estimators fail loudly on any empty arm they need."""

    n0: int
    n1: int
    ne: tuple[int, ...]

    def __post_init__(self) -> None:
        ne = tuple(self.ne)
        for v in (self.n0, self.n1, *ne):
            # int() would truncate 1.5 and parse "3"; a bool is no count.  The
            # exact-int test first skips the slow abstract-class check.
            if type(v) is not int and (isinstance(v, bool)
                                       or not isinstance(v, numbers.Integral)):
                raise ValueError(f"arm count must be an integer, got {v!r}")
        object.__setattr__(self, "ne", tuple(map(int, ne)))
        object.__setattr__(self, "n0", int(self.n0))
        object.__setattr__(self, "n1", int(self.n1))
        if not self.ne:
            raise ValueError("allocation needs at least one pulse arm (T >= 2)")
        if min(self.counts) < 0:
            raise ValueError(f"negative arm count in {self.counts}")
        if self.N < 1:
            raise ValueError("allocation is empty")

    @property
    def counts(self) -> tuple[int, ...]:
        return (self.n0, self.n1) + self.ne

    @property
    def N(self) -> int:
        return self.n0 + self.n1 + sum(self.ne)

    @property
    def T(self) -> int:
        return len(self.ne) + 1


@dataclass(frozen=True)
class RealAllocation:
    """Continuous-relaxation counterpart of :class:`Allocation`."""

    n0: float
    n1: float
    ne: tuple[float, ...]

    def __post_init__(self) -> None:
        object.__setattr__(self, "ne", tuple(float(v) for v in self.ne))
        object.__setattr__(self, "n0", float(self.n0))
        object.__setattr__(self, "n1", float(self.n1))
        if not self.ne:
            raise ValueError("allocation needs at least one pulse arm (T >= 2)")
        counts = self.counts
        if not all(np.isfinite(counts)):
            raise ValueError(f"non-finite arm count in {counts}")
        if min(counts) < 0.0:
            raise ValueError(f"negative arm count in {counts}")

    @property
    def counts(self) -> tuple[float, ...]:
        return (self.n0, self.n1) + self.ne

    @property
    def N(self) -> float:
        return self.n0 + self.n1 + sum(self.ne)

    @property
    def T(self) -> int:
        return len(self.ne) + 1


@lru_cache(maxsize=None)
def _arm_vectors(T: int, family: Family) -> np.ndarray:
    """(T+1) x T read-only table whose row c is the assignment vector of
    arm code c, built once per (T, family)."""
    table = np.stack([make_arm_vector(arm, T) for arm in arms_for_horizon(T, family)])
    table.flags.writeable = False
    return table


class AssignmentMatrix:
    """One realized randomization of N units to the T+1 arms of a horizon-T
    design.

    Stored: the read-only int64 arm ``codes`` (0 control, 1 treated, t for
    the pulse at t), ``T`` and the ``family``.  The per-unit ``arm_labels``
    and the N x T 0/1 ``matrix`` are built on first use from a (T+1)-row
    table indexed by ``codes``, then cached; both are read-only.  With no
    unit in a pulse arm the family is ``PULSE``, since nothing tells the
    families apart.
    """

    def __init__(self, arm_labels: Sequence[ArmId], T: int):
        _check_horizon(T)
        labels = tuple(arm_labels)
        families = {a.family for a in labels if a.kind is ArmKind.PULSE}
        if len(families) > 1:
            raise ValueError("mixed pulse/wedge families in one assignment")
        if not labels:
            raise ValueError("assignment needs at least one unit")
        codes = np.fromiter((_arm_code(a) for a in labels), dtype=np.int64, count=len(labels))
        if codes.max() > T:
            raise ValueError(f"{labels[int(np.argmax(codes))]!r} does not fit horizon T={T}")
        self._store(codes, T, families.pop() if families else Family.PULSE)

    @classmethod
    def _from_codes(cls, codes: np.ndarray, T: int, family: Family) -> "AssignmentMatrix":
        """Trusted constructor: ``codes`` is a fresh int64 array of codes in
        0..T, which the new instance takes over and freezes."""
        Z = cls.__new__(cls)
        Z._store(codes, T, family)
        return Z

    def _store(self, codes: np.ndarray, T: int, family: Family) -> None:
        codes.flags.writeable = False
        self._codes = codes
        self._T = T
        self._family = family if (codes >= 2).any() else Family.PULSE
        self._labels: tuple[ArmId, ...] | None = None
        self._matrix: np.ndarray | None = None

    @property
    def arm_labels(self) -> tuple[ArmId, ...]:
        if self._labels is None:
            arms = arms_for_horizon(self._T, self._family)
            self._labels = tuple(map(arms.__getitem__, self._codes.tolist()))
        return self._labels

    @property
    def matrix(self) -> np.ndarray:
        if self._matrix is None:
            matrix = _arm_vectors(self._T, self._family)[self._codes]
            matrix.flags.writeable = False
            self._matrix = matrix
        return self._matrix

    @property
    def codes(self) -> np.ndarray:
        """Arm code per unit (0 control, 1 treated, t for pulse at t)."""
        return self._codes

    @property
    def N(self) -> int:
        return len(self._codes)

    @property
    def T(self) -> int:
        return self._T

    @property
    def family(self) -> Family:
        return self._family

    @property
    def allocation(self) -> Allocation:
        counts = np.bincount(self._codes, minlength=self._T + 1)
        return Allocation(int(counts[0]), int(counts[1]), tuple(int(c) for c in counts[2:]))

    def __eq__(self, other: object) -> bool:
        if not isinstance(other, AssignmentMatrix):
            return NotImplemented
        # same arms in a different family mean different realized patterns
        return (self._T, self._family) == (other._T, other._family) and (
            np.array_equal(self._codes, other._codes)
        )

    def __repr__(self) -> str:
        return f"AssignmentMatrix(N={self.N}, T={self.T}, family={self._family.value})"


def _shuffle(x: np.ndarray, seed: int | np.random.SeedSequence) -> None:
    """Shuffle ``x`` in place by the seeded Fisher-Yates rule behind every
    draw.

    Fisher-Yates picks its swaps from the generator alone, not from the
    array, so one seed moves every length-N vector by one permutation p:
    the shuffled ``x`` is ``x[p]``, with p the shuffled ``arange(N)``.  A
    Monte-Carlo replicate shuffles ``arange(N)`` once and applies p to
    every design it scores."""
    np.random.default_rng(seed).shuffle(x)


def draw_assignment(alloc: Allocation, family: Family = Family.PULSE,
                    seed: int | np.random.SeedSequence = 0) -> AssignmentMatrix:
    """Draw one completely randomized assignment with the given arm counts.

    Uniform over all arrangements of the arm-code multiset (the sorted
    code vector shuffled by ``_shuffle``), and deterministic given the
    seed (a nonnegative integer or seed sequence).
    """
    codes = np.repeat(np.arange(alloc.T + 1, dtype=np.int64), alloc.counts)
    _shuffle(codes, seed)
    return AssignmentMatrix._from_codes(codes, alloc.T, family)


@lru_cache(maxsize=None)
def _pool_arms(T: int, estimator: str, k: int | None = None) -> np.ndarray:
    """(T-1) x (T+1) read-only bool table of the control pools (see the
    module docstring): row t-2 marks the arm codes pooled as controls at t
    under ``estimator``, and ``k`` is the carryover order of ``recycling``.
    ``row @ counts`` is the pool size; ``_picks`` lists the pooled units."""
    code = np.arange(T + 1)
    t = np.arange(2, T + 1)[:, None]
    pool = np.zeros((T - 1, T + 1), dtype=bool)
    pool[:, 0] = True
    if estimator != "plugin":
        pool |= code > t
    if estimator == "recycling":
        pool |= (code >= 2) & (code <= t - k)
    pool.flags.writeable = False
    return pool


def _arm_order(codes: np.ndarray, T: int) -> tuple[np.ndarray, np.ndarray]:
    """``(by_arm, bounds)``: the units grouped by arm code, so that
    ``by_arm[bounds[c]:bounds[c + 1]]`` are the units of arm code c,
    ascending, from one bincount and one stable argsort."""
    # narrowed to the fewest bytes that hold T, a stable sort is a radix sort
    by_arm = np.argsort(codes.astype(np.min_scalar_type(T)), kind="stable")
    bounds = np.zeros(T + 2, dtype=np.intp)
    np.cumsum(np.bincount(codes, minlength=T + 1), out=bounds[1:])
    return by_arm, bounds


def _picks(codes: np.ndarray, T: int, estimator: str, k: int | None = None,
           start: int = 2) -> Iterator[tuple[int, np.ndarray, np.ndarray, np.ndarray]]:
    """Yields ``(t, treated, pulse, pool)`` for t = start..T: the units of
    the always-treated arm, of the pulse-t arm and of the ``_pool_arms``
    pool at t, each ascending, as a boolean mask over ``codes`` gives them.
    The units are grouped by arm once (``_arm_order``); the pool is updated
    only for the arms that join or leave it, so one step costs O(N)."""
    pools = _pool_arms(T, estimator, k)
    by_arm, bounds = _arm_order(codes, T)
    bounds = bounds.tolist()
    treated = by_arm[bounds[1]:bounds[2]]
    pooled = np.zeros(T + 1, dtype=bool)  # the arms ``in_pool`` marks
    in_pool = np.zeros(len(codes), dtype=bool)
    for t in range(start, T + 1):
        changed = (pools[t - 2] != pooled).nonzero()[0].tolist()
        for arm in changed:
            in_pool[by_arm[bounds[arm]:bounds[arm + 1]]] = pools[t - 2][arm]
        if changed:  # always at the first step, since every pool holds arm 0
            pooled = pools[t - 2]
            pool = in_pool.nonzero()[0]
        yield t, treated, by_arm[bounds[t]:bounds[t + 1]], pool


@lru_cache(maxsize=None)
def _risk_terms(T: int, estimator: str, rho: float,
                k: int | None = None) -> tuple[np.ndarray, np.ndarray]:
    """Read-only (weights, membership) of the worst-case risk at unit vstar
    on the normalized scale: ``sum_j w[j] / (m[j] @ counts)``.  The rows
    are the always-treated arm (weight rho (T-1)), each pulse arm (weight
    1), then the ``_pool_arms`` rows (weight 1 - rho); rows of weight 0
    are dropped."""
    w = np.concatenate([[rho * (T - 1)], np.ones(T - 1), np.full(T - 1, 1.0 - rho)])
    m = np.concatenate([np.eye(T + 1)[1:], _pool_arms(T, estimator, k)], dtype=float)
    w, m = w[w > 0.0], m[w > 0.0]
    w.flags.writeable = False
    m.flags.writeable = False
    return w, m


def _check_carryover(k: int | None) -> None:
    if k is not None and k < 1:
        raise ValueError(f"carryover order k must be >= 1, got {k}")


class PotentialOutcomeSchedule:
    """Fixed ground truth: one N x T outcome matrix per arm, all T+1 arms.

    Storage is a (K, N, T) array of K <= T+1 distinct matrices and a
    read-only (T+1, T) slot table: cell (i, t) of arm code c is cell
    (i, t) of stored matrix ``slots[c, t-1]``.  An arm given as a matrix
    has one slot in every period, and arms given as the same array object
    share it (sources are matched by identity, never by content).  So
    K N T floats are kept: one N x T matrix for ``worst_case_schedule``,
    T+1 for a schedule whose arms all differ, and at most 4 for a
    simulation model: its arms share one noise draw, so its cell depends
    on the arm only through (z_t, z_{t-1}).

    Matrices are copied on construction and frozen; instances are safe to
    share across threads.  Being frozen, a schedule has fixed estimands:
    ``estimators.estimands`` computes them on first use and keeps them in
    the private ``_estimands`` slot.  Threads that race to fill the slot
    each compute the same bits, so whichever write lands, every caller
    gets equal values.
    """

    def __init__(self, arms: Mapping[ArmId, np.ndarray]):
        if ALWAYS_CONTROL not in arms:
            raise ValueError("schedule is missing the always-control arm")
        shape = np.asarray(arms[ALWAYS_CONTROL], dtype=float).shape
        if len(shape) != 2 or shape[0] < 1 or shape[1] < 2:
            raise ValueError(f"arm matrices must be N x T with T >= 2, got {shape}")
        N, T = shape
        expected = arms_for_horizon(T)
        known = set(expected)
        missing = [a.label for a in expected if a not in arms]
        extra = [a.label for a in arms if a not in known]
        if missing or extra:
            raise ValueError(f"schedule arms mismatch: missing={missing} extra={extra}")
        # ``firsts`` keeps each distinct source referenced until it is
        # copied, so no id is recycled by a mapping that builds a fresh
        # array per lookup
        slot_of: dict[int, int] = {}
        firsts: list[tuple[ArmId, object]] = []
        slots = np.empty((T + 1, T), dtype=np.intp)
        for arm in expected:  # arm-code order
            src = arms[arm]
            if id(src) not in slot_of:
                slot_of[id(src)] = len(firsts)
                firsts.append((arm, src))
            slots[_arm_code(arm)] = slot_of[id(src)]
        stored = np.empty((len(firsts), N, T), dtype=float)
        for slot, (arm, src) in enumerate(firsts):
            m = np.asarray(src, dtype=float)
            if m.shape != (N, T):
                raise ValueError(f"{arm!r} matrix has shape {m.shape}, expected {(N, T)}")
            stored[slot] = m
        self._adopt(stored, slots)

    @classmethod
    def _owned(cls, stored: np.ndarray, slots: np.ndarray) -> "PotentialOutcomeSchedule":
        """Trusted constructor: ``stored`` is a fresh (K, N, T) float array
        and ``slots`` a fresh (T+1, T) slot table into it, both of which the
        new instance takes over and freezes without a copy."""
        if stored.dtype != np.float64 or stored.ndim != 3:
            raise ValueError(f"stacked schedule must be a 3-D float array, got "
                             f"{stored.dtype} {stored.shape}")
        _, N, T = stored.shape
        if N < 1 or T < 2:
            raise ValueError(f"stacked schedule must be K x N x T with N >= 1 and T >= 2, "
                             f"got {stored.shape}")
        if slots.shape != (T + 1, T):
            raise ValueError(f"stacked schedule needs a {(T + 1, T)} slot table, "
                             f"got {slots.shape}")
        sched = cls.__new__(cls)
        sched._adopt(stored, slots)
        return sched

    def _adopt(self, stored: np.ndarray, slots: np.ndarray) -> None:
        """Freeze ``stored``, the (K, N, T) distinct matrices, and ``slots``,
        the (T+1, T) table of the matrix behind each (arm code, period),
        and make them this schedule's ground truth."""
        stored.flags.writeable = False
        slots.flags.writeable = False
        self._stored = stored
        self._slots = slots
        self._N, self._T = map(int, stored.shape[1:])
        self._estimands = None

    @property
    def N(self) -> int:
        return self._N

    @property
    def T(self) -> int:
        return self._T

    @property
    def arms(self) -> tuple[ArmId, ...]:
        return arms_for_horizon(self._T)

    def _code(self, arm: ArmId) -> int:
        code = _arm_code(arm)
        if code > self._T:
            raise KeyError(f"{arm!r} not in a horizon-{self._T} schedule")
        return code

    def matrix(self, arm: ArmId) -> np.ndarray:
        """The arm's read-only N x T matrix: the stored matrix itself when
        one slot holds every period of the arm, else a copy assembled
        column by column from the slot table."""
        code = self._code(arm)
        row = self._slots[code]
        if (row == row[0]).all():
            return self._stored[row[0]]
        return self._observed_rows(np.full(self._N, code))

    def _column(self, arm: ArmId, t: int) -> np.ndarray:
        """Read-only view of the arm's outcomes at period t (1-based)."""
        return self._stored[self._slots[self._code(arm), t - 1], :, t - 1]

    def stacked(self) -> np.ndarray:
        """(T+1, N, T) read-only array indexed by arm code.  A schedule
        whose slot table is the identity (row c is slot c throughout)
        returns its stored array; any other assembles a fresh (T+1) N T
        copy through the table."""
        n_arms, T = self._slots.shape
        if (self._slots == np.arange(n_arms)[:, None]).all():
            return self._stored
        stacked = self._stored[self._slots[:, None, :], np.arange(self._N)[:, None],
                               np.arange(T)]
        stacked.flags.writeable = False
        return stacked

    def _observed_rows(self, codes: np.ndarray) -> np.ndarray:
        """Read-only N x T array whose row i is row i of the matrix of arm
        ``codes[i]``.  With one stored matrix that is the matrix itself;
        otherwise, when each arm keeps one slot in every period, whole rows
        are gathered, and else one take over the stored cells, from the
        flat offset of each (arm code, period) in unit 0."""
        if len(self._stored) == 1:
            return self._stored[0]
        N, T = self._N, self._T
        if (self._slots == self._slots[:, :1]).all():
            values = self._stored[self._slots[codes, 0], np.arange(N)]
        else:
            cells = (self._slots * (N * T) + np.arange(T)).take(codes, axis=0)
            cells += np.arange(0, N * T, T)[:, None]
            values = self._stored.reshape(-1).take(cells)
        values.flags.writeable = False
        return values

    def __eq__(self, other: object) -> bool:
        if not isinstance(other, PotentialOutcomeSchedule):
            return NotImplemented
        return (self._N, self._T) == (other._N, other._T) and all(
            np.array_equal(self.matrix(arm), other.matrix(arm)) for arm in self.arms
        )

    def __repr__(self) -> str:
        return f"PotentialOutcomeSchedule(N={self._N}, T={self._T})"


@dataclass(frozen=True)
class ObservedOutcomes:
    """What the experimenter actually sees: one outcome per unit and period."""

    values: np.ndarray

    def __post_init__(self) -> None:
        v = np.asarray(self.values, dtype=float)
        if v.ndim != 2:
            raise ValueError(f"observed outcomes must be N x T, got shape {v.shape}")
        if not np.isfinite(v).all():
            i, j = np.argwhere(~np.isfinite(v))[0].tolist()
            raise ValueError(f"observed outcome at (row, column) ({i}, {j}) is not finite: "
                             f"{v[i, j]}")
        v = v.copy()
        v.flags.writeable = False
        object.__setattr__(self, "values", v)

    @classmethod
    def _owned(cls, values: np.ndarray) -> "ObservedOutcomes":
        """Trusted constructor: ``values`` is an N x T float array that
        nothing else writes (fresh, or read-only like a schedule's stored
        matrix), which the new instance takes over and freezes without a
        copy."""
        obs = cls.__new__(cls)
        values.flags.writeable = False
        object.__setattr__(obs, "values", values)
        return obs

    @property
    def N(self) -> int:
        return self.values.shape[0]

    @property
    def T(self) -> int:
        return self.values.shape[1]


def _check_fits(Z: AssignmentMatrix, sched: PotentialOutcomeSchedule) -> None:
    if (Z.N, Z.T) != (sched.N, sched.T):
        raise ValueError(f"assignment is {Z.N} x {Z.T} but schedule is {sched.N} x {sched.T}")


def observe(Z: AssignmentMatrix, sched: PotentialOutcomeSchedule) -> ObservedOutcomes:
    """Realize the experiment: row i is row i of the schedule matrix for
    unit i's arm.  The values are read-only; when every arm shares one
    matrix they are that matrix, not a copy."""
    _check_fits(Z, sched)
    return ObservedOutcomes._owned(sched._observed_rows(Z.codes))


def _check_permutation(perm: Sequence[int], N: int) -> np.ndarray:
    p = np.asarray(perm, dtype=np.int64)
    if p.shape != (N,) or not np.array_equal(np.sort(p), np.arange(N)):
        raise ValueError(f"perm is not a bijection on 0..{N - 1}")
    return p


def permute_units(x, perm: Sequence[int]):
    """Reindex units: row i of the result is row perm[i] of the input.

    Accepts an :class:`AssignmentMatrix` or a
    :class:`PotentialOutcomeSchedule` (each stored matrix is permuted once,
    so arms that share a matrix still share it) and returns the same type.
    """
    if isinstance(x, AssignmentMatrix):
        p = _check_permutation(perm, x.N)
        return AssignmentMatrix._from_codes(x.codes[p], x.T, x.family)
    if isinstance(x, PotentialOutcomeSchedule):
        p = _check_permutation(perm, x.N)
        permuted = PotentialOutcomeSchedule.__new__(PotentialOutcomeSchedule)
        permuted._adopt(x._stored[:, p, :], x._slots)  # arms sharing a matrix still do
        return permuted
    raise TypeError(f"cannot permute {type(x).__name__}")


def _iter_code_arrangements(counts: Sequence[int]) -> Iterator[tuple[int, ...]]:
    """Distinct arrangements of the arm-code multiset, lexicographically."""
    remaining = list(counts)
    total = sum(remaining)
    prefix: list[int] = []

    def rec(left: int) -> Iterator[tuple[int, ...]]:
        if left == 0:
            yield tuple(prefix)
            return
        for code, avail in enumerate(remaining):
            if avail:
                remaining[code] -= 1
                prefix.append(code)
                yield from rec(left - 1)
                prefix.pop()
                remaining[code] += 1

    return rec(total)


def enumerate_assignments(alloc: Allocation,
                          family: Family = Family.PULSE) -> Iterator[AssignmentMatrix]:
    """Every distinct assignment with the given arm counts, each of which
    is equally likely under complete randomization."""
    for codes in _iter_code_arrangements(alloc.counts):
        yield AssignmentMatrix._from_codes(np.array(codes, dtype=np.int64), alloc.T, family)
