"""Loss, Monte-Carlo and worst-case risk, and conservative intervals.

The loss of one realized experiment is the weighted sum of squared errors
of the habituation and instantaneous estimates across t = 2..T; the risk
of a design is the expectation of that loss over its randomization
distribution.  Over every schedule whose outcome columns live in a fixed
box, the risk of a completely randomized design is maximized by a schedule
whose arms are all identical with every column equal to the
variance-maximizing vector.  At that schedule the risk has a closed form:
the box's maximum sample variance times a sum of reciprocal arm (or
control-pool) counts, the term table ``core._risk_terms``.  The
allocation objectives are that table too (only basic merges its pools
into one term), so ``max_risk`` is vstar times the matching objective.
``loss``, ``mc_risks`` and ``exact_risk`` score assignments through one
loss evaluator per call, which reads the schedule's estimands once.  Those
are computed on first use and kept on the schedule (``estimands``), so
every design scored against one schedule, as in Figure 3, reuses them.  Per
assignment it forms the estimates with one pass of
``estimators._estimate_pass``, the code that ``tminimax estimate`` and the
per-t estimators run, so the loss scores exactly the estimates a user
gets; the pass reads each unit's cells from the schedule's stored
matrices through its slot table, with no N x T copy of the observed
rows.  ``conservative_ci`` takes its estimate from one step of that
pass and its two pools' units by masks over the arm codes, the pool's
from ``core._pool_arms``, the table that pass reads.  Every
loss sums each arm and pool by one rule: fsum's bits, the exact sum
rounded once.  A schedule whose arms and periods all share one outcome
column y = c * b, for one float c and integers b with sum(|b|) < 2**53
(as ``worst_case_schedule`` builds in a box [0, u], [-u, u] or [-2, 3]),
is scored by counting: one weighted ``bincount`` of b per assignment
gives each arm's exact integer total K, and one rounded product c * K is
the cells' exact sum rounded once.  ``mc_risks`` scores every design of
a replicate on its one seeded permutation of the units; on such a
schedule one ``bincount`` of the nonzero units, by the cut interval each
is permuted into, gives every design's arm totals.
"""

from __future__ import annotations

import math
from dataclasses import dataclass
from fractions import Fraction
from math import fsum, sqrt
from statistics import NormalDist
from typing import Sequence

import numpy as np

from .core import (
    Allocation,
    AssignmentMatrix,
    Family,
    ObservedOutcomes,
    PotentialOutcomeSchedule,
    RealAllocation,
    _check_fits,
    _iter_code_arrangements,
    _pool_arms,
    _risk_terms,
    _shuffle,
    arms_for_horizon,
)
from .estimators import _check_inputs, _estimate_pass, estimands

__all__ = [
    "LossSpec",
    "RiskOverflowError",
    "RiskReport",
    "loss",
    "mc_risk",
    "mc_risks",
    "exact_risk",
    "worst_case_schedule",
    "box_max_variance",
    "max_risk",
    "conservative_ci",
]

_ESTIMATORS = ("plugin", "augmented", "recycling")


@dataclass(frozen=True)
class LossSpec:
    """Which instantaneous-effect estimator the loss uses and how the two
    effect families are weighted.

    The loss is ``rho * sum_t (habituation error)^2 + (1 - rho) * sum_t
    (instantaneous error)^2``.  With ``unnormalized=True`` the value is
    doubled, so at rho = 1/2 both sums carry unit weight (the scale the
    basic and augmented allocation objectives are stated on).
    """

    estimator: str = "plugin"
    rho: float = 0.5
    k: int | None = None
    unnormalized: bool = False

    def __post_init__(self) -> None:
        if self.estimator not in _ESTIMATORS:
            raise ValueError(f"unknown estimator {self.estimator!r}")
        if not 0.0 <= self.rho <= 1.0:
            raise ValueError(f"rho must be in [0, 1], got {self.rho}")
        if self.estimator == "recycling":
            if self.k is None or self.k < 1:
                raise ValueError(f"recycling loss needs k >= 1, got {self.k}")
        elif self.k is not None:
            raise ValueError(f"{self.estimator} loss does not take k")


class RiskOverflowError(ValueError):
    """A risk that overflows the float range: the maximum risk of a finite
    variance bound, a loss, an exact risk, or a design's Monte-Carlo mean
    or standard error."""


@dataclass(frozen=True)
class RiskReport:
    """A design's Monte-Carlo risk, its standard error and the number of
    draws behind them."""

    mc_risk: float
    mc_se: float
    draws: int

    def __post_init__(self) -> None:
        if self.draws < 1:
            raise ValueError("draws must be >= 1")
        if not (math.isfinite(self.mc_risk) and math.isfinite(self.mc_se)):
            raise ValueError(f"mc_risk and mc_se must be finite, got {self.mc_risk} "
                             f"and {self.mc_se}")
        if self.mc_se < 0.0:
            raise ValueError("mc_se must be >= 0")


def _loss_from_codes(codes: np.ndarray, values: np.ndarray | PotentialOutcomeSchedule,
                     hab: np.ndarray, inst: np.ndarray, spec: LossSpec) -> float:
    """Loss of one assignment given its observed ``values`` (an N x T
    array, or the schedule whose arm matrices the units observe) and
    precomputed estimand arrays: the squared errors of one estimator pass
    (``estimators._estimate_pass``, which sums each pool with fsum's bits),
    skipping an effect of weight zero.
    """
    hab_terms = []
    inst_terms = []
    for t, h, i in _estimate_pass(codes, values, spec.estimator, spec.k,
                                  hab=spec.rho > 0.0, inst=spec.rho < 1.0):
        if h is not None:
            err = h - hab[t - 2]
            hab_terms.append(err * err)
        if i is not None:
            err = i - inst[t - 2]
            inst_terms.append(err * err)
    val = spec.rho * fsum(hab_terms) + (1.0 - spec.rho) * fsum(inst_terms)
    if spec.unnormalized:
        val *= 2.0
    return val


class _LossEvaluator:
    """The loss of arm-code vectors against ``sched``, whose estimands are
    computed once.

    Called on a code vector, it picks the path once per call: a schedule
    with one counted outcome column y = c * b (``_counted_column``) scores
    the assignment by counting, one weighted ``bincount`` of its units' b
    by arm fed to ``from_sums`` as a one-row array, and every other
    schedule by ``general`` (``_loss_from_codes``).  Both give the same
    bits.  An assignment that leaves an arm the loss reads empty goes to
    ``general``, which raises."""

    def __init__(self, sched: PotentialOutcomeSchedule, spec: LossSpec) -> None:
        try:
            hab, inst = estimands(sched)
        except OverflowError as exc:  # an effect's exact sum overflowed
            raise RiskOverflowError(f"the estimands overflow: {exc}") from exc
        self._hab, self._inst = hab.values, inst.values
        self._sched, self._spec = sched, spec
        self.b, self.c = _counted_column(sched) or (None, 1.0)
        if self.b is not None:  # only counting reads the pools as a float table
            self._pools = _pool_arms(sched.T, spec.estimator, spec.k).astype(float)

    def general(self, codes: np.ndarray) -> float:
        return _loss_from_codes(codes, self._sched, self._hab, self._inst, self._spec)

    def countable(self, counts: np.ndarray) -> bool:
        """Whether an assignment with these int64 arm counts is scored by
        counting: the schedule has a counted column and every arm and pool
        the loss reads has a unit."""
        spec = self._spec
        return self.b is not None and bool(
            counts[2:].all() and (counts[1] or spec.rho == 0.0)
            and ((self._pools @ counts).all() or spec.rho == 1.0))

    def from_sums(self, counts: np.ndarray, sums: np.ndarray) -> np.ndarray:
        """The losses of assignments with these ``countable`` arm counts,
        one per row of ``sums``, the arm totals K of ``b``.  Every arm or
        pool total K is a sum of integers below sum(|b|) < 2**53, so exact
        in any order, and ``c * K`` rounds the cells' exact sum once, as
        fsum does.  A pool is scaled after its arms' K are added: the
        rounded products of the arms need not add up to that of their sum.
        A row's loss is the fsum of its squared errors."""
        spec, c = self._spec, self.c
        pulse = c * sums[:, 2:] / counts[2:]
        hab_sum = inst_sum = 0.0
        if spec.rho > 0.0:
            err = (c * sums[:, 1:2] / counts[1] - pulse) - self._hab
            hab_sum = np.array([fsum(row) for row in (err * err).tolist()])
        if spec.rho < 1.0:
            err = (pulse - c * (sums @ self._pools.T) / (self._pools @ counts)) - self._inst
            inst_sum = np.array([fsum(row) for row in (err * err).tolist()])
        val = spec.rho * hab_sum + (1.0 - spec.rho) * inst_sum
        return 2.0 * val if spec.unnormalized else val

    def __call__(self, codes: np.ndarray) -> float:
        if self.b is not None:
            counts = np.bincount(codes, minlength=self._sched.T + 1)
            if self.countable(counts):
                sums = np.bincount(codes, weights=self.b, minlength=self._sched.T + 1)
                return float(self.from_sums(counts, sums[None])[0])
        return self.general(codes)


def _counted_column(sched: PotentialOutcomeSchedule) -> tuple[np.ndarray, float] | None:
    """``(b, c)`` for the outcome column y shared by every arm and period
    of ``sched``, y = c * b exactly with b integer-valued, when draws
    against it can be scored by counting, else None.

    That needs one stored matrix (so every arm observes the same rows),
    columns that are bitwise equal, and a y that is finite and free of
    -0.0 (whose fsum sign a count cannot tell).  An integer-valued y has
    c = 1; any other has c its smallest nonzero |y_i|, which must divide
    every y_i exactly.  Either needs sum(|b|) < 2**53, so no c * K
    overflows: c is 1 or below 2**52 (every float above is an integer).
    The checks cost O(N) memory beyond the schedule, and none overflows."""
    if len(sched._stored) != 1:
        return None
    matrix = sched._stored[0]
    bits = matrix.view(np.int64)
    if not all(np.array_equal(bits[:, 0], bits[:, j]) for j in range(1, sched.T)):
        return None
    y = np.ascontiguousarray(matrix[:, 0])
    if not np.isfinite(y).all() or np.signbit(y[y == 0.0]).any():
        return None
    b, c = y, 1.0
    size = np.abs(y)
    if not (np.trunc(y) == y).all():
        c = float(size[y != 0.0].min())
        # fmod is exact: a zero remainder makes y_i an integer multiple of c
        if np.fmod(y, c).any():
            return None
    # each |y_i| / c must be an integer below 2**53, so a float, and no sum
    # of N of them overflows
    if not size.max() < 2.0 ** 53 * c:
        return None
    if c != 1.0:
        b = y / c
    # |b| holds integers, so its float sum is exact below 2**53 and at
    # least 2**53 when the exact sum is
    return (b, c) if np.abs(b).sum() < 2.0 ** 53 else None


@np.errstate(over="ignore", invalid="ignore")
def loss(Z: AssignmentMatrix, sched: PotentialOutcomeSchedule, spec: LossSpec) -> float:
    """Squared-error loss of one realized experiment against the
    schedule's estimands.  Terms whose weight is zero are skipped, so e.g.
    rho = 1 never touches the control pool.  A loss that is not finite, or
    an arm or loss whose exact sum overflows, raises ``RiskOverflowError``,
    with numpy's floating-point warnings off."""
    if spec.estimator == "recycling" and Z.family is Family.WEDGE:
        raise ValueError("recycling loss requires a pulse-family assignment")
    _check_fits(Z, sched)
    evaluate = _LossEvaluator(sched, spec)
    try:
        val = evaluate(Z.codes)
    except OverflowError as exc:  # an arm's or the loss's exact sum overflowed
        raise RiskOverflowError(f"the loss overflows: {exc}") from exc
    if not math.isfinite(val):
        raise RiskOverflowError(f"the loss overflows: {val}")
    return val


def mc_risk(alloc: Allocation, sched: PotentialOutcomeSchedule, spec: LossSpec,
            draws: int, seed: int) -> RiskReport:
    """Monte-Carlo risk of the completely randomized design with the given
    arm counts: ``mc_risks`` for this one design.

    Replicate r draws its assignment from a generator seeded by (seed, r),
    and the replicate losses are reduced in index order, so one seed gives
    one result.  On a schedule with one counted outcome column each draw
    is scored by counting, with the same bits.
    """
    return mc_risks([alloc], sched, spec, draws, seed)[0]


# Replicates whose counted losses ``mc_risks`` scores in one ``from_sums``
# call: their arm totals take 8 x designs x _CHUNK x (T + 1) bytes.
_CHUNK = 256


@np.errstate(over="ignore", invalid="ignore")
def mc_risks(allocs: Sequence[Allocation], sched: PotentialOutcomeSchedule, spec: LossSpec,
             draws: int, seed: int) -> list[RiskReport]:
    """Monte-Carlo risk of each completely randomized design in ``allocs``
    on one schedule, one report per design.

    Replicate r draws one permutation of the units, ``arange(N)`` put
    through ``core._shuffle`` with a generator seeded by (seed, r), and
    scores every design on it, so design d's draw r is the assignment
    ``draw_assignment(allocs[d], seed=SeedSequence((seed, r)))`` gives and
    its report does not depend on which other designs are listed; its
    loss is ``loss`` of that assignment, bit for bit.  Each design's
    losses are kept (8 bytes per design and draw) and reduced in replicate
    order, so one seed gives one result.

    On a schedule with one counted outcome column y = c * b
    (``_counted_column``) the sorted positions 0..N are cut once, at every
    counted design's arm boundaries.  A replicate bins the units with a
    nonzero b by the cut interval their permuted position falls in, one
    weighted ``bincount``, and each design's arm totals K are differences
    of the bins' prefix sums at two cuts: exact integers, the bits a
    weighted ``bincount`` by arm gives.  Each design's
    totals are kept for ``_CHUNK`` replicates (8 x (T + 1) bytes each) and
    scored by one ``from_sums`` call.  Every other schedule, and a design
    that leaves an arm the loss reads empty, is scored inside the
    replicate loop (``_loss_from_codes``, which raises on the empty arm at
    r = 0, in design order).

    Losses that overflow the float range are carried as inf or nan, with
    numpy's floating-point warnings off, and a design whose mean or
    standard error is not finite raises ``RiskOverflowError`` naming its
    index in ``allocs``, as does a design whose arm or loss has an exact
    sum that overflows.
    """
    if draws < 1:
        raise ValueError(f"draws must be >= 1, got {draws}")
    for alloc in allocs:
        _check_sizes(alloc, sched)
    _check_seed(seed)
    evaluate = _LossEvaluator(sched, spec)
    N, T = sched.N, sched.T
    all_counts = [np.array(alloc.counts, dtype=np.int64) for alloc in allocs]
    counted = [d for d, counts in enumerate(all_counts) if evaluate.countable(counts)]
    # a design that is not counted is drawn as its sorted codes permuted
    general = [(d, np.repeat(np.arange(T + 1, dtype=np.int64), all_counts[d]))
               for d in range(len(allocs)) if d not in counted]
    if counted:
        # unit i takes sorted position perm[i], and the intervals between
        # the cuts refine every counted design's arms, so an arm's total
        # is the difference of the permuted column's prefix sums at two cuts
        counted_counts = np.array([all_counts[d] for d in counted])
        ends = np.cumsum(counted_counts, axis=1)
        starts = ends - counted_counts
        cuts = np.array(sorted({0, N, *ends.ravel().tolist()}))
        interval = np.searchsorted(cuts, np.arange(N), "right") - 1
        lo, hi = np.searchsorted(cuts, starts), np.searchsorted(cuts, ends)
        units = np.flatnonzero(evaluate.b)
        weights = evaluate.b[units]
        cum = np.zeros(len(cuts))
        totals = np.empty((len(counted), min(_CHUNK, draws), T + 1))
    losses = np.empty((len(allocs), draws))
    try:
        for r in range(draws):
            perm = np.arange(N)
            _shuffle(perm, np.random.SeedSequence((seed, r)))
            if counted:
                np.cumsum(np.bincount(interval[perm[units]], weights=weights,
                                      minlength=len(cuts) - 1), out=cum[1:])
                np.subtract(cum[hi], cum[lo], out=totals[:, r % _CHUNK])
                if r % _CHUNK == _CHUNK - 1 or r == draws - 1:
                    first = r - r % _CHUNK
                    for j, d in enumerate(counted):
                        losses[d, first:r + 1] = evaluate.from_sums(
                            all_counts[d], totals[j, :r + 1 - first])
            for d, codes in general:
                losses[d, r] = evaluate.general(codes[perm])
    except OverflowError as exc:  # design d's arm or loss sum overflowed
        raise RiskOverflowError(f"design {d}'s loss overflows: {exc}") from exc
    reports = []
    for d, row in enumerate(losses):
        mean = float(np.mean(row))
        se = float(np.std(row, ddof=1) / sqrt(draws)) if draws > 1 else 0.0
        if not (math.isfinite(mean) and math.isfinite(se)):
            raise RiskOverflowError(f"design {d}'s Monte-Carlo risk overflows: "
                                    f"mean {mean}, standard error {se}")
        reports.append(RiskReport(mean, se, draws))
    return reports


@np.errstate(over="ignore", invalid="ignore")
def exact_risk(alloc: Allocation, sched: PotentialOutcomeSchedule, spec: LossSpec) -> float:
    """Exact risk by enumerating every assignment with the given counts
    (each equally likely under complete randomization).  Only viable at
    enumeration scale; replaces Monte-Carlo sampling in oracle checks.  A
    loss that is not finite or overflows in its exact sums, or finite
    losses whose sum overflows, raise ``RiskOverflowError``, with numpy's
    floating-point warnings off."""
    _check_sizes(alloc, sched)
    evaluate = _LossEvaluator(sched, spec)
    try:
        losses = [evaluate(np.array(a)) for a in _iter_code_arrangements(alloc.counts)]
    except OverflowError as exc:  # an arm's or a loss's exact sum overflowed
        raise RiskOverflowError(f"the loss overflows: {exc}") from exc
    try:
        risk = fsum(losses) / len(losses)
    except OverflowError:  # fsum's exact sum of finite losses overflowed
        risk = math.inf
    if not math.isfinite(risk):
        raise RiskOverflowError(f"the exact risk overflows: {risk}")
    return risk


def _check_sizes(alloc: Allocation, sched: PotentialOutcomeSchedule) -> None:
    if (alloc.T != sched.T) or (alloc.N != sched.N):
        raise ValueError(
            f"allocation is N={alloc.N}, T={alloc.T} but schedule is "
            f"N={sched.N}, T={sched.T}"
        )


def box_max_variance(N: int, lower: float, upper: float) -> float:
    """Largest sample variance of an N-vector with entries in
    [lower, upper]: half the entries at each end (upper gets the extra one
    when N is odd).

    O(1) in N with the bits of ``_population_variance`` on that vector:
    fsum rounds the exact sum once, and so does each exact rational sum
    here (the squares are the same floats)."""
    _check_box(N, lower, upper)
    m = (N + 1) // 2
    mean = float(Fraction(upper) * m + Fraction(lower) * (N - m)) / N
    a = (upper - mean) * (upper - mean)
    b = (lower - mean) * (lower - mean)
    if math.isinf(a) or math.isinf(b):  # a square overflowed; fsum returns inf
        return math.inf
    return float(Fraction(a) * m + Fraction(b) * (N - m)) / (N - 1)


def _check_box(N: int, lower: float, upper: float) -> None:
    if N < 2:
        raise ValueError(f"need N >= 2, got {N}")
    if not lower < upper:
        raise ValueError(f"degenerate box [{lower}, {upper}]")
    if not (math.isfinite(lower) and math.isfinite(upper)):
        raise ValueError(f"box bounds must be finite, got [{lower}, {upper}]")


def _extreme_vector(N: int, lower: float, upper: float) -> np.ndarray:
    _check_box(N, lower, upper)
    y = np.full(N, lower, dtype=float)
    y[: (N + 1) // 2] = upper
    return y


def worst_case_schedule(N: int, T: int, lower: float, upper: float) -> PotentialOutcomeSchedule:
    """The schedule attaining the maximum risk over all box-bounded
    schedules: every arm identical, every column equal to the
    variance-maximizing vector.  All its estimands are zero, so the risk
    there is purely estimator variance.  Every arm is given as one array
    object, so the schedule stores a single N x T matrix."""
    arms = arms_for_horizon(T)  # checks T before the broadcast needs it
    y = _extreme_vector(N, lower, upper)
    matrix = np.broadcast_to(y[:, None], (N, T))  # a view: the schedule makes the one copy
    return PotentialOutcomeSchedule({arm: matrix for arm in arms})


def _check_vstar(vstar: float) -> None:
    """A variance bound must be a finite number >= 0."""
    if not (math.isfinite(vstar) and vstar >= 0.0):
        raise ValueError(f"vstar must be finite and >= 0, got {vstar}")


def max_risk(alloc: Allocation | RealAllocation, T: int, vstar: float,
             spec: LossSpec) -> float:
    """Closed-form maximum risk of the completely randomized design with
    these counts, over all schedules with column sample variance at most
    ``vstar``.  Equals ``vstar`` times the matching allocation objective
    (up to the loss normalization), which is what makes the minimax
    allocations optimal.

    A finite ``vstar`` whose risk exceeds the float range raises
    ``RiskOverflowError``, a ``ValueError`` that names ``vstar``, rather
    than return inf."""
    if alloc.T != T:
        raise ValueError(f"allocation horizon {alloc.T} does not match T={T}")
    _check_vstar(vstar)
    for t, ne in enumerate(alloc.ne, start=2):
        if ne <= 0:
            raise ValueError(f"pulse arm at t={t} needs positive units")
    if spec.rho > 0.0 and alloc.n1 <= 0:
        raise ValueError("always-treated arm needs positive units")
    w, m = _risk_terms(T, spec.estimator, spec.rho, spec.k)
    sizes = m @ np.asarray(alloc.counts, dtype=float)
    if spec.rho < 1.0:  # the pool rows come last
        for t, pool in enumerate(sizes[-(T - 1):].tolist(), start=2):
            if pool <= 0:
                raise ValueError(f"empty control pool at t={t}")
    # + 0.0 turns a -0.0 bound into +0.0 and leaves every other float as it is
    val = (vstar + 0.0) * fsum((w / sizes).tolist())
    if spec.unnormalized:
        val *= 2.0
    if math.isinf(val):
        raise RiskOverflowError(f"vstar {vstar} is too large: the maximum risk overflows")
    return val


def _population_variance(x: np.ndarray) -> float:
    n = len(x)
    mean = fsum(x.tolist()) / n
    return fsum(((x - mean) ** 2).tolist()) / (n - 1)


@np.errstate(over="ignore", invalid="ignore")
def conservative_ci(Z: AssignmentMatrix, obs: ObservedOutcomes, t: int, spec: LossSpec,
                    level: float) -> tuple[float, float]:
    """Normal-approximation confidence interval for the instantaneous
    effect at time t, returned as ``(estimate, half_width)``: the interval
    is estimate plus or minus half_width, the ``spec`` estimator's
    instantaneous estimate and the normal quantile of ``level`` times the
    estimated standard error.

    The variance estimate is the pulse arm's and the control pool's sample
    variances, each over its size; dropping the negative contrast-variance
    term (unknowable from one realization) makes the interval
    conservative.  Both pools need at least two units.  A level so close
    to 1 that 0.5 + level / 2 rounds to 1.0, whose quantile is infinite,
    is rejected.  A pool whose exact sum overflows, or a variance that is
    not finite, raises ``RiskOverflowError``, with numpy's floating-point
    warnings off.
    """
    _check_inputs(Z, obs, t, spec.estimator, spec.k)
    p = 0.5 + level / 2.0
    if not (0.0 < level < 1.0 and p < 1.0):
        raise ValueError(f"level must be in (0, 1) with 0.5 + level / 2 below 1.0, got {level}")
    try:
        _, _, estimate = next(_estimate_pass(Z.codes, obs.values, spec.estimator, spec.k,
                                             hab=False, start=t, stop=t + 1))
        col = obs.values[:, t - 1]
        pool = _pool_arms(Z.T, spec.estimator, spec.k)[t - 2][Z.codes]
        variance = 0.0
        for y in (col[Z.codes == t], col[pool]):
            if len(y) < 2:
                raise ValueError(f"conservative variance needs >= 2 units per pool, got {len(y)}")
            variance += _population_variance(y) / len(y)
    except OverflowError as exc:  # a pool's mean or squared deviations overflowed
        raise RiskOverflowError(f"the interval overflows: {exc}") from exc
    if not math.isfinite(variance):
        raise RiskOverflowError(f"the interval overflows: variance {variance}")
    return estimate, NormalDist().inv_cdf(p) * sqrt(variance)


def _check_seed(seed: int) -> None:
    if seed < 0:
        raise ValueError(f"seed must be a nonnegative integer, got {seed}")
