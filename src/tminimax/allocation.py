"""Optimal unit allocations across arms for the four design objectives.

Every design problem here has the same shape: split N units over the T+1
arms (always-control, always-treated, one pulse per time 2..T) to minimize
a sum of reciprocals of arm counts, or of counts of arm groups.  The four
objectives differ in which estimator of the instantaneous effect they
assume:

* ``basic``      -- plug-in estimators for both effects,
* ``augmented``  -- future-pulse units reused as controls,
* ``weighted``   -- augmented, with weight ``rho`` on the habituation term
                    and ``1 - rho`` on the instantaneous term,
* ``recycling``  -- additionally reuse pulses older than ``k`` periods.

Each objective is the worst-case risk's term table, ``core._risk_terms``,
at the mode's loss: the augmented loss at rho for weighted(rho), and rho
= 1/2 doubled for augmented and recycling(k).  Only ``basic`` merges its
pools (each the always-control arm) into one ``(T-1)/n0`` term.

``basic``, ``augmented`` and ``weighted`` have closed-form continuous
relaxations; ``recycling`` is solved numerically.  ``integer_solve`` turns
any relaxation into an exact integer optimum via rounding plus single-unit
transfer descent, certified against ``brute_force_opt`` at small sizes.
It reads only the term table: it solves over the arms some term's group
holds (all T+1, except one arm at weighted rho 0 or 1, which gets no
units) and keeps at least one unit in each.

Each descent step screens the transfers between those arms in one
vectorised pass: from the group sizes, one matrix holds the approximate
objective change of every (src, dst) pair.  Only the pairs whose screened
change lies within a proven bound on the rounding error of the best one
are then evaluated exactly: a transfer moves the group sizes by whole
units, so its terms are the very floats that ``objective`` sums with
``fsum``.
The tie slide evaluates its kept pairs in the order of its tie rule and
stops at the first exact tie.  Since the band contains every pair a full
scan could pick, and the full scan's comparison rules then run on exact
values, the result is bit-identical to scanning every transfer with
``objective``.  At N = 100 T on 2 vCPUs, ``basic`` takes about 1 s at
T = 365 and recycling(2) about 8 s.
"""

from __future__ import annotations

import itertools
import math
from dataclasses import dataclass
from functools import lru_cache
from math import fsum, sqrt

import numpy as np

from .core import Allocation, RealAllocation, _check_carryover, _check_horizon, _risk_terms

__all__ = [
    "ObjectiveMode",
    "pulse_coefficients",
    "relaxed_basic",
    "relaxed_augmented",
    "relaxed_weighted",
    "relaxed_recycling",
    "objective",
    "integer_solve",
    "brute_force_opt",
    "balanced",
    "stationarity_residual",
    "SolverConvergenceError",
]

_KINDS = ("basic", "augmented", "weighted", "recycling")


@dataclass(frozen=True)
class ObjectiveMode:
    """Selects one of the four allocation objectives.

    ``rho`` is the habituation-vs-instantaneous weight of the weighted
    objective (0 puts all weight on the instantaneous effect, 1 all on the
    habituation effect); ``k`` is the carryover order of the recycling
    objective.
    """

    kind: str
    rho: float | None = None
    k: int | None = None

    def __post_init__(self) -> None:
        if self.kind not in _KINDS:
            raise ValueError(f"unknown objective kind {self.kind!r}")
        if self.kind == "weighted":
            if self.rho is None or not 0.0 <= self.rho <= 1.0:
                raise ValueError(f"weighted mode needs rho in [0, 1], got {self.rho}")
        elif self.rho is not None:
            raise ValueError(f"{self.kind} mode does not take rho")
        if self.kind == "recycling":
            if self.k is None or self.k < 1:
                raise ValueError(f"recycling mode needs k >= 1, got {self.k}")
        elif self.k is not None:
            raise ValueError(f"{self.kind} mode does not take k")

    @classmethod
    def basic(cls) -> "ObjectiveMode":
        return cls("basic")

    @classmethod
    def augmented(cls) -> "ObjectiveMode":
        return cls("augmented")

    @classmethod
    def weighted(cls, rho: float) -> "ObjectiveMode":
        return cls("weighted", rho=float(rho))

    @classmethod
    def recycling(cls, k: int) -> "ObjectiveMode":
        return cls("recycling", k=int(k))


# ---------------------------------------------------------------------------
# Objective terms.
#
# Arm indices follow the counts layout (n0, n1, ne_2, ..., ne_T), i.e. pulse
# time t sits at index t.  Each objective is a sum of terms w / sum(counts
# over a group of arms); representing it that way gives one code path for
# values, gradients and Hessians in every mode.
# ---------------------------------------------------------------------------


@lru_cache(maxsize=None)
def _term_matrix(T: int, mode: ObjectiveMode) -> tuple[np.ndarray, np.ndarray]:
    """(weights, membership): the objective is ``sum_j w[j] / (m[j] @
    counts)``, so membership[j, i] = 1 iff arm i belongs to term j's count
    group, and one matmul evaluates all group sizes (rows: see the module
    docstring)."""
    _check_horizon(T)
    if mode.kind == "weighted":
        return _risk_terms(T, "augmented", mode.rho)
    if mode.kind == "basic":
        w = np.array([T - 1.0, T - 1.0] + [2.0] * (T - 1))
        m = np.eye(T + 1)[[1, 0, *range(2, T + 1)]]
    else:
        w, m = _risk_terms(T, mode.kind, 0.5, mode.k)
        w = 2.0 * w
    w.flags.writeable = False
    m.flags.writeable = False
    return w, m


def _objective_counts(counts, T: int, mode: ObjectiveMode) -> float:
    w, m = _term_matrix(T, mode)
    y = m @ np.asarray(counts, dtype=float)
    if y.min() <= 0.0:
        j = int(y.argmin())
        raise ValueError(
            f"objective needs positive units in arm group {tuple(np.flatnonzero(m[j]).tolist())}"
        )
    return fsum((w / y).tolist())


def objective(alloc: Allocation | RealAllocation, T: int, mode: ObjectiveMode) -> float:
    """Objective value of an allocation under the selected design regime."""
    if alloc.T != T:
        raise ValueError(f"allocation horizon {alloc.T} does not match T={T}")
    return _objective_counts(alloc.counts, T, mode)


def _gradient_counts(counts, T: int, mode: ObjectiveMode) -> np.ndarray:
    w, m = _term_matrix(T, mode)
    y = m @ np.asarray(counts, dtype=float)
    return m.T @ (-w / (y * y))


def stationarity_residual(alloc: RealAllocation, T: int, mode: ObjectiveMode) -> float:
    """Violation of the first-order conditions at an allocation.

    At an optimum of 'minimize objective subject to fixed total and
    nonnegative counts', all partial derivatives over arms holding units
    are equal (to minus the multiplier of the sum constraint), and any arm
    at zero must have a derivative at least that large (adding units there
    cannot help).  Arms the mode drops from the objective are skipped.
    The check runs at the shares ``x = counts / N``: the largest violation
    of either condition over ``max(|center|, max|g|)``, with ``center`` the
    mean derivative over the free arms and ``g`` the gradient, plus the
    deviation of ``sum(x)`` from 1.
    """
    x = np.asarray(alloc.counts, dtype=float) / alloc.N
    # an arm no term holds has derivative 0, never below the center
    pinned = (x == 0.0) | ~_term_matrix(T, mode)[1].any(axis=0)
    return _kkt_residual(_gradient_counts(x, T, mode), x, pinned)


# ---------------------------------------------------------------------------
# Closed-form relaxations.
# ---------------------------------------------------------------------------


def relaxed_basic(N: float, T: int) -> RealAllocation:
    """Continuous minimax allocation for the plug-in objective.

    Both always arms get N / (2 + sqrt(2(T-1))) units and every pulse arm
    gets sqrt(2/(T-1)) times that, so the pulse arms are smaller
    individually but dominate in total as T grows.
    """
    _check_relax_args(N, T)
    base = 1.0 / (2.0 + sqrt(2.0 * (T - 1)))
    n0 = N * base
    ne = N * (sqrt(2.0 / (T - 1)) * base)
    return RealAllocation(n0, n0, (ne,) * (T - 1))


def pulse_coefficients(T: int, scale: float) -> np.ndarray:
    """Backward-recursive coefficients linking pulse counts to the control
    count in the augmented and weighted relaxations, for horizon T and
    pulse-to-control scaling factor ``scale`` (sqrt(2) in the augmented
    design): the pulse arm at time t receives ``scale * c[t - 2]`` times
    the always-control count.  The read-only array's last entry is exactly
    1."""
    _check_horizon(T)
    if not scale > 0.0:
        raise ValueError(f"scale must be positive, got {scale}")
    c = np.empty(T - 1)
    c[T - 2] = 1.0
    tail = 0.0
    for t in range(T - 1, 1, -1):
        tail += c[t - 1]
        c[t - 2] = 1.0 / sqrt(1.0 / c[t - 1] ** 2 + 1.0 / (1.0 + scale * tail) ** 2)
    c.flags.writeable = False
    return c


def relaxed_augmented(N: float, T: int) -> RealAllocation:
    """Continuous minimax allocation when future pulses augment the
    controls.  Pulse counts now grow with t: later pulses serve as controls
    for more periods, so they earn more units."""
    _check_relax_args(N, T)
    root2 = sqrt(2.0)
    c = pulse_coefficients(T, root2)
    c2 = c[0]
    denom = 1.0 + (sqrt(T - 1.0) + root2) * c2 + root2 * fsum(c[1:])
    n0 = N * (1.0 / denom)
    ne = tuple(n0 * root2 * ci for ci in c)
    n1 = N - n0 * (1.0 + root2 * fsum(c))
    return RealAllocation(n0, n1, ne)


def relaxed_weighted(N: float, T: int, rho: float) -> RealAllocation:
    """Continuous minimax allocation for the weighted objective.

    The boundary cases drop an arm exactly: rho = 0 (instantaneous effects
    only) needs no always-treated units, rho = 1 (habituation only) needs
    no always-control units.
    """
    _check_relax_args(N, T)
    if not 0.0 <= rho <= 1.0:
        raise ValueError(f"rho must be in [0, 1], got {rho}")
    if rho == 1.0:
        # Limit of the general formulas: all coefficients tend to 1 and the
        # problem separates over the always-treated and pulse arms.
        root = sqrt(T - 1.0)
        n1 = N / (1.0 + root)
        ne = N / (root + (T - 1.0))
        return RealAllocation(0.0, n1, (ne,) * (T - 1))
    scale = 1.0 / sqrt(1.0 - rho)
    c = pulse_coefficients(T, scale)
    c2 = c[0]
    denom = 1.0 + scale * (1.0 + sqrt(rho * (T - 1.0))) * c2 + scale * fsum(c[1:])
    n0 = N * (1.0 / denom)
    ne = tuple(n0 * scale * ci for ci in c)
    if rho == 0.0:
        n1 = 0.0  # the always-treated term has weight zero
    else:
        n1 = N - n0 * (1.0 + scale * fsum(c))
    return RealAllocation(n0, n1, ne)


class SolverConvergenceError(RuntimeError):
    """Numerical allocation solve did not converge; ``best`` carries the
    best iterate found."""

    def __init__(self, message: str, best: RealAllocation):
        super().__init__(message)
        self.best = best


# The recycling relaxation's Newton loop: at most this many steps, and it
# stops once the KKT residual is at most the tolerance.
_RECYCLING_MAX_ITER = 200
_RECYCLING_TOL = 1e-12


def relaxed_recycling(N: float, T: int, k: int) -> RealAllocation:
    """Continuous minimax allocation when old pulses are recycled as
    controls after k periods.

    No closed form exists; the (convex) problem is solved on the unit
    simplex by Newton steps with an active set for counts that hit zero,
    then rescaled to N.  For small k the optimum sets the always-control
    count to exactly zero: pulse units already cover every period's
    control pool, so dedicated controls are dominated.
    """
    _check_relax_args(N, T)
    _check_carryover(k)
    mode = ObjectiveMode.recycling(k)
    w, m = _term_matrix(T, mode)
    n = T + 1
    start = relaxed_augmented(1.0, T)
    x = np.maximum(np.array(start.counts), 1e-6)
    x /= x.sum()
    pinned = np.zeros(n, dtype=bool)
    best_x, best_res = x.copy(), math.inf

    for _ in range(_RECYCLING_MAX_ITER):
        free = np.nonzero(~pinned)[0]
        g = _gradient_counts(x, T, mode)
        res = _kkt_residual(g, x, pinned)
        if res < best_res:
            best_x, best_res = x.copy(), res
        if res <= _RECYCLING_TOL:
            return _scaled_allocation(x, N)
        y = m @ x
        H = m.T @ (m * (2.0 * w / y**3)[:, None])
        nf = len(free)
        kkt = np.zeros((nf + 1, nf + 1))
        kkt[:nf, :nf] = H[np.ix_(free, free)]
        kkt[:nf, nf] = 1.0
        kkt[nf, :nf] = 1.0
        lam = -g[free].mean()
        rhs = np.concatenate([-(g[free] + lam), [1.0 - x.sum()]])
        try:
            step = np.linalg.solve(kkt, rhs)
        except np.linalg.LinAlgError:
            break
        dx = np.zeros(n)
        dx[free] = step[:nf]
        neg = dx < 0.0
        alpha = 1.0
        if neg.any():
            alpha = min(1.0, float(0.9 * np.min(-x[neg] / dx[neg])))
        # a collapsing step means this count belongs on its zero bound
        if alpha < 1e-3:
            shrink = np.nonzero(neg & ~pinned)[0]
            drop = shrink[np.argmin(-x[shrink] / dx[shrink])]
            pinned[drop] = True
            x[drop] = 0.0
            x[~pinned] /= x[~pinned].sum()
            continue
        x = x + alpha * dx

    g = _gradient_counts(best_x, T, mode)
    if _kkt_residual(g, best_x, best_x == 0.0) <= 1e-8:
        return _scaled_allocation(best_x, N)
    raise SolverConvergenceError(
        f"recycling relaxation did not converge for T={T}, k={k}",
        _scaled_allocation(best_x, N),
    )


def _kkt_residual(g: np.ndarray, x: np.ndarray, pinned: np.ndarray) -> float:
    free = g[~np.asarray(pinned, dtype=bool)]
    center = free.mean()
    viol = np.abs(free - center).max()
    for gi in g[np.asarray(pinned, dtype=bool)]:
        viol = max(viol, center - gi)
    scale = max(abs(center), np.abs(g).max(), 1e-300)
    return float(viol / scale + abs(x.sum() - 1.0))


def _scaled_allocation(x: np.ndarray, N: float) -> RealAllocation:
    counts = x * N
    return RealAllocation(counts[0], counts[1], tuple(counts[2:]))


def _check_relax_args(N: float, T: int) -> None:
    if not 0 < N < math.inf:
        raise ValueError(f"N must be positive and finite, got {N}")
    _check_horizon(T)


def _relaxed_for_mode(N: float, T: int, mode: ObjectiveMode) -> RealAllocation:
    if mode.kind == "basic":
        return relaxed_basic(N, T)
    if mode.kind == "augmented":
        return relaxed_augmented(N, T)
    if mode.kind == "weighted":
        return relaxed_weighted(N, T, mode.rho)
    return relaxed_recycling(N, T, mode.k)


# ---------------------------------------------------------------------------
# Integer solutions.
# ---------------------------------------------------------------------------


def balanced(N: int, T: int) -> Allocation:
    """Equal split across all T+1 arms; leftover units go one per arm in
    the fixed order always-control, always-treated, pulse 2, pulse 3, ..."""
    _check_integer_args(N, T)
    base, rem = divmod(N, T + 1)
    counts = [base] * (T + 1)
    for i in range(rem):
        counts[i] += 1
    return Allocation(counts[0], counts[1], tuple(counts[2:]))


def integer_solve(N: int, T: int, mode: ObjectiveMode) -> Allocation:
    """Exact integer minimizer of the selected objective.

    The solve runs over the arms the objective uses, those in some term's
    group; an arm no term holds gets no units.  It rounds the continuous
    relaxation to a feasible integer point (largest remainders, keeping at
    least one unit in every used arm), then applies steepest single-unit
    transfers until no move improves.  Among equal-objective optima
    reachable this way the lexicographically smallest count vector is
    returned.

    Each step screens the transfers at once, from the group sizes, and
    evaluates exactly, with the same terms and ``fsum`` as ``objective``,
    only those whose screened change lies within a proven error band of
    the target (see ``_near_transfers``).  Every transfer a full scan
    could pick is therefore among them.

    * Descent screens every (src, dst) pair against the smallest screened
      change and evaluates all kept pairs: a strictly lower value wins,
      ties go to the first (src, dst) in scan order.
    * The slide between ties screens only the pairs with ``src < dst``
      against a change of zero, orders the kept pairs by ``(src, -dst)``
      and evaluates them a block at a time, stopping at the first whose
      value equals the current one.  That is the lexicographically
      smallest equal-value neighbor, the move a full scan would take.

    The result is bit-identical to scanning all transfers of the T+1 arms
    with ``objective``.
    """
    _check_integer_args(N, T)
    if N > 10**12:  # beyond, float objectives go flat and the tie slide crawls
        raise ValueError(f"integer designs need N <= 10^12, got N={N}")
    w, m = _term_matrix(T, mode)
    used = m.any(axis=0)
    mt = np.ascontiguousarray(m[:, used].T)  # mt[arm, j]: arm is in term j's group
    relaxed = np.array(_relaxed_for_mode(float(N), T, mode).counts)
    counts = np.array(_round_preserving_sum(relaxed[used], N))
    y = counts.astype(float) @ mt  # group sizes, exact integers

    current = fsum((w / y).tolist())
    while True:
        src, dst = _near_transfers(counts, y, w, mt, current, slide=False)
        moves = _confirmed(y, w, mt, src, dst)
        s, d, value = min(moves, key=lambda move: move[2], default=(0, 0, current))
        if value >= current:
            break
        counts[s] -= 1
        counts[d] += 1
        y += mt[d] - mt[s]
        current = value

    # among equal-objective neighbors, slide toward the lexicographically
    # smallest count vector (deterministic tie-break).  A transfer lowers
    # the counts lexicographically exactly when src < dst; among those, the
    # smallest src, then the largest dst, gives the smallest result, so the
    # first tie in that order is the move.
    while True:
        src, dst = _near_transfers(counts, y, w, mt, current, slide=True)
        order = np.lexsort((-dst, src))
        moves = _confirmed(y, w, mt, src[order], dst[order])
        tie = next((move for move in moves if move[2] == current), None)
        if tie is None:
            break
        s, d, _ = tie
        counts[s] -= 1
        counts[d] += 1
        y += mt[d] - mt[s]

    full = np.zeros(T + 1, dtype=counts.dtype)
    full[used] = counts
    full = full.tolist()
    return Allocation(full[0], full[1], tuple(full[2:]))


_UNIT_ROUNDOFF = 2.0 ** -53
_CONFIRM_BLOCK = 64


def _near_transfers(counts, y, w, mt, current: float, slide: bool):
    """Single-unit transfers that may attain the target change: their
    source and destination arms, in (src, dst) scan order.  The descent's
    target is the smallest screened change over all transfers; the
    slide's is zero, over the transfers with ``src < dst`` alone (the only
    ones that lower the counts lexicographically).

    Screen: with group sizes y, a group that loses a unit raises its term
    by ``w/(y-1) - w/y = w/(y(y-1))`` and a group that gains one lowers it
    by ``w/(y(y+1))``; a group holding both arms is unchanged.  One matrix
    thus holds the change of every (src, dst) pair,
    ``delta = loss_arm[src] - gain_arm[dst] - both[src, dst]``, where each
    ``_arm`` sum runs over the groups holding that arm and ``both`` sums
    ``loss - gain`` over the groups holding the two.  All summands are
    nonnegative and ``both[src, dst] <= loss_arm[src]``, so they add up to
    at most ``2 (loss_arm[src] + gain_arm[dst])``, and in any summation
    order delta is off by less than ``J + 4`` unit roundoffs of that, for J
    terms; ``err`` allows twice as much.

    Band: keep the pairs whose delta is within ``band`` of the target.  An
    exact value (see ``_confirmed``), like ``current``, is within two
    roundoffs of the real objective, so a pair whose exact value is the
    smallest, or equals ``current``, has a delta within ``2 err`` plus four
    roundoffs of ``current + |target| + err`` of the target; ``band``
    allows eight.
    """
    can_give = counts > 1  # every arm keeps at least one unit
    allowed = can_give[:, None] & ~np.eye(len(counts), dtype=bool)
    if slide:
        allowed = np.triu(allowed, 1)
    if not allowed.any():
        return np.empty(0, dtype=np.intp), np.empty(0, dtype=np.intp)
    # a group of one unit holds only arms that cannot give a unit
    loss = w / (y * np.maximum(y - 1.0, 1.0))
    gain = w / (y * (y + 1.0))
    loss_arm, gain_arm = mt @ loss, mt @ gain
    delta = loss_arm[:, None] - gain_arm[None, :] - (mt * (loss - gain)) @ mt.T
    err = (4 * len(w) + 16) * _UNIT_ROUNDOFF * (loss_arm[can_give].max() + gain_arm.max())
    target = 0.0 if slide else float(delta[allowed].min())
    band = 2.0 * err + 8.0 * _UNIT_ROUNDOFF * (current + abs(target) + err)
    return np.nonzero(allowed & (delta <= target + band))


def _confirmed(y, w, mt, src: np.ndarray, dst: np.ndarray):
    """Yield ``(src, dst, value)`` for each transfer, in the given order,
    with its exact objective value.  The transfer moves the group sizes to
    ``y + mt[dst] - mt[src]``, sums of integers and hence exact, so its
    terms are the very floats that ``objective`` sums with ``fsum``.
    Transfers are evaluated ``_CONFIRM_BLOCK`` at a time, so the arrays
    stay small when many pairs tie, and a caller that stops early has
    evaluated no block past the one it stopped in."""
    for lo in range(0, len(src), _CONFIRM_BLOCK):
        s, d = src[lo:lo + _CONFIRM_BLOCK], dst[lo:lo + _CONFIRM_BLOCK]
        yield from zip(s.tolist(), d.tolist(), _fsum_rows(w / (y + mt[d] - mt[s])))


def _fsum_rows(terms: np.ndarray) -> list[float]:
    """``fsum`` of every row, sorting the rows in place.  ``fsum`` is
    correctly rounded, so its result depends only on the multiset of
    terms, and rows whose sorted terms agree share one sum."""
    terms.sort(axis=1)
    sums: dict[bytes, float] = {}
    values = []
    for row in terms:
        key = row.tobytes()
        if key not in sums:
            sums[key] = fsum(row.tolist())
        values.append(sums[key])
    return values


def _round_preserving_sum(x: np.ndarray, N: int) -> list[int]:
    """Largest-remainder rounding of ``x`` to integers that sum to ``N``,
    each at least 1."""
    counts = [max(1, int(v)) for v in np.floor(x)]
    frac = x - np.floor(x)
    order_desc = sorted(range(len(x)), key=lambda i: (-frac[i], i))
    deficit = N - sum(counts)
    while deficit > 0:
        for i in order_desc:
            if deficit == 0:
                break
            counts[i] += 1
            deficit -= 1
    while deficit < 0:
        for i in reversed(order_desc):
            if deficit == 0:
                break
            if counts[i] > 1:
                counts[i] -= 1
                deficit += 1
    return counts


@lru_cache(maxsize=None)
def _compositions(total: int, parts: int) -> np.ndarray:
    """All compositions of ``total`` into ``parts`` positive integers, one
    per row, in lexicographic order."""
    cuts = np.array(
        list(itertools.combinations(range(1, total), parts - 1)), dtype=np.int64
    )
    cols = [cuts[:, 0]]
    for j in range(1, parts - 1):
        cols.append(cuts[:, j] - cuts[:, j - 1])
    cols.append(total - cuts[:, -1])
    arr = np.column_stack(cols)
    arr.flags.writeable = False
    return arr


def brute_force_opt(N: int, T: int, mode: ObjectiveMode) -> Allocation:
    """Exhaustive global optimum over every feasible integer allocation;
    ties broken toward the lexicographically smallest count vector.  Only
    for instances small enough to enumerate (N <= 60, T <= 5)."""
    if N > 60 or T > 5:
        raise ValueError(f"instance N={N}, T={T} too large to enumerate")
    _check_integer_args(N, T)
    w, m = _term_matrix(T, mode)
    used = m.any(axis=0)
    comps = _compositions(N, int(used.sum()))
    full = np.zeros((len(comps), T + 1), dtype=comps.dtype)
    full[:, used] = comps
    values = (w / (full @ m.T)).sum(axis=1)
    vmin = values.min()
    # re-evaluate near-minimal rows with the scalar objective, whose exact
    # rounding is what integer_solve reports
    band = vmin + 1e-12 * abs(vmin) + 1e-300
    best_val, best_counts = math.inf, None
    for idx in np.nonzero(values <= band)[0]:
        counts = tuple(int(v) for v in full[idx])
        val = _objective_counts(counts, T, mode)
        if val < best_val:
            best_val, best_counts = val, counts
    return Allocation(best_counts[0], best_counts[1], best_counts[2:])


def _check_integer_args(N: int, T: int) -> None:
    _check_horizon(T)
    if N < T + 1:
        raise ValueError(f"need at least one unit per arm: N={N} < T+1={T + 1}")
