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

``basic``, ``augmented`` and ``weighted`` have closed-form continuous
relaxations; ``recycling`` is solved numerically.  ``integer_solve`` turns
any relaxation into an exact integer optimum via rounding plus single-unit
transfer descent, certified against ``brute_force_opt`` at small sizes.

Each descent step screens all (T+1)^2 transfers in one vectorised pass:
from the group sizes, one matrix holds the approximate objective change
of every (src, dst) pair.  Only the pairs whose screened change lies
within a proven bound on the rounding error of the best one are then
evaluated exactly, with the same terms and ``fsum`` as ``objective``.
Since the band contains every pair a full scan could pick, and the full
scan's comparison rules then run on exact values, the result is
bit-identical to scanning every transfer with ``objective``.
"""

from __future__ import annotations

import itertools
import math
from dataclasses import dataclass
from functools import lru_cache
from math import fsum, sqrt

import numpy as np

from .core import Allocation, RealAllocation

__all__ = [
    "ObjectiveMode",
    "PulseCoefficients",
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


def _controls_group(T: int, t: int, k: int | None) -> tuple[int, ...]:
    """Arm indices whose units are usable as controls at time t."""
    group = [0] + [tp for tp in range(t + 1, T + 1)]
    if k is not None:
        group += [tp for tp in range(2, min(t - k, T) + 1)]
    return tuple(sorted(group))


@lru_cache(maxsize=None)
def _terms(T: int, mode: ObjectiveMode) -> tuple[tuple[float, tuple[int, ...]], ...]:
    if T < 2:
        raise ValueError(f"horizon T must be >= 2, got {T}")
    pulses = range(2, T + 1)
    if mode.kind == "basic":
        terms = [(float(T - 1), (1,)), (float(T - 1), (0,))]
        terms += [(2.0, (t,)) for t in pulses]
    elif mode.kind == "augmented":
        terms = [(float(T - 1), (1,))]
        terms += [(2.0, (t,)) for t in pulses]
        terms += [(1.0, _controls_group(T, t, None)) for t in pulses]
    elif mode.kind == "weighted":
        rho = mode.rho
        terms = []
        if rho > 0.0:
            terms.append((rho * (T - 1), (1,)))
        terms += [(1.0, (t,)) for t in pulses]
        if rho < 1.0:
            terms += [(1.0 - rho, _controls_group(T, t, None)) for t in pulses]
    else:  # recycling
        terms = [(float(T - 1), (1,))]
        terms += [(2.0, (t,)) for t in pulses]
        terms += [(1.0, _controls_group(T, t, mode.k)) for t in pulses]
    return tuple(terms)


def _excluded_arm(mode: ObjectiveMode) -> int | None:
    """Arm index pinned to zero because the objective never uses it."""
    if mode.kind == "weighted":
        if mode.rho == 0.0:
            return 1
        if mode.rho == 1.0:
            return 0
    return None


@lru_cache(maxsize=None)
def _term_matrix(T: int, mode: ObjectiveMode) -> tuple[np.ndarray, np.ndarray]:
    """(weights, membership) with membership[j, i] = 1 iff arm i belongs to
    term j's count group; lets one matmul evaluate all group sizes."""
    terms = _terms(T, mode)
    w = np.array([t[0] for t in terms])
    m = np.zeros((len(terms), T + 1))
    for j, (_, group) in enumerate(terms):
        m[j, list(group)] = 1.0
    w.flags.writeable = False
    m.flags.writeable = False
    return w, m


def _objective_counts(counts, T: int, mode: ObjectiveMode) -> float:
    w, m = _term_matrix(T, mode)
    y = m @ np.asarray(counts, dtype=float)
    if y.min() <= 0.0:
        j = int(y.argmin())
        raise ValueError(
            f"objective needs positive units in arm group {_terms(T, mode)[j][1]}"
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
    """Relative violation of the first-order conditions at an allocation.

    At an optimum of 'minimize objective subject to fixed total and
    nonnegative counts', all partial derivatives over arms holding units
    are equal (to minus the multiplier of the sum constraint), and any arm
    at zero must have a derivative at least that large (adding units there
    cannot help).  Arms the mode drops from the objective are skipped.
    Returns the largest violation of either condition, relative to the
    common derivative value.
    """
    g = _gradient_counts(alloc.counts, T, mode)
    counts = alloc.counts
    excl = _excluded_arm(mode)
    free = [i for i in range(T + 1) if i != excl and counts[i] > 0.0]
    pinned = [i for i in range(T + 1) if i != excl and counts[i] == 0.0]
    gi = g[free]
    center = gi.mean()
    if center == 0.0:
        return float(np.abs(gi).max())
    res = np.abs(gi - center).max()
    for i in pinned:
        res = max(res, center - g[i])  # needs g[i] >= center
    return float(res / abs(center))


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


@dataclass(frozen=True)
class PulseCoefficients:
    """Backward-recursive coefficients linking pulse counts to the control
    count in the augmented and weighted relaxations: the pulse arm at time
    t receives ``scale * values[t - 2]`` times the always-control count.

    ``values[i]`` is the coefficient for time t = i + 2; the final
    coefficient is exactly 1.
    """

    values: np.ndarray
    scale: float

    def __post_init__(self) -> None:
        v = np.asarray(self.values, dtype=float)
        v.flags.writeable = False
        object.__setattr__(self, "values", v)

    @property
    def T(self) -> int:
        return len(self.values) + 1

    def at(self, t: int) -> float:
        if not 2 <= t <= self.T:
            raise ValueError(f"time index {t} outside 2..{self.T}")
        return float(self.values[t - 2])

    def residuals(self) -> np.ndarray:
        """Relative error of each coefficient against its defining
        recursion (last entry: against the boundary value 1)."""
        T, c = self.T, self.values
        res = np.empty(T - 1)
        res[T - 2] = abs(c[T - 2] - 1.0)
        tail = 0.0  # sum of coefficients after t
        for t in range(T - 1, 1, -1):
            tail += c[t - 1]
            rhs = 1.0 / sqrt(1.0 / c[t - 1] ** 2 + 1.0 / (1.0 + self.scale * tail) ** 2)
            res[t - 2] = abs(c[t - 2] - rhs) / rhs
        return res


def pulse_coefficients(T: int, scale: float) -> PulseCoefficients:
    """Compute the coefficient sequence for horizon T and pulse-to-control
    scaling factor ``scale`` (sqrt(2) in the augmented design)."""
    if T < 2:
        raise ValueError(f"horizon T must be >= 2, got {T}")
    if not scale > 0.0:
        raise ValueError(f"scale must be positive, got {scale}")
    c = np.empty(T - 1)
    c[T - 2] = 1.0
    tail = 0.0
    for t in range(T - 1, 1, -1):
        tail += c[t - 1]
        c[t - 2] = 1.0 / sqrt(1.0 / c[t - 1] ** 2 + 1.0 / (1.0 + scale * tail) ** 2)
    return PulseCoefficients(c, scale)


def relaxed_augmented(N: float, T: int) -> RealAllocation:
    """Continuous minimax allocation when future pulses augment the
    controls.  Pulse counts now grow with t: later pulses serve as controls
    for more periods, so they earn more units."""
    _check_relax_args(N, T)
    root2 = sqrt(2.0)
    c = pulse_coefficients(T, root2).values
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
    c = pulse_coefficients(T, scale).values
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


def relaxed_recycling(N: float, T: int, k: int,
                      max_iter: int = 200, tol: float = 1e-12) -> RealAllocation:
    """Continuous minimax allocation when old pulses are recycled as
    controls after k periods.

    No closed form exists; the (convex) problem is solved on the unit
    simplex by Newton steps with an active set for counts that hit zero,
    then rescaled to N.  For small k the optimum sets the always-control
    count to exactly zero: pulse units already cover every period's
    control pool, so dedicated controls are dominated.
    """
    _check_relax_args(N, T)
    if k < 1:
        raise ValueError(f"carryover order k must be >= 1, got {k}")
    mode = ObjectiveMode.recycling(k)
    w, m = _term_matrix(T, mode)
    n = T + 1
    start = relaxed_augmented(1.0, T)
    x = np.maximum(np.array(start.counts), 1e-6)
    x /= x.sum()
    pinned = np.zeros(n, dtype=bool)
    best_x, best_res = x.copy(), math.inf

    for _ in range(max_iter):
        free = np.nonzero(~pinned)[0]
        g = _gradient_counts(x, T, mode)
        res = _kkt_residual(g, x, pinned)
        if res < best_res:
            best_x, best_res = x.copy(), res
        if res <= tol:
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
    if not N > 0:
        raise ValueError(f"N must be positive, got {N}")
    if T < 2:
        raise ValueError(f"horizon T must be >= 2, got {T}")


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

    Rounds the continuous relaxation to a feasible integer point (largest
    remainders, keeping at least one unit in every arm the objective uses),
    then applies steepest single-unit transfers until no move improves.
    Among equal-objective optima reachable this way the lexicographically
    smallest count vector is returned.

    Each step screens every (src, dst) transfer at once, from the group
    sizes, and evaluates exactly, with the same terms and ``fsum`` as
    ``objective``, only those whose screened change lies within a proven
    error band of the target: the smallest screened change while
    descending, zero while sliding between ties (see ``_near_transfers``).
    Every transfer a full scan could pick is therefore evaluated, and the
    full scan's rules apply unchanged to the evaluated ones: a strictly
    lower value wins, ties go to the first (src, dst) in scan order, and
    the slide takes the lexicographically smallest equal-value neighbor.
    The result is bit-identical to scanning all transfers with
    ``objective``.
    """
    _check_integer_args(N, T)
    excl = _excluded_arm(mode)
    mins = [1] * (T + 1)
    movable = np.ones(T + 1, dtype=bool)
    if excl is not None:
        mins[excl] = 0
        movable[excl] = False
    relaxed = _relaxed_for_mode(float(N), T, mode)
    counts = np.array(_round_preserving_sum(np.array(relaxed.counts), N, mins, excl))

    current = _objective_counts(counts, T, mode)
    while True:
        src, dst, values = _near_transfers(counts, movable, T, mode, current, None)
        if not values or min(values) >= current:
            break
        best = values.index(min(values))
        counts[src[best]] -= 1
        counts[dst[best]] += 1
        current = values[best]

    # among equal-objective neighbors, slide toward the lexicographically
    # smallest count vector (deterministic tie-break).  A transfer lowers
    # the counts lexicographically exactly when src < dst; among those, the
    # smallest src, then the largest dst, gives the smallest result.
    while True:
        src, dst, values = _near_transfers(counts, movable, T, mode, current, 0.0)
        downhill = [(s, d) for s, d, v in zip(src, dst, values) if v == current and s < d]
        if not downhill:
            break
        s, d = min(downhill, key=lambda move: (move[0], -move[1]))
        counts[s] -= 1
        counts[d] += 1

    counts = counts.tolist()
    return Allocation(counts[0], counts[1], tuple(counts[2:]))


_UNIT_ROUNDOFF = 2.0 ** -53
_CONFIRM_BLOCK = 64


def _near_transfers(counts, movable, T: int, mode: ObjectiveMode,
                    current: float, target: float | None):
    """Single-unit transfers that may attain ``target``: their source and
    destination arms, in (src, dst) scan order, and the exact objective
    value after each one.

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

    Confirm: keep the pairs whose delta is within ``band`` of ``target``
    (the smallest delta when None) and evaluate them exactly.  An exact
    value, like ``current``, is within two roundoffs of the real objective,
    so a pair whose exact value is the smallest, or equals ``current``, has
    a delta within ``2 err`` plus four roundoffs of
    ``current + |target| + err`` of the target; ``band`` allows eight.
    """
    can_give = movable & (counts > 1)  # movable arms keep at least one unit
    allowed = can_give[:, None] & movable[None, :]
    np.fill_diagonal(allowed, False)
    if not allowed.any():
        return [], [], []
    w, m = _term_matrix(T, mode)
    y = m @ counts.astype(float)
    # a group of one unit holds only arms that cannot give a unit
    loss = w / (y * np.maximum(y - 1.0, 1.0))
    gain = w / (y * (y + 1.0))
    loss_arm, gain_arm = m.T @ loss, m.T @ gain
    delta = loss_arm[:, None] - gain_arm[None, :] - (m.T * (loss - gain)) @ m
    err = (4 * len(w) + 16) * _UNIT_ROUNDOFF * (loss_arm[can_give].max() + gain_arm.max())
    if target is None:
        target = float(delta[allowed].min())
    band = 2.0 * err + 8.0 * _UNIT_ROUNDOFF * (current + abs(target) + err)
    src, dst = np.nonzero(allowed & (delta <= target + band))
    unit = np.eye(T + 1, dtype=counts.dtype)
    values = []
    # confirm in blocks, so the arrays stay small when many pairs tie
    for lo in range(0, len(src), _CONFIRM_BLOCK):
        block = slice(lo, lo + _CONFIRM_BLOCK)
        rows = counts + unit[dst[block]] - unit[src[block]]
        values += _fsum_rows(_row_terms(rows, T, mode))
    return src.tolist(), dst.tolist(), values


def _row_terms(rows: np.ndarray, T: int, mode: ObjectiveMode) -> np.ndarray:
    """Objective terms ``w / group size`` of every row of counts.  Group
    sizes are sums of integers, hence exact, so each row holds the very
    floats that ``_objective_counts`` sums."""
    w, m = _term_matrix(T, mode)
    return w / (rows @ m.T)


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


def _round_preserving_sum(x: np.ndarray, N: int, mins, excl) -> list[int]:
    counts = [max(m, int(v)) for v, m in zip(np.floor(x), mins)]
    if excl is not None:
        counts[excl] = 0
    frac = x - np.floor(x)
    order_desc = sorted(range(len(x)), key=lambda i: (-frac[i], i))
    deficit = N - sum(counts)
    while deficit > 0:
        for i in order_desc:
            if deficit == 0:
                break
            if i != excl:
                counts[i] += 1
                deficit -= 1
    while deficit < 0:
        for i in reversed(order_desc):
            if deficit == 0:
                break
            if i != excl and counts[i] > mins[i]:
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
    excl = _excluded_arm(mode)
    parts = T + 1 if excl is None else T
    comps = _compositions(N, parts)
    if excl is not None:
        full = np.insert(comps, excl, 0, axis=1)
    else:
        full = comps
    values = _row_terms(full, T, mode).sum(axis=1)
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
    if T < 2:
        raise ValueError(f"horizon T must be >= 2, got {T}")
    if N < T + 1:
        raise ValueError(f"need at least one unit per arm: N={N} < T+1={T + 1}")
