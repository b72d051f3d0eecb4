"""Tests for relaxed and integer allocation solvers."""

from math import sqrt

import numpy as np
import pytest

from tminimax.allocation import (
    ObjectiveMode,
    SolverConvergenceError,
    _excluded_arm,
    _objective_counts,
    _relaxed_for_mode,
    _round_preserving_sum,
    balanced,
    brute_force_opt,
    integer_solve,
    objective,
    pulse_coefficients,
    relaxed_augmented,
    relaxed_basic,
    relaxed_recycling,
    relaxed_weighted,
    stationarity_residual,
)
from tminimax.core import Allocation

ALL_MODES = [
    ObjectiveMode.basic(),
    ObjectiveMode.augmented(),
    ObjectiveMode.weighted(0.0),
    ObjectiveMode.weighted(0.3),
    ObjectiveMode.weighted(0.5),
    ObjectiveMode.weighted(0.8),
    ObjectiveMode.weighted(1.0),
    ObjectiveMode.recycling(1),
    ObjectiveMode.recycling(2),
]


def _naive_integer_solve(N, T, mode):
    """Reference for integer_solve: the same rounding start, then steepest
    descent and the lexicographic tie-break slide, each scanning every
    single-unit transfer with the scalar objective."""
    excl = _excluded_arm(mode)
    mins = [0 if i == excl else 1 for i in range(T + 1)]
    relaxed = _relaxed_for_mode(float(N), T, mode)
    counts = _round_preserving_sum(np.array(relaxed.counts), N, mins, excl)
    movable = [i for i in range(T + 1) if i != excl]

    def moves():
        for src in movable:
            if counts[src] <= mins[src]:
                continue
            for dst in movable:
                if dst != src:
                    moved = list(counts)
                    moved[src] -= 1
                    moved[dst] += 1
                    yield moved, _objective_counts(moved, T, mode)

    current = _objective_counts(counts, T, mode)
    while True:
        best_val, best = current, None
        for moved, val in moves():
            if val < best_val:
                best_val, best = val, moved
        if best is None:
            break
        counts, current = best, best_val
    while True:
        best = counts
        for moved, val in moves():
            if val == current and moved < best:
                best = moved
        if best is counts:
            break
        counts = best
    return tuple(counts)


# integer_solve counts for the instances of the benchmark's design workload,
# recorded from the full single-transfer scan
DESIGN_GOLDEN = [
    (ObjectiveMode.basic(), 30, 5000, (
        520, 520, 136, 136, 136, 136, 136, 136, 136, 136, 136, 136, 136, 136, 136, 137, 137,
        137, 137, 137, 137, 137, 137, 137, 137, 137, 137, 137, 137, 137, 137
    )),
    (ObjectiveMode.basic(), 30, 20000, (
        2081, 2081, 546, 546, 546, 546, 546, 546, 546, 546, 546, 546, 546, 546, 546, 546, 546,
        546, 546, 546, 546, 546, 546, 546, 546, 546, 546, 547, 547, 547, 547
    )),
    (ObjectiveMode.basic(), 30, 35000, (
        3638, 3638, 956, 956, 956, 956, 956, 956, 956, 956, 956, 956, 956, 956, 956, 956, 956,
        956, 956, 956, 956, 956, 956, 956, 956, 956, 956, 956, 956, 956, 956
    )),
    (ObjectiveMode.basic(), 30, 50000, (
        5200, 5200, 1365, 1365, 1365, 1365, 1365, 1365, 1365, 1365, 1365, 1365, 1365, 1365,
        1365, 1365, 1366, 1366, 1366, 1366, 1366, 1366, 1366, 1366, 1366, 1366, 1366, 1366,
        1366, 1366, 1366
    )),
    (ObjectiveMode.basic(), 50, 5000, (
        418, 418, 84, 85, 85, 85, 85, 85, 85, 85, 85, 85, 85, 85, 85, 85, 85, 85, 85, 85, 85,
        85, 85, 85, 85, 85, 85, 85, 85, 85, 85, 85, 85, 85, 85, 85, 85, 85, 85, 85, 85, 85, 85,
        85, 85, 85, 85, 85, 85, 85, 85
    )),
    (ObjectiveMode.basic(), 50, 20000, (
        1680, 1680, 339, 339, 339, 339, 339, 339, 339, 339, 339, 339, 339, 339, 339, 339, 339,
        339, 339, 339, 339, 339, 340, 340, 340, 340, 340, 340, 340, 340, 340, 340, 340, 340,
        340, 340, 340, 340, 340, 340, 340, 340, 340, 340, 340, 340, 340, 340, 340, 340, 340
    )),
    (ObjectiveMode.basic(), 50, 35000, (
        2943, 2943, 594, 594, 594, 594, 594, 594, 594, 594, 594, 594, 594, 594, 594, 594, 594,
        594, 594, 594, 594, 594, 594, 594, 594, 594, 594, 594, 594, 594, 594, 594, 594, 594,
        594, 594, 594, 594, 594, 594, 594, 594, 594, 595, 595, 595, 595, 595, 595, 595, 595
    )),
    (ObjectiveMode.basic(), 50, 50000, (
        4200, 4200, 848, 849, 849, 849, 849, 849, 849, 849, 849, 849, 849, 849, 849, 849, 849,
        849, 849, 849, 849, 849, 849, 849, 849, 849, 849, 849, 849, 849, 849, 849, 849, 849,
        849, 849, 849, 849, 849, 849, 849, 849, 849, 849, 849, 849, 849, 849, 849, 849, 849
    )),
    (ObjectiveMode.augmented(), 30, 5000, (
        122, 556, 146, 146, 146, 146, 146, 146, 146, 146, 146, 146, 147, 147, 147, 147, 147,
        147, 147, 148, 148, 148, 148, 149, 150, 150, 151, 153, 155, 160, 173
    )),
    (ObjectiveMode.augmented(), 30, 20000, (
        489, 2222, 584, 584, 584, 584, 584, 585, 585, 585, 585, 586, 586, 586, 587, 587, 588,
        589, 589, 590, 591, 592, 594, 596, 598, 601, 605, 611, 621, 640, 692
    )),
    (ObjectiveMode.augmented(), 30, 35000, (
        857, 3889, 1021, 1022, 1022, 1022, 1023, 1023, 1024, 1024, 1025, 1025, 1026, 1026, 1027,
        1028, 1029, 1030, 1031, 1033, 1035, 1037, 1039, 1042, 1046, 1051, 1058, 1069, 1086,
        1119, 1211
    )),
    (ObjectiveMode.augmented(), 30, 50000, (
        1224, 5556, 1459, 1460, 1460, 1460, 1461, 1462, 1462, 1463, 1464, 1464, 1465, 1466,
        1467, 1469, 1470, 1472, 1473, 1475, 1478, 1481, 1484, 1489, 1494, 1502, 1512, 1527,
        1552, 1599, 1730
    )),
    (ObjectiveMode.augmented(), 50, 5000, (
        76, 446, 90, 90, 90, 90, 90, 90, 90, 90, 90, 90, 90, 90, 90, 90, 90, 90, 90, 90, 90, 90,
        90, 90, 90, 90, 90, 91, 91, 91, 91, 91, 91, 91, 91, 91, 91, 91, 91, 91, 92, 92, 92, 92,
        93, 93, 94, 95, 96, 99, 107
    )),
    (ObjectiveMode.augmented(), 50, 20000, (
        303, 1783, 360, 360, 360, 360, 360, 360, 360, 360, 360, 361, 361, 361, 361, 361, 361,
        361, 361, 361, 361, 361, 361, 361, 362, 362, 362, 362, 362, 362, 362, 363, 363, 363,
        363, 364, 364, 364, 365, 365, 366, 367, 368, 369, 370, 372, 374, 378, 384, 396, 429
    )),
    (ObjectiveMode.augmented(), 50, 35000, (
        530, 3120, 630, 630, 630, 630, 631, 631, 631, 631, 631, 631, 631, 631, 631, 631, 631,
        632, 632, 632, 632, 632, 632, 633, 633, 633, 633, 633, 634, 634, 634, 635, 635, 635,
        636, 636, 637, 638, 638, 639, 640, 642, 643, 645, 648, 651, 655, 662, 672, 693, 750
    )),
    (ObjectiveMode.augmented(), 50, 50000, (
        758, 4456, 900, 900, 900, 901, 901, 901, 901, 901, 901, 901, 901, 902, 902, 902, 902,
        902, 902, 903, 903, 903, 903, 904, 904, 904, 904, 905, 905, 906, 906, 907, 907, 908,
        908, 909, 910, 911, 912, 913, 915, 917, 919, 922, 925, 930, 936, 945, 961, 990, 1071
    )),
    (ObjectiveMode.weighted(0.3), 30, 5000, (
        153, 436, 148, 148, 148, 148, 148, 148, 148, 149, 149, 149, 149, 149, 149, 149, 149,
        150, 150, 150, 151, 151, 151, 152, 153, 154, 155, 157, 160, 166, 183
    )),
    (ObjectiveMode.weighted(0.3), 30, 20000, (
        612, 1745, 592, 592, 592, 592, 593, 593, 593, 594, 594, 595, 595, 596, 596, 597, 598,
        599, 600, 601, 602, 604, 606, 608, 611, 615, 620, 628, 641, 665, 731
    )),
    (ObjectiveMode.weighted(0.3), 30, 35000, (
        1070, 3055, 1036, 1036, 1036, 1037, 1037, 1038, 1039, 1039, 1040, 1041, 1042, 1042,
        1044, 1045, 1046, 1048, 1049, 1051, 1054, 1056, 1060, 1064, 1069, 1076, 1086, 1099,
        1122, 1164, 1279
    )),
    (ObjectiveMode.weighted(0.3), 30, 50000, (
        1529, 4364, 1479, 1480, 1481, 1481, 1482, 1483, 1484, 1485, 1486, 1487, 1488, 1489,
        1491, 1492, 1494, 1497, 1499, 1502, 1505, 1509, 1514, 1520, 1527, 1537, 1551, 1571,
        1603, 1663, 1827
    )),
    (ObjectiveMode.weighted(0.3), 50, 5000, (
        95, 350, 91, 91, 91, 91, 91, 91, 91, 91, 91, 91, 91, 91, 91, 91, 91, 91, 91, 92, 92, 92,
        92, 92, 92, 92, 92, 92, 92, 92, 92, 92, 92, 92, 92, 92, 93, 93, 93, 93, 93, 93, 94, 94,
        95, 95, 96, 97, 99, 103, 113
    )),
    (ObjectiveMode.weighted(0.3), 50, 20000, (
        378, 1398, 365, 365, 365, 365, 365, 365, 365, 365, 365, 365, 365, 365, 365, 365, 366,
        366, 366, 366, 366, 366, 366, 366, 366, 367, 367, 367, 367, 367, 368, 368, 368, 369,
        369, 369, 370, 370, 371, 372, 373, 374, 375, 376, 378, 381, 384, 389, 397, 412, 452
    )),
    (ObjectiveMode.weighted(0.3), 50, 35000, (
        662, 2446, 638, 638, 638, 638, 638, 639, 639, 639, 639, 639, 639, 639, 639, 640, 640,
        640, 640, 640, 641, 641, 641, 641, 641, 642, 642, 642, 643, 643, 644, 644, 645, 645,
        646, 647, 647, 648, 649, 651, 652, 654, 656, 658, 662, 666, 672, 681, 694, 720, 792
    )),
    (ObjectiveMode.weighted(0.3), 50, 50000, (
        946, 3495, 911, 912, 912, 912, 912, 912, 912, 912, 913, 913, 913, 913, 913, 914, 914,
        914, 914, 915, 915, 915, 916, 916, 916, 917, 917, 918, 918, 919, 919, 920, 921, 922,
        923, 924, 925, 926, 928, 929, 932, 934, 937, 941, 945, 951, 960, 972, 992, 1029, 1131
    )),
    (ObjectiveMode.recycling(2), 30, 5000, (
        1, 575, 153, 152, 153, 152, 153, 152, 153, 152, 153, 152, 153, 152, 153, 152, 153, 152,
        153, 152, 153, 152, 153, 152, 153, 152, 153, 152, 153, 153, 153
    )),
    (ObjectiveMode.recycling(2), 30, 20000, (
        1, 2304, 611, 610, 610, 610, 610, 610, 610, 610, 610, 610, 610, 610, 610, 610, 610, 610,
        610, 610, 610, 610, 610, 610, 611, 610, 611, 610, 611, 610, 611
    )),
    (ObjectiveMode.recycling(2), 30, 35000, (
        1, 4028, 1068, 1067, 1068, 1068, 1068, 1068, 1068, 1068, 1068, 1068, 1068, 1068, 1068,
        1068, 1068, 1068, 1068, 1068, 1068, 1068, 1068, 1068, 1068, 1068, 1068, 1068, 1068,
        1068, 1068
    )),
    (ObjectiveMode.recycling(2), 30, 50000, (
        1, 5756, 1526, 1525, 1526, 1525, 1526, 1525, 1526, 1525, 1526, 1525, 1526, 1525, 1526,
        1525, 1526, 1525, 1526, 1525, 1526, 1525, 1526, 1525, 1526, 1526, 1526, 1526, 1526,
        1526, 1526
    )),
    (ObjectiveMode.recycling(2), 50, 5000, (
        1, 455, 93, 92, 93, 92, 93, 92, 93, 92, 93, 92, 93, 92, 93, 92, 93, 92, 93, 92, 93, 92,
        93, 92, 93, 92, 93, 92, 93, 93, 93, 93, 93, 93, 93, 93, 93, 93, 93, 93, 93, 93, 93, 93,
        93, 93, 93, 93, 93, 93, 93
    )),
    (ObjectiveMode.recycling(2), 50, 20000, (
        1, 1824, 371, 370, 371, 370, 371, 370, 371, 370, 371, 371, 371, 371, 371, 371, 371, 371,
        371, 371, 371, 371, 371, 371, 371, 371, 371, 371, 371, 371, 371, 371, 371, 371, 371,
        371, 371, 371, 371, 371, 371, 371, 371, 371, 371, 371, 371, 371, 371, 371, 371
    )),
    (ObjectiveMode.recycling(2), 50, 35000, (
        1, 3198, 649, 649, 649, 649, 649, 649, 649, 649, 649, 649, 649, 649, 649, 649, 649, 649,
        649, 649, 649, 649, 649, 649, 649, 649, 649, 649, 649, 649, 649, 649, 649, 649, 649,
        649, 649, 649, 649, 649, 649, 649, 649, 649, 649, 649, 649, 649, 649, 649, 649
    )),
    (ObjectiveMode.recycling(2), 50, 50000, (
        1, 4567, 928, 927, 927, 927, 927, 927, 927, 927, 927, 927, 927, 927, 927, 927, 927, 927,
        927, 927, 927, 927, 927, 927, 927, 927, 927, 927, 927, 927, 927, 927, 927, 927, 927,
        927, 928, 927, 928, 927, 928, 927, 928, 927, 928, 927, 928, 927, 928, 927, 928
    )),
]


class TestRelaxedBasic:
    def test_reference_case(self):
        alloc = relaxed_basic(10000, 30)
        assert alloc.n0 == alloc.n1 == pytest.approx(10000 / (2 + sqrt(58)), rel=1e-15)
        assert abs(alloc.n0 - 1040) < 0.5
        assert all(abs(v - 273) < 0.5 for v in alloc.ne)

    def test_small_case_formula(self):
        alloc = relaxed_basic(4, 2)
        assert alloc.n0 == pytest.approx(4 / (2 + sqrt(2)), rel=1e-15)
        assert alloc.ne[0] == pytest.approx(sqrt(2) * 4 / (2 + sqrt(2)), rel=1e-15)
        assert alloc.N == pytest.approx(4, abs=1e-12)

    @pytest.mark.parametrize("N,T", [(10, 2), (123.5, 7), (10000, 50)])
    def test_sum_and_symmetry(self, N, T):
        alloc = relaxed_basic(N, T)
        assert alloc.N == pytest.approx(N, rel=1e-12)
        assert alloc.n0 == alloc.n1
        assert len(set(alloc.ne)) == 1

    def test_scaling_in_n_is_exact_for_powers_of_two(self):
        makers = [
            lambda n: relaxed_basic(n, 6),
            lambda n: relaxed_augmented(n, 6),
            lambda n: relaxed_weighted(n, 6, 0.3),
            lambda n: relaxed_recycling(n, 6, 2),
        ]
        for make in makers:
            a1, a2 = make(37.0), make(74.0)
            assert all(2 * x == y for x, y in zip(a1.counts, a2.counts))

    def test_bad_args(self):
        with pytest.raises(ValueError):
            relaxed_basic(0, 3)
        with pytest.raises(ValueError):
            relaxed_basic(10, 1)


class TestPulseCoefficients:
    def test_boundary_is_one(self):
        c = pulse_coefficients(2, sqrt(2))
        assert c.values.tolist() == [1.0]

    def test_one_step_by_hand(self):
        c = pulse_coefficients(3, sqrt(2))
        assert c.values[1] == 1.0
        expected = (1 + 1 / (1 + sqrt(2)) ** 2) ** -0.5
        assert c.values[0] == pytest.approx(expected, rel=1e-15)

    @pytest.mark.parametrize("T,scale", [(10, sqrt(2)), (30, 1.0), (50, 3.0)])
    def test_range_monotonicity_and_residuals(self, T, scale):
        c = pulse_coefficients(T, scale)
        assert np.all(c.values > 0) and np.all(c.values <= 1)
        assert np.all(np.diff(c.values) >= 0)
        assert np.max(c.residuals()) < 1e-12


class TestRelaxedAugmented:
    def test_reference_case(self):
        # frozen from an independent fsolve of the coupled first-order
        # conditions; at T=3 the treated count coincides with the first
        # pulse count
        alloc = relaxed_augmented(100, 3)
        assert alloc.n0 == pytest.approx(19.891236738, abs=1e-6)
        assert alloc.ne[0] == pytest.approx(25.989153247, abs=1e-6)
        assert alloc.ne[1] == pytest.approx(28.130456767, abs=1e-6)
        assert alloc.n1 == pytest.approx(25.989153247, abs=1e-6)
        assert alloc.N == pytest.approx(100, abs=1e-10)

    @pytest.mark.parametrize("T", [2, 3, 10, 50])
    def test_pulse_counts_nondecreasing(self, T):
        alloc = relaxed_augmented(1000, T)
        assert all(x <= y + 1e-12 for x, y in zip(alloc.ne, alloc.ne[1:]))

    @pytest.mark.parametrize("N,T", [(7, 2), (100, 5), (5000, 40)])
    def test_sum(self, N, T):
        assert relaxed_augmented(N, T).N == pytest.approx(N, rel=1e-12)


class TestRelaxedWeighted:
    @pytest.mark.parametrize("T", [2, 3, 7, 30])
    def test_half_weight_recovers_augmented(self, T):
        w = relaxed_weighted(500, T, 0.5)
        a = relaxed_augmented(500, T)
        for x, y in zip(w.counts, a.counts):
            assert x == pytest.approx(y, rel=1e-12)

    def test_zero_weight_drops_always_treated(self):
        alloc = relaxed_weighted(100, 4, 0.0)
        assert alloc.n1 == 0.0
        assert alloc.N == pytest.approx(100, rel=1e-12)

    def test_full_weight_drops_always_control(self):
        alloc = relaxed_weighted(100, 4, 1.0)
        assert alloc.n0 == 0.0
        assert alloc.N == pytest.approx(100, rel=1e-12)
        # separable optimum: treated count N/(1+sqrt(T-1))
        assert alloc.n1 == pytest.approx(100 / (1 + sqrt(3)), rel=1e-12)

    def test_rho_outside_range_rejected(self):
        with pytest.raises(ValueError):
            relaxed_weighted(10, 3, 1.5)


class TestRelaxedRecycling:
    @pytest.mark.parametrize("T,k", [(3, 2), (4, 3), (4, 5), (6, 9)])
    def test_large_k_matches_augmented(self, T, k):
        rec = relaxed_recycling(300, T, k)
        aug = relaxed_augmented(300, T)
        for x, y in zip(rec.counts, aug.counts):
            assert x == pytest.approx(y, rel=1e-6)

    @pytest.mark.parametrize("T,k", [(4, 1), (4, 2), (6, 2), (10, 3)])
    def test_dominates_augmented_point(self, T, k):
        mode = ObjectiveMode.recycling(k)
        rec = relaxed_recycling(60, T, k)
        assert objective(rec, T, mode) <= objective(relaxed_augmented(60, T), T, mode)

    @pytest.mark.parametrize("T,k", [(2, 1), (4, 1), (4, 2), (10, 3), (30, 2), (50, 10)])
    def test_feasible_and_stationary(self, T, k):
        alloc = relaxed_recycling(977, T, k)
        assert alloc.N == pytest.approx(977, abs=977 * 1e-9)
        assert min(alloc.counts) >= 0.0
        assert stationarity_residual(alloc, T, ObjectiveMode.recycling(k)) < 1e-8

    def test_failure_carries_best_iterate(self):
        with pytest.raises(SolverConvergenceError) as err:
            relaxed_recycling(60, 8, 2, max_iter=1, tol=0.0)
        assert err.value.best.T == 8


class TestObjective:
    def test_basic_arithmetic(self):
        assert objective(Allocation(2, 2, (2,)), 2, ObjectiveMode.basic()) == 2.0

    def test_augmented_hand_value(self):
        val = objective(Allocation(1, 1, (1, 1)), 3, ObjectiveMode.augmented())
        assert val == 7.5

    def test_weighted_half_is_half_augmented(self):
        alloc = Allocation(3, 2, (2, 4, 1))
        half = objective(alloc, 4, ObjectiveMode.weighted(0.5))
        full = objective(alloc, 4, ObjectiveMode.augmented())
        assert half == pytest.approx(0.5 * full, rel=1e-15)

    def test_recycling_reduces_to_augmented_for_large_k(self):
        alloc = Allocation(3, 2, (2, 4, 1))
        assert objective(alloc, 4, ObjectiveMode.recycling(3)) == objective(
            alloc, 4, ObjectiveMode.augmented()
        )

    def test_zero_count_rejected_when_used(self):
        with pytest.raises(ValueError):
            objective(Allocation(0, 2, (2,)), 2, ObjectiveMode.basic())
        # a zero always-treated count is fine when its weight is zero
        val = objective(Allocation(2, 0, (2,)), 2, ObjectiveMode.weighted(0.0))
        assert np.isfinite(val)

    def test_strictly_decreasing_in_each_count(self):
        alloc = Allocation(3, 2, (2, 4, 1))
        for mode in ALL_MODES:
            base = objective(alloc, 4, mode)
            for i in range(5):
                counts = list(alloc.counts)
                counts[i] += 1
                bumped = Allocation(counts[0], counts[1], tuple(counts[2:]))
                if mode.kind == "weighted" and (
                    (mode.rho == 0.0 and i == 1) or (mode.rho == 1.0 and i == 0)
                ):
                    continue  # that arm does not enter the objective
                assert objective(bumped, 4, mode) < base

    def test_horizon_mismatch_rejected(self):
        with pytest.raises(ValueError):
            objective(Allocation(1, 1, (1,)), 3, ObjectiveMode.basic())


class TestIntegerSolve:
    def test_small_reference(self):
        alloc = integer_solve(7, 2, ObjectiveMode.basic())
        assert alloc.counts == (2, 2, 3)
        assert objective(alloc, 2, ObjectiveMode.basic()) == pytest.approx(5 / 3, rel=1e-15)

    def test_near_rounded_relaxation_when_large(self):
        for N in (997, 5000):
            relaxed = relaxed_basic(N, 6)
            alloc = integer_solve(N, 6, ObjectiveMode.basic())
            for got, want in zip(alloc.counts, relaxed.counts):
                assert abs(got - want) <= 1.0

    @pytest.mark.parametrize("mode", ALL_MODES, ids=str)
    def test_matches_brute_force_on_a_sample(self, mode):
        for N, T in [(7, 2), (12, 3), (17, 4), (23, 3)]:
            a = integer_solve(N, T, mode)
            b = brute_force_opt(N, T, mode)
            assert objective(a, T, mode) == objective(b, T, mode)

    @pytest.mark.parametrize("mode", ALL_MODES, ids=str)
    def test_single_transfers_never_improve(self, mode):
        for N, T in [(29, 4), (20000, 50)]:
            alloc = integer_solve(N, T, mode)
            base = objective(alloc, T, mode)
            counts = list(alloc.counts)
            for src in range(T + 1):
                for dst in range(T + 1):
                    if src == dst or counts[src] <= 1:
                        continue
                    counts[src] -= 1
                    counts[dst] += 1
                    moved = Allocation(counts[0], counts[1], tuple(counts[2:]))
                    assert objective(moved, T, mode) >= base, (N, T, src, dst)
                    counts[src] += 1
                    counts[dst] -= 1

    def test_positive_counts_outside_boundary_modes(self):
        for mode in ALL_MODES:
            alloc = integer_solve(40, 4, mode)
            excluded = {
                ("weighted", 0.0): 1, ("weighted", 1.0): 0,
            }.get((mode.kind, mode.rho))
            for i, c in enumerate(alloc.counts):
                assert c == 0 if i == excluded else c >= 1

    def test_infeasible_rejected(self):
        with pytest.raises(ValueError):
            integer_solve(4, 4, ObjectiveMode.basic())

    @pytest.mark.parametrize("mode,T,N,counts", DESIGN_GOLDEN,
                             ids=[f"{m.kind}-{T}-{N}" for m, T, N, _ in DESIGN_GOLDEN])
    def test_design_instances_match_golden_counts(self, mode, T, N, counts):
        assert integer_solve(N, T, mode).counts == counts

    def test_matches_naive_scan_on_a_seeded_sweep(self):
        rng = np.random.default_rng(20191108)
        for i in range(198):
            mode = ALL_MODES[i % len(ALL_MODES)]
            T = int(rng.integers(2, 13))
            N = int(rng.integers(T + 1, 300 * T))
            want = _naive_integer_solve(N, T, mode)
            assert integer_solve(N, T, mode).counts == want, (N, T, mode)


class TestBruteForce:
    def test_small_reference(self):
        assert brute_force_opt(7, 2, ObjectiveMode.basic()).counts == (2, 2, 3)

    def test_unique_feasible_point(self):
        assert brute_force_opt(4, 3, ObjectiveMode.augmented()).counts == (1, 1, 1, 1)

    @pytest.mark.parametrize("mode", ALL_MODES, ids=str)
    def test_beats_balanced(self, mode):
        for N, T in [(11, 2), (19, 3)]:
            best = brute_force_opt(N, T, mode)
            bal = balanced(N, T)
            if mode.kind == "weighted" and mode.rho in (0.0, 1.0):
                continue  # balanced is infeasible for the boundary objectives
            assert objective(best, T, mode) <= objective(bal, T, mode)

    def test_too_large_rejected(self):
        with pytest.raises(ValueError):
            brute_force_opt(61, 3, ObjectiveMode.basic())
        with pytest.raises(ValueError):
            brute_force_opt(20, 6, ObjectiveMode.basic())


class TestBalanced:
    def test_exact_division(self):
        assert balanced(6, 2).counts == (2, 2, 2)

    def test_remainder_goes_to_leading_arms(self):
        assert balanced(7, 2).counts == (3, 2, 2)
        assert balanced(9, 3).counts == (3, 2, 2, 2)

    def test_reference_case(self):
        alloc = balanced(10000, 30)
        assert sorted(set(alloc.counts)) == [322, 323]
        assert sum(1 for c in alloc.counts if c == 323) == 18
        assert alloc.N == 10000

    def test_infeasible(self):
        with pytest.raises(ValueError):
            balanced(3, 3)


class TestStationarity:
    @pytest.mark.parametrize("T", [2, 3, 5, 12, 30, 50])
    def test_closed_forms_are_stationary(self, T):
        N = 613.0
        assert stationarity_residual(relaxed_basic(N, T), T, ObjectiveMode.basic()) < 1e-8
        assert stationarity_residual(relaxed_augmented(N, T), T, ObjectiveMode.augmented()) < 1e-8
        for rho in (0.0, 0.3, 0.5, 0.8, 1.0):
            alloc = relaxed_weighted(N, T, rho)
            assert stationarity_residual(alloc, T, ObjectiveMode.weighted(rho)) < 1e-8
