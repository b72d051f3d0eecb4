"""Tests for relaxed and integer allocation solvers."""

import hashlib
import warnings
from math import sqrt

import numpy as np
import pytest

from tminimax.allocation import (
    ObjectiveMode,
    SolverConvergenceError,
    _objective_counts,
    _relaxed_for_mode,
    _round_preserving_sum,
    _term_matrix,
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
from tminimax.core import Allocation, RealAllocation

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
    used = _term_matrix(T, mode)[1].any(axis=0)
    excl = None if used.all() else int(np.flatnonzero(~used)[0])
    mins = [0 if i == excl else 1 for i in range(T + 1)]
    relaxed = _relaxed_for_mode(float(N), T, mode)
    counts = np.zeros(T + 1, dtype=int)
    counts[used] = _round_preserving_sum(np.array(relaxed.counts)[used], N)
    counts = counts.tolist()
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


# sha256 of repr(counts) of integer_solve(100 * T, T, mode) at horizons in
# the hundreds, recorded while the tie slide still confirmed every tied
# transfer (basic at T = 365 then took 77 s on 2 vCPUs)
HORIZON_GOLDEN = [
    (ObjectiveMode.basic(), 100, "d138a29650d568e8a3791fc3eeaff49db15b727d3732126566b453ac5381bca5"),
    (ObjectiveMode.basic(), 200, "5bfdd26d14b626f386cabcceee350dfeb6b94f23d8a0fd112e8e6904d2f61f35"),
    (ObjectiveMode.basic(), 365, "642c1e6c032eaa19cb0b55e6aa51b37dcf4740a25c88a350a815dd681d16884e"),
    (ObjectiveMode.recycling(2), 100,
     "aa1eb7c787ca1a390cf08fe9d3de9cc590db439a39c731f96016514df55f8cf6"),
    (ObjectiveMode.recycling(2), 200,
     "4292be571258d571a0f6133863f320b8fef152558545cea026607b108c493fda"),
    # the boundary weighted objectives, which leave one arm out of every
    # term, recorded while the solver still pinned that arm to zero
    (ObjectiveMode.weighted(0.0), 100,
     "cfa06e6f2b07331b22ce8975b00021f4199798fe2b585174bf2057a99f85373c"),
    (ObjectiveMode.weighted(0.0), 200,
     "d21c42b4b5d3db0af5c0835d1d42467919be57d7f07e86fc8b071f7c802a9132"),
    (ObjectiveMode.weighted(1.0), 100,
     "3c8e35cbdcb0530ed9f8f10a3f832405e1be7daf32411d28f1daf49a685b6b8d"),
    (ObjectiveMode.weighted(1.0), 200,
     "1f5e45dee6cbe3a668be23f460520d3208f1d8dfa34f129a2390e8db5f9157af"),
]

def _mode_id(mode):
    rho = "" if mode.rho is None else f"({mode.rho})"
    k = "" if mode.k is None else f"({mode.k})"
    return mode.kind + rho + k


# (number of terms, sha256 of w.tobytes() + m.tobytes()) of _term_matrix,
# recorded from the per-term builder; integer_solve's tie-breaks read these
# bits, so they must not move.
TERM_MATRIX_GOLDEN = {
    ("basic", 2): (3, "1d33fd9d8256db3c1d954e20f2a5bf3c5f76ac925806a999d2b458b30f288c52"),
    ("basic", 3): (4, "52cb5101cbce9b4735bd1ccd699059116f8a327d7dc6a41641d34426aa792b9f"),
    ("basic", 5): (6, "5c2c491738e81276f0eb5c60011b365317530ca689065213b680171f2dbcfe70"),
    ("basic", 12): (13, "cefb449aed60a1b8029107679b434cad0330e09ad1531f89b6be752cc57c0820"),
    ("basic", 50): (51, "9cd7d360cdcaa32c059342d20f513339d1927d313b290f163f4b2a51fc1859c8"),
    ("augmented", 2): (3, "ff321a67df9f8cf4671f07e83d3baf7b44a61cedbb9043a9e15f7e3981631767"),
    ("augmented", 3): (5, "fc85669f5dbe74ff8c6b11a73b8c924ed59186a912941731357bc5b02718f1ee"),
    ("augmented", 5): (9, "61bc89c42d51e5185c686309943dbd382327ab5181b5738ec005bcc716dda242"),
    ("augmented", 12): (23, "1b81a19952b078bed014d6b4245c11e844023ac21b41e2d5c14abfb7f1be12cc"),
    ("augmented", 50): (99, "32c62ef4a7c1ae311fb86245da4ed1bac23652ad66d7f7d2db847138c7293256"),
    ("weighted(0.0)", 2): (2, "d2eaae4ffb91c929ceb7742b4be4e594d3708b7b5412c6b5ccc489f11d0663d1"),
    ("weighted(0.0)", 3): (4, "7d3041ab61bd0bb6bb471f47bdec5f2889b18872f21d1e9a73f5f616565a3848"),
    ("weighted(0.0)", 5): (8, "a59f4426d98697af0a7315bd0bee210c4cb66d5583bf92e24b5009d959013558"),
    ("weighted(0.0)", 12): (22, "bbf200508c07cd8cd91fa9c864f959465d26928a4a7d8c2492f17c8183075dea"),
    ("weighted(0.0)", 50): (98, "4ebfe26ebee7c4e1632212bdac4f9abd9f4e0154172a5290e53ab1889fefe877"),
    ("weighted(0.3)", 2): (3, "9d02793271a0608f3d92d25d16245f7ef6597ed5c2272c55b0636ef32be65d84"),
    ("weighted(0.3)", 3): (5, "d6d52b7d99484a784cf1bb909af1df6061bef74cf155b2bd3a23f1116a995352"),
    ("weighted(0.3)", 5): (9, "3ce6985eeda3729f7bb53ebbb7f0aa2c26ed8403a377730599634ebd6ed4b668"),
    ("weighted(0.3)", 12): (23, "e2febdaf5813439b546257ee0b79654e9612a2668bba04bc6c845199a80fdee0"),
    ("weighted(0.3)", 50): (99, "d4c72b02b681b79f3d0b66a71ff04098ea4f5a88b9fc9823ef4dd394b3b1187a"),
    ("weighted(0.5)", 2): (3, "9bc0d0e233125eab405998c9b3019d1bc52f29c318ca0ec6d2ca82db6a1fb363"),
    ("weighted(0.5)", 3): (5, "2851b9f974d4e177e27ca6925de79181fd69b45e1a9fac63c7cbe898e9c00cda"),
    ("weighted(0.5)", 5): (9, "ee4be7bda8da226fa0b812997c048dcadb1d85198c31f7f23d41c9f23680e3b3"),
    ("weighted(0.5)", 12): (23, "20eec5f309aa4546cc47b96cdd78426d948ce95392413889dc9b49aad316f7bb"),
    ("weighted(0.5)", 50): (99, "7615fa435699e8a1253d2737fb93c628e1c900f62435791e3584520a7f525db8"),
    ("weighted(0.8)", 2): (3, "a99ea80efbf4b0800941f7c44539d4ac183c5ab4a5121e91c7c594d228636244"),
    ("weighted(0.8)", 3): (5, "e7b018adeae7fccef5c0f376b11ed24f09b7f8fe5059339d8fb426b8ab9fbe84"),
    ("weighted(0.8)", 5): (9, "0501cd84f446e412d5fd8017c44253859451f44a6d17fbee91bf5b67f732b361"),
    ("weighted(0.8)", 12): (23, "dc0bcb20e31ee6ba423288b26efaa79de1c33e5bb4644e71f5d84d43ce337a2e"),
    ("weighted(0.8)", 50): (99, "e74e3398d7c802d6862ffac07da491e94e7398fdfee6651d66f79454741943ed"),
    ("weighted(1.0)", 2): (2, "359885902edb818a28a19900f2f6818288578254fcf678e5bf9fa5c92b0092cb"),
    ("weighted(1.0)", 3): (3, "506c4fc44b8fc4e071ce83196a614db1a6dbc034d09f04d52967bcfca08fe961"),
    ("weighted(1.0)", 5): (5, "3f7945c188568762fdd24131adc99726168818aeea88f99723e81aa1b0742393"),
    ("weighted(1.0)", 12): (12, "a79f83e7c477672769aba243a19af291b40a62f10236e94e60f9d1077554d880"),
    ("weighted(1.0)", 50): (50, "0fc51b8e574f49806a49e96bf7017d488e096cdfe0c3b5d970d2311a3ac0f754"),
    ("recycling(1)", 2): (3, "ff321a67df9f8cf4671f07e83d3baf7b44a61cedbb9043a9e15f7e3981631767"),
    ("recycling(1)", 3): (5, "408d882b7e5f736a7f61bf97c8fd6257147aab05bac40c6fe54ee94f2bd8f61b"),
    ("recycling(1)", 5): (9, "e3c15a8de3034434211916404b85b9140178f7afb4eb9d7e5720963985fdd588"),
    ("recycling(1)", 12): (23, "1270eda0a914fa1f57a6fa5716b920d177bc33e4e2e4cff294fcb1bfbed8c08a"),
    ("recycling(1)", 50): (99, "d7afc7e4e6a8a64479a650c4d1d0043d30c84e3e5086760312c434249dace79b"),
    ("recycling(2)", 2): (3, "ff321a67df9f8cf4671f07e83d3baf7b44a61cedbb9043a9e15f7e3981631767"),
    ("recycling(2)", 3): (5, "fc85669f5dbe74ff8c6b11a73b8c924ed59186a912941731357bc5b02718f1ee"),
    ("recycling(2)", 5): (9, "507fe70aeae988baca889af7d6567fe7de92f489c90f4c7f6c46c6f15ab3370d"),
    ("recycling(2)", 12): (23, "c6beb385c741eead7b9ad128d5c3403b4d9af25d74c35f4f9e577b795c5a037b"),
    ("recycling(2)", 50): (99, "a42d0b9f69153cb6eb0b2f857d1fb230f23f1f118f9828c898faf693b1d056c2"),
}

# sha256 of the counts of relaxed_recycling(1000, T, k), T = 2..30, k = 1..3,
# concatenated in that order
RELAXED_RECYCLING_GOLDEN = "d526975f6d51ceabaa2471c03fccbf642d83727f10f1bf8217e71f18f8cf8d49"


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

    @pytest.mark.parametrize("N", [float("inf"), float("nan")])
    @pytest.mark.parametrize("relax", [
        lambda N: relaxed_basic(N, 6),
        lambda N: relaxed_augmented(N, 6),
        lambda N: relaxed_weighted(N, 6, 0.3),
        lambda N: relaxed_recycling(N, 6, 2),
    ], ids=["basic", "augmented", "weighted", "recycling"])
    def test_non_finite_n_rejected_before_any_arithmetic(self, relax, N):
        # no RuntimeWarning first, and the message blames N, not an arm count
        with warnings.catch_warnings():
            warnings.simplefilter("error")
            with pytest.raises(ValueError) as info:
                relax(N)
        assert str(info.value) == f"N must be positive and finite, got {N}"


class TestPulseCoefficients:
    @staticmethod
    def _residuals(c, scale):
        """Relative error of each coefficient against its defining
        recursion (last entry: against the boundary value 1)."""
        T = len(c) + 1
        res = np.empty(T - 1)
        res[T - 2] = abs(c[T - 2] - 1.0)
        tail = 0.0  # sum of coefficients after t
        for t in range(T - 1, 1, -1):
            tail += c[t - 1]
            rhs = 1.0 / sqrt(1.0 / c[t - 1] ** 2 + 1.0 / (1.0 + scale * tail) ** 2)
            res[t - 2] = abs(c[t - 2] - rhs) / rhs
        return res

    def test_boundary_is_one(self):
        c = pulse_coefficients(2, sqrt(2))
        assert c.tolist() == [1.0]
        assert not c.flags.writeable

    def test_one_step_by_hand(self):
        c = pulse_coefficients(3, sqrt(2))
        assert c[1] == 1.0
        expected = (1 + 1 / (1 + sqrt(2)) ** 2) ** -0.5
        assert c[0] == pytest.approx(expected, rel=1e-15)

    @pytest.mark.parametrize("T,scale", [(10, sqrt(2)), (30, 1.0), (50, 3.0)])
    def test_range_monotonicity_and_residuals(self, T, scale):
        c = pulse_coefficients(T, scale)
        assert np.all(c > 0) and np.all(c <= 1)
        assert np.all(np.diff(c) >= 0)
        assert np.max(self._residuals(c, scale)) < 1e-12


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

    def test_n_beyond_the_bound_rejected(self):
        # past 10^12 the float objective goes flat near the optimum and the
        # tie slide walks it one unit per step
        for mode in ALL_MODES:
            with pytest.raises(ValueError, match=r"N <= 10\^12, got N=1000000000001"):
                integer_solve(10**12 + 1, 3, mode)
        assert balanced(10**20, 3).N == 10**20

    def test_n_at_the_bound_solves(self):
        assert integer_solve(10**12, 3, ObjectiveMode.basic()).N == 10**12

    @pytest.mark.parametrize("mode,T,N,counts", DESIGN_GOLDEN,
                             ids=[f"{m.kind}-{T}-{N}" for m, T, N, _ in DESIGN_GOLDEN])
    def test_design_instances_match_golden_counts(self, mode, T, N, counts):
        assert integer_solve(N, T, mode).counts == counts

    @pytest.mark.parametrize("mode,T,digest", HORIZON_GOLDEN,
                             ids=[f"{_mode_id(m)}-{T}" for m, T, _ in HORIZON_GOLDEN])
    def test_long_horizons_match_golden_counts(self, mode, T, digest):
        counts = integer_solve(100 * T, T, mode).counts
        assert sum(counts) == 100 * T
        assert hashlib.sha256(repr(counts).encode()).hexdigest() == digest

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

    def test_off_optimum_is_not_stationary(self):
        b = balanced(100, 5)
        off = RealAllocation(b.n0, b.n1, b.ne)
        assert stationarity_residual(off, 5, ObjectiveMode.basic()) > 1e-2

    def test_dropped_arm_is_skipped(self):
        # rho = 1 never uses the control arm, whatever it holds
        alloc = relaxed_weighted(613.0, 5, 1.0)
        moved = RealAllocation(1.0, alloc.n1, alloc.ne)
        assert stationarity_residual(moved, 5, ObjectiveMode.weighted(1.0)) < 1e-8


class TestTermMatrix:
    @pytest.mark.parametrize("mode", ALL_MODES, ids=_mode_id)
    @pytest.mark.parametrize("T", [2, 3, 5, 12, 50])
    def test_matches_golden_bytes(self, mode, T):
        w, m = _term_matrix(T, mode)
        assert w.dtype == m.dtype == np.float64 and m.shape == (len(w), T + 1)
        count, digest = TERM_MATRIX_GOLDEN[(_mode_id(mode), T)]
        assert len(w) == count
        assert hashlib.sha256(w.tobytes() + m.tobytes()).hexdigest() == digest

    def test_read_only(self):
        w, m = _term_matrix(4, ObjectiveMode.augmented())
        assert not w.flags.writeable and not m.flags.writeable

    def test_relaxed_recycling_matches_golden_bits(self):
        h = hashlib.sha256()
        for T in range(2, 31):
            for k in (1, 2, 3):
                h.update(np.array(relaxed_recycling(1000.0, T, k).counts).tobytes())
        assert h.hexdigest() == RELAXED_RECYCLING_GOLDEN
