"""Tests for outcome models and the comparison tables."""

import hashlib
import math

import numpy as np
import pytest

from conftest import arm_bytes, numpy_stack, schedule_violations
from tminimax import estimators
from tminimax.core import (
    ALWAYS_CONTROL,
    ALWAYS_TREATED,
    PotentialOutcomeSchedule,
    arms_for_horizon,
    make_arm_vector,
    permute_units,
    pulse_arm,
)
from tminimax.estimators import estimands
from tminimax.serialize import rows_to_csv
from tminimax.simulate import (
    ModelParams,
    allocation_table,
    expected_risk_comparison,
    habituation_model,
    maxrisk_table,
    standard_model,
)


class TestModelParams:
    def test_defaults(self):
        p = ModelParams()
        assert p.effect == 1.0 and p.carryover == -1.0 and p.decay == 0.5
        assert p.baseline == 0.0 and p.noise_sd == 4.0

    def test_validation(self):
        with pytest.raises(ValueError):
            ModelParams(decay=1.0)
        with pytest.raises(ValueError):
            ModelParams(noise_sd=-1.0)

    @pytest.mark.parametrize("value", [math.nan, math.inf, -math.inf])
    @pytest.mark.parametrize("field", ["baseline", "effect", "carryover", "noise_sd"])
    def test_non_finite_number_rejected(self, field, value):
        with pytest.raises(ValueError) as info:
            ModelParams(**{field: value})
        assert str(info.value) == f"{field} must be finite, got {value}"


class TestStandardModel:
    def test_noise_free_control_is_log_grid(self):
        p = ModelParams(noise_sd=0.0)
        sched = standard_model(p, 3, 4, 0)
        i = np.log(np.arange(1, 4))[:, None]
        t = np.log(np.arange(1, 5))[None, :]
        assert np.allclose(sched.matrix(ALWAYS_CONTROL), i + t, atol=1e-15)

    def test_noise_free_treated_cancels_with_defaults(self):
        # effect 1 this period plus carryover -1 from last period
        p = ModelParams(noise_sd=0.0)
        sched = standard_model(p, 3, 4, 0)
        control = sched.matrix(ALWAYS_CONTROL)
        treated = sched.matrix(ALWAYS_TREATED)
        assert np.allclose(treated[:, 0], control[:, 0] + 1.0)
        assert np.allclose(treated[:, 1:], control[:, 1:], atol=1e-15)

    def test_pulse_contributes_at_and_after_its_time(self):
        p = ModelParams(noise_sd=0.0, carryover=-0.25)
        sched = standard_model(p, 2, 4, 0)
        control = sched.matrix(ALWAYS_CONTROL)
        m = sched.matrix(pulse_arm(3))
        assert np.allclose(m[:, 2], control[:, 2] + 1.0)
        assert np.allclose(m[:, 3], control[:, 3] - 0.25)
        assert np.allclose(m[:, :2], control[:, :2])

    @pytest.mark.parametrize("seed", [0, 7])
    def test_outputs_satisfy_non_anticipation(self, seed):
        sched = standard_model(ModelParams(), 6, 5, seed)
        assert not schedule_violations(sched)

    def test_deterministic_given_seed(self):
        a = standard_model(ModelParams(), 4, 3, 5)
        b = standard_model(ModelParams(), 4, 3, 5)
        assert a == b


class TestHabituationModel:
    def test_noise_free_estimands(self):
        p = ModelParams(noise_sd=0.0, decay=0.3, effect=2.0)
        hab, inst = estimands(habituation_model(p, 4, 5, 0))
        assert np.allclose(hab.values, -0.3 * 2.0, atol=1e-12)
        assert np.allclose(inst.values, 2.0, atol=1e-12)

    def test_repeated_treatment_loses_decay_fraction(self):
        p = ModelParams(noise_sd=0.0)
        sched = habituation_model(p, 3, 4, 0)
        control = sched.matrix(ALWAYS_CONTROL)
        treated = sched.matrix(ALWAYS_TREATED)
        assert np.allclose(treated[:, 0], control[:, 0] + 1.0)
        assert np.allclose(treated[:, 1:], control[:, 1:] + 0.5)

    def test_outputs_satisfy_non_anticipation(self):
        assert not schedule_violations(habituation_model(ModelParams(), 5, 4, 3))

    def test_noise_shared_across_models_and_arms(self):
        a = standard_model(ModelParams(), 5, 4, 11)
        b = habituation_model(ModelParams(), 5, 4, 11)
        assert np.array_equal(a.matrix(ALWAYS_CONTROL), b.matrix(ALWAYS_CONTROL))


@pytest.mark.parametrize("model", [standard_model, habituation_model],
                         ids=["standard", "habituation"])
@pytest.mark.parametrize("N,seed,message", [
    (0, 0, "N must be >= 1, got 0"),
    (-3, 0, "N must be >= 1, got -3"),
    (5, -1, "seed must be a nonnegative integer, got -1"),
    (5, np.int64(-2), "seed must be a nonnegative integer, got -2"),
], ids=["no-units", "negative-units", "negative-seed", "negative-numpy-seed"])
def test_model_rejects_bad_sizes_and_seeds(model, N, seed, message):
    with pytest.raises(ValueError) as info:
        model(ModelParams(), N, 5, seed)
    assert str(info.value) == message


def _per_arm_model(params, N, T, seed, cell):
    """Reference: each arm's matrix built on its own, the log(i) + log(t)
    fixed effects plus the treatment row, then the one shared noise draw."""
    alpha = np.log(np.arange(1, N + 1, dtype=float))
    beta = np.log(np.arange(1, T + 1, dtype=float))
    base = params.baseline + alpha[:, None] + beta[None, :]
    noise = np.random.default_rng(seed).normal(scale=params.noise_sd, size=(N, T))
    arms = {}
    for arm in arms_for_horizon(T):
        bits = make_arm_vector(arm, T).astype(float)
        prev = np.concatenate([[0.0], bits[:-1]])
        m = base + cell(params, bits, prev)[None, :]
        if params.noise_sd > 0.0:
            m = m + noise
        arms[arm] = m
    return PotentialOutcomeSchedule(arms)


def _identity_slots(arms, T):
    """Slot table of ``arms`` x ``T`` whose row c is slot c throughout."""
    return np.repeat(np.arange(arms), T).reshape(arms, T)


_CELLS = {
    standard_model: lambda p, z, prev: p.effect * z + p.carryover * prev,
    habituation_model: lambda p, z, prev: p.effect * z - p.decay * p.effect * z * prev,
}


class TestInPlaceModel:
    @pytest.mark.parametrize("model", [standard_model, habituation_model],
                             ids=["standard", "habituation"])
    @pytest.mark.parametrize("params", [
        ModelParams(),
        ModelParams(noise_sd=0.0),
        ModelParams(baseline=0.3, effect=2.5, carryover=0.7, decay=0.25, noise_sd=1.5),
        # every arm has the same cells: the treatment term is +-0.0
        ModelParams(effect=0.0, carryover=0.0, decay=0.0),
    ], ids=["shared", "noise-free", "explicit", "null-effect"])
    @pytest.mark.parametrize("seed", [0, 17])
    def test_bit_equal_to_per_arm_build(self, model, params, seed):
        sched = model(params, 37, 6, seed)
        assert (sched.N, sched.T) == (37, 6)
        assert arm_bytes(sched) == arm_bytes(_per_arm_model(params, 37, 6, seed,
                                                              _CELLS[model]))

    @pytest.mark.parametrize("N,T", [(2000, 10), (500, 30), (1, 2)])
    def test_bit_equal_at_benchmark_sizes(self, N, T):
        for model in (standard_model, habituation_model):
            got = model(ModelParams(), N, T, 5)
            want = _per_arm_model(ModelParams(), N, T, 5, _CELLS[model])
            assert arm_bytes(got) == arm_bytes(want)

    @pytest.mark.parametrize("model", [standard_model, habituation_model],
                             ids=["standard", "habituation"])
    @pytest.mark.parametrize("params", [
        ModelParams(), ModelParams(noise_sd=0.0),
        ModelParams(baseline=0.3, effect=2.5, carryover=0.7, decay=0.25, noise_sd=1.5),
    ], ids=["shared", "noise-free", "explicit"])
    # T = 2 never has the pattern (z_t, z_{t-1}) = (0, 1); at T = 3 four
    # pattern matrices are T+1 matrices that are not one per arm
    @pytest.mark.parametrize("T", [2, 3, 30])
    def test_pattern_storage_is_bit_equal_to_per_arm_build(self, model, params, T):
        N = 23
        sched = model(params, N, T, 9)
        twin = _per_arm_model(params, N, T, 9, _CELLS[model])
        assert len(sched._stored) == min(4, T + 1)
        assert arm_bytes(sched) == arm_bytes(twin)
        assert sched == twin
        for got, want in zip(estimands(sched), estimands(twin)):
            assert got.values.tobytes() == want.values.tobytes()
        hab, inst = (e.values for e in estimands(sched))
        for t in range(2, T + 1):
            control, treated, pulse = (sched.matrix(arm)[:, t - 1]
                                       for arm in (ALWAYS_CONTROL, ALWAYS_TREATED, pulse_arm(t)))
            assert hab[t - 2] == math.fsum((treated - pulse).tolist()) / N
            assert inst[t - 2] == math.fsum((pulse - control).tolist()) / N

    def test_pattern_schedule_permutes_in_place(self):
        sched = habituation_model(ModelParams(), 11, 5, 2)
        perm = np.random.default_rng(3).permutation(11)
        permuted = permute_units(sched, perm)
        assert len(permuted._stored) == len(sched._stored) == 4
        assert np.array_equal(permuted._slots, sched._slots)
        assert arm_bytes(permuted) == arm_bytes(sched, perm)

    @pytest.mark.parametrize("shape,slots", [
        ((3, 4, 2), (4, 2)), ((3, 4), (3, 2)), ((2, 4, 1), (2, 1)), ((3, 0, 2), (3, 2)),
    ], ids=["arms-mismatch", "2-d", "short-horizon", "no-units"])
    def test_owned_constructor_checks_the_shape(self, shape, slots):
        with pytest.raises(ValueError, match="stacked schedule"):
            PotentialOutcomeSchedule._owned(np.zeros(shape), _identity_slots(*slots))

    def test_owned_constructor_rejects_integers(self):
        with pytest.raises(ValueError, match="float"):
            PotentialOutcomeSchedule._owned(np.zeros((3, 4, 2), dtype=np.int64),
                                            _identity_slots(3, 2))

    def test_owned_constructor_keeps_the_array(self):
        stacked = np.arange(24.0).reshape(3, 4, 2)
        sched = PotentialOutcomeSchedule._owned(stacked, _identity_slots(3, 2))
        assert sched._stored is stacked and not stacked.flags.writeable
        assert (sched.N, sched.T) == (4, 2)
        assert sched == PotentialOutcomeSchedule(
            {arm: stacked[i] for i, arm in enumerate(arms_for_horizon(2))})

class TestAllocationTable:
    def test_reference_numbers(self):
        rows = allocation_table(10000, [30])
        by = {(r["design"], r["arm"]): r["count"] for r in rows}
        assert abs(by[("minimax", "always1")] - 1040) < 0.5
        assert abs(by[("minimax", "pulse_2")] - 273) < 0.5
        assert by[("balanced", "always0")] in (322, 323)

    def test_augmented_pulses_nondecreasing(self):
        rows = allocation_table(2000, [8])
        pulses = [r["count"] for r in rows
                  if r["design"] == "augmented_minimax" and r["arm"].startswith("pulse_")]
        assert all(x <= y + 1e-12 for x, y in zip(pulses, pulses[1:]))

    def test_infeasible_horizon(self):
        with pytest.raises(ValueError):
            allocation_table(4, [5])


class TestMaxriskTable:
    def test_ratios_bounded_and_decreasing(self):
        rows = maxrisk_table(1000, [10, 30, 50])
        for panel in ("augmented_only", "augmented_everywhere"):
            for design in ("minimax", "augmented_minimax"):
                series = [r["ratio_to_balanced"] for r in rows
                          if r["panel"] == panel and r["design"] == design]
                assert all(v <= 1.0 for v in series)
                assert all(x > y for x, y in zip(series, series[1:]))

    def test_balanced_is_the_baseline(self):
        rows = maxrisk_table(200, [5])
        for r in rows:
            if r["design"] == "balanced":
                assert r["ratio_to_balanced"] == 1.0


# The numpy version FIG3_GOLDEN was recorded on: it pins that version's
# Generator streams, which may change across versions.
GOLDEN_NUMPY = "2.4.6"

# sha256 of ``rows_to_csv(expected_risk_comparison(**kwargs))``, recorded
# before estimands were kept on the schedule: both models x both loss
# estimators and the fig3-sim benchmark case.
FIG3_GOLDEN = [
    ("standard-plugin",
     dict(N_list=[60, 90], T_list=[3, 5], model="standard", reps=4, seed=7,
          loss_estimator="plugin"),
     "37925233277ac3ad37563b676b83307cba1f198a48122fd6898156f2a1df9880"),
    ("standard-augmented",
     dict(N_list=[60, 90], T_list=[3, 5], model="standard", reps=4, seed=7,
          loss_estimator="augmented"),
     "2f3af555e353c6ec3696e9d72b644dcd66ed004040b409211c51a9b632eefa82"),
    ("habituation-plugin",
     dict(N_list=[60, 90], T_list=[3, 5], model="habituation", reps=4, seed=7,
          loss_estimator="plugin"),
     "a54b63e43c8e39c2d1f23cd1ffc53b346cb5b1cdb8d5cec2616928a9cd7c3388"),
    ("habituation-augmented",
     dict(N_list=[60, 90], T_list=[3, 5], model="habituation", reps=4, seed=7,
          loss_estimator="augmented"),
     "b1d750ebd4af68a2ffc058ea8f74da62a510cf75aec7b808de2ea79bf5b07174"),
    ("benchmark",
     dict(N_list=[2000], T_list=[10, 20, 30], model="habituation", reps=10, seed=41),
     "3ff05d06d1b8eccff14f20a00d40556e5d44a6bfcc4c69959dac3af2acdb4b6a"),
]


class TestExpectedRiskComparison:
    @pytest.mark.parametrize("kwargs,digest", [g[1:] for g in FIG3_GOLDEN],
                             ids=[g[0] for g in FIG3_GOLDEN])
    def test_table_matches_golden_bytes(self, kwargs, digest):
        text = rows_to_csv(expected_risk_comparison(**kwargs))
        assert hashlib.sha256(text.encode()).hexdigest() == digest, \
            numpy_stack(GOLDEN_NUMPY)

    def test_estimands_computed_once_per_schedule(self, monkeypatch):
        computed = []
        compute = estimators._compute_estimands
        monkeypatch.setattr(estimators, "_compute_estimands",
                            lambda sched: computed.append(sched) or compute(sched))
        expected_risk_comparison([40, 50], [3, 4], reps=3, seed=1)
        assert len(computed) == 2 * 2 * 3  # sizes x horizons x reps: once each
        assert len({id(s) for s in computed}) == len(computed)

    def test_negative_seed_rejected_before_building(self):
        # N < T+1 would fail in the design; the seed is checked first.
        with pytest.raises(ValueError, match="seed must be a nonnegative integer, got -1"):
            expected_risk_comparison([3], [4], reps=2, seed=-1)

    def test_deterministic_given_seed(self):
        a = expected_risk_comparison([40], [4], reps=5, seed=3)
        b = expected_risk_comparison([40], [4], reps=5, seed=3)
        assert a == b

    def test_row_shape(self):
        rows = expected_risk_comparison([40, 60], [4, 5], model="habituation", reps=5, seed=3)
        assert len(rows) == 8  # two sizes x two horizons x two designs
        assert {(r["N"], r["T"]) for r in rows} == {(40, 4), (40, 5), (60, 4), (60, 5)}
        for r in rows:
            assert set(r) == {"model", "N", "T", "design", "reps", "mean_loss",
                              "sd_loss", "q10_loss", "q50_loss", "q90_loss"}
            assert r["q10_loss"] <= r["q50_loss"] <= r["q90_loss"]

    def test_validation(self):
        with pytest.raises(ValueError):
            expected_risk_comparison([40], [4], model="cubic", reps=5)
        with pytest.raises(ValueError):
            expected_risk_comparison([40], [4], reps=0)
