"""Outcome-model generators and the three standard comparison tables.

Two synthetic outcome models drive the expected-risk comparisons.  Both
share unit and time fixed effects and one noise draw per (unit, period):

* standard:     baseline + unit + time + effect * z_t + carryover * z_{t-1}
* habituation:  baseline + unit + time + effect * z_t * (1 - decay * z_{t-1})

The noise matrix is drawn once and shared by every arm of a schedule, so
contrasts between arms reflect the model, not resampled noise; pass
``shared_noise=False`` to draw per-arm noise instead.  With shared noise
a cell depends on the arm only through (z_t, z_{t-1}), so a schedule
holds at most 4 N x T matrices (8 * 4 * N * T bytes), one per pattern,
not one per arm; per-arm noise holds T+1.

The table builders reproduce the three standard views: allocations across
designs, worst-case-risk ratios against the balanced design, and the
empirical loss distribution of minimax versus balanced randomization.
"""

from __future__ import annotations

import math
from dataclasses import dataclass
from typing import Callable, Sequence

import numpy as np

from .allocation import (
    ObjectiveMode,
    balanced,
    integer_solve,
    relaxed_augmented,
    relaxed_basic,
)
from .core import (
    Family,
    PotentialOutcomeSchedule,
    _arm_vectors,
    arms_for_horizon,
    draw_assignment,
)
from .risk import LossSpec, _check_seed, loss, max_risk

__all__ = [
    "ModelParams",
    "standard_model",
    "habituation_model",
    "allocation_table",
    "maxrisk_table",
    "expected_risk_comparison",
]


@dataclass(frozen=True)
class ModelParams:
    """Parameters of the synthetic outcome models.

    ``unit_effects`` / ``time_effects`` override the default log(i) and
    log(t) fixed-effect rules with explicit tables (length N and T).
    ``noise_sd = 0`` disables noise entirely.  Every number must be finite;
    a nan or infinity raises ``ValueError`` naming its field.
    """

    baseline: float = 0.0
    effect: float = 1.0
    carryover: float = -1.0
    decay: float = 0.5
    noise_sd: float = 4.0
    unit_effects: tuple[float, ...] | None = None
    time_effects: tuple[float, ...] | None = None
    shared_noise: bool = True

    def __post_init__(self) -> None:
        for name in ("unit_effects", "time_effects"):
            v = getattr(self, name)
            if v is not None:
                object.__setattr__(self, name, tuple(float(x) for x in v))
        for name, values in (("baseline", [self.baseline]), ("effect", [self.effect]),
                             ("carryover", [self.carryover]), ("noise_sd", [self.noise_sd]),
                             ("unit_effects", self.unit_effects or ()),
                             ("time_effects", self.time_effects or ())):
            bad = [x for x in values if not math.isfinite(x)]
            if bad:
                raise ValueError(f"{name} must be finite, got {bad[0]}")
        if not 0.0 <= self.decay < 1.0:
            raise ValueError(f"decay must be in [0, 1), got {self.decay}")
        if self.noise_sd < 0.0:
            raise ValueError(f"noise_sd must be >= 0, got {self.noise_sd}")

    def fixed_effects(self, N: int, T: int) -> tuple[np.ndarray, np.ndarray]:
        if self.unit_effects is None:
            alpha = np.log(np.arange(1, N + 1, dtype=float))
        else:
            if len(self.unit_effects) != N:
                raise ValueError(f"unit_effects has length {len(self.unit_effects)}, expected {N}")
            alpha = np.array(self.unit_effects)
        if self.time_effects is None:
            beta = np.log(np.arange(1, T + 1, dtype=float))
        else:
            if len(self.time_effects) != T:
                raise ValueError(f"time_effects has length {len(self.time_effects)}, expected {T}")
            beta = np.array(self.time_effects)
        return alpha, beta


def _generate(params: ModelParams, N: int, T: int, seed,
              cell: Callable[[np.ndarray, np.ndarray], np.ndarray]) -> PotentialOutcomeSchedule:
    """Build a schedule from a rule mapping (z_t, z_{t-1}) to the
    treatment contribution; z_0 is zero (no pre-experiment treatment).

    With noise shared by every arm (or none), a cell depends on the arm
    only through its pattern 2 z_t + z_{t-1}, so one matrix is stored per
    pattern that occurs (at most 4) and the slot table maps each (arm,
    period) to its pattern.  Per-arm noise stores one matrix per arm.
    Either way a cell is fixed effects plus the treatment term, then the
    noise added in place: the same two additions as building each arm on
    its own."""
    alpha, beta = params.fixed_effects(N, T)
    base = params.baseline + alpha[:, None] + beta[None, :]
    rng = np.random.default_rng(seed)
    z = _arm_vectors(T, Family.PULSE)  # row c: arm code c
    prev = np.zeros_like(z)
    prev[:, 1:] = z[:, :-1]
    slots = None
    if params.shared_noise or params.noise_sd == 0.0:
        patterns, slots = np.unique(2 * z + prev, return_inverse=True)
        slots = slots.reshape(z.shape)
        z, prev = patterns[:, None] >> 1, patterns[:, None] & 1
    stored = base + cell(z.astype(float), prev.astype(float))[:, None, :]
    if params.noise_sd > 0.0:
        if params.shared_noise:
            stored += rng.normal(scale=params.noise_sd, size=(N, T))
        else:
            for arm in stored:  # arm-code order, which is arms_for_horizon order
                arm += rng.normal(scale=params.noise_sd, size=(N, T))
    return PotentialOutcomeSchedule._owned(stored, slots)


def standard_model(params: ModelParams, N: int, T: int,
                   seed: int | np.random.SeedSequence = 0) -> PotentialOutcomeSchedule:
    """Outcomes with a one-period additive carryover: treatment this
    period adds ``effect``, treatment last period adds ``carryover``."""
    return _generate(
        params, N, T, seed,
        lambda z, prev: params.effect * z + params.carryover * prev,
    )


def habituation_model(params: ModelParams, N: int, T: int,
                      seed: int | np.random.SeedSequence = 0) -> PotentialOutcomeSchedule:
    """Outcomes where a repeated treatment loses a ``decay`` fraction of
    its effect: back-to-back treated periods contribute
    ``effect * (1 - decay)`` instead of ``effect``."""
    return _generate(
        params, N, T, seed,
        lambda z, prev: params.effect * z - params.decay * params.effect * z * prev,
    )


_MODELS = {"standard": standard_model, "habituation": habituation_model}


def allocation_table(N: int, T_list: Sequence[int]) -> list[dict]:
    """Per-arm unit counts of the balanced design and the two continuous
    minimax allocations, for each horizon."""
    rows = []
    for T in T_list:
        designs = [
            ("balanced", balanced(N, T)),
            ("minimax", relaxed_basic(float(N), T)),
            ("augmented_minimax", relaxed_augmented(float(N), T)),
        ]
        arm_labels = [a.label for a in arms_for_horizon(T)]
        for name, alloc in designs:
            for label, count in zip(arm_labels, alloc.counts):
                rows.append({"design": name, "T": T, "arm": label, "count": count})
    return rows


def maxrisk_table(N: int, T_list: Sequence[int]) -> list[dict]:
    """Worst-case risk of the integer minimax designs relative to the
    balanced design, per horizon.

    Two settings are reported: ``augmented_only`` evaluates only the
    augmented design with the augmented control pool (balanced and basic
    minimax use the plug-in loss), while ``augmented_everywhere`` gives
    every design the augmented pool.  The worst-case scale factor cancels
    in the ratios, so it is fixed at 1.
    """
    plug = LossSpec("plugin", 0.5, unnormalized=True)
    aug = LossSpec("augmented", 0.5, unnormalized=True)
    rows = []
    for T in T_list:
        bal = balanced(N, T)
        mini = integer_solve(N, T, ObjectiveMode.basic())
        augd = integer_solve(N, T, ObjectiveMode.augmented())
        for panel, specs in (
            ("augmented_only", {"balanced": plug, "minimax": plug, "augmented_minimax": aug}),
            ("augmented_everywhere", {"balanced": aug, "minimax": aug, "augmented_minimax": aug}),
        ):
            base = max_risk(bal, T, 1.0, specs["balanced"])
            for name, alloc in (("balanced", bal), ("minimax", mini),
                                ("augmented_minimax", augd)):
                value = max_risk(alloc, T, 1.0, specs[name])
                rows.append({
                    "panel": panel, "T": T, "design": name,
                    "max_risk": value, "ratio_to_balanced": value / base,
                })
    return rows


def expected_risk_comparison(N_list: Sequence[int], T_list: Sequence[int],
                             model: str = "standard", reps: int = 100, seed: int = 0,
                             loss_estimator: str = "plugin",
                             params: ModelParams | None = None) -> list[dict]:
    """Empirical loss distribution of the basic minimax design against the
    balanced design.

    Each replicate draws a fresh schedule from the outcome model and one
    assignment per design, then records the realized loss.  By default the
    plug-in loss scores both designs; ``loss_estimator="augmented"``
    switches both to the augmented control pool.  Deterministic given the
    seed.
    """
    if model not in _MODELS:
        raise ValueError(f"unknown model {model!r}")
    if loss_estimator not in ("plugin", "augmented"):
        raise ValueError(f"unknown loss estimator {loss_estimator!r}")
    if reps < 1:
        raise ValueError(f"reps must be >= 1, got {reps}")
    _check_seed(seed)
    generate = _MODELS[model]
    spec = LossSpec(loss_estimator, 0.5, unnormalized=True)
    params = params or ModelParams()
    rows = []
    for N in N_list:
        for T in T_list:
            designs = [("balanced", balanced(N, T)),
                       ("minimax", integer_solve(N, T, ObjectiveMode.basic()))]
            samples = {name: np.empty(reps) for name, _ in designs}
            for r in range(reps):
                sched = generate(params, N, T, np.random.SeedSequence((seed, N, T, r)))
                for i, (name, alloc) in enumerate(designs):
                    Z = draw_assignment(alloc, seed=np.random.SeedSequence((seed, N, T, r, i)))
                    samples[name][r] = loss(Z, sched, spec)
            for name, _ in designs:
                vals = samples[name]
                q10, q50, q90 = np.quantile(vals, [0.1, 0.5, 0.9])
                rows.append({
                    "model": model, "N": N, "T": T, "design": name, "reps": reps,
                    "mean_loss": float(vals.mean()),
                    "sd_loss": float(vals.std(ddof=1)) if reps > 1 else 0.0,
                    "q10_loss": float(q10), "q50_loss": float(q50), "q90_loss": float(q90),
                })
    return rows
