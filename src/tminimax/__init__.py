"""Minimax unit allocations, effect estimators, and risk evaluation for
temporal randomized experiments with habituation."""

__version__ = "0.1.0"

from .core import (
    ALWAYS_CONTROL,
    ALWAYS_TREATED,
    Allocation,
    ArmId,
    AssignmentMatrix,
    Family,
    ObservedOutcomes,
    PotentialOutcomeSchedule,
    RealAllocation,
    draw_assignment,
    enumerate_assignments,
    observe,
    permute_units,
    pulse_arm,
)
from .allocation import (
    ObjectiveMode,
    balanced,
    brute_force_opt,
    integer_solve,
    objective,
    pulse_coefficients,
    relaxed_augmented,
    relaxed_basic,
    relaxed_recycling,
    relaxed_weighted,
)
from .estimators import (
    EffectKind,
    EffectSeries,
    EstimatorUndefinedError,
    augmented_instantaneous_estimate,
    estimands,
    habituation_estimate,
    instantaneous_estimate,
    recycling_instantaneous_estimate,
)
from .risk import (
    LossSpec,
    RiskOverflowError,
    RiskReport,
    VarianceComponents,
    box_max_variance,
    conservative_ci,
    exact_risk,
    loss,
    max_risk,
    mc_risk,
    mc_risks,
    true_variances,
    variance_components,
    worst_case_schedule,
)
from .simulate import (
    ModelParams,
    allocation_table,
    expected_risk_comparison,
    habituation_model,
    maxrisk_table,
    standard_model,
)
