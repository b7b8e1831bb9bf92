"""Asymptotic covariance prediction and validation for coupled slow/fast linear iterations."""

from .engine import (
    EnsembleResult,
    NoiseStream,
    TrajectoryState,
    noise_stream,
    propagate_covariance,
    reconstruct_original,
    run_ensemble,
    simulate,
    simulate_transformed,
)
from .estimator import NormalityReport, normality_check, scaled_covariances, standard_errors
from .model import (
    NoiseSpec,
    SystemSpec,
    averaging_system,
    delta_matrix,
    fixed_point,
    fully_gained_system,
    gained_system,
    hat_transform,
    validate_system,
)
from .schedules import (
    SchedulePair,
    StepSchedule,
    beta_bar_limit,
    epsilon_limit,
    validate_schedules,
)
from .theory import (
    CovariancePrediction,
    LSequence,
    gained_reduced_covariance,
    l_sequence,
    noise_equivalent_covariance,
    optimal_gain_covariance,
    predict_full,
    predict_reduced,
)

__version__ = "0.1.0"

__all__ = [
    "CovariancePrediction",
    "EnsembleResult",
    "LSequence",
    "NoiseSpec",
    "NoiseStream",
    "NormalityReport",
    "SchedulePair",
    "StepSchedule",
    "SystemSpec",
    "TrajectoryState",
    "averaging_system",
    "beta_bar_limit",
    "delta_matrix",
    "epsilon_limit",
    "fixed_point",
    "fully_gained_system",
    "gained_reduced_covariance",
    "gained_system",
    "hat_transform",
    "l_sequence",
    "noise_equivalent_covariance",
    "noise_stream",
    "normality_check",
    "optimal_gain_covariance",
    "predict_full",
    "predict_reduced",
    "propagate_covariance",
    "reconstruct_original",
    "run_ensemble",
    "scaled_covariances",
    "simulate",
    "simulate_transformed",
    "standard_errors",
    "validate_schedules",
    "validate_system",
]
