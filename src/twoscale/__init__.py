"""Asymptotic covariance prediction and validation for coupled slow/fast linear iterations."""

from .engine import (
    STREAM_LAYOUT,
    propagate_covariance,
    reconstruct_original,
    run_ensemble,
    simulate,
    simulate_transformed,
)
from .estimator import normality_check, scaled_covariances
from .model import NoiseSpec, SystemSpec, averaging_system, gained_system
from .schedules import SchedulePair, StepSchedule
from .theory import (
    l_sequence,
    optimal_gain_covariance,
    predict_full,
    predict_reduced,
)

__version__ = "0.1.0"

__all__ = [
    "STREAM_LAYOUT",
    "NoiseSpec",
    "SchedulePair",
    "StepSchedule",
    "SystemSpec",
    "averaging_system",
    "gained_system",
    "l_sequence",
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
]
