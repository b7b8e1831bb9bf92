import math

import numpy as np
import pytest

from twoscale import SchedulePair, StepSchedule
from twoscale.errors import DivergentRatio
from twoscale.schedules import beta_bar_limit, epsilon_limit, validate_schedules


def test_step_value_at_zero_is_base():
    assert StepSchedule(1.0, 1.0, 1.0).value(0) == 1.0


def test_step_value_halves_at_horizon():
    assert StepSchedule(0.5, 10.0, 1.0).value(10) == pytest.approx(0.25, abs=1e-15)


def test_step_value_sublinear_exponent():
    # 1000**(-0.6) evaluated through logs as an independent route
    expected = math.exp(-0.6 * math.log(1000.0))
    assert StepSchedule(1.0, 1.0, 0.6).value(999) == pytest.approx(expected, rel=1e-13)
    assert expected == pytest.approx(0.015848931924611134, rel=1e-12)


def test_constructor_rejects_bad_parameters():
    with pytest.raises(ValueError):
        StepSchedule(base=1.0, horizon_scale=1.0, exponent=0.4)
    with pytest.raises(ValueError):
        StepSchedule(base=1.0, horizon_scale=1.0, exponent=1.2)
    with pytest.raises(ValueError):
        StepSchedule(base=-1.0, horizon_scale=1.0, exponent=0.8)
    with pytest.raises(ValueError):
        StepSchedule(base=1.0, horizon_scale=0.0, exponent=0.8)


def test_values_positive_nonincreasing_and_vanishing():
    rng = np.random.default_rng(0)
    for _ in range(20):
        sched = StepSchedule(
            base=float(rng.uniform(0.01, 5.0)),
            horizon_scale=float(rng.uniform(0.1, 100.0)),
            exponent=float(rng.uniform(0.51, 1.0)),
        )
        ks = np.arange(0, 2000)
        vals = sched.values(ks)
        assert np.all(vals > 0)
        assert np.all(np.diff(vals) <= 0)
        assert sched.value(10**9) < sched.value(0) / 100.0


def test_partial_sums_grow_without_bound():
    sched = StepSchedule(1.0, 1.0, 1.0)
    s1 = sched.values(np.arange(10**4)).sum()
    s2 = sched.values(np.arange(2 * 10**4)).sum()
    s3 = sched.values(np.arange(4 * 10**4)).sum()
    # each doubling adds about log(2) for the 1/k family
    assert s2 - s1 > 0.5
    assert s3 - s2 > 0.5


def test_epsilon_limit_zero_for_separated_exponents():
    pair = SchedulePair(slow=StepSchedule(1.0, 1.0, 1.0), fast=StepSchedule(1.0, 10.0, 0.7))
    assert epsilon_limit(pair) == 0.0


def test_epsilon_limit_identical_schedules_is_one():
    s = StepSchedule(0.3, 5.0, 0.8)
    assert epsilon_limit(SchedulePair(slow=s, fast=s)) == pytest.approx(1.0)


def test_epsilon_limit_constant_ratio_pair():
    pair = SchedulePair(slow=StepSchedule(0.2, 10.0, 0.7), fast=StepSchedule(1.0, 10.0, 0.7))
    assert epsilon_limit(pair) == pytest.approx(0.2, abs=1e-15)


def test_epsilon_limit_equal_exponent_different_horizons():
    pair = SchedulePair(slow=StepSchedule(1.0, 20.0, 0.8), fast=StepSchedule(1.0, 10.0, 0.8))
    expected = 2.0**0.8
    assert epsilon_limit(pair) == pytest.approx(expected, rel=1e-12)
    # numerical ratio at large k agrees
    k = 10**8
    assert pair.slow.value(k) / pair.fast.value(k) == pytest.approx(expected, rel=1e-6)


def test_epsilon_limit_divergent_raises():
    pair = SchedulePair(slow=StepSchedule(1.0, 1.0, 0.6), fast=StepSchedule(1.0, 1.0, 0.8))
    with pytest.raises(DivergentRatio):
        epsilon_limit(pair)


def test_epsilon_zero_numerical_agreement():
    pair = SchedulePair(slow=StepSchedule(1.0, 10.0, 1.0), fast=StepSchedule(1.0, 10.0, 0.7))
    assert epsilon_limit(pair) == 0.0
    ratio = pair.slow.value(10**8) / pair.fast.value(10**8)
    assert ratio < 1e-2 * max(1.0, pair.slow.base / pair.fast.base)


def test_beta_bar_limit_exponent_one():
    assert beta_bar_limit(StepSchedule(1.0, 1.0, 1.0)) == pytest.approx(1.0)
    assert beta_bar_limit(StepSchedule(0.5, 4.0, 1.0)) == pytest.approx(0.5)


def test_beta_bar_limit_sublinear_is_zero():
    assert beta_bar_limit(StepSchedule(1.0, 1.0, 0.7)) == 0.0


def test_beta_bar_limit_matches_finite_difference():
    sched = StepSchedule(0.1, 10.0, 1.0)
    assert beta_bar_limit(sched) == pytest.approx(1.0)
    k = 10**6
    diff = 1.0 / sched.value(k + 1) - 1.0 / sched.value(k)
    assert diff == pytest.approx(beta_bar_limit(sched), rel=1e-6)


def test_pair_properties_and_round_trip():
    pair = SchedulePair(slow=StepSchedule(1.0, 10.0, 1.0), fast=StepSchedule(0.5, 10.0, 0.7))
    assert pair.beta_bar == pytest.approx(0.1)
    assert pair.epsilon == 0.0
    rebuilt = SchedulePair.from_dict(pair.to_dict())
    assert rebuilt == pair


def test_validate_schedules_reference_pair_passes():
    pair = SchedulePair(slow=StepSchedule(1.0, 10.0, 1.0), fast=StepSchedule(1.0, 10.0, 0.7))
    report = validate_schedules(pair)
    assert report.passed
    assert report["step-ratio-limit-exists"].measured == 0.0
    assert report["slow-inverse-growth-limit"].measured == pytest.approx(0.1)


def test_validate_schedules_single_time_scale_flagged():
    s = StepSchedule(1.0, 1.0, 0.8)
    report = validate_schedules(SchedulePair(slow=s, fast=s))
    assert report.passed
    check = report["time-scale-separation"]
    assert check.measured == pytest.approx(1.0)
    assert "single-time-scale" in check.note


def test_validate_schedules_divergent_ratio_fails():
    pair = SchedulePair(slow=StepSchedule(1.0, 1.0, 0.6), fast=StepSchedule(1.0, 1.0, 0.9))
    report = validate_schedules(pair)
    assert not report.passed
    assert not report["step-ratio-limit-exists"].passed
