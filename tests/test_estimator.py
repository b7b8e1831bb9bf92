import math

import numpy as np
import pytest

from twoscale import normality_check, scaled_covariances
from twoscale.errors import InsufficientSamples, SingularPrediction
from twoscale.estimator import chi_square_cdf, ks_distance, standard_errors


def test_scaled_covariances_zero_samples_give_zero():
    th = np.zeros((10, 2))
    rh = np.zeros((10, 3))
    S11, S12, S22 = scaled_covariances(th, rh, 0.1, 0.2)
    assert np.all(S11 == 0.0) and np.all(S12 == 0.0) and np.all(S22 == 0.0)


def test_scaled_covariances_two_point_example():
    a = 0.7
    th = np.array([[a], [-a]])
    rh = np.array([[0.0], [0.0]])
    S11, _, _ = scaled_covariances(th, rh, beta_k=a * a, gamma_k=1.0)
    assert S11[0, 0] == pytest.approx(1.0)


def test_scaled_covariances_scaling():
    rng = np.random.default_rng(0)
    th = rng.standard_normal((500, 2))
    rh = rng.standard_normal((500, 1))
    S11, S12, S22 = scaled_covariances(th, rh, 0.25, 0.5)
    assert S11 == pytest.approx(th.T @ th / (500 * 0.25))
    assert S12 == pytest.approx(th.T @ rh / (500 * 0.25))
    assert S22 == pytest.approx(rh.T @ rh / (500 * 0.5))


def test_scaled_covariances_psd_by_construction():
    rng = np.random.default_rng(1)
    th = rng.standard_normal((200, 4))
    rh = rng.standard_normal((200, 3))
    S11, _, S22 = scaled_covariances(th, rh, 0.1, 0.1)
    assert np.min(np.linalg.eigvalsh(S11)) >= -1e-12
    assert np.min(np.linalg.eigvalsh(S22)) >= -1e-12


def test_scaled_covariances_permutation_invariance_by_reindexing():
    rng = np.random.default_rng(2)
    th = rng.standard_normal((64, 2))
    rh = rng.standard_normal((64, 2))
    perm = rng.permutation(64)
    inverse = np.argsort(perm)
    # permuted then restored by replica index: identical arrays, identical bits
    th_restored = th[perm][inverse]
    rh_restored = rh[perm][inverse]
    S = scaled_covariances(th, rh, 0.3, 0.7)
    S_restored = scaled_covariances(th_restored, rh_restored, 0.3, 0.7)
    for a, b in zip(S, S_restored):
        assert np.array_equal(a, b)


def test_scaled_covariances_insufficient_samples():
    with pytest.raises(InsufficientSamples):
        scaled_covariances(np.zeros((1, 1)), np.zeros((1, 1)), 1.0, 1.0)


def test_standard_errors_constant_samples_are_zero():
    th = np.ones((50, 1))
    rh = np.ones((50, 1))
    SE11, SE12, SE22 = standard_errors(th, rh, 1.0, 1.0)
    assert np.all(SE11 == 0.0) and np.all(SE12 == 0.0) and np.all(SE22 == 0.0)


def test_standard_errors_match_variance_of_variance():
    # variance estimate of unit gaussians has standard error ~ v sqrt(2/N)
    rng = np.random.default_rng(3)
    N = 10**5
    v = 2.5
    th = rng.standard_normal((N, 1)) * math.sqrt(v)
    rh = np.zeros((N, 1))
    SE11, _, _ = standard_errors(th, rh, 1.0, 1.0)
    expected = v * math.sqrt(2.0 / N)
    assert SE11[0, 0] == pytest.approx(expected, rel=0.2)


def test_standard_errors_insufficient_samples():
    with pytest.raises(InsufficientSamples):
        standard_errors(np.zeros((10, 1)), np.zeros((10, 1)), 1.0, 1.0)


def test_chi_square_cdf_closed_forms():
    xs = np.array([0.1, 0.5, 1.0, 2.0, 5.0, 10.0])
    # dof 2: 1 - exp(-x/2)
    assert chi_square_cdf(xs, 2) == pytest.approx(1.0 - np.exp(-xs / 2.0), rel=1e-12)
    # dof 1: erf(sqrt(x/2))
    expected = np.array([math.erf(math.sqrt(x / 2.0)) for x in xs])
    assert chi_square_cdf(xs, 1) == pytest.approx(expected, rel=1e-12)


def test_ks_distance_two_point_hand_value():
    d = ks_distance(np.array([0.25, 0.75]), lambda v: v)
    assert d == pytest.approx(0.25)


def test_ks_distance_against_scipy():
    from scipy import stats

    rng = np.random.default_rng(4)
    x = rng.chisquare(3, size=500)
    ours = ks_distance(x, lambda v: chi_square_cdf(v, 3))
    theirs = stats.kstest(x, lambda v: stats.chi2.cdf(v, 3)).statistic
    assert ours == pytest.approx(theirs, abs=1e-12)


def test_normality_check_gaussian_passes_most_seeds():
    # exact draws from the predicted law; thresholds sit at the 1% point,
    # so at least 99 of these fixed 100 seeds must pass
    Sigma = np.array([[2.0, 0.3], [0.3, 1.0]])
    L = np.linalg.cholesky(Sigma)
    beta = 0.01
    passes = 0
    for seed in range(100):
        rng = np.random.default_rng(seed)
        x = rng.standard_normal((10**4, 2)) @ L.T
        rep = normality_check(x * math.sqrt(beta), beta, Sigma)
        passes += rep.passed
    assert passes >= 99


def test_normality_check_ks_threshold_value():
    rng = np.random.default_rng(0)
    x = rng.standard_normal((10**4, 1))
    rep = normality_check(x, 1.0, np.array([[1.0]]))
    assert rep.ks_threshold == pytest.approx(1.63 / 100.0)
    assert rep.ks_statistic < rep.ks_threshold


def test_normality_check_flags_uniform_kurtosis():
    rng = np.random.default_rng(1)
    x = rng.uniform(-1.0, 1.0, size=(10**4, 1)) * math.sqrt(3.0)  # unit variance
    rep = normality_check(x, 1.0, np.array([[1.0]]))
    assert rep.excess_kurtosis[0] == pytest.approx(-1.2, abs=0.1)
    assert not rep.passed


def test_normality_check_flags_skewed_input():
    rng = np.random.default_rng(2)
    x = rng.exponential(1.0, size=(10**4, 1)) - 1.0
    rep = normality_check(x, 1.0, np.array([[1.0]]))
    assert abs(rep.skewness[0]) > rep.skew_threshold
    assert not rep.passed


def test_normality_check_insufficient_samples():
    with pytest.raises(InsufficientSamples):
        normality_check(np.zeros((50, 1)), 1.0, np.array([[1.0]]))


def test_normality_check_singular_prediction():
    rng = np.random.default_rng(3)
    x = rng.standard_normal((200, 2))
    with pytest.raises(SingularPrediction):
        normality_check(x, 1.0, np.array([[1.0, 1.0], [1.0, 1.0]]))


def test_normality_report_serialization():
    rng = np.random.default_rng(5)
    x = rng.standard_normal((500, 2))
    rep = normality_check(x, 1.0, np.eye(2))
    row = rep.csv_row()
    assert row["samples"] == 500
    assert "skewness_1" in row and "excess_kurtosis_0" in row
    assert any("ks_statistic" in line for line in rep.lines())
