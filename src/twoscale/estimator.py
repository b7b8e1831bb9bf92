"""Scaled covariance estimates from ensemble samples, with normality diagnostics.

Second moments are uncentered: the samples are already centered at the
deterministic fixed point, and subtracting the sample mean would estimate a
different quantity.  The normality check standardizes the slow samples by
the predicted covariance, compares the squared Mahalanobis distances
against a chi-square law via the Kolmogorov-Smirnov distance, and reports
per-coordinate skewness and excess kurtosis after whitening.  Thresholds
sit at the 1% KS critical value and four standard errors of the moment
estimators, trading a small miss rate for low flakiness.
"""

from __future__ import annotations

from dataclasses import dataclass

import numpy as np

from .errors import InsufficientSamples, SingularPrediction
from .linalg import factor_covariance, symmetrize

MIN_COVARIANCE_SAMPLES = 2
MIN_SE_SAMPLES = 30
MIN_NORMALITY_SAMPLES = 100


def _samples(x, name: str) -> np.ndarray:
    a = np.asarray(x, dtype=np.float64)
    if a.ndim != 2:
        raise ValueError(f"{name} must be (replicas, dim), got shape {a.shape}")
    return a


def _paired_samples(theta_hat, r_hat, minimum: int) -> tuple[np.ndarray, np.ndarray]:
    th, rh = _samples(theta_hat, "theta_hat"), _samples(r_hat, "r_hat")
    if rh.shape[0] != th.shape[0]:
        raise ValueError("theta_hat and r_hat must have the same replica count")
    if th.shape[0] < minimum:
        raise InsufficientSamples(f"need at least {minimum} samples, got {th.shape[0]}")
    return th, rh


def scaled_covariances(
    theta_hat, r_hat, beta_k: float, gamma_k: float
) -> tuple[np.ndarray, np.ndarray, np.ndarray]:
    """Cross-replica scaled second moments (S11, S12, S22) at one step.

    S11 and S12 are scaled by 1/beta_k, S22 by 1/gamma_k; the means are
    uncentered outer products, so S11 and S22 are positive semidefinite by
    construction.
    """
    th, rh = _paired_samples(theta_hat, r_hat, MIN_COVARIANCE_SAMPLES)
    N = th.shape[0]
    S11 = symmetrize(th.T @ th) / (N * beta_k)
    S12 = (th.T @ rh) / (N * beta_k)
    S22 = symmetrize(rh.T @ rh) / (N * gamma_k)
    return S11, S12, S22


def standard_errors(
    theta_hat, r_hat, beta_k: float, gamma_k: float
) -> tuple[np.ndarray, np.ndarray, np.ndarray]:
    """Entrywise standard errors of the scaled covariance estimates.

    Each covariance entry is a mean of per-replica outer products; its SE is
    the sample standard deviation of those products over sqrt(N).
    """
    th, rh = _paired_samples(theta_hat, r_hat, MIN_SE_SAMPLES)
    N = th.shape[0]

    def per_entry_se(x, y, scale):
        prods = np.einsum("ni,nj->nij", x, y) / scale
        return np.std(prods, axis=0, ddof=1) / np.sqrt(N)

    return (
        per_entry_se(th, th, beta_k),
        per_entry_se(th, rh, beta_k),
        per_entry_se(rh, rh, gamma_k),
    )


def chi_square_cdf(x, dof: int) -> np.ndarray:
    """Regularized lower incomplete gamma evaluation of the chi-square law."""
    from scipy.special import gammainc  # deferred: scipy.special slows every CLI start

    return gammainc(dof / 2.0, np.asarray(x, dtype=np.float64) / 2.0)


def ks_distance(values: np.ndarray, cdf) -> float:
    """One-sample Kolmogorov-Smirnov distance against a continuous CDF."""
    v = np.sort(np.asarray(values, dtype=np.float64))
    N = len(v)
    F = np.asarray(cdf(v), dtype=np.float64)
    grid = np.arange(1, N + 1) / N
    return float(max(np.max(grid - F), np.max(F - (grid - 1.0 / N))))


@dataclass(frozen=True)
class NormalityReport:
    """KS distance of Mahalanobis distances plus whitened moment diagnostics."""

    ks_statistic: float
    skewness: np.ndarray
    excess_kurtosis: np.ndarray
    sample_count: int
    dof: int

    @property
    def ks_threshold(self) -> float:
        # 1% critical value of the one-sample KS statistic.
        return 1.63 / np.sqrt(self.sample_count)

    @property
    def skew_threshold(self) -> float:
        return 4.0 * np.sqrt(6.0 / self.sample_count)

    @property
    def kurtosis_threshold(self) -> float:
        return 4.0 * np.sqrt(24.0 / self.sample_count)

    @property
    def passed(self) -> bool:
        return (
            self.ks_statistic < self.ks_threshold
            and bool(np.all(np.abs(self.skewness) < self.skew_threshold))
            and bool(np.all(np.abs(self.excess_kurtosis) < self.kurtosis_threshold))
        )

    def lines(self) -> list[str]:
        return [
            f"samples: {self.sample_count}",
            f"ks_statistic: {self.ks_statistic:.6g} (threshold {self.ks_threshold:.6g})",
            f"skewness: {np.array2string(self.skewness, precision=4)} (|.| < {self.skew_threshold:.4g})",
            f"excess_kurtosis: {np.array2string(self.excess_kurtosis, precision=4)} "
            f"(|.| < {self.kurtosis_threshold:.4g})",
            f"normal: {self.passed}",
        ]

    def csv_row(self) -> dict:
        row = {
            "samples": self.sample_count,
            "dof": self.dof,
            "ks_statistic": self.ks_statistic,
            "ks_threshold": self.ks_threshold,
            "passed": int(self.passed),
        }
        for i, (s, k) in enumerate(zip(self.skewness, self.excess_kurtosis)):
            row[f"skewness_{i}"] = s
            row[f"excess_kurtosis_{i}"] = k
        return row


def normality_check(theta_hat, beta_k: float, Sigma11_pred) -> NormalityReport:
    """Test whether scaled slow samples look like the predicted Gaussian.

    Standardizes x = theta_hat / sqrt(beta_k), computes squared Mahalanobis
    distances under the predicted covariance, and compares them to the
    chi-square law with n degrees of freedom; moment diagnostics are taken
    per coordinate after whitening.
    """
    th = _samples(theta_hat, "theta_hat")
    N, n = th.shape
    if N < MIN_NORMALITY_SAMPLES:
        raise InsufficientSamples(f"need at least {MIN_NORMALITY_SAMPLES} samples, got {N}")
    Sigma = symmetrize(np.asarray(Sigma11_pred, dtype=np.float64).reshape(n, n))
    if np.linalg.cond(Sigma) > 1e12:
        raise SingularPrediction("predicted covariance condition number exceeds 1e12")

    x = th / np.sqrt(beta_k)
    try:
        solved = np.linalg.solve(Sigma, x.T)
        F = factor_covariance(Sigma)
        y = np.linalg.solve(F, x.T).T
    except np.linalg.LinAlgError as exc:
        raise SingularPrediction(str(exc)) from exc

    d2 = np.einsum("ni,in->n", x, solved)
    ks = ks_distance(d2, lambda v: chi_square_cdf(v, n))

    centered = y - np.mean(y, axis=0)
    std = np.std(centered, axis=0, ddof=0)
    skew = np.mean(centered**3, axis=0) / std**3
    kurt = np.mean(centered**4, axis=0) / std**4 - 3.0

    return NormalityReport(
        ks_statistic=ks,
        skewness=skew,
        excess_kurtosis=kurt,
        sample_count=N,
        dof=n,
    )
