"""Coupled slow/fast linear system: data model, fixed point, admissibility.

The system is the pair of recursions

    theta_{k+1} = theta_k + beta_k  (b1 - A11 theta_k - A12 r_k + V_k)
    r_{k+1}     = r_k     + gamma_k (b2 - A21 theta_k - A22 r_k + W_k)

with theta in R^n (slow) and r in R^m (fast).  The reduced slow drift is
Delta = A11 - A12 A22^{-1} A21, obtained by equilibrating the fast block.
Stability of the fast block and of the (possibly shifted) reduced drift is
what the admissibility checks verify.

The running-average construction is a special case: averaging the iterates
of a single-time-scale recursion r' = r + gamma (b - A r + W) is the same
coupled system with the average as the slow variable, identity slow drift
toward the fast iterate, and noise only on the fast block.
"""

from __future__ import annotations

from dataclasses import dataclass

import numpy as np

from . import linalg
from .errors import NotHurwitz, NotPSD, SingularA22, SingularSystem
from .schedules import SchedulePair, validate_schedules
from .validation import ValidationReport

COND_CAP = 1e12
DISTRIBUTIONS = ("gaussian", "scaled-rademacher")


def _vector(v, name: str) -> np.ndarray:
    a = np.asarray(v, dtype=np.float64)
    if a.ndim != 1:
        raise ValueError(f"{name} must be 1-D, got shape {a.shape}")
    return a


@dataclass(frozen=True)
class NoiseSpec:
    """Covariance blocks and draw distribution of the per-step noise pair (V, W)."""

    Gamma11: np.ndarray
    Gamma12: np.ndarray
    Gamma22: np.ndarray
    distribution: str = "gaussian"

    def __post_init__(self):
        object.__setattr__(self, "Gamma11", linalg.as_matrix(self.Gamma11, "Gamma11"))
        object.__setattr__(self, "Gamma12", linalg.as_matrix(self.Gamma12, "Gamma12"))
        object.__setattr__(self, "Gamma22", linalg.as_matrix(self.Gamma22, "Gamma22"))
        n, m = self.Gamma12.shape
        if self.Gamma11.shape != (n, n) or self.Gamma22.shape != (m, m):
            raise ValueError(
                f"inconsistent noise shapes: {self.Gamma11.shape}, {self.Gamma12.shape}, {self.Gamma22.shape}"
            )
        if not linalg.is_symmetric(self.Gamma11, tol=1e-10):
            raise ValueError("Gamma11 is not symmetric within tolerance")
        if not linalg.is_symmetric(self.Gamma22, tol=1e-10):
            raise ValueError("Gamma22 is not symmetric within tolerance")
        if self.distribution not in DISTRIBUTIONS:
            raise ValueError(f"distribution must be one of {DISTRIBUTIONS}, got {self.distribution!r}")
        J = self.joint()
        scale = 1.0 + float(np.linalg.norm(J))
        if float(np.min(np.linalg.eigvalsh(linalg.symmetrize(J)))) < -1e-10 * scale:
            raise NotPSD("joint noise covariance has a negative eigenvalue beyond tolerance")

    def joint(self) -> np.ndarray:
        """Full (n+m) x (n+m) covariance of the stacked noise (V, W)."""
        return np.block([[self.Gamma11, self.Gamma12], [self.Gamma12.T, self.Gamma22]])

    def to_dict(self) -> dict:
        return {
            "Gamma11": self.Gamma11.tolist(),
            "Gamma12": self.Gamma12.tolist(),
            "Gamma22": self.Gamma22.tolist(),
            "distribution": self.distribution,
        }

    @classmethod
    def from_dict(cls, d: dict) -> "NoiseSpec":
        return cls(
            Gamma11=d["Gamma11"],
            Gamma12=d["Gamma12"],
            Gamma22=d["Gamma22"],
            distribution=d.get("distribution", "gaussian"),
        )


@dataclass(frozen=True)
class SystemSpec:
    """Coefficients, offsets, and noise model of the coupled recursion."""

    A11: np.ndarray
    A12: np.ndarray
    A21: np.ndarray
    A22: np.ndarray
    b1: np.ndarray
    b2: np.ndarray
    noise: NoiseSpec

    def __post_init__(self):
        object.__setattr__(self, "A11", linalg.as_matrix(self.A11, "A11"))
        object.__setattr__(self, "A12", linalg.as_matrix(self.A12, "A12"))
        object.__setattr__(self, "A21", linalg.as_matrix(self.A21, "A21"))
        object.__setattr__(self, "A22", linalg.as_matrix(self.A22, "A22"))
        object.__setattr__(self, "b1", _vector(self.b1, "b1"))
        object.__setattr__(self, "b2", _vector(self.b2, "b2"))
        n, m = self.A12.shape
        shapes = {
            "A11": (self.A11.shape, (n, n)),
            "A21": (self.A21.shape, (m, n)),
            "A22": (self.A22.shape, (m, m)),
            "b1": (self.b1.shape, (n,)),
            "b2": (self.b2.shape, (m,)),
            "Gamma12": (self.noise.Gamma12.shape, (n, m)),
        }
        for name, (got, want) in shapes.items():
            if got != want:
                raise ValueError(f"{name} has shape {got}, expected {want}")
        if not np.all(np.isfinite(self.block_matrix())):
            raise ValueError("system coefficients must be finite")
        if np.linalg.cond(self.A22) > COND_CAP:
            raise SingularA22(f"A22 condition number exceeds {COND_CAP:.0e}")

    @property
    def n(self) -> int:
        return self.A12.shape[0]

    @property
    def m(self) -> int:
        return self.A12.shape[1]

    def block_matrix(self) -> np.ndarray:
        """Full (n+m) x (n+m) coefficient matrix."""
        return np.block([[self.A11, self.A12], [self.A21, self.A22]])

    def offset(self) -> np.ndarray:
        """Stacked offset vector (b1, b2)."""
        return np.concatenate([self.b1, self.b2])

    def to_dict(self) -> dict:
        return {
            "n": self.n,
            "m": self.m,
            "A11": self.A11.tolist(),
            "A12": self.A12.tolist(),
            "A21": self.A21.tolist(),
            "A22": self.A22.tolist(),
            "b1": self.b1.tolist(),
            "b2": self.b2.tolist(),
            "noise": self.noise.to_dict(),
        }

    @classmethod
    def from_dict(cls, d: dict) -> "SystemSpec":
        spec = cls(
            A11=d["A11"],
            A12=d["A12"],
            A21=d["A21"],
            A22=d["A22"],
            b1=d["b1"],
            b2=d["b2"],
            noise=NoiseSpec.from_dict(d["noise"]),
        )
        for key in ("n", "m"):
            if key in d and int(d[key]) != getattr(spec, key):
                raise ValueError(f"declared {key}={d[key]} does not match matrix shapes")
        return spec


def fixed_point(spec: SystemSpec) -> tuple[np.ndarray, np.ndarray]:
    """Solve A11 theta + A12 r = b1, A21 theta + A22 r = b2."""
    A = spec.block_matrix()
    b = spec.offset()
    if np.linalg.cond(A) > COND_CAP:
        raise SingularSystem(f"block matrix condition number exceeds {COND_CAP:.0e}")
    try:
        x = np.linalg.solve(A, b)
    except np.linalg.LinAlgError as exc:
        raise SingularSystem(str(exc)) from exc
    resid = np.linalg.norm(A @ x - b)
    if resid > 1e-10 * (1.0 + np.linalg.norm(b)):
        raise SingularSystem(f"fixed-point residual {resid:.3e} exceeds tolerance")
    return x[: spec.n], x[spec.n :]


def delta_matrix(spec: SystemSpec) -> np.ndarray:
    """Reduced slow drift A11 - A12 A22^{-1} A21."""
    try:
        return spec.A11 - spec.A12 @ np.linalg.solve(spec.A22, spec.A21)
    except np.linalg.LinAlgError as exc:
        raise SingularA22(str(exc)) from exc


def centring_matrix(spec: SystemSpec) -> np.ndarray:
    """Centring map T = [[I, 0], [A22^{-1} A21, I]] from fixed-point deviations.

    T takes (theta - theta*, r - r*) to centered coordinates.  The centered
    fast coordinate (r - r*) + A22^{-1} A21 (theta - theta*) equals r minus
    its slow-conditional target A22^{-1} (b2 - A21 theta).
    """
    n, m = spec.n, spec.m
    try:
        coupling = np.linalg.solve(spec.A22, spec.A21)
    except np.linalg.LinAlgError as exc:
        raise SingularA22(str(exc)) from exc
    return np.block([[np.eye(n), np.zeros((n, m))], [coupling, np.eye(m)]])


def averaging_system(A, b, Gamma) -> SystemSpec:
    """Running-average construction as a coupled slow/fast system.

    The fast block runs r' = r + gamma (b - A r + W); the slow block tracks
    the running average of r (identity drift toward the fast iterate, no
    slow noise).  Requires -A Hurwitz so the fast recursion converges.
    The reduced slow drift of the result is the identity and both fixed-point
    coordinates equal the solution of A r = b.
    """
    A = linalg.as_matrix(A, "A")
    b = _vector(b, "b")
    Gamma = linalg.as_matrix(Gamma, "Gamma")
    d = A.shape[0]
    if A.shape != (d, d) or b.shape != (d,) or Gamma.shape != (d, d):
        raise ValueError("A, b, Gamma must share one dimension")
    if not linalg.is_hurwitz(-A):
        raise NotHurwitz("-A must be Hurwitz for the inner recursion to converge")
    eye = np.eye(d)
    zero = np.zeros((d, d))
    return SystemSpec(
        A11=eye,
        A12=-eye,
        A21=zero,
        A22=A,
        b1=np.zeros(d),
        b2=b,
        noise=NoiseSpec(Gamma11=zero, Gamma12=zero, Gamma22=Gamma),
    )


def gained_system(spec: SystemSpec, G1) -> SystemSpec:
    """System whose dynamics equal the original with gain G1 on the slow update.

    This is the full-block gain diag(G1, I_m): it rescales the slow
    coefficient row and maps the slow noise V to G1 V, so the gained
    dynamics are exactly those of the derived system and every estimator
    applies unchanged.
    """
    G1 = linalg.as_matrix(G1, "G1")
    n, m = spec.n, spec.m
    if G1.shape != (n, n):
        raise ValueError(f"G1 must be {n}x{n}, got {G1.shape}")
    G = np.block([[G1, np.zeros((n, m))], [np.zeros((m, n)), np.eye(m)]])
    return fully_gained_system(spec, G)


def fully_gained_system(spec: SystemSpec, G) -> SystemSpec:
    """System for a full-block gain G applied to both updates jointly.

    The coefficient matrix becomes G A, the offset G b, and the stacked
    noise maps to G U, so the joint covariance becomes G Gamma G'.
    """
    G = linalg.as_matrix(G, "G")
    n, m = spec.n, spec.m
    if G.shape != (n + m, n + m):
        raise ValueError(f"G must be {(n + m, n + m)}, got {G.shape}")
    GA = G @ spec.block_matrix()
    gb = G @ spec.offset()
    J = linalg.symmetrize(G @ spec.noise.joint() @ G.T)
    return SystemSpec(
        A11=GA[:n, :n],
        A12=GA[:n, n:],
        A21=GA[n:, :n],
        A22=GA[n:, n:],
        b1=gb[:n],
        b2=gb[n:],
        noise=NoiseSpec(
            Gamma11=J[:n, :n],
            Gamma12=J[:n, n:],
            Gamma22=J[n:, n:],
            distribution=spec.noise.distribution,
        ),
    )


def validate_system(spec: SystemSpec, pair: SchedulePair) -> ValidationReport:
    """Check system stability conditions and merge the schedule checks."""
    report = ValidationReport()

    abscissa_fast = linalg.spectral_abscissa(-spec.A22)
    report.add(
        "fast-matrix-stable",
        abscissa_fast < -linalg.HURWITZ_MARGIN,
        measured=abscissa_fast,
        threshold=0.0,
        note="spectral abscissa of -A22",
    )

    delta = delta_matrix(spec)
    abscissa_reduced = linalg.spectral_abscissa(-delta)
    report.add(
        "reduced-matrix-stable",
        abscissa_reduced < -linalg.HURWITZ_MARGIN,
        measured=abscissa_reduced,
        threshold=0.0,
        note="spectral abscissa of -Delta",
    )

    schedule_report = validate_schedules(pair)
    beta_bar = pair.beta_bar
    shifted = -(delta - 0.5 * beta_bar * np.eye(spec.n))
    abscissa_shifted = linalg.spectral_abscissa(shifted)
    report.add(
        "shifted-reduced-matrix-stable",
        abscissa_shifted < -linalg.HURWITZ_MARGIN,
        measured=abscissa_shifted,
        threshold=0.0,
        note="spectral abscissa of -(Delta - beta_bar/2 I)",
    )

    J = spec.noise.joint()
    min_eig = float(np.min(np.linalg.eigvalsh(linalg.symmetrize(J))))
    scale = 1.0 + float(np.linalg.norm(J))
    report.add(
        "joint-noise-psd",
        min_eig >= -1e-10 * scale,
        measured=min_eig,
        threshold=-1e-10 * scale,
    )

    report.extend(schedule_report)
    return report
