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

from dataclasses import dataclass, field

import numpy as np

from . import linalg
from .errors import DivergentRatio, SingularA22, SingularSystem
from .schedules import SchedulePair
from .validation import ValidationReport

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
    factor: np.ndarray = field(init=False, repr=False, compare=False)  # F with F F' = joint()

    def __post_init__(self):
        object.__setattr__(self, "Gamma11", linalg.as_matrix(self.Gamma11, "Gamma11"))
        object.__setattr__(self, "Gamma12", linalg.as_matrix(self.Gamma12, "Gamma12"))
        object.__setattr__(self, "Gamma22", linalg.as_matrix(self.Gamma22, "Gamma22"))
        n, m = self.Gamma12.shape
        if self.Gamma11.shape != (n, n) or self.Gamma22.shape != (m, m):
            raise ValueError(
                f"inconsistent noise shapes: {self.Gamma11.shape}, {self.Gamma12.shape}, {self.Gamma22.shape}"
            )
        if not all(np.all(np.isfinite(G)) for G in (self.Gamma11, self.Gamma12, self.Gamma22)):
            raise ValueError("noise covariance blocks must be finite")
        if not linalg.is_symmetric(self.Gamma11):
            raise ValueError("Gamma11 is not symmetric within tolerance")
        if not linalg.is_symmetric(self.Gamma22):
            raise ValueError("Gamma22 is not symmetric within tolerance")
        if self.distribution not in DISTRIBUTIONS:
            raise ValueError(f"distribution must be one of {DISTRIBUTIONS}, got {self.distribution!r}")
        # Also the PSD check: the factor raises NotPSD below the floor.
        object.__setattr__(self, "factor", linalg.factor_covariance(self.joint()))

    def joint(self) -> np.ndarray:
        """Full (n+m) x (n+m) covariance of the stacked noise (V, W)."""
        return np.block([[self.Gamma11, self.Gamma12], [self.Gamma12.T, self.Gamma22]])


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
    # cond(A22), reported by `stability_checks` and read by every solve with A22.
    a22_cond: float = field(init=False, repr=False, compare=False)
    # The checks of `stability_checks` per beta_bar, evaluated once each.
    _stability: dict = field(init=False, repr=False, compare=False, default_factory=dict)
    # Matrices of the coefficients alone, each evaluated once: see `derived`.
    _derived: dict = field(init=False, repr=False, compare=False, default_factory=dict)

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
        if not all(np.all(np.isfinite(v)) for v in (self.block_matrix(), self.b1, self.b2)):
            raise ValueError("system coefficients and offsets must be finite")
        object.__setattr__(self, "a22_cond", float(np.linalg.cond(self.A22)))

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

    def derived(self, name: str, compute) -> np.ndarray:
        """The matrix name of this spec: compute() on first use, then kept here, read-only.

        The spec is frozen, so a matrix of its coefficients alone, such as
        `fast_coupling`, holds for its life; one `predict` reads each
        several times.
        """
        value = self._derived.get(name)
        if value is None:
            value = self._derived[name] = compute()
            value.flags.writeable = False
        return value


def fixed_point(spec: SystemSpec) -> tuple[np.ndarray, np.ndarray]:
    """Solve A11 theta + A12 r = b1, A21 theta + A22 r = b2."""
    A = spec.block_matrix()
    b = spec.offset()
    if np.linalg.cond(A) > linalg.COND_CAP:
        raise SingularSystem(f"block matrix condition number exceeds {linalg.COND_CAP:.0e}")
    try:
        x = np.linalg.solve(A, b)
    except np.linalg.LinAlgError as exc:
        raise SingularSystem(str(exc)) from exc
    resid = linalg.frobenius(A @ x - b)
    if resid > 1e-10 * (1.0 + linalg.frobenius(b)):
        raise SingularSystem(f"fixed-point residual {resid:.3e} exceeds tolerance")
    return x[: spec.n], x[spec.n :]


def require_invertible_a22(spec: SystemSpec) -> None:
    """Raise SingularA22 when cond(A22) exceeds COND_CAP, the `fast-matrix-conditioned` check."""
    if spec.a22_cond > linalg.COND_CAP:
        raise SingularA22(f"A22 condition number exceeds {linalg.COND_CAP:.0e}")


def fast_coupling(spec: SystemSpec) -> np.ndarray:
    """A22^{-1} A21, the fast block's equilibrium response to the slow iterate; read-only, solved once per spec."""
    require_invertible_a22(spec)
    return spec.derived("fast_coupling", lambda: np.linalg.solve(spec.A22, spec.A21))


def delta_matrix(spec: SystemSpec) -> np.ndarray:
    """Reduced slow drift A11 - A12 A22^{-1} A21."""
    return spec.A11 - spec.A12 @ fast_coupling(spec)


def centring_matrix(spec: SystemSpec) -> np.ndarray:
    """Centring map T = [[I, 0], [A22^{-1} A21, I]] from fixed-point deviations.

    T takes (theta - theta*, r - r*) to centered coordinates.  The centered
    fast coordinate (r - r*) + A22^{-1} A21 (theta - theta*) equals r minus
    its slow-conditional target A22^{-1} (b2 - A21 theta).
    """
    n, m = spec.n, spec.m
    return np.block([[np.eye(n), np.zeros((n, m))], [fast_coupling(spec), np.eye(m)]])


def averaging_system(A, b, Gamma) -> SystemSpec:
    """Running-average construction as a coupled slow/fast system.

    The fast block runs r' = r + gamma (b - A r + W); the slow block tracks
    the running average of r (identity drift toward the fast iterate, no
    slow noise).  A22 is A, so `stability_checks` reports whether -A is
    Hurwitz as `fast-matrix-stable` and cond(A) as `fast-matrix-conditioned`,
    and `SystemSpec` refuses a non-finite A.  The reduced slow drift of the
    result is the identity and both fixed-point coordinates equal the
    solution of A r = b.
    """
    A = linalg.as_matrix(A, "A")
    b = _vector(b, "b")
    Gamma = linalg.as_matrix(Gamma, "Gamma")
    d = A.shape[0]
    if A.shape != (d, d) or b.shape != (d,) or Gamma.shape != (d, d):
        raise ValueError("A, b, Gamma must share one dimension")
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


def stability_checks(spec: SystemSpec, beta_bar: float) -> ValidationReport:
    """Stability of -A22, conditioning of A22, and stability of -Delta and -(Delta - beta_bar/2 I).

    Each stability check reports the spectral abscissa it measured and
    passes when that is below its threshold, -HURWITZ_MARGIN; the shifted
    check, the one that reads beta_bar, notes its value.
    `fast-matrix-conditioned` reports cond(A22) against COND_CAP.  When it
    fails, Delta = A11 - A12 A22^{-1} A21 does not exist, so the two checks
    on it fail with a note and no measured value.  `validate_system` lists
    these checks, and the limit-equation solvers in `theory` refuse a system
    that fails any of them.  The checks are evaluated once per spec and
    beta_bar and kept on the spec; each call returns a fresh report of them.
    """
    checks = spec._stability.get(beta_bar)
    if checks is None:
        checks = spec._stability[beta_bar] = tuple(_stability_report(spec, beta_bar).checks)
    return ValidationReport(list(checks))


def _stability_report(spec: SystemSpec, beta_bar: float) -> ValidationReport:
    report = ValidationReport()
    threshold = -linalg.HURWITZ_MARGIN

    def stable(name: str, M: np.ndarray, note: str) -> None:
        abscissa = linalg.spectral_abscissa(M)
        report.add(
            name,
            abscissa < threshold,
            measured=abscissa,
            threshold=threshold,
            note=f"spectral abscissa of {note}",
        )

    stable("fast-matrix-stable", -spec.A22, "-A22")
    report.add(
        "fast-matrix-conditioned",
        spec.a22_cond <= linalg.COND_CAP,
        measured=spec.a22_cond,
        threshold=linalg.COND_CAP,
        note="condition number of A22",
    )
    if spec.a22_cond > linalg.COND_CAP:
        for name in ("reduced-matrix-stable", "shifted-reduced-matrix-stable"):
            report.add(name, False, note="Delta needs A22^-1, which fast-matrix-conditioned refuses")
        return report
    delta = delta_matrix(spec)
    stable("reduced-matrix-stable", -delta, "-Delta")
    stable("shifted-reduced-matrix-stable", -(delta - 0.5 * beta_bar * np.eye(spec.n)),
           f"-(Delta - beta_bar/2 I), beta_bar = {beta_bar:.6g}")
    return report


def validate_system(spec: SystemSpec, pair: SchedulePair) -> ValidationReport:
    """The admissibility report: `stability_checks`, then `step-ratio-limit-exists`.

    It lists only checks that can fail.  The ratio check measures epsilon
    and notes its regime, or fails when the ratio diverges; beta_bar is
    noted by the shifted stability check.  The joint noise covariance is not
    listed: `NoiseSpec` refuses one that is not PSD, so no spec that exists
    could fail that check.
    """
    report = stability_checks(spec, pair.beta_bar)
    try:
        eps = pair.epsilon
    except DivergentRatio:
        report.add("step-ratio-limit-exists", False, note="slow exponent below fast exponent: ratio diverges")
    else:
        report.add("step-ratio-limit-exists", True, measured=eps,
                   note="single-time-scale regime" if eps > 0.0 else "two-time-scale regime")
    return report
