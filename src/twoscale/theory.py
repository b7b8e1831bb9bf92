"""Asymptotic scaled-covariance predictions and the decoupling sequence.

The limit covariances of the coupled recursion solve a triangular chain of
linear matrix equations.  Writing S11, S12, S22 for the scaled limits and
Delta for the reduced slow drift:

    A22 S22 + S22 A22'                                    = Gamma22
    A12 S22 + S12 A22'                                    = Gamma12
    Delta S11 + S11 Delta' - beta_bar S11 + A12 S21 + S12 A12' = Gamma11

The fast equation is a plain Lyapunov solve; the cross equation is linear
in S12 and solved directly; the slow equation is a Lyapunov solve for the
shifted drift Delta - beta_bar/2 I.  Eliminating S12 and S22 collapses the
chain to a single equation for S11 whose right-hand side is the covariance
Q of the effective slow noise V - A12 A22^{-1} W; solving that reduced
equation independently gives a second route to S11.

Gained variant: inserting a gain G on the slow update gives the coupled
system `model.gained_system(spec, G)`, whose reduced drift is G Delta and
whose effective slow noise is G (V - A12 A22^{-1} W).  So `predict_reduced`
of that system solves

    (G Delta) S + S (G Delta)' - beta_bar S = G Q G'

and refuses a gain that leaves the shifted drift unstable.

Minimizing over G in the semidefinite order gives G = Delta^{-1} with value
Delta^{-1} Q Delta^{-T}, which also equals the slow block of the covariance
attained by the best full-block gain (the inverse of the whole coefficient
matrix) in the single-time-scale iteration.

Decoupling sequence: the matrices L_k that remove the slow iterate from the
fast update solve a discrete Riccati recursion.  `l_sequence` runs it in the
linear form L_k = Y_k X_k^{-1} (Radon; Reid 1972) on the associative scan
`linalg._suffix_products`, and gates every scanned step on its residual in
the Riccati recursion itself, falling back to shorter blocks down to one
direct solve per step.
"""

from __future__ import annotations

from dataclasses import dataclass

import numpy as np

from . import linalg
from .errors import AssumptionViolation, SingularDelta, SingularStep, SingularSystem
from .model import SystemSpec, delta_matrix, fast_coupling, require_invertible_a22, stability_checks
from .schedules import SchedulePair


@dataclass(frozen=True)
class CovariancePrediction:
    """Scaled limit covariance blocks plus the derived drift and noise terms."""

    Sigma11: np.ndarray
    Sigma12: np.ndarray
    Sigma22: np.ndarray
    Delta: np.ndarray
    Q: np.ndarray
    beta_bar: float

    def to_dict(self) -> dict:
        """Same structured-text shape as the input configuration matrices."""
        return {
            "Sigma11": self.Sigma11.tolist(),
            "Sigma12": self.Sigma12.tolist(),
            "Sigma22": self.Sigma22.tolist(),
            "Delta": self.Delta.tolist(),
            "Q": self.Q.tolist(),
            "beta_bar": self.beta_bar,
        }

    def equation_residuals(self, spec: SystemSpec) -> dict[str, float]:
        """Residual norms from substituting the blocks back into the chain."""
        S11, S12, S22 = self.Sigma11, self.Sigma12, self.Sigma22
        G = spec.noise
        r_fast = spec.A22 @ S22 + S22 @ spec.A22.T - G.Gamma22
        r_cross = spec.A12 @ S22 + S12 @ spec.A22.T - G.Gamma12
        r_slow = (
            self.Delta @ S11
            + S11 @ self.Delta.T
            - self.beta_bar * S11
            + spec.A12 @ S12.T
            + S12 @ spec.A12.T
            - G.Gamma11
        )
        return {
            "fast": float(np.linalg.norm(r_fast)),
            "cross": float(np.linalg.norm(r_cross)),
            "slow": float(np.linalg.norm(r_slow)),
        }


def noise_equivalent_covariance(spec: SystemSpec) -> np.ndarray:
    """Covariance Q of the effective slow noise V - A12 A22^{-1} W; read-only, built once per spec."""
    require_invertible_a22(spec)

    def build():
        G = spec.noise
        C = np.linalg.solve(spec.A22.T, spec.A12.T).T  # A12 A22^{-1}
        Q = G.Gamma11 - C @ G.Gamma12.T - G.Gamma12 @ C.T + C @ G.Gamma22 @ C.T
        return linalg.symmetrize(Q)

    return spec.derived("noise_equivalent_covariance", build)


def _check_predict_preconditions(spec: SystemSpec, beta_bar: float) -> None:
    """Raise AssumptionViolation naming every failed check of `stability_checks`."""
    report = stability_checks(spec, beta_bar)
    if not report.passed:
        raise AssumptionViolation([c.name for c in report.checks if not c.passed])


def predict_full(spec: SystemSpec, beta_bar: float) -> CovariancePrediction:
    """Solve the full chain of limit equations for all three blocks."""
    _check_predict_preconditions(spec, beta_bar)
    delta = delta_matrix(spec)
    G = spec.noise

    S22 = linalg.symmetrize(linalg.solve_sylvester(spec.A22, G.Gamma22))

    # An overflow here leaves inf or NaN in the slow data, which the slow
    # solve refuses as NonFinite.
    with np.errstate(all="ignore"):
        # Cross equation is one-sided in S12: S12 = (Gamma12 - A12 S22) A22^{-T}.
        S12 = np.linalg.solve(spec.A22, (G.Gamma12 - spec.A12 @ S22).T).T
        rhs = linalg.symmetrize(G.Gamma11 - spec.A12 @ S12.T - S12 @ spec.A12.T)
    shifted = delta - 0.5 * beta_bar * np.eye(spec.n)
    S11 = linalg.symmetrize(linalg.solve_sylvester(shifted, rhs))

    return CovariancePrediction(
        Sigma11=S11,
        Sigma12=S12,
        Sigma22=S22,
        Delta=delta,
        Q=noise_equivalent_covariance(spec),
        beta_bar=float(beta_bar),
    )


def predict_reduced(spec: SystemSpec, beta_bar: float) -> np.ndarray:
    """Solve the single reduced equation for the slow block only.

    Solves (Delta - beta_bar/2 I) S + S (Delta - beta_bar/2 I)' = Q.
    """
    _check_predict_preconditions(spec, beta_bar)
    drift = delta_matrix(spec) - 0.5 * beta_bar * np.eye(spec.n)
    Q = noise_equivalent_covariance(spec)
    return linalg.symmetrize(linalg.solve_sylvester(drift, Q))


def optimal_gain_covariance(
    spec: SystemSpec,
) -> tuple[np.ndarray, np.ndarray, np.ndarray]:
    """Best achievable slow covariance and the gains attaining it.

    Returns (Sigma11_opt, G1_opt, G_opt): the slow-gain optimum
    Delta^{-1} Q Delta^{-T}, the slow gain Delta^{-1}, and the full-block
    gain equal to the inverse coefficient matrix.
    """
    delta = delta_matrix(spec)
    try:
        G1_opt = np.linalg.inv(delta)
    except np.linalg.LinAlgError as exc:
        raise SingularDelta(str(exc)) from exc
    if np.linalg.cond(delta) > linalg.COND_CAP:
        raise SingularDelta(f"reduced drift condition number exceeds {linalg.COND_CAP:.0e}")
    A = spec.block_matrix()
    if np.linalg.cond(A) > linalg.COND_CAP:
        raise SingularSystem(f"block matrix condition number exceeds {linalg.COND_CAP:.0e}")
    try:
        G_opt = np.linalg.inv(A)
    except np.linalg.LinAlgError as exc:
        raise SingularSystem(str(exc)) from exc
    Q = noise_equivalent_covariance(spec)
    Sigma11_opt = linalg.symmetrize(G1_opt @ Q @ G1_opt.T)
    return Sigma11_opt, G1_opt, G_opt


@dataclass
class LSequence:
    """Decoupling matrices L_k with start index k0; zero for k below k0.

    retries counts the start indices abandoned for a singular step before
    k0 was reached.
    """

    k0: int
    values: np.ndarray  # (K - k0 + 1, m, n), entry j is L_{k0 + j}
    norms: np.ndarray  # Frobenius norms per step
    retries: int = 0

    @property
    def K(self) -> int:
        return self.k0 + len(self.values) - 1

    def at(self, k: int) -> np.ndarray:
        """L_k, with L_k = 0 for every k below the start index."""
        if k < self.k0:
            return np.zeros_like(self.values[0])
        if k > self.K:
            raise IndexError(f"k={k} beyond computed range {self.K}")
        return self.values[k - self.k0]

    @property
    def final_norm(self) -> float:
        return float(self.norms[-1])


# A scanned step is accepted when its recursion residual is at most
# _GATE_TOL * (||L_k|| + ||L_{k+1}||); blocks grow by doubling up to _BLOCK_CAP.
_GATE_TOL = 1e-13
_BLOCK_CAP = 1024
# A near-singular step factor shows up as amplification of L, which the
# decoupling recursion otherwise keeps below order one.
_NORM_LIMIT = 1e6
# The retry gives up once the doubled start index would pass this bound.
_MAX_K0 = 1024


def l_sequence(spec: SystemSpec, pair: SchedulePair, K: int, k0: int = 0) -> LSequence:
    """Run the decoupling recursion from L_{k0} = 0 up to L_K.

    Each step satisfies L_{k+1} (I - beta_k B11_k) = L_k - gamma_k A22 L_k
    + beta_k H B11_k with B11_k = Delta - A12 L_k and H = A22^{-1} A21.  The
    recursion is a discrete Riccati equation; writing L_k = Y_k X_k^{-1}
    linearizes it (Radon; Reid 1972) to [X; Y]_{k+1} = Phi_k [X; Y]_k with

        Phi_k = [[I - beta_k Delta,  beta_k A12                        ],
                 [beta_k H Delta,    I - gamma_k A22 - beta_k H A12    ]].

    Steps are taken in blocks, each building only its own Phi_k: from
    [I; L_a], one suffix-product scan gives every prefix product of the
    block's Phi_k and one batched solve gives L = Y X^{-1} at each step.
    Products lose precision as a block spans more step-size mass, so each
    step is checked against the recursion itself and the block is kept
    only up to its first step whose residual exceeds a fixed tolerance
    relative to ||L_k|| + ||L_{k+1}||.  Block lengths start at one, double
    after a fully accepted block up to a cap, and halve otherwise.  A block
    of one step is the direct solve above and skips the residual check.

    A singular step factor (a failed solve, or ||L_{k+1}|| non-finite or
    above 1e6) means k0 is too small: the start index doubles (0, 1, 2, 4,
    ...) while it stays within both K and 1024, and SingularStep is raised
    once it would pass either.  `_l_sequence_run` is one attempt without
    the retry.
    """
    if K < k0:
        raise ValueError(f"K={K} must be at least k0={k0}")
    start, retries = k0, 0
    while True:
        try:
            seq = _l_sequence_run(spec, pair, K, start)
        except SingularStep:
            start = 1 if start == 0 else 2 * start
            if start > min(K, _MAX_K0):
                raise
            retries += 1
        else:
            seq.retries = retries
            return seq


def _l_sequence_run(spec: SystemSpec, pair: SchedulePair, K: int, k0: int) -> LSequence:
    n, m = spec.n, spec.m
    delta = delta_matrix(spec)
    H = fast_coupling(spec)

    steps = K - k0
    ks = np.arange(k0, K)
    beta = pair.slow.values(ks)[:, None, None]
    gamma = pair.fast.values(ks)[:, None, None]

    values = np.zeros((steps + 1, m, n))
    norms = np.zeros(steps + 1)
    a, length = 0, 1
    while a < steps:
        b = min(steps, a + length)
        accepted = _scan_block(
            spec, delta, H, beta[a:b], gamma[a:b], values[a : b + 1], norms[a : b + 1]
        )
        if accepted == 0 and b - a == 1:
            raise SingularStep(k0 + a)
        length = min(_BLOCK_CAP, 2 * length) if accepted == b - a else max(1, length // 2)
        a += accepted
    return LSequence(k0=k0, values=values, norms=norms)


def _recursion_residuals(spec: SystemSpec, delta, H, beta, gamma, L, L_next) -> np.ndarray:
    """Norms of L_{k+1} (I - beta_k B11_k) - (L_k - gamma_k A22 L_k + beta_k H B11_k), per step."""
    B11 = delta - spec.A12 @ L
    r = L_next - L_next @ (beta * B11) - L + gamma * (spec.A22 @ L) - beta * (H @ B11)
    return np.linalg.norm(r, axis=(1, 2))


def _scan_block(spec: SystemSpec, delta, H, beta, gamma, values, norms) -> int:
    """Extend values[0] = L_a through one block of steps; return the steps accepted.

    The block's maps Phi_k are built here from its step sizes beta and gamma.
    The accepted steps are written to values[1:] and norms[1:].  A block of
    one step is a single solve of X' against Y' and skips the residual check.
    """
    n, m = spec.n, spec.m
    phi = np.empty((len(beta), n + m, n + m))
    phi[:, :n, :n] = np.eye(n) - beta * delta
    phi[:, :n, n:] = beta * spec.A12
    phi[:, n:, :n] = beta * (H @ delta)
    phi[:, n:, n:] = np.eye(m) - gamma * spec.A22 - beta * (H @ spec.A12)
    # Suffix products of the reversed transposes are the transposed prefix
    # products: Pt[j] = (Phi_j ... Phi_0)'.
    Pt = linalg._suffix_products(phi[::-1].transpose(0, 2, 1).copy())[::-1]
    XYt = Pt[:, :n] + values[0].T @ Pt[:, n:]  # [X' Y'] after each step
    with np.errstate(all="ignore"):
        try:
            L = np.linalg.solve(XYt[:, :, :n], XYt[:, :, n:]).transpose(0, 2, 1)
        except np.linalg.LinAlgError:
            return 0
        norm = np.linalg.norm(L, axis=(1, 2))
        ok = norm <= _NORM_LIMIT  # False for a non-finite norm too
        if len(phi) > 1:
            prev = np.concatenate([values[:1], L[:-1]])
            resid = _recursion_residuals(spec, delta, H, beta, gamma, prev, L)
            scale = np.concatenate([norms[:1], norm[:-1]]) + norm
            ok &= resid <= _GATE_TOL * scale
    accepted = len(ok) if ok.all() else int(np.argmin(ok))
    values[1 : accepted + 1] = L[:accepted]
    norms[1 : accepted + 1] = norm[:accepted]
    return accepted
