"""Small dense matrix kernels: spectral checks, Sylvester solves, covariance factors.

Sylvester equations go to scipy's Bartels-Stewart solver (1972), which
reduces both coefficients to Schur form: O(p^3 + q^3) time and O(pq)
memory, where vectorizing the equation would need a (pq) x (pq) system.
Each solution is then checked against the equation itself, so a singular or
ill-conditioned pencil fails loudly instead of returning garbage.  All
tolerances are relative to (1 + norm of the data) so they behave sensibly
near zero.
"""

from __future__ import annotations

import numpy as np

from .errors import NonFinite, NotPSD, SingularPencil

HURWITZ_MARGIN = 1e-9
PSD_TOL = 1e-10
SYM_TOL = 1e-12


def as_matrix(M, name: str = "matrix") -> np.ndarray:
    A = np.asarray(M, dtype=np.float64)
    if A.ndim != 2:
        raise ValueError(f"{name} must be 2-D, got shape {A.shape}")
    return A


def symmetry_defect(M: np.ndarray) -> float:
    """Largest absolute entry of M - M^T, relative to (1 + max |M|)."""
    M = as_matrix(M)
    scale = 1.0 + float(np.max(np.abs(M))) if M.size else 1.0
    return float(np.max(np.abs(M - M.T))) / scale if M.size else 0.0


def is_symmetric(M, tol: float = SYM_TOL) -> bool:
    M = as_matrix(M)
    if M.shape[0] != M.shape[1]:
        return False
    return symmetry_defect(M) <= tol


def symmetrize(M) -> np.ndarray:
    M = as_matrix(M)
    return 0.5 * (M + M.T)


def spectral_abscissa(M) -> float:
    """Largest real part among the eigenvalues of a square matrix."""
    A = as_matrix(M)
    if A.shape[0] != A.shape[1]:
        raise ValueError(f"matrix must be square, got shape {A.shape}")
    if not np.all(np.isfinite(A)):
        raise NonFinite("matrix has non-finite entries")
    if A.shape[0] == 0:
        raise ValueError("matrix must be nonempty")
    return float(np.max(np.linalg.eigvals(A).real))


def is_hurwitz(M, margin: float = HURWITZ_MARGIN) -> bool:
    """True when every eigenvalue real part is below -margin."""
    if margin < 0:
        raise ValueError("margin must be nonnegative")
    return spectral_abscissa(M) < -margin


def solve_sylvester(A, B, C) -> np.ndarray:
    """Solve A X + X B = C by the Bartels-Stewart algorithm.

    A is p x p, B is q x q, C is p x q.  Unique solvability requires the
    spectra of A and -B to be disjoint; a shared eigenvalue surfaces as a
    residual far above tolerance.
    """
    # Deferred: importing scipy.linalg adds tens of milliseconds to every CLI start.
    from scipy.linalg import solve_sylvester as bartels_stewart

    A = as_matrix(A, "A")
    B = as_matrix(B, "B")
    C = as_matrix(C, "C")
    p, q = C.shape
    if A.shape != (p, p) or B.shape != (q, q):
        raise ValueError(f"inconsistent shapes A{A.shape}, B{B.shape}, C{C.shape}")
    if not (np.all(np.isfinite(A)) and np.all(np.isfinite(B)) and np.all(np.isfinite(C))):
        raise NonFinite("Sylvester data has non-finite entries")

    try:
        X = bartels_stewart(A, B, C)
    except np.linalg.LinAlgError as exc:
        raise SingularPencil(f"Sylvester solve failed: {exc}") from exc

    resid = np.linalg.norm(A @ X + X @ B - C)
    if not np.isfinite(resid) or resid > 1e-10 * (1.0 + np.linalg.norm(C)):
        raise SingularPencil(
            f"Sylvester pencil singular or ill-conditioned: residual {resid:.3e} exceeds tolerance"
        )
    return X


def factor_covariance(G) -> np.ndarray:
    """Factor a symmetric PSD matrix as F F^T via eigendecomposition.

    Eigenvalues in [-tol, 0) are clipped to zero so semidefinite inputs
    (e.g. covariance blocks that are identically zero) factor cleanly;
    anything below -tol raises.
    """
    G = as_matrix(G, "covariance")
    if G.shape[0] != G.shape[1]:
        raise ValueError(f"covariance must be square, got shape {G.shape}")
    if not np.all(np.isfinite(G)):
        raise NonFinite("covariance has non-finite entries")
    if not is_symmetric(G, tol=1e-10):
        raise ValueError("covariance is not symmetric within tolerance")

    scale = 1.0 + float(np.linalg.norm(G))
    w, V = np.linalg.eigh(symmetrize(G))
    if np.min(w) < -PSD_TOL * scale:
        raise NotPSD(f"eigenvalue {np.min(w):.3e} below -{PSD_TOL:.0e} * (1 + ||G||)")
    F = V * np.sqrt(np.clip(w, 0.0, None))
    return F
