"""Small dense matrix kernels: spectral abscissa, norms, Lyapunov solves, product scans, covariance factors.

Lyapunov equations go to scipy's Bartels-Stewart solver (1972),
`solve_continuous_lyapunov`, which takes one real Schur form of the
coefficient: O(p^3) time and O(p^2) memory, where vectorizing the equation
would need a p^2 x p^2 system.  Each solution is then checked against the
equation itself, so a singular or ill-conditioned pencil fails loudly
instead of returning garbage.  All tolerances are relative to (1 + norm of
the data) so they behave sensibly near zero, and every norm is `frobenius`,
which does not overflow while the entries are finite.

`_suffix_products` is the associative scan behind both the engine's segment
kernel and the linearized decoupling recursion in `theory`.
"""

from __future__ import annotations

import warnings

import numpy as np

from .errors import NonFinite, NotPSD, SingularPencil

HURWITZ_MARGIN = 1e-9
# Symmetry and PSD checks allow a defect of this much relative to the matrix size.
PSD_TOL = SYM_TOL = 1e-10
# Largest condition number accepted for a matrix that is inverted or solved against.
COND_CAP = 1e12


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


def is_symmetric(M) -> bool:
    M = as_matrix(M)
    if M.shape[0] != M.shape[1]:
        return False
    return symmetry_defect(M) <= SYM_TOL


def symmetrize(M) -> np.ndarray:
    M = as_matrix(M)
    # Halved before the sum, which then cannot overflow.
    return 0.5 * M + 0.5 * M.T


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


def frobenius(M) -> float:
    """Frobenius norm of M, taken of M / max |M| so it does not overflow while the norm is finite."""
    M = np.asarray(M, dtype=np.float64)
    scale = float(np.max(np.abs(M), initial=0.0))
    if not 0.0 < scale < np.inf:
        return scale  # 0, inf or NaN
    return scale * float(np.linalg.norm(M / scale))


def psd_floor(G) -> float:
    """Smallest eigenvalue a symmetric G may have and still count as PSD.

    A floor that is not finite would pass every eigenvalue, so it raises
    NonFinite instead.
    """
    floor = -PSD_TOL * (1.0 + frobenius(as_matrix(G)))
    if not np.isfinite(floor):
        raise NonFinite("matrix norm is beyond the float range; no PSD floor exists")
    return floor


def solve_sylvester(A, C) -> np.ndarray:
    """Solve the Lyapunov equation A X + X A' = C by the Bartels-Stewart algorithm.

    A and C are p x p.  Unique solvability requires that no two eigenvalues
    of A sum to zero; such a pair surfaces as a residual far above tolerance.
    """
    # Deferred: importing scipy.linalg adds tens of milliseconds to every CLI start.
    import scipy.linalg

    A = as_matrix(A, "A")
    C = as_matrix(C, "C")
    if A.shape != C.shape or A.shape[0] != A.shape[1]:
        raise ValueError(f"inconsistent shapes A{A.shape}, C{C.shape}")
    if not (np.all(np.isfinite(A)) and np.all(np.isfinite(C))):
        raise NonFinite("Sylvester data has non-finite entries")

    try:
        with warnings.catch_warnings():
            # scipy warns of an eigenvalue pair summing to zero; the residual check refuses it.
            warnings.simplefilter("ignore", RuntimeWarning)
            X = scipy.linalg.solve_continuous_lyapunov(A, C)
    except np.linalg.LinAlgError as exc:
        raise SingularPencil(f"Sylvester solve failed: {exc}") from exc

    with np.errstate(all="ignore"):
        resid = frobenius(A @ X + X @ A.T - C)
    if not resid <= 1e-10 * (1.0 + frobenius(C)):
        raise SingularPencil(
            f"Sylvester pencil singular or ill-conditioned: residual {resid:.3e} exceeds tolerance"
        )
    return X


def _suffix_products(S: np.ndarray) -> np.ndarray:
    """Overwrite an (L, d, d) stack M_j with its suffix products M_{L-1} ... M_j.

    Odd-even scan: each even entry absorbs its odd neighbour, the even
    entries (a strided view) are scanned recursively, then each odd entry
    takes one product with the even suffix after it.
    """
    L = len(S)
    if L > 1:
        S[0 : L - 1 : 2] = S[1::2] @ S[0 : L - 1 : 2]
        _suffix_products(S[0::2])
        S[1 : L - 1 : 2] = S[2::2] @ S[1 : L - 1 : 2]
    return S


def factor_covariance(G) -> np.ndarray:
    """Factor a symmetric PSD matrix as F F^T via eigendecomposition.

    Eigenvalues in [psd_floor(G), 0) are clipped to zero so semidefinite
    inputs (e.g. covariance blocks that are identically zero) factor
    cleanly; anything below the floor raises.
    """
    G = as_matrix(G, "covariance")
    if G.shape[0] != G.shape[1]:
        raise ValueError(f"covariance must be square, got shape {G.shape}")
    if not np.all(np.isfinite(G)):
        raise NonFinite("covariance has non-finite entries")
    if not is_symmetric(G):
        raise ValueError("covariance is not symmetric within tolerance")

    w, V = np.linalg.eigh(symmetrize(G))
    # NaN eigenvalues, as an overflowing symmetrization gives, fail too.
    if not np.min(w) >= psd_floor(G):
        raise NotPSD(f"covariance has eigenvalue {np.min(w):.3e} below -{PSD_TOL:.0e} * (1 + ||G||)")
    F = V * np.sqrt(np.clip(w, 0.0, None))
    return F
