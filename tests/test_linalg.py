import sys
import warnings

import numpy as np
import pytest

from twoscale.errors import NonFinite, NotPSD, SingularPencil
from twoscale.linalg import (
    PSD_TOL,
    factor_covariance,
    frobenius,
    is_symmetric,
    psd_floor,
    solve_sylvester,
    spectral_abscissa,
    symmetrize,
)


def test_abscissa_negative_identity():
    assert spectral_abscissa(-np.eye(2)) == pytest.approx(-1.0)


def test_abscissa_rotation_is_zero():
    assert spectral_abscissa([[0.0, 1.0], [-1.0, 0.0]]) == pytest.approx(0.0, abs=1e-12)


def test_abscissa_from_characteristic_polynomial():
    # eigenvalues of [[-2,1],[1,-1]] solve x^2 + 3x + 1 = 0
    expected = (-3.0 + np.sqrt(5.0)) / 2.0
    assert spectral_abscissa([[-2.0, 1.0], [1.0, -1.0]]) == pytest.approx(expected, rel=1e-12)


def test_abscissa_rejects_nonfinite():
    with pytest.raises(NonFinite):
        spectral_abscissa([[np.nan, 0.0], [0.0, 1.0]])


def test_abscissa_similarity_invariance():
    rng = np.random.default_rng(3)
    for _ in range(20):
        M = rng.standard_normal((5, 5))
        S = np.eye(5) + 0.3 * rng.standard_normal((5, 5))
        assert np.linalg.cond(S) < 50
        a1 = spectral_abscissa(M)
        a2 = spectral_abscissa(S @ M @ np.linalg.inv(S))
        assert a1 == pytest.approx(a2, abs=1e-8)


def test_sylvester_scalar():
    X = solve_sylvester([[2.0]], [[10.0]])
    assert X == pytest.approx(np.array([[2.5]]))


def test_sylvester_identity_case():
    rng = np.random.default_rng(1)
    C0 = rng.standard_normal((3, 3))
    X = solve_sylvester(np.eye(3), 2.0 * C0)
    assert np.allclose(X, C0, atol=1e-12)


def test_sylvester_diagonal_entrywise_oracle():
    A = np.diag([1.0, 2.0])
    C = np.array([[2.0, 3.0], [3.0, 4.0]])
    # with diagonal A the equation decouples: (a_i + a_j) x_ij = c_ij
    expected = C / (np.array([1.0, 2.0])[:, None] + np.array([1.0, 2.0])[None, :])
    X = solve_sylvester(A, C)
    assert np.allclose(X, expected, atol=1e-14)
    assert X == pytest.approx(np.array([[1.0, 1.0], [1.0, 1.0]]))


def test_sylvester_residual_on_random_stable_pairs():
    rng = np.random.default_rng(7)
    for _ in range(100):
        p = int(rng.integers(1, 7))
        A = rng.standard_normal((p, p))
        A += (abs(min(np.linalg.eigvals(A).real.min(), 0.0)) + 0.5) * np.eye(p)
        C = rng.standard_normal((p, p))
        X = solve_sylvester(A, C)
        resid = np.linalg.norm(A @ X + X @ A.T - C)
        assert resid <= 1e-10 * (1.0 + np.linalg.norm(C))


def test_sylvester_shared_eigenvalue_raises():
    with pytest.raises(SingularPencil):
        solve_sylvester([[1.0, 0.0], [0.0, -1.0]], [[1.0, 1.0], [1.0, 1.0]])


def test_sylvester_shape_mismatch():
    with pytest.raises(ValueError):
        solve_sylvester(np.eye(2), np.eye(3))


def test_factor_identity():
    F = factor_covariance(np.eye(3))
    assert np.allclose(F @ F.T, np.eye(3), atol=1e-14)


def test_factor_scalar():
    F = factor_covariance([[4.0]])
    assert abs(F[0, 0]) == pytest.approx(2.0)


def test_factor_round_trip():
    G = np.array([[2.0, 1.0], [1.0, 2.0]])
    F = factor_covariance(G)
    assert np.linalg.norm(F @ F.T - G) <= 1e-12


def test_factor_random_psd_round_trip():
    rng = np.random.default_rng(11)
    for _ in range(50):
        d = int(rng.integers(1, 9))
        M = rng.standard_normal((d, d))
        G = M @ M.T
        F = factor_covariance(G)
        assert np.linalg.norm(F @ F.T - G) <= 1e-10 * (1.0 + np.linalg.norm(G))


def test_factor_semidefinite_input():
    G = np.array([[1.0, 1.0], [1.0, 1.0]])  # rank one
    F = factor_covariance(G)
    assert np.linalg.norm(F @ F.T - G) <= 1e-12


def test_factor_rejects_indefinite():
    with pytest.raises(NotPSD):
        factor_covariance([[-1.0]])


@pytest.mark.parametrize("value", [1e154, 1e200, 1e300])
def test_psd_floor_is_finite_for_finite_entries(value):
    # The Frobenius norm of these overflows; the floor scales by max |G| first.
    G = np.array([[1.0, value], [value, 1.0]])
    assert psd_floor(G) == pytest.approx(-PSD_TOL * (1.0 + value * np.sqrt(2.0)))
    with pytest.raises(NotPSD):
        factor_covariance(G)


def test_psd_floor_beyond_the_float_range_is_refused():
    with pytest.raises(NonFinite):
        psd_floor(np.full((3, 3), 1e308))


def test_factor_rejects_asymmetric():
    with pytest.raises(ValueError):
        factor_covariance([[1.0, 0.5], [0.0, 1.0]])


def test_is_symmetric_tolerance():
    M = np.array([[1.0, 1.0], [1.0 + 1e-14, 1.0]])
    assert is_symmetric(M)
    assert not is_symmetric(np.array([[1.0, 1.0], [0.0, 1.0]]))


@pytest.mark.parametrize("p", [1, 2, 3, 5, 10, 40, 80])
def test_lyapunov_solve_is_scipys_sylvester_bit_for_bit(p):
    import scipy.linalg

    rng = np.random.default_rng([17, p])
    for _ in range(5):
        A = rng.standard_normal((p, p))
        A += (abs(min(np.linalg.eigvals(A).real.min(), 0.0)) + 0.5) * np.eye(p)
        G = rng.standard_normal((p, p))
        C = G @ G.T
        assert solve_sylvester(A, C).tobytes() == scipy.linalg.solve_continuous_lyapunov(A, C).tobytes()


def test_lyapunov_solve_takes_one_schur_form(monkeypatch):
    import scipy.linalg

    # The schur that scipy's Lyapunov solver looks up in its own module.
    solvers = sys.modules[scipy.linalg.solve_continuous_lyapunov.__module__]
    calls = []
    schur = solvers.schur

    def counting_schur(a, *args, **kwargs):
        calls.append(a.shape)
        return schur(a, *args, **kwargs)

    monkeypatch.setattr(solvers, "schur", counting_schur)
    A = np.array([[2.0, 1.0], [0.5, 3.0]])
    solve_sylvester(A, np.eye(2))
    assert calls == [(2, 2)]



def test_frobenius_and_symmetrize_do_not_overflow_for_finite_entries():
    with warnings.catch_warnings():
        warnings.simplefilter("error")
        assert frobenius(np.full((2, 2), 1e200)) == pytest.approx(2e200, rel=1e-15)
        assert frobenius(np.zeros((2, 3))) == 0.0
        assert frobenius(np.full((3, 3), 1e308)) == np.inf  # the norm itself is beyond the range
        assert np.isnan(frobenius([[np.nan, 1.0]]))
        S = symmetrize([[1.0, 1e308], [1.7e308, 1.0]])
        assert S[0, 1] == S[1, 0] == pytest.approx(1.35e308, rel=1e-15)
