from dataclasses import replace

import numpy as np
import pytest

from conftest import random_stable_system
from twoscale import (
    NoiseSpec,
    SchedulePair,
    StepSchedule,
    SystemSpec,
    averaging_system,
    cli,
    gained_system,
)
from twoscale.errors import AssumptionViolation, NotPSD, SingularA22, SingularDelta, SingularSystem
from twoscale.model import (
    centring_matrix,
    delta_matrix,
    fast_coupling,
    fixed_point,
    fully_gained_system,
    stability_checks,
    validate_system,
)
from twoscale.theory import noise_equivalent_covariance, optimal_gain_covariance, predict_full, predict_reduced


def test_fixed_point_reference_system(sys_a):
    theta, r = fixed_point(sys_a)
    assert theta == pytest.approx([-1.0])
    assert r == pytest.approx([3.0])


def test_fixed_point_zero_offsets(sys_a):
    spec = SystemSpec(
        A11=sys_a.A11, A12=sys_a.A12, A21=sys_a.A21, A22=sys_a.A22,
        b1=[0.0], b2=[0.0], noise=sys_a.noise,
    )
    theta, r = fixed_point(spec)
    assert theta == pytest.approx([0.0])
    assert r == pytest.approx([0.0])


def test_fixed_point_identity_blocks():
    spec = SystemSpec(
        A11=np.eye(2), A12=np.zeros((2, 2)), A21=np.zeros((2, 2)), A22=np.eye(2),
        b1=[1.0, 2.0], b2=[3.0, 4.0],
        noise=NoiseSpec(Gamma11=np.eye(2), Gamma12=np.zeros((2, 2)), Gamma22=np.eye(2)),
    )
    theta, r = fixed_point(spec)
    assert theta == pytest.approx([1.0, 2.0])
    assert r == pytest.approx([3.0, 4.0])


def test_delta_reference_system(sys_a):
    assert delta_matrix(sys_a) == pytest.approx(np.array([[1.0]]))


def test_delta_without_coupling(sys_a):
    spec = SystemSpec(
        A11=[[2.0]], A12=[[0.0]], A21=[[1.0]], A22=[[1.0]], b1=[1.0], b2=[2.0],
        noise=sys_a.noise,
    )
    assert delta_matrix(spec) == pytest.approx(np.array([[2.0]]))


def centred(spec, theta, r):
    """Centered coordinates of (theta, r): T applied to the fixed-point deviation."""
    hat = centring_matrix(spec) @ (np.concatenate([theta, r]) - np.concatenate(fixed_point(spec)))
    return hat[: spec.n], hat[spec.n :]


def test_hat_transform_of_fixed_point_is_zero(sys_a):
    theta, r = fixed_point(sys_a)
    th_hat, r_hat = centred(sys_a, theta, r)
    assert np.linalg.norm(th_hat) <= 1e-10
    assert np.linalg.norm(r_hat) <= 1e-10


def test_hat_transform_at_origin(sys_a):
    th_hat, r_hat = centred(sys_a, np.zeros(1), np.zeros(1))
    assert th_hat == pytest.approx([1.0])
    assert r_hat == pytest.approx([-2.0])


def test_hat_transform_independent_of_theta_without_coupling():
    spec = SystemSpec(
        A11=[[2.0]], A12=[[1.0]], A21=[[0.0]], A22=[[1.0]], b1=[1.0], b2=[2.0],
        noise=NoiseSpec(Gamma11=[[1.0]], Gamma12=[[0.0]], Gamma22=[[1.0]]),
    )
    _, r_hat_1 = centred(spec, np.array([0.0]), np.array([1.0]))
    _, r_hat_2 = centred(spec, np.array([5.0]), np.array([1.0]))
    assert r_hat_1 == pytest.approx(r_hat_2)


def test_averaging_system_correspondence():
    A = np.array([[1.0, 0.5], [0.0, 2.0]])
    b = np.array([1.0, -1.0])
    G = np.eye(2)
    spec = averaging_system(A, b, G)
    assert np.array_equal(spec.A11, np.eye(2))
    assert np.array_equal(spec.A12, -np.eye(2))
    assert np.array_equal(spec.A21, np.zeros((2, 2)))
    assert np.array_equal(spec.A22, A)
    assert np.array_equal(spec.b1, np.zeros(2))
    assert np.array_equal(spec.b2, b)
    assert np.array_equal(spec.noise.Gamma11, np.zeros((2, 2)))
    assert np.array_equal(spec.noise.Gamma22, G)


def test_averaging_system_delta_is_identity():
    rng = np.random.default_rng(5)
    for _ in range(10):
        d = int(rng.integers(1, 5))
        A = rng.standard_normal((d, d))
        A += (abs(min(np.linalg.eigvals(A).real.min(), 0.0)) + 0.5) * np.eye(d)
        spec = averaging_system(A, rng.standard_normal(d), np.eye(d))
        assert np.allclose(delta_matrix(spec), np.eye(d), atol=1e-12)


def test_averaging_system_fixed_point_is_solution():
    A = np.array([[2.0, 1.0], [0.0, 1.0]])
    b = np.array([1.0, 1.0])
    spec = averaging_system(A, b, np.eye(2))
    theta, r = fixed_point(spec)
    expected = np.linalg.solve(A, b)
    assert np.allclose(theta, expected, atol=1e-10)
    assert np.allclose(r, expected, atol=1e-10)


def test_averaging_system_identity_case():
    spec = averaging_system(np.eye(2), np.array([1.0, 0.0]), np.eye(2))
    theta, r = fixed_point(spec)
    assert theta == pytest.approx([1.0, 0.0])
    assert r == pytest.approx([1.0, 0.0])


def test_averaging_system_rejects_unstable():
    # A22 is A, so an unstable -A fails the fast check with its measured abscissa.
    spec = averaging_system(np.array([[-1.0]]), np.array([0.0]), np.array([[1.0]]))
    report = stability_checks(spec, beta_bar=1.0)
    assert not report.passed
    assert [c.name for c in report.checks if not c.passed] == ["fast-matrix-stable"]
    assert report["fast-matrix-stable"].measured == pytest.approx(1.0)


def test_fast_matrix_stable_is_the_hurwitz_rule():
    # The fast check passes exactly when -A22 = M has every eigenvalue real part below -1e-9.
    def fast_stable(M):
        d = len(M)
        spec = averaging_system(-np.asarray(M), np.zeros(d), np.zeros((d, d)))
        return stability_checks(spec, beta_bar=1.0)["fast-matrix-stable"].passed

    assert fast_stable(-np.eye(3))
    assert not fast_stable([[0.0, 1.0], [-1.0, 0.0]])
    assert fast_stable([[-2.0, 1.0], [1.0, -1.0]])
    assert not fast_stable([[-1e-12]])  # inside the margin


def test_averaging_validates_with_harmonic_slow_schedule():
    A = np.array([[1.0, 0.5], [0.0, 2.0]])
    spec = averaging_system(A, np.zeros(2), np.eye(2))
    pair = SchedulePair(slow=StepSchedule(1.0, 1.0, 1.0), fast=StepSchedule(0.5, 10.0, 0.7))
    report = validate_system(spec, pair)
    # shifted condition reads -(I - 1/2 I): always stable for the averaging build
    assert report.passed


def test_validate_system_reference_pass(sys_a, sys_a_pair):
    report = validate_system(sys_a, sys_a_pair)
    assert report.passed


def test_listed_thresholds_are_the_ones_applied(sys_a, sys_a_pair):
    # -A22 = -5e-10 has a negative abscissa, yet fails the -1e-9 margin.
    barely = replace(sys_a, A22=[[5e-10]])
    for spec in (sys_a, barely):
        checks = [c for c in validate_system(spec, sys_a_pair).checks if c.threshold is not None]
        assert checks
        for c in checks:
            assert c.passed == (c.measured < c.threshold), c.format()
    assert not validate_system(barely, sys_a_pair)["fast-matrix-stable"].passed


def test_validate_system_large_inverse_growth_fails(sys_a):
    pair = SchedulePair(slow=StepSchedule(1.0 / 3.0, 1.0, 1.0), fast=StepSchedule(1.0, 1.0, 0.7))
    assert pair.beta_bar == pytest.approx(3.0)
    report = validate_system(sys_a, pair)
    assert not report.passed
    assert not report["shifted-reduced-matrix-stable"].passed
    assert report["reduced-matrix-stable"].passed


def test_validate_system_rotation_fast_block_fails(sys_a_pair):
    spec = SystemSpec(
        A11=np.eye(2), A12=np.zeros((2, 2)), A21=np.zeros((2, 2)),
        A22=[[0.0, 1.0], [-1.0, 0.0]],
        b1=[0.0, 0.0], b2=[0.0, 0.0],
        noise=NoiseSpec(Gamma11=np.eye(2), Gamma12=np.zeros((2, 2)), Gamma22=np.eye(2)),
    )
    report = validate_system(spec, sys_a_pair)
    assert not report.passed
    assert not report["fast-matrix-stable"].passed


@pytest.mark.parametrize(
    "a22", [[[0.0]], [[1.0, 1.0], [1.0, 1.0 + 1e-14]]], ids=["zero", "ill-conditioned"]
)
def test_singular_a22_is_reported_and_refused_by_its_solvers(a22):
    # The spec exists; `stability_checks` reports cond(A22) against the cap,
    # and every helper that solves with A22 still refuses it when called
    # without that gate.
    m = len(a22)
    spec = SystemSpec(
        A11=[[2.0]], A12=np.ones((1, m)), A21=np.ones((m, 1)), A22=a22, b1=[1.0], b2=np.ones(m),
        noise=NoiseSpec(Gamma11=[[1.0]], Gamma12=np.zeros((1, m)), Gamma22=np.eye(m)),
    )
    report = stability_checks(spec, beta_bar=0.1)
    check = report["fast-matrix-conditioned"]
    assert not check.passed and check.measured > 1e12 and check.threshold == 1e12
    for name in ("reduced-matrix-stable", "shifted-reduced-matrix-stable"):
        assert not report[name].passed and report[name].measured is None
    for solve in (fast_coupling, delta_matrix, centring_matrix, noise_equivalent_covariance):
        with pytest.raises(SingularA22, match="A22 condition number exceeds 1e\\+12"):
            solve(spec)
    with pytest.raises(AssumptionViolation) as exc:
        predict_full(spec, 0.1)
    assert "fast-matrix-conditioned" in exc.value.failures


def test_system_spec_rejects_inconsistent_shapes(sys_a):
    with pytest.raises(ValueError):
        SystemSpec(
            A11=np.eye(2), A12=[[1.0]], A21=[[1.0]], A22=[[1.0]],
            b1=[1.0], b2=[2.0], noise=sys_a.noise,
        )


def test_noise_spec_rejects_indefinite_joint():
    with pytest.raises(NotPSD):
        NoiseSpec(Gamma11=[[1.0]], Gamma12=[[5.0]], Gamma22=[[1.0]])


def test_noise_spec_rejects_inconsistent_block_shapes():
    with pytest.raises(ValueError, match="inconsistent noise shapes"):
        NoiseSpec(Gamma11=np.eye(2), Gamma12=[[0.0]], Gamma22=[[1.0]])


@pytest.mark.parametrize("block", ["Gamma11", "Gamma22"])
def test_noise_spec_rejects_asymmetric_diagonal_block(block):
    blocks = dict(Gamma11=np.eye(2), Gamma12=np.zeros((2, 2)), Gamma22=np.eye(2))
    blocks[block] = [[1.0, 0.5], [0.0, 1.0]]
    with pytest.raises(ValueError, match=f"{block} is not symmetric"):
        NoiseSpec(**blocks)


def _scalar_system(a11, a12, a21, a22) -> SystemSpec:
    return SystemSpec(
        A11=[[a11]], A12=[[a12]], A21=[[a21]], A22=[[a22]], b1=[1.0], b2=[1.0],
        noise=NoiseSpec(Gamma11=[[1.0]], Gamma12=[[0.0]], Gamma22=[[1.0]]),
    )


def test_ill_conditioned_block_matrix_is_singular_system():
    # Delta = 1 and A22 = 1 are fine, but cond([[1, 1e13], [0, 1]]) is about 1e26.
    spec = _scalar_system(1.0, 1e13, 0.0, 1.0)
    with pytest.raises(SingularSystem):
        fixed_point(spec)
    with pytest.raises(SingularSystem):
        optimal_gain_covariance(spec)


def test_singular_delta_is_refused_by_the_optimal_gain():
    # Delta = 1 - 1 * 1 * 1 = 0: the inverse itself fails.
    with pytest.raises(SingularDelta):
        optimal_gain_covariance(_scalar_system(1.0, 1.0, 1.0, 1.0))
    # Delta = diag(1, 1e-14) inverts, but its condition number exceeds COND_CAP.
    spec = SystemSpec(
        A11=np.diag([1.0, 1e-14]), A12=np.zeros((2, 1)), A21=np.zeros((1, 2)), A22=[[1.0]],
        b1=[1.0, 1.0], b2=[1.0],
        noise=NoiseSpec(Gamma11=np.eye(2), Gamma12=np.zeros((2, 1)), Gamma22=[[1.0]]),
    )
    with pytest.raises(SingularDelta, match="condition number"):
        optimal_gain_covariance(spec)


@pytest.mark.parametrize("value", [float("nan"), float("inf"), float("-inf")])
@pytest.mark.parametrize("block", ["Gamma11", "Gamma12", "Gamma22"])
def test_noise_spec_rejects_non_finite_blocks(block, value):
    blocks = dict(Gamma11=[[1.0]], Gamma12=[[0.0]], Gamma22=[[1.0]])
    blocks[block] = [[value]]
    with pytest.raises(ValueError, match="must be finite"):
        NoiseSpec(**blocks)


def test_noise_spec_rejects_unknown_distribution():
    with pytest.raises(ValueError):
        NoiseSpec(Gamma11=[[1.0]], Gamma12=[[0.0]], Gamma22=[[1.0]], distribution="cauchy")


def test_system_from_dict_refuses_stray_keys(sys_a, sys_a_pair):
    # The system is read from the configuration document by cli.RunConfig.read;
    # the schedules' keys belong to the same document, so they pass.
    doc = cli.RunConfig(sys_a, sys_a_pair).document()
    assert cli.RunConfig.read(doc).document() == doc
    with pytest.raises(ValueError, match=r"^unknown configuration keys: 'A2l', 'run'$"):
        cli.RunConfig.read({**doc, "A2l": [[1.0]], "run": {"steps": 5}})


def test_gained_system_identity_gain_is_same_system(sys_a):
    gained = gained_system(sys_a, np.eye(1))
    assert np.array_equal(gained.block_matrix(), sys_a.block_matrix())
    assert np.array_equal(gained.noise.joint(), sys_a.noise.joint())


def test_gained_system_scales_slow_row(sys_a):
    gained = gained_system(sys_a, [[2.0]])
    assert gained.A11 == pytest.approx(np.array([[4.0]]))
    assert gained.A12 == pytest.approx(np.array([[2.0]]))
    assert gained.b1 == pytest.approx([2.0])
    assert gained.noise.Gamma11 == pytest.approx(np.array([[4.0]]))
    assert np.array_equal(gained.A21, sys_a.A21)


def test_fully_gained_system_inverse_gain(sys_a):
    G = np.linalg.inv(sys_a.block_matrix())
    gained = fully_gained_system(sys_a, G)
    assert np.allclose(gained.block_matrix(), np.eye(2), atol=1e-12)
    theta, r = fixed_point(gained)
    assert theta == pytest.approx([-1.0])
    assert r == pytest.approx([3.0])


def test_random_systems_validate(sys_a_pair):
    rng = np.random.default_rng(17)
    for _ in range(10):
        spec = random_stable_system(rng)
        report = validate_system(spec, sys_a_pair)
        assert report.passed


def test_stability_checks_are_kept_per_beta_bar_and_reports_stay_fresh(sys_a, sys_a_pair, monkeypatch):
    # One evaluation per (spec, beta_bar) serves every caller; each caller
    # gets its own report, so validate_system's added check is never seen
    # by the solvers' gate, and an unstable shift is still refused.
    import twoscale.linalg

    calls = []
    abscissa = twoscale.linalg.spectral_abscissa
    monkeypatch.setattr(twoscale.linalg, "spectral_abscissa", lambda M: calls.append(1) or abscissa(M))
    first = validate_system(sys_a, sys_a_pair)
    second = validate_system(sys_a, sys_a_pair)
    assert [c.name for c in first.checks] == [c.name for c in second.checks]
    assert len(first.checks) == 5 and len(stability_checks(sys_a, sys_a_pair.beta_bar).checks) == 4
    assert first.checks is not second.checks
    predict_full(sys_a, sys_a_pair.beta_bar)
    assert len(calls) == 3
    # Delta = 1 for system A: beta_bar = 4 shifts it to -1, unstable.
    with pytest.raises(AssumptionViolation) as exc:
        predict_full(sys_a, 4.0)
    assert exc.value.failures == ["shifted-reduced-matrix-stable"]
    with pytest.raises(AssumptionViolation):
        predict_reduced(sys_a, 4.0)
    assert len(calls) == 6
