import numpy as np
import pytest

from conftest import random_stable_system
from twoscale import (
    NoiseSpec,
    SchedulePair,
    StepSchedule,
    SystemSpec,
    averaging_system,
    gained_system,
)
from twoscale.errors import NotHurwitz, NotPSD, SingularA22
from twoscale.model import (
    centring_matrix,
    delta_matrix,
    fixed_point,
    fully_gained_system,
    validate_system,
)


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
    with pytest.raises(NotHurwitz):
        averaging_system(np.array([[-1.0]]), np.array([0.0]), np.array([[1.0]]))


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


def test_system_spec_rejects_singular_a22(sys_a):
    with pytest.raises(SingularA22):
        SystemSpec(
            A11=[[2.0]], A12=[[1.0]], A21=[[1.0]], A22=[[0.0]],
            b1=[1.0], b2=[2.0], noise=sys_a.noise,
        )


def test_system_spec_rejects_inconsistent_shapes(sys_a):
    with pytest.raises(ValueError):
        SystemSpec(
            A11=np.eye(2), A12=[[1.0]], A21=[[1.0]], A22=[[1.0]],
            b1=[1.0], b2=[2.0], noise=sys_a.noise,
        )


def test_noise_spec_rejects_indefinite_joint():
    with pytest.raises(NotPSD):
        NoiseSpec(Gamma11=[[1.0]], Gamma12=[[5.0]], Gamma22=[[1.0]])


def test_noise_spec_rejects_unknown_distribution():
    with pytest.raises(ValueError):
        NoiseSpec(Gamma11=[[1.0]], Gamma12=[[0.0]], Gamma22=[[1.0]], distribution="cauchy")


def test_system_round_trip(sys_a):
    rebuilt = SystemSpec.from_dict(sys_a.to_dict())
    assert np.array_equal(rebuilt.block_matrix(), sys_a.block_matrix())
    assert np.array_equal(rebuilt.offset(), sys_a.offset())
    assert rebuilt.noise.distribution == sys_a.noise.distribution


def test_system_from_dict_checks_declared_dimensions(sys_a):
    doc = sys_a.to_dict()
    doc["n"] = 3
    with pytest.raises(ValueError):
        SystemSpec.from_dict(doc)


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
