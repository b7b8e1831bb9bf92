import csv
import tracemalloc
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
    gained_system,
    l_sequence,
    optimal_gain_covariance,
    predict_full,
    predict_reduced,
    propagate_covariance,
    run_ensemble,
)
from twoscale.errors import AssumptionViolation, DivergentRatio, SingularStep
from twoscale.linalg import solve_sylvester
from twoscale import theory
from twoscale.cli import _csv_lines
from twoscale.model import delta_matrix, fully_gained_system, validate_system
from twoscale.theory import noise_equivalent_covariance


def test_predict_full_reference_values(sys_a):
    pred = predict_full(sys_a, beta_bar=0.0)
    assert pred.Sigma22 == pytest.approx(np.array([[0.5]]))
    assert pred.Sigma12 == pytest.approx(np.array([[-0.5]]))
    assert pred.Sigma11 == pytest.approx(np.array([[1.0]]))
    assert pred.Q == pytest.approx(np.array([[2.0]]))


def test_predict_full_inverse_growth_correction(sys_a):
    pred = predict_full(sys_a, beta_bar=1.0)
    assert pred.Sigma11 == pytest.approx(np.array([[2.0]]))
    assert pred.Sigma22 == pytest.approx(np.array([[0.5]]))
    assert pred.Sigma12 == pytest.approx(np.array([[-0.5]]))


def test_predict_full_residuals_small(sys_a):
    pred = predict_full(sys_a, beta_bar=0.1)
    scale = 1.0 + np.linalg.norm(sys_a.noise.joint())
    for resid in pred.equation_residuals(sys_a).values():
        assert resid <= 1e-8 * scale


def test_predict_full_decoupled_blocks():
    spec = SystemSpec(
        A11=[[1.5]], A12=[[0.0]], A21=[[0.0]], A22=[[2.0]], b1=[0.0], b2=[0.0],
        noise=NoiseSpec(Gamma11=[[1.0]], Gamma12=[[0.0]], Gamma22=[[3.0]]),
    )
    pred = predict_full(spec, beta_bar=0.0)
    assert pred.Sigma12 == pytest.approx(np.array([[0.0]]))
    slow_only = solve_sylvester(spec.A11, spec.noise.Gamma11)
    assert pred.Sigma11 == pytest.approx(slow_only)


def test_predict_preconditions_enforced(sys_a):
    with pytest.raises(AssumptionViolation):
        predict_full(sys_a, beta_bar=3.0)  # shifted drift unstable
    with pytest.raises(AssumptionViolation):
        predict_reduced(sys_a, beta_bar=3.0)


STABILITY_CHECKS = (
    "fast-matrix-stable",
    "fast-matrix-conditioned",
    "reduced-matrix-stable",
    "shifted-reduced-matrix-stable",
)


@pytest.mark.parametrize(
    "slow",
    [StepSchedule(1.0, 10.0, 0.9), StepSchedule(1.0, 10.0, 1.0), StepSchedule(1.0, 1.0, 1.0),
     StepSchedule(1.0 / 3.0, 1.0, 1.0)],
    ids=["beta_bar-0", "beta_bar-0.1", "beta_bar-1", "beta_bar-3"],
)
def test_predict_refuses_exactly_what_validate_fails(slow):
    pair = SchedulePair(slow=slow, fast=StepSchedule(1.0, 10.0, 0.7))
    rng = np.random.default_rng(8)
    outcomes = set()
    for i in range(50):
        n, m = int(rng.integers(1, 4)), int(rng.integers(1, 4))
        spec = random_stable_system(rng, n, m, drift_margin=float(rng.uniform(0.05, 2.0)))
        if i % 3 == 0:  # unstructured drift: any of the checks may fail
            spec = replace(spec, A11=rng.standard_normal((n, n)), A22=rng.standard_normal((m, m)))
        report = validate_system(spec, pair)
        failed = [c.name for c in report.checks if c.name in STABILITY_CHECKS and not c.passed]
        outcomes.add(tuple(failed))
        for predict in (predict_full, predict_reduced):
            if failed:
                with pytest.raises(AssumptionViolation) as exc:
                    predict(spec, pair.beta_bar)
                assert exc.value.failures == failed
            else:
                predict(spec, pair.beta_bar)
    assert () in outcomes and len(outcomes) > 1


def test_every_config_validate_fails_is_refused_by_predict():
    # Unit, tiny (tau = 1e12) and harmonic steps; ratio limits 0, positive and divergent.
    slows = [StepSchedule(1.0, 1.0, 1.0), StepSchedule(1.0 / 3.0, 1.0, 1.0),
             StepSchedule(1.0, 1e12, 1.0), StepSchedule(1.0, 1e6, 0.8)]
    fasts = [StepSchedule(1.0, 10.0, 0.7), StepSchedule(1.0, 1e12, 0.7),
             StepSchedule(1.0, 1e6, 0.8), StepSchedule(1.0, 1.0, 0.9)]
    rng = np.random.default_rng(23)
    verdicts = set()
    for i in range(200):
        n, m = int(rng.integers(1, 4)), int(rng.integers(1, 4))
        spec = random_stable_system(rng, n, m, drift_margin=0.8 if i % 2 else -0.5)
        for slow in slows:
            for fast in fasts:
                pair = SchedulePair(slow=slow, fast=fast)
                passed = validate_system(spec, pair).passed
                verdicts.add(passed)
                if passed:
                    continue
                # `predict` reads the ratio limit first, then the solver preconditions.
                with pytest.raises((AssumptionViolation, DivergentRatio)):
                    pair.epsilon
                    predict_full(spec, pair.beta_bar)
    assert verdicts == {True, False}


def test_noise_equivalent_covariance_reference(sys_a):
    assert noise_equivalent_covariance(sys_a) == pytest.approx(np.array([[2.0]]))


def test_noise_equivalent_covariance_without_coupling():
    spec = SystemSpec(
        A11=[[1.0]], A12=[[0.0]], A21=[[1.0]], A22=[[1.0]], b1=[0.0], b2=[0.0],
        noise=NoiseSpec(Gamma11=[[1.7]], Gamma12=[[0.3]], Gamma22=[[1.0]]),
    )
    assert noise_equivalent_covariance(spec) == pytest.approx(np.array([[1.7]]))


def test_noise_equivalent_covariance_cancellation():
    # V perfectly correlated with the fast noise through A12 A22^{-1} W
    rng = np.random.default_rng(2)
    A12 = rng.standard_normal((2, 3))
    A22 = rng.standard_normal((3, 3)) + 3.0 * np.eye(3)
    C = A12 @ np.linalg.inv(A22)
    G22 = rng.standard_normal((3, 3))
    G22 = G22 @ G22.T + 0.1 * np.eye(3)
    spec = SystemSpec(
        A11=np.eye(2) + C @ rng.standard_normal((3, 2)) * 0.0,
        A12=A12,
        A21=np.zeros((3, 2)),
        A22=A22,
        b1=np.zeros(2),
        b2=np.zeros(3),
        noise=NoiseSpec(Gamma11=C @ G22 @ C.T, Gamma12=C @ G22, Gamma22=G22),
    )
    Q = noise_equivalent_covariance(spec)
    assert np.linalg.norm(Q) <= 1e-10 * (1.0 + np.linalg.norm(G22))


def test_predict_reduced_reference(sys_a):
    assert predict_reduced(sys_a, beta_bar=0.0) == pytest.approx(np.array([[1.0]]))


def test_predict_reduced_zero_noise(sys_a):
    spec = replace(
        sys_a, noise=NoiseSpec(Gamma11=[[0.0]], Gamma12=[[0.0]], Gamma22=[[0.0]])
    )
    assert predict_reduced(spec, beta_bar=0.0) == pytest.approx(np.array([[0.0]]))


def test_predict_reduced_averaging_closed_form():
    A = np.array([[1.0, 0.5], [0.0, 2.0]])
    G = np.array([[1.0, 0.2], [0.2, 2.0]])
    spec = averaging_system(A, np.zeros(2), G)
    expected = np.linalg.inv(A) @ G @ np.linalg.inv(A).T
    assert np.allclose(predict_reduced(spec, beta_bar=1.0), expected, atol=1e-10)


def test_full_and_reduced_agree_on_random_systems():
    rng = np.random.default_rng(23)
    for i in range(25):
        spec = random_stable_system(rng)
        beta_bar = (0.0, 0.5, 1.0)[i % 3]
        pred = predict_full(spec, beta_bar)
        reduced = predict_reduced(spec, beta_bar)
        rel = np.linalg.norm(pred.Sigma11 - reduced) / (1.0 + np.linalg.norm(pred.Sigma11))
        assert rel <= 1e-8
        scale = 1.0 + np.linalg.norm(spec.noise.joint())
        for resid in pred.equation_residuals(spec).values():
            assert resid <= 1e-8 * scale


def test_optimal_gain_reference(sys_a):
    S_opt, G1_opt, G_opt = optimal_gain_covariance(sys_a)
    assert S_opt == pytest.approx(np.array([[2.0]]))
    assert G1_opt == pytest.approx(np.array([[1.0]]))
    assert np.allclose(G_opt, np.linalg.inv(sys_a.block_matrix()), atol=1e-12)


def test_optimal_gain_averaging_case():
    A = np.array([[1.0, 0.5], [0.0, 2.0]])
    G = np.eye(2)
    spec = averaging_system(A, np.zeros(2), G)
    S_opt, G1_opt, _ = optimal_gain_covariance(spec)
    expected = np.linalg.inv(A) @ np.linalg.inv(A).T
    assert np.allclose(S_opt, expected, atol=1e-10)
    assert np.allclose(G1_opt, np.eye(2), atol=1e-12)


def test_optimal_gain_zero_noise(sys_a):
    spec = replace(sys_a, noise=NoiseSpec(Gamma11=[[0.0]], Gamma12=[[0.0]], Gamma22=[[0.0]]))
    S_opt, _, _ = optimal_gain_covariance(spec)
    assert S_opt == pytest.approx(np.array([[0.0]]))


def test_gained_reduced_matches_optimum_at_inverse_drift(sys_a):
    S = predict_reduced(gained_system(sys_a, [[1.0]]), beta_bar=1.0)
    assert S == pytest.approx(np.array([[2.0]]))


def test_gained_reduced_scalar_closed_form(sys_a):
    # scalar case: S(g) = 2 g^2 / (2 g - 1) with Q = 2, Delta = 1
    for g in (0.7, 1.0, 1.8, 3.0):
        S = predict_reduced(gained_system(sys_a, [[g]]), beta_bar=1.0)
        assert S[0, 0] == pytest.approx(2.0 * g * g / (2.0 * g - 1.0), rel=1e-10)


def test_gained_reduced_requires_stable_drift(sys_a):
    with pytest.raises(AssumptionViolation):
        predict_reduced(gained_system(sys_a, [[0.4]]), beta_bar=1.0)


@pytest.mark.parametrize(
    "call, message",
    [
        (lambda spec, pair: run_ensemble(spec, pair, 4, 0, [0], base_seed=0),
         "K must be at least 1"),
        (lambda spec, pair: l_sequence(spec, pair, K=4, k0=5), "K=4 must be at least k0=5"),
        (lambda spec, pair: gained_system(spec, np.eye(2)), r"G1 must be 1x1, got \(2, 2\)"),
    ],
    ids=["ensemble-K-below-1", "l-sequence-K-below-k0", "gain-shape"],
)
def test_argument_refusals(sys_a, sys_a_pair, call, message):
    with pytest.raises(ValueError, match=message):
        call(sys_a, sys_a_pair)


def test_gain_dominance_on_random_systems():
    rng = np.random.default_rng(31)
    done = 0
    while done < 20:
        spec = random_stable_system(rng, n=int(rng.integers(1, 5)))
        delta = delta_matrix(spec)
        S_opt, G1_opt, _ = optimal_gain_covariance(spec)
        G1 = G1_opt + 0.4 * rng.standard_normal(G1_opt.shape)
        drift = G1 @ delta - 0.5 * np.eye(spec.n)
        if np.max(np.linalg.eigvals(-drift).real) >= -1e-6:
            continue
        S = predict_reduced(gained_system(spec, G1), beta_bar=1.0)
        min_eig = float(np.min(np.linalg.eigvalsh(S - S_opt)))
        assert min_eig >= -1e-8
        done += 1


def test_full_gain_optimum_has_the_optimal_slow_block():
    rng = np.random.default_rng(47)
    for _ in range(50):
        spec = random_stable_system(rng)
        S_opt, _, G_opt = optimal_gain_covariance(spec)
        attained = (G_opt @ spec.noise.joint() @ G_opt.T)[: spec.n, : spec.n]
        assert np.linalg.norm(attained - S_opt) <= 1e-12 * np.linalg.norm(S_opt)


@pytest.mark.parametrize("K", [1000, 10000])
def test_full_gain_optimum_attains_the_optimum_in_propagation(K):
    """The single-time-scale iteration with gain G_opt = A^{-1} attains Sigma11_opt.

    Under beta = gamma = 1/(1+k), G_opt A = I makes the centring the identity
    and the moment G Gamma G' / k exactly, so the scaled slow block at K is
    (1 + 1/K) Sigma11_opt.  The step-size ratio limit is 1 here: the library
    does not refuse epsilon = 1, although the CLI does.
    """
    spec = random_stable_system(np.random.default_rng(7), n=2, m=2)
    S_opt, _, G_opt = optimal_gain_covariance(spec)
    unit = StepSchedule(base=1.0, horizon_scale=1.0, exponent=1.0)
    (cp,) = propagate_covariance(
        fully_gained_system(spec, G_opt), SchedulePair(slow=unit, fast=unit), None, K, [K]
    )
    expected = (1.0 + 1.0 / K) * S_opt
    assert np.linalg.norm(cp.Sigma11 - expected) <= 1e-12 * np.linalg.norm(expected)


def test_l_sequence_zero_without_fast_to_slow_coupling(sys_a_pair):
    spec = SystemSpec(
        A11=[[2.0]], A12=[[1.0]], A21=[[0.0]], A22=[[1.0]], b1=[0.0], b2=[0.0],
        noise=NoiseSpec(Gamma11=[[1.0]], Gamma12=[[0.0]], Gamma22=[[1.0]]),
    )
    seq = l_sequence(spec, sys_a_pair, K=500)
    assert np.all(seq.norms == 0.0)


def test_l_sequence_recursion_residual(sys_a):
    pair = SchedulePair(slow=StepSchedule(0.1, 10.0, 1.0), fast=StepSchedule(0.5, 10.0, 0.7))
    seq = l_sequence(sys_a, pair, K=200)
    delta = delta_matrix(sys_a)
    inv_coupling = np.linalg.solve(sys_a.A22, sys_a.A21)
    for j, k in enumerate(range(seq.k0, seq.K)):
        beta = pair.slow.value(k)
        gamma = pair.fast.value(k)
        L = seq.values[j]
        L_next = seq.values[j + 1]
        B11 = delta - sys_a.A12 @ L
        lhs = L_next @ (np.eye(1) - beta * B11)
        rhs = L - gamma * (sys_a.A22 @ L) + beta * (inv_coupling @ B11)
        assert np.linalg.norm(lhs - rhs) <= 1e-12


def test_l_sequence_decays_for_reference_system(sys_a):
    # Decay tracks the step-size ratio; the envelope over the second half of
    # the run sits below the envelope over the first half.
    pair = SchedulePair(slow=StepSchedule(0.1, 10.0, 1.0), fast=StepSchedule(0.5, 10.0, 0.7))
    K = 20000
    seq = l_sequence(sys_a, pair, K=K)
    first = np.max(seq.norms[: K // 2])
    second = np.max(seq.norms[K // 2 :])
    assert second < first
    # the sequence shadows beta_k/gamma_k, about 0.02 here
    assert seq.final_norm < 3e-2


def test_l_sequence_wide_separation_reaches_small_norms(sys_a):
    # With a wider time-scale split the tail norm drops below 1e-3 by k=1e5.
    pair = SchedulePair(slow=StepSchedule(0.1, 10.0, 1.0), fast=StepSchedule(1.0, 200.0, 0.7))
    seq = l_sequence(sys_a, pair, K=100000)
    assert seq.final_norm < 1e-3


def test_l_sequence_singular_step_and_retry(sys_a):
    # slow base 1 makes the k=0 step factor exactly singular (beta_0 B11 = 1)
    pair = SchedulePair(slow=StepSchedule(1.0, 1.0, 1.0), fast=StepSchedule(1.0, 1.0, 0.7))
    with pytest.raises(SingularStep):
        theory._l_sequence_run(sys_a, pair, 50, 0)
    seq = l_sequence(sys_a, pair, K=50)
    assert seq.k0 == 1
    assert np.isfinite(seq.final_norm)


def test_l_sequence_at_returns_zero_before_start(sys_a, sys_a_pair):
    seq = theory._l_sequence_run(sys_a, sys_a_pair, 10, 4)
    assert np.array_equal(seq.at(2), np.zeros((1, 1)))
    assert seq.at(4) is seq.values[0] or np.array_equal(seq.at(4), seq.values[0])


def test_l_sequence_at_refuses_steps_beyond_K(sys_a, sys_a_pair):
    seq = theory._l_sequence_run(sys_a, sys_a_pair, 10, 4)
    assert np.array_equal(seq.at(10), seq.values[-1])
    with pytest.raises(IndexError):
        seq.at(11)


def test_l_sequence_memory_holds_one_block_of_maps():
    # The scan builds each block's maps from its step sizes, so beyond L
    # itself it holds one block, not a (K, d, d) array of maps.
    spec = random_stable_system(np.random.default_rng(7), 5, 5)
    pair = SchedulePair(slow=StepSchedule(0.1, 10.0, 1.0), fast=StepSchedule(0.2, 10.0, 0.7))
    tracemalloc.start()
    try:
        seq = l_sequence(spec, pair, K=20000)
        peak = tracemalloc.get_traced_memory()[1]
    finally:
        tracemalloc.stop()
    assert peak <= 3 * seq.values.nbytes


def loop_l_sequence(spec, pair, K, k0=0, retry=True):
    """Reference: the decoupling recursion one solve per step, with the start-index retry."""
    n = spec.n
    delta = delta_matrix(spec)
    H = np.linalg.solve(spec.A22, spec.A21)
    while True:
        values = [np.zeros((spec.m, n))]
        try:
            for k in range(k0, K):
                L = values[-1]
                beta, gamma = pair.slow.value(k), pair.fast.value(k)
                B11 = delta - spec.A12 @ L
                rhs = L - gamma * (spec.A22 @ L) + beta * (H @ B11)
                try:
                    L_next = np.linalg.solve((np.eye(n) - beta * B11).T, rhs.T).T
                except np.linalg.LinAlgError as exc:
                    raise SingularStep(k) from exc
                if not np.linalg.norm(L_next) <= 1e6:
                    raise SingularStep(k)
                values.append(L_next)
            return k0, np.array(values)
        except SingularStep:
            k0 = 1 if k0 == 0 else 2 * k0
            if not retry or k0 > K:
                raise


def recursion_residuals(spec, pair, seq):
    """Per-step residual norms of the recursion, relative to 1 + ||L_k|| + ||L_{k+1}||."""
    delta = delta_matrix(spec)
    H = np.linalg.solve(spec.A22, spec.A21)
    out = []
    for j, k in enumerate(range(seq.k0, seq.K)):
        beta, gamma = pair.slow.value(k), pair.fast.value(k)
        L, L_next = seq.values[j], seq.values[j + 1]
        B11 = delta - spec.A12 @ L
        r = L_next @ (np.eye(spec.n) - beta * B11) - (L - gamma * (spec.A22 @ L) + beta * (H @ B11))
        out.append(np.linalg.norm(r) / (1.0 + np.linalg.norm(L) + np.linalg.norm(L_next)))
    return np.array(out)


CRITERION_5_PAIR = SchedulePair(
    slow=StepSchedule(0.1, 10.0, 1.0), fast=StepSchedule(0.5, 10.0, 0.7)
)


def _criterion_5_system(index):
    # The criterion-5 draws; index 11 has an early ||L|| near 480.
    rng = np.random.default_rng(1005)
    for _ in range(index + 1):
        spec = random_stable_system(rng, n=int(rng.integers(1, 4)), m=int(rng.integers(1, 4)))
    return spec


@pytest.mark.parametrize(
    "index",
    [None, 0, 2, 5, 8, 11],
    ids=["system-a", "random-0", "random-2", "random-5", "random-8", "random-11"],
)
def test_l_sequence_matches_explicit_loop(sys_a, index, monkeypatch):
    spec = sys_a if index is None else _criterion_5_system(index)
    K = 3000
    rejected = []
    scan = theory._scan_block

    def counting_scan(spec, delta, H, phi, *args):
        accepted = scan(spec, delta, H, phi, *args)
        rejected.append(accepted < len(phi))
        return accepted

    monkeypatch.setattr(theory, "_scan_block", counting_scan)
    seq = l_sequence(spec, CRITERION_5_PAIR, K=K)
    k0, ref = loop_l_sequence(spec, CRITERION_5_PAIR, K)
    assert seq.k0 == k0
    scale = float(np.max(np.linalg.norm(ref, axis=(1, 2))))
    assert np.max(np.abs(seq.values - ref)) <= 1e-6 * scale
    assert np.max(recursion_residuals(spec, CRITERION_5_PAIR, seq)) <= 1e-12
    if index == 11:
        assert scale > 100 and any(rejected)


@pytest.mark.parametrize("case", ["first-step", "inside-block"])
def test_l_sequence_singular_step_matches_loop(sys_a, case):
    if case == "first-step":
        # slow base 1 makes the k=0 step factor exactly singular (beta_0 B11 = 1)
        spec, retries = sys_a, 1
        pair = SchedulePair(slow=StepSchedule(1.0, 1.0, 1.0), fast=StepSchedule(1.0, 1.0, 0.7))
    else:
        # Without fast-to-slow coupling L stays zero and B11 = Delta = 1, so
        # beta_5 = 1 makes step 5 singular inside the scanned block [3, 7).
        spec, retries = replace(sys_a, A11=np.ones((1, 1)), A21=np.zeros((1, 1))), 4
        pair = SchedulePair(slow=StepSchedule(6.0, 1.0, 1.0), fast=StepSchedule(1.0, 1.0, 0.7))
    with pytest.raises(SingularStep) as ref_exc:
        loop_l_sequence(spec, pair, K=50, retry=False)
    with pytest.raises(SingularStep) as exc:
        theory._l_sequence_run(spec, pair, 50, 0)
    assert exc.value.step == ref_exc.value.step
    k0, ref = loop_l_sequence(spec, pair, K=50)
    seq = l_sequence(spec, pair, K=50)
    assert (seq.k0, seq.retries) == (k0, retries)
    assert np.max(np.abs(seq.values - ref)) <= 1e-12


@pytest.mark.parametrize("K", [3, 5, 50])
def test_l_sequence_retry_stops_at_K(sys_a, K):
    # Unit steps make every start index singular; the retry must give up
    # with SingularStep once the next start would pass K.
    pair = SchedulePair(slow=StepSchedule(1.0, 1e12, 1.0), fast=StepSchedule(1.0, 1e12, 0.7))
    with pytest.raises(SingularStep):
        l_sequence(sys_a, pair, K=K)


def test_l_sequence_empty_when_K_equals_start(sys_a, sys_a_pair):
    seq = l_sequence(sys_a, sys_a_pair, K=6, k0=6)
    assert (seq.k0, seq.K, seq.retries) == (6, 6, 0)
    assert np.array_equal(seq.values, np.zeros((1, 1, 1)))
    assert seq.final_norm == 0.0


def test_prediction_structured_export(sys_a):
    import json

    pred = predict_full(sys_a, beta_bar=0.1)
    doc = json.loads(json.dumps(pred.to_dict()))
    assert doc["Sigma11"] == pred.Sigma11.tolist()
    assert doc["beta_bar"] == 0.1
    assert np.array_equal(np.asarray(doc["Q"]), pred.Q)


def test_matrix_csv_round_trip():
    rng = np.random.default_rng(9)
    mats = {"A": rng.standard_normal((2, 3)), "B": rng.standard_normal((1, 1)),
            "C": rng.standard_normal((3, 2))}
    mats["A"][0] = [1e-300, 1e-320, -0.0]
    mats["C"][:, 0] = [np.inf, -np.inf, 0.0]
    rows = [(name, i, j, float(M[i, j])) for name, M in mats.items() for i, j in np.ndindex(M.shape)]
    lines = _csv_lines(["matrix", "row", "col", "value"], rows)
    parsed = list(csv.reader(lines))
    assert parsed[0] == ["matrix", "row", "col", "value"]
    back = [(name, int(i), int(j), float(v)) for name, i, j, v in parsed[1:]]
    assert back == rows
    # Equal floats can still differ in sign (0.0 == -0.0).
    assert [np.signbit(v) for *_, v in back] == [np.signbit(v) for *_, v in rows]
    assert _csv_lines(["matrix", "row", "col", "value"], []) == ["matrix,row,col,value"]
