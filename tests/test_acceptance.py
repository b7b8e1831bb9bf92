"""Acceptance suite: one test per criterion, each printing a pass line with timing.

Run with `pytest tests/test_acceptance.py -v -s` to see the per-criterion
lines as they complete.  The Monte Carlo criteria use fixed seeds, so every
number below is reproducible bit for bit.
"""

import json
import time

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
    l_sequence,
    optimal_gain_covariance,
    predict_full,
    predict_reduced,
    propagate_covariance,
    reconstruct_original,
    run_ensemble,
    simulate,
    simulate_transformed,
)
from twoscale.estimator import normality_check, scaled_covariances, standard_errors

def sys_a_spec(distribution: str = "gaussian") -> SystemSpec:
    return SystemSpec(
        A11=[[2.0]], A12=[[1.0]], A21=[[1.0]], A22=[[1.0]], b1=[1.0], b2=[2.0],
        noise=NoiseSpec(
            Gamma11=[[1.0]], Gamma12=[[0.0]], Gamma22=[[1.0]], distribution=distribution
        ),
    )


def pair_of(beta, gamma) -> SchedulePair:
    return SchedulePair(slow=StepSchedule(*beta), fast=StepSchedule(*gamma))


def report(name: str, elapsed: float, limit: float, detail: str) -> None:
    print(f"ACCEPTANCE {name}: PASS in {elapsed:.1f}s (limit {limit:.0f}s) -- {detail}")
    assert elapsed < limit


def test_criterion_1_full_vs_reduced_slow_covariance():
    t0 = time.perf_counter()
    rng = np.random.default_rng(1001)
    worst = 0.0
    for i in range(100):
        spec = random_stable_system(rng)
        beta_bar = (0.0, 0.5, 1.0)[i % 3]
        full = predict_full(spec, beta_bar).Sigma11
        reduced = predict_reduced(spec, beta_bar)
        rel = float(np.linalg.norm(full - reduced) / (1.0 + np.linalg.norm(full)))
        worst = max(worst, rel)
        assert rel <= 1e-8
    report("1 full-vs-reduced", time.perf_counter() - t0, 5.0, f"worst rel diff {worst:.2e}")


def test_criterion_2_running_average_recovery(tmp_path):
    t0 = time.perf_counter()
    A = np.array([[1.0, 0.5], [0.0, 2.0]])
    G = np.eye(2)

    spec = averaging_system(A, np.zeros(2), G)
    predicted = predict_reduced(spec, beta_bar=1.0)
    closed_form = np.linalg.inv(A) @ np.linalg.inv(A).T
    rel = np.linalg.norm(predicted - closed_form) / np.linalg.norm(closed_form)
    assert rel <= 1e-8

    config = tmp_path / "averaging.json"
    config.write_text(json.dumps({"A": A.tolist(), "b": [0.0, 0.0], "Gamma": G.tolist()}))
    code = cli.main(
        ["averaging", "--config", str(config), "--replicas", "4000",
         "--steps", "100000", "--seed", "0"]
    )
    assert code == 0
    report(
        "2 running-average recovery",
        time.perf_counter() - t0,
        120.0,
        f"deterministic rel {rel:.2e}; empirical within 10% or 4 SE",
    )


def test_criterion_3_exact_propagation_reaches_prediction():
    t0 = time.perf_counter()
    spec = sys_a_spec()
    pair = pair_of((1.0, 10.0, 1.0), (1.0, 10.0, 0.7))
    assert pair.epsilon == 0.0 and pair.beta_bar == pytest.approx(0.1)

    trace = propagate_covariance(spec, pair, None, 10**6, [10**6])
    pred = predict_full(spec, pair.beta_bar)
    err = float(np.linalg.norm(trace[-1].Sigma11 - pred.Sigma11) / np.linalg.norm(pred.Sigma11))
    assert err < 0.05
    report("3 exact propagation", time.perf_counter() - t0, 10.0, f"slow-block rel err {err:.4f}")


def test_criterion_4_monte_carlo_covariance():
    t0 = time.perf_counter()
    spec = sys_a_spec()
    pair = pair_of((1.0, 1.0, 1.0), (1.0, 10.0, 0.7))
    pred = predict_full(spec, pair.beta_bar)

    res = run_ensemble(spec, pair, 4000, 100000, [100000], base_seed=1)
    cp = res.final
    S11, _, S22 = scaled_covariances(cp.theta_hat, cp.r_hat, cp.beta, cp.gamma)
    SE11, _, SE22 = standard_errors(cp.theta_hat, cp.r_hat, cp.beta, cp.gamma)
    for est, ref, se in ((S11, pred.Sigma11, SE11), (S22, pred.Sigma22, SE22)):
        tol = np.maximum(0.10 * np.abs(ref), 4.0 * se)
        assert np.all(np.abs(est - ref) <= tol)
    detail = (
        f"S11 {S11[0, 0]:.4f} vs {pred.Sigma11[0, 0]:.4f}, "
        f"S22 {S22[0, 0]:.4f} vs {pred.Sigma22[0, 0]:.4f}"
    )
    report("4 Monte Carlo covariance", time.perf_counter() - t0, 120.0, detail)


def test_criterion_5_decoupled_equivalence_and_decay():
    t0 = time.perf_counter()
    pair = pair_of((0.1, 10.0, 1.0), (0.5, 10.0, 0.7))
    K = 10**4
    stride = 500

    def max_reconstruction_error(spec, seed):
        reference = {st.k: st for st in simulate(spec, pair, None, K, seed, stride)}
        run = simulate_transformed(spec, pair, K, seed, record_stride=stride)
        worst = 0.0
        for st in reconstruct_original(spec, run):
            ref = reference[st.k]
            ref_vec = np.concatenate([ref.theta, ref.r])
            err = np.linalg.norm(np.concatenate([st.theta, st.r]) - ref_vec)
            worst = max(worst, err / (1.0 + np.linalg.norm(ref_vec)))
        return worst

    worst = max_reconstruction_error(sys_a_spec(), seed=0)
    rng = np.random.default_rng(1005)
    for i in range(20):
        spec = random_stable_system(rng, n=int(rng.integers(1, 4)), m=int(rng.integers(1, 4)))
        worst = max(worst, max_reconstruction_error(spec, seed=100 + i))
    assert worst <= 1e-8

    # Decay of the decoupling matrices tracks the step-size ratio, so the
    # 1e-3 bound needs a widely separated pair.
    wide = pair_of((0.1, 10.0, 1.0), (1.0, 200.0, 0.7))
    seq = l_sequence(sys_a_spec(), wide, K=10**5)
    assert seq.final_norm < 1e-3
    detail = f"max reconstruction err {worst:.2e}; final decoupling norm {seq.final_norm:.2e}"
    report("5 decoupled equivalence", time.perf_counter() - t0, 30.0, detail)


def test_criterion_6_asymptotic_normality():
    t0 = time.perf_counter()
    pair = pair_of((1.0, 1.0, 1.0), (1.0, 10.0, 0.7))
    N, K = 10**4, 10**5

    spec = sys_a_spec()
    pred = predict_full(spec, pair.beta_bar).Sigma11
    passes = 0
    stats = []
    for seed in range(10):
        res = run_ensemble(spec, pair, N, K, [K], base_seed=seed)
        cp = res.final
        rep = normality_check(cp.theta_hat, cp.beta, pred)
        passes += rep.passed
        stats.append(rep.ks_statistic)
    assert passes >= 9

    spec_r = sys_a_spec(distribution="scaled-rademacher")
    res = run_ensemble(spec_r, pair, N, K, [K], base_seed=0)
    cp = res.final
    rep_r = normality_check(cp.theta_hat, cp.beta, pred)
    assert rep_r.passed

    detail = (
        f"gaussian {passes}/10 seeds pass (ks by seed {' '.join(f'{s:.4f}' for s in stats)}; "
        f"max {max(stats):.4f} < 0.0163); rademacher ks {rep_r.ks_statistic:.4f}"
    )
    report("6 asymptotic normality", time.perf_counter() - t0, 300.0, detail)


def test_criterion_7_gain_optimality():
    t0 = time.perf_counter()
    spec = sys_a_spec()
    pair = pair_of((1.0, 1.0, 1.0), (1.0, 10.0, 0.7))
    assert pair.beta_bar == pytest.approx(1.0)

    S_opt, G1_opt, _ = optimal_gain_covariance(spec)
    assert S_opt == pytest.approx(np.array([[2.0]]))

    rng = np.random.default_rng(1007)
    worst = np.inf
    for _ in range(20):
        g = float(rng.uniform(0.55, 4.0))  # stable region of the shifted gained drift
        S = predict_reduced(gained_system(spec, [[g]]), beta_bar=1.0)
        min_eig = float(np.min(np.linalg.eigvalsh(S - S_opt)))
        worst = min(worst, min_eig)
        assert min_eig >= -1e-8

    gained = gained_system(spec, G1_opt)
    res = run_ensemble(gained, pair, 4000, 100000, [100000], base_seed=2)
    cp = res.final
    S11, _, _ = scaled_covariances(cp.theta_hat, cp.r_hat, cp.beta, cp.gamma)
    SE11, _, _ = standard_errors(cp.theta_hat, cp.r_hat, cp.beta, cp.gamma)
    tol = np.maximum(0.10 * np.abs(S_opt), 4.0 * SE11)
    assert np.all(np.abs(S11 - S_opt) <= tol)
    detail = f"dominance min eig {worst:.2e}; gained estimate {S11[0, 0]:.4f} vs 2.0"
    report("7 gain optimality", time.perf_counter() - t0, 120.0, detail)


def test_criterion_8_ratio_limit_continuity():
    t0 = time.perf_counter()
    spec = sys_a_spec()
    limit_value = predict_full(spec, beta_bar=0.0).Sigma11

    gaps = []
    for eps in (0.2, 0.1, 0.05):
        pair = SchedulePair(
            slow=StepSchedule(eps, 10.0, 0.7), fast=StepSchedule(1.0, 10.0, 0.7)
        )
        assert pair.epsilon == pytest.approx(eps)
        trace = propagate_covariance(spec, pair, None, 10**6, [10**6])
        gaps.append(float(np.linalg.norm(trace[-1].Sigma11 - limit_value)))
    assert gaps[0] > gaps[1] > gaps[2]
    report(
        "8 ratio-limit continuity",
        time.perf_counter() - t0,
        30.0,
        "gaps " + " > ".join(f"{g:.4f}" for g in gaps),
    )
