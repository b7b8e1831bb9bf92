"""The engine's routes against the closed form of `oracles`, which shares no code with them."""

import numpy as np
import pytest
import scipy.linalg

from conftest import random_stable_system
from oracles import constant_pair, frozen_moment, piecewise_moment
from twoscale import NoiseSpec, SchedulePair, StepSchedule, SystemSpec
from twoscale.engine import noise_block_steps, propagate_covariance, run_ensemble
from twoscale.errors import DIVERGENCE_CUTOFF, MomentDiverged
from twoscale.model import fixed_point

BETA, GAMMA = 1e-3, 1e-2


def centred(spec, C):
    """T C T' for the centring T = [[I, 0], [A22^-1 A21, I]], split into its three blocks."""
    n, m = spec.n, spec.m
    T = np.block([[np.eye(n), np.zeros((n, m))], [np.linalg.solve(spec.A22, spec.A21), np.eye(m)]])
    H = T @ C @ T.T
    return H[:n, :n], H[:n, n:], H[n:, n:]


def frozen(spec, C0, ks):
    D = np.diag([BETA] * spec.n + [GAMMA] * spec.m)
    return frozen_moment(spec.block_matrix(), D, spec.noise.joint(), C0, ks)


@pytest.mark.parametrize("n, m, K", [(1, 1, 10**5), (1, 2, 2 * 10**4), (3, 3, 2 * 10**4), (10, 10, 2 * 10**4)])
def test_propagation_matches_the_frozen_closed_form(n, m, K):
    # d = 2 runs `_moment_tree` over many spans of tiles, d >= 3 `_compose`.
    # The checkpoints fall inside tiles.  Worst error relative to each block's
    # largest entry over rng seeds 7-11 and three step pairs was 2.6e-13.
    spec = random_stable_system(np.random.default_rng(7), n=n, m=m)
    d = n + m
    cps = [1, 777, 3001, K - 13, K]
    assert all(k % noise_block_steps(d) for k in cps)
    trace = propagate_covariance(spec, constant_pair(BETA, GAMMA), np.eye(d), K, cps)
    assert [cp.k for cp in trace] == cps
    for cp, C in zip(trace, frozen(spec, np.eye(d), cps)):
        H11, H12, H22 = centred(spec, C)
        for got, ref in ((cp.Sigma11 * BETA, H11), (cp.Sigma12 * BETA, H12), (cp.Sigma22 * GAMMA, H22)):
            assert np.abs(got - ref).max() <= 1e-12 * np.abs(ref).max(), cp.k


@pytest.mark.parametrize("distribution", ["gaussian", "scaled-rademacher"])
def test_ensemble_matches_the_frozen_closed_form(distribution):
    # Every entry of the joint second moment within 4 SE; 1.9 at most today.
    spec = random_stable_system(np.random.default_rng(7), n=3, m=3, distribution=distribution)
    N, K = 4000, 5000
    res = run_ensemble(spec, constant_pair(BETA, GAMMA), N, K, [K], base_seed=3)
    z0 = -np.concatenate(fixed_point(spec))
    H11, H12, H22 = centred(spec, frozen(spec, np.outer(z0, z0), [K])[0])
    ref = np.block([[H11, H12], [H12.T, H22]])
    X = np.hstack([res.final.theta_hat, res.final.r_hat])
    prods = X[:, :, None] * X[:, None, :]
    se = prods.std(axis=0, ddof=1) / np.sqrt(N)
    assert np.all(np.abs(prods.mean(axis=0) - ref) <= 4.0 * se)


CRITERION_3 = SchedulePair(slow=StepSchedule(1.0, 10.0, 1.0), fast=StepSchedule(1.0, 10.0, 0.7))
SYSTEM_A = SystemSpec(A11=[[2.0]], A12=[[1.0]], A21=[[1.0]], A22=[[1.0]], b1=[1.0], b2=[2.0],
                      noise=NoiseSpec(Gamma11=[[1.0]], Gamma12=[[0.0]], Gamma22=[[1.0]]))


@pytest.mark.parametrize(
    "spec, delta, tol",
    [
        # Worst relative errors at k >= 1e3: 3.1e-6 (system A, delta = 0.002)
        # and 8.8e-5 (rng 7, delta = 0.01); rng seeds 8-11 at delta = 0.01
        # reached 3.8e-4.
        (SYSTEM_A, 0.002, 1e-5),
        (random_stable_system(np.random.default_rng(7), n=2, m=2), 0.01, 3e-4),
    ],
    ids=["system-a-d2", "rng7-d4"],
)
def test_propagation_matches_the_piecewise_frozen_moment(spec, delta, tol):
    # d = 2 runs `_moment_tree`, d = 4 `_compose`; the slow block of the
    # centred moment is the raw one, so Sigma11 = C11 / beta_k.
    ks = [10**3, 10**4, 10**5]
    trace = propagate_covariance(spec, CRITERION_3, None, ks[-1], ks)
    refs = piecewise_moment(spec.block_matrix(), spec.noise.joint(), spec.n, CRITERION_3, ks, delta)
    for cp, C in zip(trace, refs):
        S = C[: spec.n, : spec.n] / cp.beta
        assert np.linalg.norm(cp.Sigma11 - S) <= tol * np.linalg.norm(S), cp.k


@pytest.mark.parametrize("n, m", [(1, 1), (1, 2)], ids=["d2-tree", "d3-compose"])
def test_moment_divergence_step_matches_the_closed_form(n, m):
    # A negated stable system: P = I - D A has spectral radius above one.
    stable = random_stable_system(np.random.default_rng(5), n=n, m=m)
    spec = SystemSpec(A11=-stable.A11, A12=-stable.A12, A21=-stable.A21, A22=-stable.A22,
                      b1=stable.b1, b2=stable.b2, noise=stable.noise)
    d = n + m
    D = np.diag([BETA] * n + [GAMMA] * m)
    P = np.eye(d) - D @ spec.block_matrix()
    assert np.max(np.abs(np.linalg.eigvals(P))) > 1.0
    # C_k = C_inf + P^k (I - C_inf) P'^k, with P^k built up one factor at a time.
    C_inf = scipy.linalg.solve_discrete_lyapunov(P, D @ spec.noise.joint() @ D)
    Pk, peaks = np.eye(d), [1.0]
    while peaks[-1] <= DIVERGENCE_CUTOFF**2:
        Pk = P @ Pk
        peaks.append(np.abs(C_inf + Pk @ (np.eye(d) - C_inf) @ Pk.T).max())
    first = len(peaks) - 1
    # Far enough from the cutoff that rounding cannot move the step.
    assert peaks[-2] < (1 - 1e-9) * DIVERGENCE_CUTOFF**2 and peaks[-1] > (1 + 1e-9) * DIVERGENCE_CUTOFF**2
    with pytest.raises(MomentDiverged) as caught:
        propagate_covariance(spec, constant_pair(BETA, GAMMA), np.eye(d), 2 * first, [2 * first])
    assert caught.value.step == first
