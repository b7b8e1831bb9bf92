"""The engine's routes against the closed form of `oracles`, which shares no code with them."""

import numpy as np
import pytest

from conftest import random_stable_system
from oracles import constant_pair, frozen_moment
from twoscale.engine import noise_block_steps, propagate_covariance, run_ensemble
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
