import hashlib
import sys
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
    noise_stream,
    propagate_covariance,
    reconstruct_original,
    run_ensemble,
    simulate,
    simulate_transformed,
)
from twoscale import engine
from twoscale.engine import (
    _segment_draws,
    _segments,
    _standard_tile,
    _suffix_products,
    noise_block_steps,
)
from twoscale.errors import Diverged
from twoscale.linalg import factor_covariance
from twoscale.model import fixed_point


def chunk_draws(base_seed, chunk_idx, dim, distribution, steps):
    """Standardized draws of one replica chunk for steps [0, steps), tiles concatenated."""
    tiles = -(-steps // noise_block_steps(dim))
    row = np.concatenate(
        [_standard_tile(base_seed, chunk_idx, i, dim, distribution) for i in range(tiles)], axis=1
    )
    return row[:, : steps * dim]


def rademacher(spec: SystemSpec) -> SystemSpec:
    return replace(spec, noise=replace(spec.noise, distribution="scaled-rademacher"))


def unstable_system() -> SystemSpec:
    """Scalar system with an unstable slow drift (A11 = -1) and no coupling."""
    return SystemSpec(
        A11=[[-1.0]], A12=[[0.0]], A21=[[0.0]], A22=[[1.0]], b1=[0.0], b2=[0.0],
        noise=NoiseSpec(Gamma11=[[1.0]], Gamma12=[[0.0]], Gamma22=[[1.0]]),
    )


def zero_noise(spec: SystemSpec) -> SystemSpec:
    n, m = spec.n, spec.m
    noise = NoiseSpec(Gamma11=np.zeros((n, n)), Gamma12=np.zeros((n, m)), Gamma22=np.zeros((m, m)))
    return replace(spec, noise=noise)


# ---------------------------------------------------------------------------
# noise streams


def test_noise_stream_replay_identical(sys_a):
    s1 = noise_stream(sys_a, base_seed=42, replica=3)
    s2 = noise_stream(sys_a, base_seed=42, replica=3)
    assert np.array_equal(
        s1.standard_range(0, 500) @ s1.factor.T, s2.standard_range(0, 500) @ s2.factor.T
    )


def test_noise_stream_distinct_replicas_and_seeds(sys_a):
    def draws(seed, replica):
        stream = noise_stream(sys_a, seed, replica)
        return stream.standard_range(0, 200) @ stream.factor.T

    base = draws(42, 3)
    assert not np.array_equal(base, draws(42, 4))
    assert not np.array_equal(base, draws(43, 3))


def test_noise_stream_prefix_stability(sys_a):
    stream = noise_stream(sys_a, 11, 0)
    whole = stream.standard_range(0, 5000)
    split = np.concatenate(
        [stream.standard_range(0, 1234), stream.standard_range(1234, 5000)], axis=0
    )
    assert np.array_equal(whole, split)


def test_noise_stream_spans_tiles(sys_a):
    block = noise_block_steps(2)
    stream = noise_stream(sys_a, 11, 7)
    a, b = block - 5, block + 5
    window = stream.standard_range(a, b)
    whole = stream.standard_range(0, b)
    assert np.array_equal(window, whole[a:])


def test_noise_stream_generates_each_tile_once(sys_a, monkeypatch):
    calls = []
    tile = engine._standard_tile

    def counting_tile(*args):
        calls.append(args)
        return tile(*args)

    monkeypatch.setattr(engine, "_standard_tile", counting_tile)
    block = noise_block_steps(2)
    b = 3 * block + 7
    stream = noise_stream(sys_a, 11, 70)
    first = stream.standard_range(0, b)
    assert len(calls) == 4
    assert np.array_equal(stream.standard_range(0, b), first)
    lo, hi = block - 3, 2 * block + 1
    assert np.array_equal(stream.standard_range(lo, hi), first[lo:hi])
    assert len(calls) == 4
    # The same draws as the ensemble's chunk reader for that replica.
    chunk = chunk_draws(11, 1, 2, "gaussian", b)
    assert np.array_equal(first, chunk[6].reshape(b, 2))


def test_noise_empirical_covariance_matches_joint():
    joint = np.array([[2.0, 0.5], [0.5, 1.0]])
    F = factor_covariance(joint)
    steps = 16384
    z = chunk_draws(5, 0, 2, "gaussian", steps).reshape(64, steps, 2).reshape(-1, 2)
    draws = z @ F.T
    sample_cov = draws.T @ draws / len(draws)
    N = len(draws)
    for i in range(2):
        for j in range(2):
            se = np.sqrt((joint[i, i] * joint[j, j] + joint[i, j] ** 2) / N)
            assert abs(sample_cov[i, j] - joint[i, j]) <= 3.0 * se


def test_noise_rademacher_values_and_covariance():
    z = chunk_draws(5, 0, 2, "scaled-rademacher", 4096).reshape(-1)
    assert set(np.unique(z)) == {-1.0, 1.0}
    assert abs(np.mean(z)) <= 3.0 / np.sqrt(len(z))
    # Each chunk's draws as (step, coordinate) pairs: the second moment is I.
    # Var(z_i z_j) is 1 off the diagonal and 0 on it, since z_i^2 = 1.  The
    # 32 off-diagonal entries checked share one 4 SE bound (family-wise
    # false alarm about 0.2%; 3 SE each would be about 8%).
    for dim in (2, 6):
        for chunk_idx in (0, 1):
            pairs = chunk_draws(5, chunk_idx, dim, "scaled-rademacher", 4096).reshape(-1, dim)
            cov = pairs.T @ pairs / len(pairs)
            se = np.sqrt((1.0 - np.eye(dim)) / len(pairs))
            assert np.all(np.abs(cov - np.eye(dim)) <= 4.0 * se), (dim, chunk_idx)


def test_noise_rademacher_bit_positions_balanced():
    # Flat tile entry i takes bit i % 64 of its raw word; every position
    # carries a fair sign (4 SE each, 64 positions).
    for dim in (2, 6):
        z = chunk_draws(5, 0, dim, "scaled-rademacher", 8 * noise_block_steps(dim))
        cols = noise_block_steps(dim) * dim
        by_position = np.concatenate([z[:, i * cols : (i + 1) * cols].reshape(-1, 64) for i in range(8)])
        means = by_position.mean(axis=0)
        assert np.all(np.abs(means) <= 4.0 / np.sqrt(len(by_position))), dim


def test_rademacher_tile_matches_raw_bit_oracle():
    # Layout 4, written out with Python ints: entry [r, j] of a tile with
    # rows of cols = block * d values is the sign of bit (r * cols + j) % 64
    # of raw word (r * cols + j) // 64, bit 0 giving +1.
    rng = np.random.default_rng(0)
    for seed, chunk_idx, block_idx, dim in [(5, 0, 0, 2), (11, 3, 2, 6), (2**40 + 1, 1, 7, 3)]:
        tile = _standard_tile(seed, chunk_idx, block_idx, dim, "scaled-rademacher")
        cols = noise_block_steps(dim) * dim
        assert tile.shape == (64, cols)
        seq = np.random.SeedSequence(entropy=seed, spawn_key=(0, chunk_idx, block_idx))
        words = [int(w) for w in np.random.SFC64(seq).random_raw(cols)]  # 64 * cols bits
        picks = [(0, 0), (0, 63), (0, 64), (63, cols - 1)]
        picks += [(int(r), int(j)) for r, j in zip(rng.integers(64, size=200), rng.integers(cols, size=200))]
        for r, j in picks:
            i = r * cols + j
            assert tile[r, j] == 1 - 2 * ((words[i // 64] >> (i % 64)) & 1), (seed, r, j)


def _digest(a: np.ndarray) -> str:
    return hashlib.sha256(np.ascontiguousarray(a, dtype="<f8").tobytes()).hexdigest()


# sha256 of the little-endian float64 bytes.  The Gaussian tiles and the
# segment draws are unchanged since stream layout 3; the scaled-Rademacher
# tiles are those of layout 4.
GOLDEN = {
    ("gaussian", 2): "6cd4b326f84ea8efc8f85eddb024074d3f09c7474fc628fb1e9dc6a58e29a25f",
    ("gaussian", 6): "e2e7349126c7245a04ec29e82352445dceb325a1fc25c6bfe2692b87fd2bb68e",
    ("scaled-rademacher", 2): "3c825b34da8b38ddbe798df79b07a758cb34ccbe7fa27bccbd84a163e33c7b5d",
    ("scaled-rademacher", 6): "febb119819ed25a2301c88c1ca74c3ef481bc3b242517fe09bebddc3c7e48d5e",
    ("segments", 2): "84ea0308863264d9f89a5cb77fc6ee52dbb2a5b257c80e280766fcb4c1099238",
    ("segments", 6): "f9dec2c94499e2e576a41e9fbb5f778109178974893324bd93bf81dd52991792",
}


@pytest.mark.parametrize("dim", [2, 6])
@pytest.mark.parametrize("distribution", ["gaussian", "scaled-rademacher"])
def test_standard_tile_golden_digest(distribution, dim):
    assert _digest(_standard_tile(7, 1, 2, dim, distribution)) == GOLDEN[distribution, dim]


@pytest.mark.parametrize("dim", [2, 6])
def test_segment_draws_golden_digest(dim):
    assert _digest(_segment_draws(7, 1, 2, 3, dim)) == GOLDEN["segments", dim]


# ---------------------------------------------------------------------------
# single trajectories


def test_simulate_zero_noise_fixed_point_is_stationary(sys_a, sys_a_pair):
    spec = zero_noise(sys_a)
    theta_star, r_star = fixed_point(spec)
    states = simulate(spec, sys_a_pair, (theta_star, r_star), 200, noise_stream(spec, 0, 0))
    for st in states:
        assert np.allclose(st.theta, theta_star, atol=1e-12)
        assert np.allclose(st.r, r_star, atol=1e-12)


def test_simulate_zero_noise_converges_to_fixed_point(sys_a, sys_a_pair):
    spec = zero_noise(sys_a)
    states = simulate(spec, sys_a_pair, None, 5000, noise_stream(spec, 0, 0), record_stride=500)
    target = np.array([-1.0, 3.0])
    dists = [np.linalg.norm(np.concatenate([st.theta, st.r]) - target) for st in states]
    assert dists[-1] < 0.05
    assert all(b <= a + 1e-12 for a, b in zip(dists[2:], dists[3:]))


def test_simulate_single_step_by_hand(sys_a):
    spec = zero_noise(sys_a)
    pair = SchedulePair(slow=StepSchedule(0.5, 10.0, 1.0), fast=StepSchedule(0.5, 10.0, 0.7))
    states = simulate(spec, pair, None, 1, noise_stream(spec, 0, 0))
    assert states[-1].theta == pytest.approx([0.5])
    assert states[-1].r == pytest.approx([1.0])


def test_simulate_record_stride(sys_a, sys_a_pair):
    states = simulate(sys_a, sys_a_pair, None, 1000, noise_stream(sys_a, 0, 0), record_stride=300)
    assert [st.k for st in states] == [0, 300, 600, 900, 1000]


def test_simulate_diverges_on_unstable_drift():
    spec = unstable_system()
    pair = SchedulePair(slow=StepSchedule(1.0, 1e6, 1.0), fast=StepSchedule(1.0, 1e6, 0.7))
    with pytest.raises(Diverged) as info:
        simulate(spec, pair, ([1.0], [0.0]), 500, noise_stream(spec, 0, 0))
    assert 0 < info.value.step <= 500


def test_gained_system_matches_simulate_gained_without_noise(sys_a, sys_a_pair):
    from twoscale import gained_system

    spec = zero_noise(sys_a)
    G1 = np.array([[1.7]])
    K = 200
    # Explicit recursion with the gain on the slow update direction.
    theta, r = np.array([0.3]), np.array([0.1])
    direct = [(theta, r)]
    for k in range(K):
        beta, gamma = sys_a_pair.slow.value(k), sys_a_pair.fast.value(k)
        slow_dir = G1 @ (spec.b1 - spec.A11 @ theta - spec.A12 @ r)
        fast_dir = spec.b2 - spec.A21 @ theta - spec.A22 @ r
        theta, r = theta + beta * slow_dir, r + gamma * fast_dir
        direct.append((theta, r))
    derived_spec = gained_system(spec, G1)
    stream = noise_stream(derived_spec, 0, 0)
    derived = simulate(derived_spec, sys_a_pair, ([0.3], [0.1]), K, stream)
    assert len(derived) == len(direct)
    for (theta, r), b in zip(direct, derived):
        assert np.allclose(theta, b.theta, atol=1e-13)
        assert np.allclose(r, b.r, atol=1e-13)


def test_simulate_record_strides_agree(sys_a, sys_a_pair):
    stream = noise_stream(sys_a, 8, 0)
    K = 3000
    every = {st.k: st for st in simulate(sys_a, sys_a_pair, None, K, stream, record_stride=1)}
    sparse = simulate(sys_a, sys_a_pair, None, K, stream, record_stride=7)
    assert [st.k for st in sparse] == list(range(0, K, 7)) + [K]
    for st in sparse:
        ref = np.concatenate([every[st.k].theta, every[st.k].r])
        got = np.concatenate([st.theta, st.r])
        assert np.linalg.norm(got - ref) <= 1e-12 * np.linalg.norm(ref)


# ---------------------------------------------------------------------------
# transformed trajectories


def test_transformed_zero_noise_from_fixed_point_stays_zero(sys_a, sys_a_pair):
    spec = zero_noise(sys_a)
    theta_star, r_star = fixed_point(spec)
    run = simulate_transformed(
        spec, sys_a_pair, 200, noise_stream(spec, 0, 0), init=(theta_star, r_star)
    )
    for st in run.states:
        assert np.allclose(st.theta_t, 0.0, atol=1e-12)
        assert np.allclose(st.r_t, 0.0, atol=1e-12)


def test_transformed_reconstruction_matches_simulate(sys_a):
    pair = SchedulePair(slow=StepSchedule(0.1, 10.0, 1.0), fast=StepSchedule(0.5, 10.0, 0.7))
    stream = noise_stream(sys_a, 21, 0)
    K = 2000
    reference = {st.k: st for st in simulate(sys_a, pair, None, K, stream, record_stride=100)}
    run = simulate_transformed(sys_a, pair, K, stream, record_stride=100)
    rebuilt = reconstruct_original(sys_a, run)
    assert len(rebuilt) > 5
    for st in rebuilt:
        ref = reference[st.k]
        ref_vec = np.concatenate([ref.theta, ref.r])
        err = np.linalg.norm(np.concatenate([st.theta, st.r]) - ref_vec)
        assert err <= 1e-10 * (1.0 + np.linalg.norm(ref_vec))


def test_transformed_reconstruction_random_systems():
    rng = np.random.default_rng(6)
    pair = SchedulePair(slow=StepSchedule(0.1, 10.0, 1.0), fast=StepSchedule(0.5, 10.0, 0.7))
    for i in range(5):
        spec = random_stable_system(rng, n=int(rng.integers(1, 4)), m=int(rng.integers(1, 4)))
        stream = noise_stream(spec, 100 + i, 0)
        K = 1500
        reference = {st.k: st for st in simulate(spec, pair, None, K, stream, record_stride=250)}
        run = simulate_transformed(spec, pair, K, stream, record_stride=250)
        for st in reconstruct_original(spec, run):
            ref = reference[st.k]
            ref_vec = np.concatenate([ref.theta, ref.r])
            err = np.linalg.norm(np.concatenate([st.theta, st.r]) - ref_vec)
            assert err <= 1e-8 * (1.0 + np.linalg.norm(ref_vec))


@pytest.mark.parametrize("k0, stride", [(37, 7), (2100, 100)])
def test_transformed_reconstruction_with_late_start(sys_a, k0, stride):
    # The original recursion runs up to k0 (across a noise-tile edge in the
    # second case) before the decoupled one takes over.
    pair = SchedulePair(slow=StepSchedule(0.1, 10.0, 1.0), fast=StepSchedule(0.5, 10.0, 0.7))
    stream = noise_stream(sys_a, 21, 0)
    K = 3000
    reference = {st.k: st for st in simulate(sys_a, pair, None, K, stream)}
    run = simulate_transformed(sys_a, pair, K, stream, k0=k0, record_stride=stride)
    assert run.k0 == k0 and run.states[0].k == k0 and run.states[-1].k == K
    for st in reconstruct_original(sys_a, run):
        ref_vec = np.concatenate([reference[st.k].theta, reference[st.k].r])
        err = np.linalg.norm(np.concatenate([st.theta, st.r]) - ref_vec)
        assert err <= 1e-10 * (1.0 + np.linalg.norm(ref_vec))


def test_transformed_decouples_without_fast_to_slow_coupling(sys_a_pair):
    spec = SystemSpec(
        A11=[[2.0]], A12=[[1.0]], A21=[[0.0]], A22=[[1.0]], b1=[1.0], b2=[2.0],
        noise=NoiseSpec(Gamma11=[[1.0]], Gamma12=[[0.0]], Gamma22=[[1.0]]),
    )
    run = simulate_transformed(spec, sys_a_pair, 300, noise_stream(spec, 0, 0))
    assert np.all(run.lseq.norms == 0.0)


def test_simulate_transformed_diverges_on_unstable_drift():
    spec = unstable_system()
    pair = SchedulePair(slow=StepSchedule(1.0, 1e6, 1.0), fast=StepSchedule(1.0, 1e6, 0.7))
    with pytest.raises(Diverged) as info:
        simulate_transformed(spec, pair, 500, noise_stream(spec, 0, 0), init=([1.0], [0.0]))
    assert 0 < info.value.step <= 500


# ---------------------------------------------------------------------------
# exact covariance propagation


def naive_second_moment(spec, pair, C0, K):
    A = spec.block_matrix()
    Gj = spec.noise.joint()
    n, m = spec.n, spec.m
    C = np.array(C0, dtype=float)
    for k in range(K):
        d = np.concatenate([np.full(n, pair.slow.value(k)), np.full(m, pair.fast.value(k))])
        M = np.eye(n + m) - d[:, None] * A
        C = M @ C @ M.T + (d[:, None] * Gj) * d[None, :]
    return C


def scale_to_blocks(spec, pair, C, k):
    n = spec.n
    T = np.block(
        [
            [np.eye(n), np.zeros((n, spec.m))],
            [np.linalg.solve(spec.A22, spec.A21), np.eye(spec.m)],
        ]
    )
    H = T @ C @ T.T
    return H[:n, :n] / pair.slow.value(k), H[:n, n:] / pair.slow.value(k), H[n:, n:] / pair.fast.value(k)


def test_propagate_zero_noise_zero_start(sys_a, sys_a_pair):
    spec = zero_noise(sys_a)
    trace = propagate_covariance(spec, sys_a_pair, None, 500, [100, 500])
    for cp in trace:
        assert np.all(cp.Sigma11 == 0.0)
        assert np.all(cp.Sigma12 == 0.0)
        assert np.all(cp.Sigma22 == 0.0)


def test_propagate_single_step_by_hand(sys_a):
    pair = SchedulePair(slow=StepSchedule(0.5, 10.0, 1.0), fast=StepSchedule(0.5, 10.0, 0.7))
    trace = propagate_covariance(sys_a, pair, np.eye(2), 1, [1])
    A = sys_a.block_matrix()
    M = np.eye(2) - 0.5 * A
    C1 = M @ M.T + 0.25 * sys_a.noise.joint()
    S11, S12, S22 = scale_to_blocks(sys_a, pair, C1, 1)
    assert trace[0].Sigma11 == pytest.approx(S11)
    assert trace[0].Sigma12 == pytest.approx(S12)
    assert trace[0].Sigma22 == pytest.approx(S22)


def test_propagate_matches_naive_recursion(sys_a_pair):
    rng = np.random.default_rng(12)
    for _ in range(3):
        spec = random_stable_system(rng, n=2, m=2)
        z = rng.standard_normal(4)
        C0 = np.outer(z, z)
        K = 533
        trace = propagate_covariance(spec, sys_a_pair, C0, K, [100, K])
        expected = naive_second_moment(spec, sys_a_pair, C0, K)
        S11, S12, S22 = scale_to_blocks(spec, sys_a_pair, expected, K)
        final = trace[-1]
        scale = 1.0 + np.linalg.norm(S11)
        assert np.linalg.norm(final.Sigma11 - S11) <= 1e-10 * scale
        assert np.linalg.norm(final.Sigma12 - S12) <= 1e-10 * scale
        assert np.linalg.norm(final.Sigma22 - S22) <= 1e-10 * scale


def test_propagate_converges_to_prediction(sys_a, sys_a_pair):
    from twoscale import predict_full

    trace = propagate_covariance(sys_a, sys_a_pair, None, 10**6, [10**6])
    pred = predict_full(sys_a, sys_a_pair.beta_bar)
    err = np.linalg.norm(trace[-1].Sigma11 - pred.Sigma11) / np.linalg.norm(pred.Sigma11)
    assert err < 0.05


def test_propagate_checkpoint_sets_agree(sys_a_pair):
    rng = np.random.default_rng(31)
    spec = random_stable_system(rng, n=2, m=3)
    K = 5000
    z = rng.standard_normal(5)
    dense = sorted(set(rng.integers(1, K, size=40).tolist()) | {1, 2, 3, K})
    single = propagate_covariance(spec, sys_a_pair, np.outer(z, z), K, [K])[-1]
    many = propagate_covariance(spec, sys_a_pair, np.outer(z, z), K, dense)
    assert [cp.k for cp in many] == dense
    for block in ("Sigma11", "Sigma12", "Sigma22"):
        ref = getattr(single, block)
        assert np.linalg.norm(getattr(many[-1], block) - ref) <= 1e-12 * np.linalg.norm(ref)


def test_propagate_rejects_indefinite_start(sys_a, sys_a_pair):
    from twoscale.errors import NotPSD

    with pytest.raises(NotPSD):
        propagate_covariance(sys_a, sys_a_pair, [[-1.0, 0.0], [0.0, 1.0]], 10, [10])


def test_propagate_validates_checkpoints(sys_a, sys_a_pair):
    with pytest.raises(ValueError):
        propagate_covariance(sys_a, sys_a_pair, None, 10, [0])
    with pytest.raises(ValueError):
        propagate_covariance(sys_a, sys_a_pair, None, 10, [11])


def test_propagate_divergence_reports_oracle_step():
    # The scalar system of test_divergence_step_matches_oracle_loop: from
    # C0 = diag(1, 0) the slow moment is theta_k^2, which passes the squared
    # cutoff at the step where the loop's |theta_k| passes 1e12.
    c = 0.5
    spec = SystemSpec(
        A11=[[-c]], A12=[[0.0]], A21=[[0.0]], A22=[[1.0]], b1=[0.0], b2=[0.0],
        noise=NoiseSpec(Gamma11=[[0.0]], Gamma12=[[0.0]], Gamma22=[[0.0]]),
    )
    pair = SchedulePair(slow=StepSchedule(1.0, 1e6, 1.0), fast=StepSchedule(1.0, 1e6, 0.7))
    with pytest.raises(Diverged) as info:
        propagate_covariance(spec, pair, np.diag([1.0, 0.0]), 500, [100, 500])
    assert info.value.step == 69
    assert info.value.replicas is None


def test_propagate_refuses_unstable_single_time_scale_system():
    # epsilon = 2: validate's blockwise checks pass, but eig(E A) has real
    # part -0.25, so the moment grows without bound (about 1e113 at K = 1e5).
    spec = SystemSpec(
        A11=[[-1.0]], A12=[[2.0]], A21=[[-1.0]], A22=[[1.0]], b1=[0.0], b2=[0.0],
        noise=NoiseSpec(Gamma11=[[1.0]], Gamma12=[[0.0]], Gamma22=[[1.0]]),
    )
    pair = SchedulePair(slow=StepSchedule(1.0, 10.0, 0.7), fast=StepSchedule(0.5, 10.0, 0.7))
    with pytest.raises(Diverged) as info:
        propagate_covariance(spec, pair, None, 10**5, [10**5])
    assert 0 < info.value.step < 10**5


# ---------------------------------------------------------------------------
# ensembles


def test_ensemble_zero_noise_from_fixed_point_is_exactly_zero(sys_a, sys_a_pair):
    spec = zero_noise(sys_a)
    theta_star, r_star = fixed_point(spec)
    res = run_ensemble(
        spec, sys_a_pair, 8, 300, [0, 100, 300], base_seed=0, init=(theta_star, r_star)
    )
    for cp in res.checkpoints:
        assert np.all(cp.theta_hat == 0.0)
        assert np.all(cp.r_hat == 0.0)


def test_ensemble_bit_identical_across_jobs(sys_a, mc_pair):
    # Per-step (Rademacher) ensembles are the ones that run chunks on a pool.
    spec = rademacher(sys_a)
    a = run_ensemble(spec, mc_pair, 130, 700, [100, 700], base_seed=9, jobs=1)
    b = run_ensemble(spec, mc_pair, 130, 700, [100, 700], base_seed=9, jobs=3)
    for cp_a, cp_b in zip(a.checkpoints, b.checkpoints):
        assert np.array_equal(cp_a.theta_hat, cp_b.theta_hat)
        assert np.array_equal(cp_a.r_hat, cp_b.r_hat)


def test_ensemble_threads_share_state_without_lost_updates(sys_a, mc_pair):
    # More workers than cores and a short switch interval: every chunk writes
    # its rows of the shared state and checkpoint arrays from its own thread.
    spec = rademacher(sys_a)
    serial = run_ensemble(spec, mc_pair, 300, 1500, [0, 700, 1500], base_seed=4, jobs=1)
    interval = sys.getswitchinterval()
    sys.setswitchinterval(1e-6)
    try:
        threaded = run_ensemble(spec, mc_pair, 300, 1500, [0, 700, 1500], base_seed=4, jobs=4)
    finally:
        sys.setswitchinterval(interval)
    for cp_s, cp_t in zip(serial.checkpoints, threaded.checkpoints):
        assert np.array_equal(cp_s.theta_hat, cp_t.theta_hat)
        assert np.array_equal(cp_s.r_hat, cp_t.r_hat)


def test_ensemble_repeat_run_bit_identical(sys_a, mc_pair):
    a = run_ensemble(sys_a, mc_pair, 70, 300, [300], base_seed=5)
    b = run_ensemble(sys_a, mc_pair, 70, 300, [300], base_seed=5)
    assert np.array_equal(a.final.theta_hat, b.final.theta_hat)


def test_ensemble_replica_matches_single_simulate(sys_a, mc_pair):
    # Rademacher ensembles keep the per-step stream that `simulate` reads;
    # Gaussian ones draw per segment and are checked against a per-step loop.
    spec = rademacher(sys_a)
    res = run_ensemble(spec, mc_pair, 70, 500, [500], base_seed=7)
    # Centring written out here, not shared with the ensemble: fixed point
    # (-1, 3), and the fast coordinate measured from A22^-1 (b2 - A21 theta).
    theta_star, r_star = -1.0, 3.0
    for replica in (0, 3, 69):
        states = simulate(spec, mc_pair, None, 500, noise_stream(spec, 7, replica))
        theta, r = states[-1].theta, states[-1].r
        th_hat, r_hat = theta - theta_star, (r - r_star) + (theta - theta_star)
        assert np.allclose(res.final.theta_hat[replica], th_hat, atol=1e-11)
        assert np.allclose(res.final.r_hat[replica], r_hat, atol=1e-11)


def test_ensemble_initial_checkpoint_uses_init(sys_a, mc_pair):
    res = run_ensemble(sys_a, mc_pair, 4, 50, [0], base_seed=0)
    # default start at the origin: centered slow sample is -theta_star
    assert np.allclose(res.checkpoints[0].theta_hat, 1.0)


def test_ensemble_matches_exact_propagation(sys_a, mc_pair):
    from twoscale.estimator import scaled_covariances, standard_errors

    N, K = 10**4, 2048
    res = run_ensemble(sys_a, mc_pair, N, K, [K], base_seed=13, jobs=2)
    cp = res.final
    S11, S12, S22 = scaled_covariances(cp.theta_hat, cp.r_hat, cp.beta, cp.gamma)
    SE11, SE12, SE22 = standard_errors(cp.theta_hat, cp.r_hat, cp.beta, cp.gamma)

    theta_star, r_star = fixed_point(sys_a)
    z0 = -np.concatenate([theta_star, r_star])
    trace = propagate_covariance(sys_a, mc_pair, np.outer(z0, z0), K, [K])
    exact = trace[-1]
    assert np.all(np.abs(S11 - exact.Sigma11) <= 4.0 * SE11)
    assert np.all(np.abs(S12 - exact.Sigma12) <= 4.0 * SE12)
    assert np.all(np.abs(S22 - exact.Sigma22) <= 4.0 * SE22)


def test_rademacher_ensemble_matches_exact_propagation(sys_a, mc_pair):
    # Scaled-Rademacher replicas read the per-step stream; propagation sees
    # only Gamma, so it is the same reference as for Gaussian noise.
    from twoscale.estimator import scaled_covariances, standard_errors

    spec = rademacher(sys_a)
    N, K = 10**4, 2048
    res = run_ensemble(spec, mc_pair, N, K, [K], base_seed=13, jobs=2)
    cp = res.final
    S11, S12, S22 = scaled_covariances(cp.theta_hat, cp.r_hat, cp.beta, cp.gamma)
    SE11, SE12, SE22 = standard_errors(cp.theta_hat, cp.r_hat, cp.beta, cp.gamma)

    theta_star, r_star = fixed_point(spec)
    z0 = -np.concatenate([theta_star, r_star])
    exact = propagate_covariance(spec, mc_pair, np.outer(z0, z0), K, [K])[-1]
    assert np.all(np.abs(S11 - exact.Sigma11) <= 4.0 * SE11)
    assert np.all(np.abs(S12 - exact.Sigma12) <= 4.0 * SE12)
    assert np.all(np.abs(S22 - exact.Sigma22) <= 4.0 * SE22)


def test_ensemble_divergence_reports_step_and_replicas():
    spec = unstable_system()
    pair = SchedulePair(slow=StepSchedule(1.0, 1e6, 1.0), fast=StepSchedule(1.0, 1e6, 0.7))
    with pytest.raises(Diverged) as info:
        run_ensemble(spec, pair, 8, 500, [500], base_seed=0)
    assert 0 < info.value.step <= 500
    assert info.value.replicas


def test_ensemble_requires_two_replicas(sys_a, mc_pair):
    with pytest.raises(ValueError):
        run_ensemble(sys_a, mc_pair, 1, 10, [10], base_seed=0)


# ---------------------------------------------------------------------------
# segment kernel


@pytest.mark.parametrize("L", [1, 2, 3, 5, 8, 409, 682, 2048])
def test_suffix_products_match_naive_loop(L):
    rng = np.random.default_rng(L)
    d = 3
    # Near-identity factors like the step maps, so long products stay bounded.
    M = np.eye(d) + 0.05 * rng.standard_normal((L, d, d))
    S = _suffix_products(M.copy())
    R = np.eye(d)
    for j in range(L - 1, -1, -1):
        R = R @ M[j]
        assert np.linalg.norm(S[j] - R) <= 1e-12 * np.linalg.norm(R)


@pytest.mark.parametrize(
    "start, stop, edges",
    [
        (0, 1000, []),
        (0, 1, [1]),
        (37, 600, [100, 256, 257, 512, 599]),
        (37, 3000, list(range(50, 3000, 50))),
        (300, 2048, [512, 1024, 2048]),
    ],
)
def test_segments_cut_at_tile_and_record_edges(start, stop, edges):
    block = 256
    d = 2

    def identity_maps(t0, t1):
        return np.broadcast_to(np.eye(d), (t1 - t0, d, d)), np.zeros((t1 - t0, d, d))

    segments = list(_segments(identity_maps, start, stop, block, edges))
    bounds = [tuple(seg[:2]) for seg in segments]
    assert bounds[0][0] == start and bounds[-1][1] == stop
    assert all(b0 == a1 for (_, b0), (a1, _) in zip(bounds, bounds[1:]))
    assert all(a < b and a // block == (b - 1) // block for a, b in bounds)
    ends = {b for _, b in bounds}
    assert {e for e in edges if start < e < stop} <= ends
    assert {k for k in range(start + 1, stop) if k % block == 0} <= ends
    for seg in segments:
        assert np.array_equal(seg[2], np.eye(d)) and not np.any(seg[3])


def test_divergence_step_agrees_across_routes():
    # Rademacher noise: every route reads the same per-step stream.
    spec = rademacher(unstable_system())
    pair = SchedulePair(slow=StepSchedule(1.0, 1e6, 1.0), fast=StepSchedule(1.0, 1e6, 0.7))
    K = 500

    def step_of(run):
        with pytest.raises(Diverged) as info:
            run()
        return info.value.step

    steps = [
        step_of(lambda r=r: simulate(spec, pair, None, K, noise_stream(spec, 0, r)))
        for r in range(200)
    ]
    # k0 = 300 locates the divergence in the original-coordinate phase.
    for k0 in (0, 300):
        transformed = step_of(
            lambda: simulate_transformed(spec, pair, K, noise_stream(spec, 0, 0), k0=k0)
        )
        assert transformed == steps[0]
    # At N = 200 the earliest crossing is shared by replicas of several
    # chunks; the ensemble must name all of them, whatever the jobs value.
    for N in (8, 200):
        first = min(steps[:N])
        for jobs in (1, 2):
            with pytest.raises(Diverged) as info:
                run_ensemble(spec, pair, N, K, [K], base_seed=0, jobs=jobs)
            assert info.value.step == first
            assert info.value.replicas == [r for r in range(N) if steps[r] == first]


def test_divergence_step_matches_oracle_loop():
    # Zero noise and no coupling: theta_{k+1} = (1 + c beta_k) theta_k, so a
    # plain loop gives the step at which |theta| first passes the cutoff.
    c = 0.5
    spec = SystemSpec(
        A11=[[-c]], A12=[[0.0]], A21=[[0.0]], A22=[[1.0]], b1=[0.0], b2=[0.0],
        noise=NoiseSpec(Gamma11=[[0.0]], Gamma12=[[0.0]], Gamma22=[[0.0]]),
    )
    pair = SchedulePair(slow=StepSchedule(1.0, 1e6, 1.0), fast=StepSchedule(1.0, 1e6, 0.7))
    z, oracle = 1.0, 0
    while abs(z) <= 1e12:
        z *= 1.0 + c / (1.0 + oracle / 1e6)
        oracle += 1
    assert oracle == 69
    K, init = 500, ([1.0], [0.0])
    runs = {
        "simulate": lambda: simulate(spec, pair, init, K, noise_stream(spec, 0, 0)),
        "transformed": lambda: simulate_transformed(
            spec, pair, K, noise_stream(spec, 0, 0), init=init
        ),
        "ensemble": lambda: run_ensemble(spec, pair, 3, K, [K], base_seed=0, init=init),
    }
    for name, run in runs.items():
        with pytest.raises(Diverged) as info:
            run()
        assert info.value.step == oracle, name
    # The ensemble ran last; its three identical replicas cross together.
    assert info.value.replicas == [0, 1, 2]


def test_ensemble_memory_does_not_grow_with_steps(mc_pair):
    spec = random_stable_system(np.random.default_rng(3), n=3, m=3)

    def peak_bytes(K):
        tracemalloc.start()
        try:
            run_ensemble(spec, mc_pair, 64, K, [K], base_seed=1)
            return tracemalloc.get_traced_memory()[1]
        finally:
            tracemalloc.stop()

    K = 2000
    peak_bytes(K)  # warm up caches that a first call allocates
    assert peak_bytes(4 * K) - peak_bytes(K) <= 0.5e6


# ---------------------------------------------------------------------------
# aggregated Gaussian ensembles


def test_gaussian_ensemble_matches_per_step_loop_in_law():
    from scipy.stats import ks_2samp

    rng = np.random.default_rng(17)
    base = random_stable_system(rng, n=2, m=2)
    B = rng.standard_normal((4, 2))
    G = B @ B.T  # correlated and of rank 2
    spec = replace(base, noise=NoiseSpec(G[:2, :2], G[:2, 2:], G[2:, 2:]))
    pair = SchedulePair(slow=StepSchedule(0.1, 10.0, 1.0), fast=StepSchedule(0.5, 10.0, 0.7))
    # d = 4: tiles of 1024 steps, split at 300 and 700, and a partial last tile.
    N, K, cps = 3000, 1500, [300, 700, 1500]
    res = run_ensemble(spec, pair, N, K, cps, base_seed=3, init=fixed_point(spec), jobs=2)

    # Reference: the per-step recursion of the deviation z from the fixed
    # point, z <- z - D_k (A z - B xi_k), with its own draws.
    A = spec.block_matrix()
    C = np.linalg.solve(spec.A22, spec.A21)
    z = np.zeros((N, 4))
    loop = {}
    for k in range(K):
        steps = np.repeat([pair.slow.value(k), pair.fast.value(k)], 2)
        z = z - steps * (z @ A.T - rng.standard_normal((N, 2)) @ B.T)
        if k + 1 in cps:
            loop[k + 1] = np.column_stack([z[:, :2], z[:, 2:] + z[:, :2] @ C.T])

    for cp in res.checkpoints:
        ours, ref = np.column_stack([cp.theta_hat, cp.r_hat]), loop[cp.k]
        dev = [x - x.mean(axis=0) for x in (ours, ref)]
        for i in range(4):
            assert ks_2samp(ours[:, i], ref[:, i]).pvalue > 1e-3, (cp.k, i)
            for j in range(i, 4):
                prods = [x[:, i] * x[:, j] for x in dev]
                se = np.sqrt(sum(p.var() / N for p in prods))
                assert abs(prods[0].mean() - prods[1].mean()) <= 4.0 * se, (cp.k, i, j)


def test_gaussian_ensemble_prefix_stable(sys_a, mc_pair):
    # d = 2: tiles of 2048 steps; 300 and 2500 sit inside the first two.
    def states(K, cps, N=130):
        res = run_ensemble(sys_a, mc_pair, N, K, cps, base_seed=6)
        return {cp.k: np.column_stack([cp.theta_hat, cp.r_hat]) for cp in res.checkpoints}

    short = states(2600, [300, 2500])
    # A replica's draws do not depend on how many replicas run.
    assert np.array_equal(states(2600, [300, 2500], N=70)[2500], short[2500][:70])
    # Each run keeps the checkpoints at and below the compared ones.
    for K, cps, compared in [
        (2600, [300, 2500, 2550], (300, 2500)),
        (6000, [300, 2500, 6000], (300, 2500)),
        (6000, [300, 2500, 2501, 4096, 6000], (300, 2500)),
        (6000, [300, 301, 2047, 4096, 6000], (300,)),
    ]:
        longer = states(K, cps)
        for c in compared:
            assert np.array_equal(longer[c], short[c]), (K, cps, c)


def test_gaussian_divergence_same_at_any_jobs():
    spec = unstable_system()
    pair = SchedulePair(slow=StepSchedule(1.0, 1e6, 1.0), fast=StepSchedule(1.0, 1e6, 0.7))

    def divergence(N, K, jobs):
        with pytest.raises(Diverged) as info:
            run_ensemble(spec, pair, N, K, [K], base_seed=0, jobs=jobs)
        return info.value.step, info.value.replicas

    # K = 500: the failing segment's W is finite and the replay reads u = Q xi.
    step, replicas = divergence(200, 500, 1)
    assert 0 < step <= 500 and replicas == sorted(replicas) and replicas
    assert divergence(200, 500, 2) == divergence(200, 500, 3) == (step, replicas)
    # K = 2000: the first segment's W overflows, so the replay reads the
    # per-step stream and, starting from step 0, matches `simulate` exactly.
    steps = []
    for r in range(70):
        with pytest.raises(Diverged) as info:
            simulate(spec, pair, None, 2000, noise_stream(spec, 0, r))
        steps.append(info.value.step)
    first = min(steps)
    expected = (first, [r for r in range(70) if steps[r] == first])
    for jobs in (1, 2, 3):
        assert divergence(70, 2000, jobs) == expected


def test_gaussian_replay_inputs_reproduce_the_drawn_aggregate(monkeypatch):
    # A diverging aggregated segment is replayed with per-step inputs u whose
    # noise term W'u equals the drawn xi R, W = QR, for every replica.
    spec = unstable_system()
    pair = SchedulePair(slow=StepSchedule(1.0, 1e6, 1.0), fast=StepSchedule(1.0, 1e6, 0.7))
    seen = []
    replay = engine._replay

    def recording_replay(Z, M, N, U, a, replicas=None):
        seen.append((M, N, U, a))
        return replay(Z, M, N, U, a, replicas)

    monkeypatch.setattr(engine, "_replay", recording_replay)
    K, N_rep = 500, 40
    with pytest.raises(Diverged):
        run_ensemble(spec, pair, N_rep, K, [K], base_seed=4)
    [(M, N, U, a)] = seen
    assert a == 0 and U.shape == (N_rep, K, 2)
    W = engine._compose(M, N)[1]
    xi = _segment_draws(4, 0, 0, 1, 2)[0, :N_rep]
    drawn = xi @ np.linalg.qr(W, mode="r")
    assert np.allclose(U.reshape(N_rep, -1) @ W, drawn, rtol=1e-10, atol=0.0)


def test_segment_draws_keys_do_not_alias():
    # Variable-width entropy would spell (5, 3, 4) and (5 + 3 * 2**32, 4, 0)
    # with the same 32-bit words.
    draws = _segment_draws(5, 3, 4, 1, 2)
    assert not np.array_equal(draws, _segment_draws(5 + 3 * 2**32, 4, 0, 1, 2))
    assert not np.array_equal(draws, _segment_draws(5, 4, 3, 1, 2))
    assert np.array_equal(draws, _segment_draws(5, 3, 4, 2, 2)[:1])


def test_standard_tile_keys_do_not_alias():
    # The same spelling in the per-step tiles: the seed fills its own
    # fixed-width entropy words, so no seed reuses another seed's tiles.
    for distribution in ("gaussian", "scaled-rademacher"):
        tile = _standard_tile(5, 3, 4, 2, distribution)
        assert not np.array_equal(tile, _standard_tile(5 + 3 * 2**32, 4, 0, 2, distribution))
        assert not np.array_equal(tile, _standard_tile(5 + 2**64, 3, 4, 2, distribution))
    with pytest.raises(ValueError):
        _standard_tile(-1, 0, 0, 2, "gaussian")
