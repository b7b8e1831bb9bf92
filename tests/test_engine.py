import hashlib
import json
import os
import subprocess
import sys
import tracemalloc
from dataclasses import replace

import numpy as np
import pytest

import twoscale
from conftest import random_stable_system
from twoscale import (
    NoiseSpec,
    SchedulePair,
    StepSchedule,
    SystemSpec,
    propagate_covariance,
    reconstruct_original,
    run_ensemble,
    simulate,
    simulate_transformed,
)
from twoscale import engine
from twoscale.engine import (
    NOISE_CHUNK,
    _segments,
    _standard_tile,
    _suffix_products,
    noise_block_steps,
)
from twoscale.errors import Diverged, EnsembleTooLarge, NonFinite
from twoscale.linalg import factor_covariance
from twoscale.model import fixed_point


def chunk_draws(base_seed, chunk_idx, dim, distribution, steps):
    """Standardized draws of one replica chunk for steps [0, steps), tiles concatenated."""
    tiles = -(-steps // noise_block_steps(dim))
    row = np.concatenate(
        [_standard_tile(base_seed, chunk_idx, i, dim, distribution) for i in range(tiles)], axis=1
    )
    # Rademacher tiles are int8 signs; in float64 their products cannot overflow.
    return row[:, : steps * dim].astype(np.float64)


def segment_draws(base_seed, chunk_idx, segments, dim):
    """Aggregated-segment draws of one replica chunk, shape (segments, NOISE_CHUNK, dim).

    Drawn as the ensemble draws them: the next (NOISE_CHUNK, dim) block of
    the chunk's domain-1 generator per segment, in step order.
    """
    gen = engine._generator(base_seed, 1, chunk_idx)
    return np.stack([gen.standard_normal((NOISE_CHUNK, dim)) for _ in range(segments)])


def replica_draws(spec, base_seed, replica, a, b, cuts=()):
    """Standardized per-step draws of one replica for steps [a, b), shape (b - a, d).

    Read in step order through one of the engine's per-step readers, one
    read per piece of [a, b) cut at every tile edge and at each of cuts, as
    the segment kernel reads them.
    """
    d = spec.n + spec.m
    block = noise_block_steps(d)
    read = engine._step_reader(spec, base_seed, range(replica, replica + 1))
    ends = sorted({a, b, *range(a - a % block + block, b, block), *(c for c in cuts if a < c < b)})
    return np.concatenate([read(s, t).reshape(t - s, d) for s, t in zip(ends, ends[1:])])


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
    F = sys_a.noise.factor
    assert np.array_equal(
        replica_draws(sys_a, 42, 3, 0, 500) @ F.T, replica_draws(sys_a, 42, 3, 0, 500) @ F.T
    )


def test_noise_stream_distinct_replicas_and_seeds(sys_a):
    def draws(seed, replica):
        return replica_draws(sys_a, seed, replica, 0, 200) @ sys_a.noise.factor.T

    base = draws(42, 3)
    assert not np.array_equal(base, draws(42, 4))
    assert not np.array_equal(base, draws(43, 3))


def test_noise_stream_prefix_stability(sys_a):
    whole = replica_draws(sys_a, 11, 0, 0, 5000)
    split = np.concatenate(
        [replica_draws(sys_a, 11, 0, 0, 1234), replica_draws(sys_a, 11, 0, 1234, 5000)], axis=0
    )
    assert np.array_equal(whole, split)


def test_noise_stream_spans_tiles(sys_a):
    block = noise_block_steps(2)
    a, b = block - 5, block + 5
    window = replica_draws(sys_a, 11, 7, a, b)
    whole = replica_draws(sys_a, 11, 7, 0, b)
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
    # Many reads per tile, in step order, as a trajectory makes them.
    first = replica_draws(sys_a, 11, 70, 0, b, cuts=range(0, b, 100))
    assert len(calls) == 4
    assert np.array_equal(replica_draws(sys_a, 11, 70, 0, b), first)
    lo, hi = block - 3, 2 * block + 1
    assert np.array_equal(replica_draws(sys_a, 11, 70, lo, hi), first[lo:hi])
    # The same draws as the ensemble's chunk reader for that replica.
    chunk = chunk_draws(11, 1, 2, "gaussian", b)
    assert np.array_equal(first, chunk[6].reshape(b, 2))


@pytest.mark.parametrize("replica", [0, 70, 127])
def test_noise_stream_generates_rows_up_to_its_own(sys_a, monkeypatch, replica):
    rows = []
    tile = engine._standard_tile

    def recording_tile(*args):
        rows.append(args[5] if len(args) > 5 else engine.NOISE_CHUNK)
        return tile(*args)

    monkeypatch.setattr(engine, "_standard_tile", recording_tile)
    replica_draws(sys_a, 11, replica, 0, noise_block_steps(2) + 1)
    assert rows == [replica % engine.NOISE_CHUNK + 1] * 2


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


# sha256 of the little-endian float64 bytes.  The Gaussian tiles are
# unchanged since stream layout 3 and the scaled-Rademacher tiles since
# layout 4; the segment draws are those of layout 5, one generator per chunk.
GOLDEN = {
    ("gaussian", 2): "6cd4b326f84ea8efc8f85eddb024074d3f09c7474fc628fb1e9dc6a58e29a25f",
    ("gaussian", 6): "e2e7349126c7245a04ec29e82352445dceb325a1fc25c6bfe2692b87fd2bb68e",
    ("scaled-rademacher", 2): "3c825b34da8b38ddbe798df79b07a758cb34ccbe7fa27bccbd84a163e33c7b5d",
    ("scaled-rademacher", 6): "febb119819ed25a2301c88c1ca74c3ef481bc3b242517fe09bebddc3c7e48d5e",
    ("segments", 2): "f81076eed01c36cdf9205ebdedbbc150ea4e703b7bda3d8a086110939a3824ca",
    ("segments", 6): "ee0d3781d380fca22b33ec12a14eb0f600b06458314f9376f9736dbe9971927e",
}


@pytest.mark.parametrize("dim", [2, 6])
@pytest.mark.parametrize("distribution", ["gaussian", "scaled-rademacher"])
def test_standard_tile_golden_digest(distribution, dim):
    assert _digest(_standard_tile(7, 1, 2, dim, distribution)) == GOLDEN[distribution, dim]


@pytest.mark.parametrize("dim", [2, 4, 6, 20])
@pytest.mark.parametrize("distribution", ["gaussian", "scaled-rademacher"])
def test_standard_tile_rows_are_a_prefix_of_the_full_tile(distribution, dim):
    full = _standard_tile(7, 1, 2, dim, distribution)
    for rows in (1, 2, 18, 64):
        assert np.array_equal(_standard_tile(7, 1, 2, dim, distribution, rows), full[:rows])


@pytest.mark.parametrize("dim", [2, 6, 20])
@pytest.mark.parametrize("rows", [1, 64])
def test_standard_tile_dtypes(dim, rows):
    # Rademacher tiles stay one int8 sign per entry, with no float64 copy;
    # Gaussian tiles are float64 normals.
    cols = noise_block_steps(dim) * dim
    signs = _standard_tile(7, 1, 2, dim, "scaled-rademacher", rows)
    assert signs.dtype == np.int8 and signs.shape == (rows, cols)
    assert signs.nbytes == rows * cols
    assert set(np.unique(signs)) == {-1, 1}
    normals = _standard_tile(7, 1, 2, dim, "gaussian", rows)
    assert normals.dtype == np.float64 and normals.shape == (rows, cols)


def test_stream_layout_is_pinned():
    # The digests above and ROUTE_GOLDEN are those of this layout; a change
    # to what any seed draws must bump it with them.
    assert engine.STREAM_LAYOUT == 5


@pytest.mark.parametrize("dim", [2, 6])
def test_segment_draws_golden_digest(dim):
    assert _digest(segment_draws(7, 1, 3, dim)) == GOLDEN["segments", dim]


# ---------------------------------------------------------------------------
# single trajectories


def test_simulate_zero_noise_fixed_point_is_stationary(sys_a, sys_a_pair):
    spec = zero_noise(sys_a)
    theta_star, r_star = fixed_point(spec)
    states = simulate(spec, sys_a_pair, (theta_star, r_star), 200, 0)
    for st in states:
        assert np.allclose(st.theta, theta_star, atol=1e-12)
        assert np.allclose(st.r, r_star, atol=1e-12)


def test_simulate_zero_noise_converges_to_fixed_point(sys_a, sys_a_pair):
    spec = zero_noise(sys_a)
    states = simulate(spec, sys_a_pair, None, 5000, 0, record_stride=500)
    target = np.array([-1.0, 3.0])
    dists = [np.linalg.norm(np.concatenate([st.theta, st.r]) - target) for st in states]
    assert dists[-1] < 0.05
    assert all(b <= a + 1e-12 for a, b in zip(dists[2:], dists[3:]))


def test_simulate_single_step_by_hand(sys_a):
    spec = zero_noise(sys_a)
    pair = SchedulePair(slow=StepSchedule(0.5, 10.0, 1.0), fast=StepSchedule(0.5, 10.0, 0.7))
    states = simulate(spec, pair, None, 1, 0)
    assert states[-1].theta == pytest.approx([0.5])
    assert states[-1].r == pytest.approx([1.0])


def test_simulate_record_stride(sys_a, sys_a_pair):
    states = simulate(sys_a, sys_a_pair, None, 1000, 0, record_stride=300)
    assert [st.k for st in states] == [0, 300, 600, 900, 1000]


def test_trajectories_refuse_nonpositive_sizes(sys_a, sys_a_pair):
    with pytest.raises(ValueError, match="K must be at least 1"):
        simulate(sys_a, sys_a_pair, None, 0, 0)
    with pytest.raises(ValueError, match="record_stride must be at least 1"):
        simulate(sys_a, sys_a_pair, None, 10, 0, record_stride=0)
    with pytest.raises(ValueError, match="K must be at least 1"):
        simulate_transformed(sys_a, sys_a_pair, 0, 0)
    for stride in (0, -5):
        with pytest.raises(ValueError, match="record_stride must be at least 1"):
            simulate_transformed(sys_a, sys_a_pair, 10, 0, record_stride=stride)


def test_simulate_diverges_on_unstable_drift():
    spec = unstable_system()
    pair = SchedulePair(slow=StepSchedule(1.0, 1e6, 1.0), fast=StepSchedule(1.0, 1e6, 0.7))
    with pytest.raises(Diverged) as info:
        simulate(spec, pair, ([1.0], [0.0]), 500, 0)
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
    derived = simulate(derived_spec, sys_a_pair, ([0.3], [0.1]), K, 0)
    assert len(derived) == len(direct)
    for (theta, r), b in zip(direct, derived):
        assert np.allclose(theta, b.theta, atol=1e-13)
        assert np.allclose(r, b.r, atol=1e-13)


@pytest.mark.parametrize("bad", [np.inf, np.nan])
def test_trajectories_refuse_non_finite_start(sys_a, sys_a_pair, bad):
    # Refused before the first step, not reported as a divergence at step 1.
    with pytest.raises(NonFinite):
        simulate(sys_a, sys_a_pair, ([bad], [0.0]), 10, 0)
    with pytest.raises(NonFinite):
        simulate_transformed(sys_a, sys_a_pair, 10, 0, init=([0.0], [bad]))


def test_simulate_record_strides_agree(sys_a, sys_a_pair):
    seed = 8
    K = 3000
    every = {st.k: st for st in simulate(sys_a, sys_a_pair, None, K, seed, record_stride=1)}
    sparse = simulate(sys_a, sys_a_pair, None, K, seed, record_stride=7)
    assert [st.k for st in sparse] == list(range(0, K, 7)) + [K]
    for st in sparse:
        ref = np.concatenate([every[st.k].theta, every[st.k].r])
        got = np.concatenate([st.theta, st.r])
        assert np.linalg.norm(got - ref) <= 1e-12 * np.linalg.norm(ref)


def test_simulate_memory_does_not_grow_with_steps(sys_a, sys_a_pair):
    def peak_bytes(K):
        tracemalloc.start()
        try:
            simulate(sys_a, sys_a_pair, None, K, 1, record_stride=K // 10)
            return tracemalloc.get_traced_memory()[1]
        finally:
            tracemalloc.stop()

    K = 20000
    peak_bytes(K)  # warm up caches that a first call allocates
    # A cache of every draw read, K * d floats, would add 960 KB from K to 4K.
    assert peak_bytes(4 * K) - peak_bytes(K) <= 240e3


def test_trajectories_read_the_noise_of_their_own_spec(sys_a, sys_a_pair):
    # A noise-free copy of system A is deterministic at any seed and replica.
    spec, K = zero_noise(sys_a), 2000
    ref = simulate(spec, sys_a_pair, None, K, 0)[-1]
    other = simulate(spec, sys_a_pair, None, K, 5, replica=3)[-1]
    rebuilt = reconstruct_original(spec, simulate_transformed(spec, sys_a_pair, K, 5))[-1]
    assert np.array_equal(other.theta, ref.theta) and np.array_equal(other.r, ref.r)
    assert np.allclose(rebuilt.theta, ref.theta, atol=1e-12)
    assert np.allclose(rebuilt.r, ref.r, atol=1e-12)


# ---------------------------------------------------------------------------
# transformed trajectories


def test_transformed_zero_noise_from_fixed_point_stays_zero(sys_a, sys_a_pair):
    spec = zero_noise(sys_a)
    theta_star, r_star = fixed_point(spec)
    run = simulate_transformed(
        spec, sys_a_pair, 200, 0, init=(theta_star, r_star)
    )
    for st in run.states:
        assert np.allclose(st.theta_t, 0.0, atol=1e-12)
        assert np.allclose(st.r_t, 0.0, atol=1e-12)


def test_transformed_reconstruction_matches_simulate(sys_a):
    pair = SchedulePair(slow=StepSchedule(0.1, 10.0, 1.0), fast=StepSchedule(0.5, 10.0, 0.7))
    seed = 21
    K = 2000
    reference = {st.k: st for st in simulate(sys_a, pair, None, K, seed, record_stride=100)}
    run = simulate_transformed(sys_a, pair, K, seed, record_stride=100)
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
        seed = 100 + i
        K = 1500
        reference = {st.k: st for st in simulate(spec, pair, None, K, seed, record_stride=250)}
        run = simulate_transformed(spec, pair, K, seed, record_stride=250)
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
    seed = 21
    K = 3000
    reference = {st.k: st for st in simulate(sys_a, pair, None, K, seed)}
    run = simulate_transformed(sys_a, pair, K, seed, k0=k0, record_stride=stride)
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
    run = simulate_transformed(spec, sys_a_pair, 300, 0)
    assert np.all(run.lseq.norms == 0.0)


def test_simulate_transformed_diverges_on_unstable_drift():
    spec = unstable_system()
    pair = SchedulePair(slow=StepSchedule(1.0, 1e6, 1.0), fast=StepSchedule(1.0, 1e6, 0.7))
    with pytest.raises(Diverged) as info:
        simulate_transformed(spec, pair, 500, 0, init=([1.0], [0.0]))
    assert 0 < info.value.step <= 500


# ---------------------------------------------------------------------------
# exact covariance propagation


def naive_second_moment(spec, pair, C0, ks):
    """The second moment of the plain per-step recursion after each step count in the sorted ks."""
    A = spec.block_matrix()
    Gj = spec.noise.joint()
    n, m = spec.n, spec.m
    C = np.array(C0, dtype=float)
    out = []
    for k in range(ks[-1]):
        d = np.concatenate([np.full(n, pair.slow.value(k)), np.full(m, pair.fast.value(k))])
        M = np.eye(n + m) - d[:, None] * A
        C = M @ C @ M.T + (d[:, None] * Gj) * d[None, :]
        if k + 1 in ks:
            out.append(C)
    return out


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
    # d = 4 over a few segments; then d = 2, which runs `_moment_tree`, and
    # d = 3, which runs `_compose`, past one batch of MOMENT_TREE_TILES tiles
    # to an odd tail, with checkpoints that cut tiles into runs of unequal
    # length (single steps among them) and leave whole tiles between them.
    assert 20011 > engine.MOMENT_TREE_TILES * noise_block_steps(2)
    cuts = [1, 2, 3, 700, 1500, 5000, 9000, 9001, 13000, 20011]
    cases = [(2, 2, [100, 533])] * 3 + [(1, 1, cuts)] * 2 + [(1, 2, cuts)] * 2
    rng = np.random.default_rng(12)
    for n, m, cps in cases:
        spec = random_stable_system(rng, n=n, m=m)
        z = rng.standard_normal(n + m)
        C0 = np.outer(z, z)
        trace = propagate_covariance(spec, sys_a_pair, C0, cps[-1], cps)
        assert [cp.k for cp in trace] == cps
        for cp, expected in zip(trace, naive_second_moment(spec, sys_a_pair, C0, cps)):
            S11, S12, S22 = scale_to_blocks(spec, sys_a_pair, expected, cp.k)
            scale = 1.0 + np.linalg.norm(S11)
            assert np.linalg.norm(cp.Sigma11 - S11) <= 1e-10 * scale
            assert np.linalg.norm(cp.Sigma12 - S12) <= 1e-10 * scale
            assert np.linalg.norm(cp.Sigma22 - S22) <= 1e-10 * scale


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


@pytest.mark.parametrize("value", [1e154, 1e200])
def test_propagate_rejects_indefinite_start_with_huge_entries(sys_a, sys_a_pair, value):
    from twoscale.errors import NotPSD

    with pytest.raises(NotPSD):
        propagate_covariance(sys_a, sys_a_pair, [[1.0, value], [value, 1.0]], 10, [10])


@pytest.mark.parametrize("bad", [np.inf, np.nan])
def test_propagate_refuses_non_finite_start(sys_a, sys_a_pair, bad):
    # A NaN has NaN eigenvalues, which no PSD comparison catches.
    with pytest.raises(NonFinite):
        propagate_covariance(sys_a, sys_a_pair, [[1.0, 0.0], [0.0, bad]], 10, [10])


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
        states = simulate(spec, mc_pair, None, 500, 7, replica=replica)
        theta, r = states[-1].theta, states[-1].r
        th_hat, r_hat = theta - theta_star, (r - r_star) + (theta - theta_star)
        assert np.allclose(res.final.theta_hat[replica], th_hat, atol=1e-11)
        assert np.allclose(res.final.r_hat[replica], r_hat, atol=1e-11)


@pytest.mark.parametrize("distribution", ["gaussian", "scaled-rademacher"])
def test_ensemble_refuses_non_finite_start(sys_a, mc_pair, distribution):
    spec = replace(sys_a, noise=replace(sys_a.noise, distribution=distribution))
    with pytest.raises(NonFinite):
        run_ensemble(spec, mc_pair, 4, 50, [50], base_seed=0, init=([np.nan], [0.0]))


def test_ensemble_initial_checkpoint_uses_init(sys_a, mc_pair):
    res = run_ensemble(sys_a, mc_pair, 4, 50, [0], base_seed=0)
    # default start at the origin: centered slow sample is -theta_star
    assert np.allclose(res.checkpoints[0].theta_hat, 1.0)


def test_ensemble_matches_exact_propagation(sys_a, mc_pair):
    from twoscale.estimator import scaled_covariances, standard_errors

    N, K = 10**4, 2048
    res = run_ensemble(sys_a, mc_pair, N, K, [K], base_seed=13)
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
    res = run_ensemble(spec, mc_pair, N, K, [K], base_seed=13)
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


def test_ensemble_past_the_memory_cap_is_refused_before_allocating(sys_a, mc_pair):
    # 8 * 1e9 * 2 * (3 + 2) bytes = 80 GB; the refusal must come first.
    tracemalloc.start()
    try:
        with pytest.raises(EnsembleTooLarge, match=r"N=1000000000 .* d=2 with 3 checkpoints"):
            run_ensemble(sys_a, mc_pair, 10**9, 1000, [10, 100, 1000], base_seed=0)
        peak = tracemalloc.get_traced_memory()[1]
    finally:
        tracemalloc.stop()
    assert peak < 1e6


@pytest.mark.parametrize("checkpoints", [[], [-1, 10], [11]])
def test_ensemble_refuses_checkpoints_outside_the_run(sys_a, mc_pair, checkpoints):
    with pytest.raises(ValueError, match=r"checkpoints must be within \[0, K\]"):
        run_ensemble(sys_a, mc_pair, 4, 10, checkpoints, base_seed=0)


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


@pytest.mark.parametrize("cols", [1, 511, 512, 513, 4092, 5120])
@pytest.mark.parametrize("d", [2, 6, 20])
def test_blocked_product_equals_the_full_product(d, cols):
    rng = np.random.default_rng(100 * cols + d)
    # A column window of a wider int8 sign tile, as a segment reads it.
    U = (1 - 2 * rng.integers(0, 2, (NOISE_CHUNK, cols + 8))).astype(np.int8)[:, 3 : 3 + cols]
    out = np.empty((NOISE_CHUNK, d))
    # The cast buffer's stale contents must not leak into any block.
    buf = np.full((NOISE_CHUNK, engine.NOISE_SUM_COLS), np.nan)
    # Integer W: every partial sum is an integer below 2^53, so exact in any order.
    W = rng.integers(-1000, 1001, (cols, d)).astype(np.float64)
    engine._blocked_product(U, W, out, buf)
    assert np.array_equal(out, U @ W)
    W = rng.standard_normal((cols, d))
    engine._blocked_product(U, W, out, buf)
    assert np.all(np.abs(out - U @ W) <= 1e-13 * (np.abs(U) @ np.abs(W)))
    # The summation order, written out: one product per block, added in order.
    step = engine.NOISE_SUM_COLS
    in_order = U[:, :step] @ W[:step]
    for j in range(step, cols, step):
        in_order += U[:, j : j + step] @ W[j : j + step]
    assert out.tobytes() == in_order.tobytes()


@pytest.mark.parametrize("n, m", [(1, 3), (3, 1), (2, 2)])
@pytest.mark.parametrize("case", ["generic", "zeros", "underflow"])
def test_step_maps_equal_the_entrywise_products_bit_for_bit(n, m, case):
    rng = np.random.default_rng(10 * n + m)
    spec = random_stable_system(rng, n, m)
    pair = SchedulePair(slow=StepSchedule(0.1, 10.0, 1.0), fast=StepSchedule(0.5, 10.0, 0.7))
    if case == "zeros":
        # A12 = 0 and a rank-one Gamma, whose factor has -0.0 entries.
        B = rng.standard_normal((n + m, 1))
        G = B @ B.T
        spec = replace(spec, A12=np.zeros((n, m)), noise=NoiseSpec(G[:n, :n], G[:n, n:], G[n:, n:]))
        assert np.any(np.signbit(spec.noise.factor) & (spec.noise.factor == 0.0))
    if case == "underflow":
        # The smallest positive double as beta_0: the products of F's entries
        # below 1/2 in magnitude round to +-0, though F itself has no zero.
        pair = replace(pair, slow=StepSchedule(5e-324, 10.0, 1.0))
        assert np.all(spec.noise.factor != 0.0)
        assert np.any((spec.noise.factor[:n] < 0.0) & (spec.noise.factor[:n] > -0.5))
    d, F = n + m, spec.noise.factor
    block = noise_block_steps(d)
    maps = engine._step_maps(spec, pair)
    for a, b in [(0, block), (3 * block, 4 * block), (5 * block + 17, 5 * block + 18)]:
        ks = np.arange(a, b)
        steps = np.stack([pair.slow.values(ks), pair.fast.values(ks)], axis=1)
        dvec = np.repeat(steps, [n, m], axis=1)[:, :, None]
        M, N = maps(a, b)
        assert M.tobytes() == (np.eye(d) - dvec * spec.block_matrix()).tobytes(), (a, b)
        # N may differ from D_k F in the sign of a zero only: +0.0 == -0.0.
        assert np.array_equal(N, dvec * F), (a, b)
        assert M.shape == (b - a, d, d) and N.shape == (b - a, d, d)


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


@pytest.mark.parametrize(
    "start, stop, edges",
    [
        (0, 1000, []),
        (37, 3000, list(range(50, 3000, 50))),
        (300, 2048, [512, 1024, 2048]),
        # Edges on span boundaries (multiples of 4 * 256), a stop off the tile grid.
        (0, 5000, [1, 1024, 2048, 2049, 3000, 4096]),
    ],
)
def test_segments_cut_the_same_at_both_spans(start, stop, edges):
    # d = 2 propagation takes the maps of MOMENT_TREE_TILES tiles per call,
    # every other route those of one tile; the tile edges inside a span cut
    # the same segments.
    block, d = 256, 2
    span = engine.MOMENT_TREE_TILES * block

    def plan(reduce, tiles):
        calls = []

        def identity_maps(t0, t1):
            calls.append((t0, t1))
            return np.broadcast_to(np.eye(d), (t1 - t0, d, d)), np.zeros((t1 - t0, d, d))

        segments = list(_segments(identity_maps, start, stop, block, edges, reduce, tiles))
        for _, _, P, G in segments:
            assert np.array_equal(P, np.eye(d)) and not np.any(G)
        return [(a, b) for a, b, _, _ in segments], calls

    def grid(unit):  # one maps call per tile or span that [start, stop) meets
        starts = [start, *range(start - start % unit + unit, stop, unit)]
        return [(t0, min(stop, t0 - t0 % unit + unit)) for t0 in starts]

    one, tile_calls = plan(None, 1)
    many, span_calls = plan(engine._moment_tree, engine.MOMENT_TREE_TILES)
    assert many == one
    assert tile_calls == grid(block) and span_calls == grid(span)


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
        step_of(lambda r=r: simulate(spec, pair, None, K, 0, replica=r))
        for r in range(200)
    ]
    # k0 = 300 locates the divergence in the original-coordinate phase.
    for k0 in (0, 300):
        transformed = step_of(
            lambda: simulate_transformed(spec, pair, K, 0, k0=k0)
        )
        assert transformed == steps[0]
    # At N = 200 the earliest crossing is shared by replicas of several
    # chunks; the ensemble must name all of them, also when checkpoints cut
    # the noise tile into 50 segments.
    for N in (8, 200):
        first = min(steps[:N])
        for cps in ([K], range(10, K + 1, 10)):
            with pytest.raises(Diverged) as info:
                run_ensemble(spec, pair, N, K, cps, base_seed=0)
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
        "simulate": lambda: simulate(spec, pair, init, K, 0),
        "transformed": lambda: simulate_transformed(
            spec, pair, K, 0, init=init
        ),
        "ensemble": lambda: run_ensemble(spec, pair, 3, K, [K], base_seed=0, init=init),
    }
    for name, run in runs.items():
        with pytest.raises(Diverged) as info:
            run()
        assert info.value.step == oracle, name
    # The ensemble ran last; its three identical replicas cross together.
    assert info.value.replicas == [0, 1, 2]


def joint_stable_system(rng, n, m, distribution="gaussian"):
    """First random_stable_system draw whose joint drift A is stable as well."""
    for _ in range(1000):
        spec = random_stable_system(rng, n, m, drift_margin=1.5, distribution=distribution)
        if np.min(np.linalg.eigvals(spec.block_matrix()).real) > 0.3:
            return spec
    raise RuntimeError("no joint-stable system in 1000 draws")


SMALL_STEPS = SchedulePair(slow=StepSchedule(0.2, 5.0, 1.0), fast=StepSchedule(0.2, 1000.0, 0.6))


def _route_states(route):
    """Every state one small run of a route reports, as one float64 array."""
    criterion_3 = SchedulePair(slow=StepSchedule(1.0, 10.0, 1.0), fast=StepSchedule(1.0, 10.0, 0.7))
    if route == "propagate":
        system_a = SystemSpec(
            A11=[[2.0]], A12=[[1.0]], A21=[[1.0]], A22=[[1.0]], b1=[1.0], b2=[2.0],
            noise=NoiseSpec(Gamma11=[[1.0]], Gamma12=[[0.0]], Gamma22=[[1.0]]),
        )
        geometric = [2**j for j in range(17)] + [10**5]
        runs = [
            propagate_covariance(system_a, criterion_3, None, 10**5, geometric),
            propagate_covariance(
                joint_stable_system(np.random.default_rng(41), 3, 3), SMALL_STEPS, None, 10**5, geometric
            ),
        ]
        cps = [cp for run in runs for cp in run]
        return np.concatenate(
            [np.concatenate([[cp.beta, cp.gamma], cp.Sigma11.ravel(), cp.Sigma12.ravel(), cp.Sigma22.ravel()])
             for cp in cps]
        )
    if route == "simulate":
        spec = random_stable_system(np.random.default_rng(42), 2, 2)
        pair = SchedulePair(slow=StepSchedule(0.1, 10.0, 1.0), fast=StepSchedule(0.5, 10.0, 0.7))
        states = simulate(spec, pair, None, 5000, base_seed=7)
        return np.concatenate([np.concatenate([st.theta, st.r]) for st in states])
    if route == "gaussian-ensemble":
        # Enough rows that a two-thread BLAS would split the ensemble's products.
        spec = joint_stable_system(np.random.default_rng(43), 3, 3)
        res = run_ensemble(spec, SMALL_STEPS, 4096, 2000, [0, 1, 700, 2000], base_seed=9)
    else:
        spec = joint_stable_system(np.random.default_rng(43), 3, 3, "scaled-rademacher")
        res = run_ensemble(spec, SMALL_STEPS, 128, 2000, [0, 1, 700, 2000], base_seed=9)
    return np.concatenate([np.column_stack([cp.theta_hat, cp.r_hat]).ravel() for cp in res.checkpoints])


# sha256 of every state's little-endian float64 bytes on one small run per
# route: propagation of system A and of a d = 6 system to K = 1e5, a d = 4
# trajectory over K = 5000, and d = 6 ensembles over K = 2000, one
# scaled-Rademacher (N = 128) and one Gaussian (N = 4096).  They pin the
# bits of the whole segment kernel, so a rewrite of the step maps, of the
# composition or of the ensemble plans must keep them.  The propagate digest
# holds system A's moments from `_moment_tree`, whose d = 2 products are
# elementwise and call no BLAS, and the d = 6 system's from `_compose`.  The
# Rademacher digest is that of noise terms summed over 512-column blocks from
# each segment's first column.  The kernel's other products run in the
# linked BLAS, whose rounding can depend on its build and on its thread
# count, so the runs happen in a child with BLAS pinned to one thread; these
# are the digests of OpenBLAS 0.3.31 under numpy 2.4.6.
ROUTE_GOLDEN = {
    "ensemble": "c25022fffcb45852d1c7a86d0939f49f449760798d6e73a68001a90ce4125935",
    "gaussian-ensemble": "ae3bf3353383c74044bd1a1bcc3679e3bba36366ec17a21e24c06997ab05b5d1",
    "propagate": "b9db757cc08b6e33097ea5820ec4fdbc604e4f7c10dd89cd022dca1dce4db72e",
    "simulate": "96645810443a62b366dee7913630006bc12c2e6f73e3de20c4d3e72f937ae068",
}
BLAS_THREAD_VARS = ("OPENBLAS_NUM_THREADS", "OMP_NUM_THREADS", "MKL_NUM_THREADS")


def _child_digests(routes, threads: int) -> dict:
    """Digest of each route's states, run in a child process with BLAS on threads threads."""
    code = (
        "import json, sys, test_engine\n"
        "print(json.dumps({r: test_engine._digest(test_engine._route_states(r)) for r in sys.argv[1:]}))"
    )
    paths = [os.path.dirname(__file__), os.path.dirname(os.path.dirname(twoscale.__file__))]
    blas = dict.fromkeys(BLAS_THREAD_VARS, str(threads))
    env = {**os.environ, **blas, "PYTHONPATH": os.pathsep.join(paths)}
    done = subprocess.run(
        [sys.executable, "-c", code, *routes], env=env, capture_output=True, text=True, timeout=120
    )
    assert done.returncode == 0, done.stderr
    return json.loads(done.stdout)


@pytest.fixture(scope="module")
def route_digests():
    return _child_digests(list(ROUTE_GOLDEN), threads=1)


@pytest.mark.parametrize("route", sorted(ROUTE_GOLDEN))
def test_route_states_golden_digest(route_digests, route):
    assert route_digests[route] == ROUTE_GOLDEN[route]


def test_route_states_do_not_depend_on_blas_thread_count():
    two = _child_digests(list(ROUTE_GOLDEN), threads=2)
    assert two == {r: ROUTE_GOLDEN[r] for r in two}


@pytest.mark.parametrize("distribution", ["gaussian", "scaled-rademacher"])
def test_ensemble_memory_does_not_grow_with_steps(mc_pair, distribution):
    spec = random_stable_system(np.random.default_rng(3), n=3, m=3, distribution=distribution)

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


@pytest.mark.parametrize("n, K", [(1, 20000), (3, 2000)])
def test_propagate_memory_does_not_grow_with_steps(sys_a_pair, n, K):
    # d = 2 holds the maps of one batch of MOMENT_TREE_TILES tiles at a time
    # (K covers more than one), d = 6 those of one tile.
    spec = random_stable_system(np.random.default_rng(5), n=n, m=n)

    def peak_bytes(steps):
        tracemalloc.start()
        try:
            propagate_covariance(spec, sys_a_pair, None, steps, [steps])
            return tracemalloc.get_traced_memory()[1]
        finally:
            tracemalloc.stop()

    peak_bytes(K)  # warm up caches that a first call allocates
    assert peak_bytes(4 * K) - peak_bytes(K) <= 0.5e6


def test_rademacher_ensemble_holds_no_float64_tile(mc_pair):
    # One d = 6 noise tile of one chunk is 64 x 4092 entries: 2.1 MB as
    # float64, 0.26 MB as int8 signs.  The run peaks near 1.07 MB: the
    # tile's composed maps and scan (about 0.8 MB) overlap the run's 0.26 MB
    # cast buffer.  Any float64 copy of the tile would pass 1.5 MB.
    spec = random_stable_system(np.random.default_rng(3), n=3, m=3, distribution="scaled-rademacher")
    K = noise_block_steps(6)

    def peak_bytes():
        tracemalloc.start()
        try:
            run_ensemble(spec, mc_pair, NOISE_CHUNK, K, [K], base_seed=1)
            return tracemalloc.get_traced_memory()[1]
        finally:
            tracemalloc.stop()

    peak_bytes()  # warm up caches that a first call allocates
    assert peak_bytes() < 1.5e6


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
    res = run_ensemble(spec, pair, N, K, cps, base_seed=3, init=fixed_point(spec))

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


def test_gaussian_divergence_replays_reproducibly():
    spec = unstable_system()
    pair = SchedulePair(slow=StepSchedule(1.0, 1e6, 1.0), fast=StepSchedule(1.0, 1e6, 0.7))

    def divergence(N, K):
        with pytest.raises(Diverged) as info:
            run_ensemble(spec, pair, N, K, [K], base_seed=0)
        return info.value.step, info.value.replicas

    # K = 500: the failing segment's W is finite and the replay reads u = Q xi.
    step, replicas = divergence(200, 500)
    assert 0 < step <= 500 and replicas == sorted(replicas) and replicas
    assert divergence(200, 500) == (step, replicas)
    # K = 2000: the first segment's W overflows, so the replay reads the
    # per-step stream and, starting from step 0, matches `simulate` exactly.
    steps = []
    for r in range(70):
        with pytest.raises(Diverged) as info:
            simulate(spec, pair, None, 2000, 0, replica=r)
        steps.append(info.value.step)
    first = min(steps)
    expected = (first, [r for r in range(70) if steps[r] == first])
    assert divergence(70, 2000) == expected


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
    xi = segment_draws(4, 0, 1, 2)[0, :N_rep]
    drawn = xi @ np.linalg.qr(W, mode="r")
    assert np.allclose(U.reshape(N_rep, -1) @ W, drawn, rtol=1e-10, atol=0.0)


def test_gaussian_ensemble_builds_one_generator_per_chunk(sys_a, mc_pair, monkeypatch):
    # d = 2: K = 5000 spans three 2048-step tiles; N = 130 is three chunks.
    keys = []
    generator = engine._generator

    def counting_generator(base_seed, *key):
        keys.append(key)
        return generator(base_seed, *key)

    monkeypatch.setattr(engine, "_generator", counting_generator)
    run_ensemble(sys_a, mc_pair, 130, 5000, [300, 5000], base_seed=2)
    assert sorted(key for key in keys if key[0] == 1) == [(1, 0), (1, 1), (1, 2)]
    assert all(key[0] == 1 for key in keys)


def test_gaussian_divergence_replay_memory_does_not_grow_with_replicas():
    # K = 2000: the one segment's W overflows, so every chunk replays its
    # per-step tile.  Replaying all N = 640 rows at once would hold a
    # (640, 2000, 2) input array, about 20 MB; chunk by chunk it is one
    # chunk's tile whatever N is.
    spec = unstable_system()
    pair = SchedulePair(slow=StepSchedule(1.0, 1e6, 1.0), fast=StepSchedule(1.0, 1e6, 0.7))

    def peak_bytes(N):
        tracemalloc.start()
        try:
            with pytest.raises(Diverged) as info:
                run_ensemble(spec, pair, N, 2000, [2000], base_seed=0)
            assert len(info.value.replicas) >= 1
            return tracemalloc.get_traced_memory()[1]
        finally:
            tracemalloc.stop()

    peak_bytes(64)  # warm up caches that a first call allocates
    assert peak_bytes(640) - peak_bytes(64) < 2e6


def test_segment_draws_keys_do_not_alias():
    # The seed fills its own fixed-width entropy words, so a seed that
    # differs only in its second 32-bit word, where variable-width entropy
    # would put the key's domain word, draws other noise.
    draws = segment_draws(5, 3, 1, 2)
    assert not np.array_equal(draws, segment_draws(5 + 2**32, 3, 1, 2))
    assert not np.array_equal(draws, segment_draws(5, 4, 1, 2))
    assert np.array_equal(draws, segment_draws(5, 3, 2, 2)[:1])
    # Domain-0 keys (0, chunk, block) never meet a domain-1 key (1, chunk):
    # no per-step Gaussian tile starts with a chunk's segment draws.
    for chunk_idx, block_idx in [(3, 0), (3, 1), (1, 3), (0, 3)]:
        tile = _standard_tile(5, chunk_idx, block_idx, 2, "gaussian")
        assert not np.array_equal(draws[0], tile.ravel()[: NOISE_CHUNK * 2].reshape(NOISE_CHUNK, 2))


def test_standard_tile_keys_do_not_alias():
    # The same spelling in the per-step tiles: the seed fills its own
    # fixed-width entropy words, so no seed reuses another seed's tiles.
    for distribution in ("gaussian", "scaled-rademacher"):
        tile = _standard_tile(5, 3, 4, 2, distribution)
        assert not np.array_equal(tile, _standard_tile(5 + 3 * 2**32, 4, 0, 2, distribution))
        assert not np.array_equal(tile, _standard_tile(5 + 2**64, 3, 4, 2, distribution))
    with pytest.raises(ValueError):
        _standard_tile(-1, 0, 0, 2, "gaussian")


def _random_maps(rng, L, B, d, e):
    """(L, B, d, d) contractive step maps and (L, B, d, e) input maps."""
    M = np.eye(d) - 0.05 * rng.standard_normal((L, B, d, d))
    N = 0.1 * rng.standard_normal((L, B, d, e))
    return M, N


@pytest.mark.parametrize("L", [1, 2, 3, 50, 511])
@pytest.mark.parametrize("B", [1, 2, 20])
@pytest.mark.parametrize("d", [2, 6, 20])
def test_batched_compose_is_per_segment_compose_bit_for_bit(L, B, d):
    # Composing B segments of L steps in one call gives each segment's
    # unbatched (P, W) to the last bit, in the unbatched shapes.
    M, N = _random_maps(np.random.default_rng([L, B, d]), L, B, d, d)
    P, W = engine._compose(M, N)
    assert P.shape == (B, d, d) and W.shape == (B, L * d, d)
    for i in range(B):
        P_i, W_i = engine._compose(np.ascontiguousarray(M[:, i]), np.ascontiguousarray(N[:, i]))
        assert P[i].tobytes() == P_i.tobytes() and W[i].tobytes() == W_i.tobytes(), i


@pytest.mark.parametrize(
    "start, stop, edges",
    [
        (0, 5000, list(range(50, 5000, 50))),
        (37, 3000, list(range(50, 3000, 50))),
        (0, 2100, [1, 2, 3, 5, 7, 9, 11, 400, 800, 1200, 1201, 1202, 1203, 2000]),
    ],
)
def test_segments_batch_runs_of_equal_length_bit_for_bit(start, stop, edges):
    # d = 4, block 1024: range(50, K, 50) edges cut each tile into a run of
    # 50-step segments between shorter ones at the tile edges.
    d, block = 4, noise_block_steps(4)
    M_all, N_all = _random_maps(np.random.default_rng(5), stop, 1, d, 3)
    M_all, N_all = M_all[:, 0], N_all[:, 0]
    segments = list(_segments(lambda t0, t1: (M_all[t0:t1], N_all[t0:t1]), start, stop, block, edges))
    lengths = [b - a for a, b, _, _ in segments]
    assert any(x == y for x, y in zip(lengths, lengths[1:])) and len(set(lengths)) > 2
    for a, b, P, W in segments:
        P_ref, W_ref = engine._compose(M_all[a:b], N_all[a:b])
        assert P.tobytes() == P_ref.tobytes() and W.tobytes() == W_ref.tobytes(), (a, b)
        assert P.shape == (d, d) and W.shape == ((b - a) * 3, d)


def test_a_tile_of_one_segment_is_composed_as_it_is(monkeypatch):
    # No checkpoint inside a tile: each _compose call gets the tile's own
    # maps as a batch of one, the same memory, with no gather into a batch.
    calls = []
    compose = engine._compose

    def recording_compose(M, N):
        calls.append((M.shape, M.ctypes.data, N.ctypes.data))
        return compose(M, N)

    def maps(t0, t1):
        return M_all[t0:t1], N_all[t0:t1]

    monkeypatch.setattr(engine, "_compose", recording_compose)
    d, block = 2, noise_block_steps(2)
    M_all, N_all = _random_maps(np.random.default_rng(6), 3 * block, 1, d, d)
    M_all, N_all = np.ascontiguousarray(M_all[:, 0]), np.ascontiguousarray(N_all[:, 0])
    segments = list(_segments(maps, 0, 3 * block, block, [block, 2 * block]))
    assert [(a, b) for a, b, _, _ in segments] == [(0, block), (block, 2 * block), (2 * block, 3 * block)]
    assert calls == [
        ((block, 1, d, d), M_all[t0:].ctypes.data, N_all[t0:].ctypes.data) for t0 in (0, block, 2 * block)
    ]
