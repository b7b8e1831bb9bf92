"""Simulation and exact covariance propagation for the coupled recursions.

Segment kernel
--------------
Every route advances a state through per-step affine maps
z -> M_j z + N_j u_j, where u_j is the step's input: in original
coordinates M_j = I - D_j A and N_j = D_j F, with D_j the diagonal of slow
and fast step sizes and F F' the joint noise covariance; the decoupled
recursion has its own block-triangular maps.  `_compose` turns the maps of
one segment of L steps into a single pair (P, W) with z_b = P z_a + W' u,
u the segment's inputs flattened step-major: P = M_{L-1} ... M_0, and W
stacks (R_j N_j)' for the suffix products R_j = M_{L-1} ... M_{j+1}.
`linalg._suffix_products` computes those products with an odd-even scan
(Blelloch 1990): O(L d^3) work in O(log L) batched matrix products.

Segments end at every noise-tile edge and at every checkpoint or recorded
step, so each segment reads inside one tile and every reported state is the
exact composition of its steps.  Step maps are built once per tile and
sliced per segment.  Exact propagation updates the second moment as
C <- P C P' + W'W; an ensemble advances each replica chunk as
Z <- Z P' + Zraw W, one GEMM per chunk and segment, from a plan that keeps
only (P, W) per segment; a single trajectory applies the same pair to one
vector.  A segment that ends beyond the divergence cutoff is replayed one
step at a time from its per-step maps to report the first bad step and the
replicas that crossed it.

Determinism contract
--------------------
Every standardized draw is a pure function of (base_seed, replica, step).
Replicas are grouped into chunks of NOISE_CHUNK and steps into blocks of
noise_block_steps(d) for joint noise dimension d; one keyed generator fills
a whole (chunk, block) tile at a time, and the draw for (replica, step,
coordinate c) is the tile entry
[replica mod chunk, (step mod block) * d + c].  Tile shapes are fixed
functions of d alone, so which values a replica sees never depends on N, K,
checkpoints, chunk scheduling, or the degree of parallelism: results are
bit-identical for any --jobs setting and replay exactly.
"""

from __future__ import annotations

import concurrent.futures
import functools
from bisect import bisect_left, bisect_right
from dataclasses import dataclass

import numpy as np

from .errors import Diverged, NotPSD
from .linalg import _suffix_products, factor_covariance, symmetrize
from .model import SystemSpec, centring_matrix, delta_matrix, fixed_point
from .schedules import SchedulePair
from .theory import LSequence, l_sequence

DIVERGENCE_CUTOFF = 1e12
NOISE_CHUNK = 64  # replicas per noise tile
_MASK64 = (1 << 64) - 1


def noise_block_steps(dim: int) -> int:
    """Steps per noise tile; sized so a tile stays cache-resident.

    Part of the stream layout contract: a fixed function of the joint noise
    dimension only, so draws never depend on run parameters.
    """
    return max(256, 4096 // dim)


# ---------------------------------------------------------------------------
# noise streams


def _tile_generator(base_seed: int, chunk_idx: int, block_idx: int) -> np.random.Generator:
    seq = np.random.SeedSequence(entropy=(base_seed & _MASK64, chunk_idx, block_idx))
    return np.random.Generator(np.random.SFC64(seq))


def _standard_tile(
    base_seed: int, chunk_idx: int, block_idx: int, dim: int, distribution: str
) -> np.ndarray:
    """Standardized draws for one (replica chunk, step block) tile.

    Shape (NOISE_CHUNK, noise_block_steps(dim) * dim); row r holds the draws
    of replica chunk_idx * NOISE_CHUNK + r for the block's steps, step-major.
    """
    gen = _tile_generator(base_seed, chunk_idx, block_idx)
    block = noise_block_steps(dim)
    count = NOISE_CHUNK * block * dim
    if distribution == "gaussian":
        vals = gen.standard_normal(count)
    else:
        # Unit-variance signs; one uniform per value keeps the tile layout
        # identical for both distributions.
        vals = np.where(gen.random(count) < 0.5, -1.0, 1.0)
    return vals.reshape(NOISE_CHUNK, block * dim)


class _ChunkNoise:
    """Sequential reader of standardized noise for one replica chunk."""

    def __init__(self, base_seed: int, chunk_idx: int, rows: int, dim: int, distribution: str):
        self.base_seed = base_seed
        self.chunk_idx = chunk_idx
        self.rows = rows
        self.dim = dim
        self.distribution = distribution
        self._block_idx = -1
        self._tile: np.ndarray | None = None

    def _fill(self, block_idx: int) -> np.ndarray:
        if block_idx != self._block_idx:
            self._tile = _standard_tile(
                self.base_seed, self.chunk_idx, block_idx, self.dim, self.distribution
            )
            self._block_idx = block_idx
        return self._tile

    def segment(self, a: int, b: int) -> np.ndarray:
        """Standardized draws for steps [a, b) as (rows, (b-a)*dim)."""
        d = self.dim
        block = noise_block_steps(d)
        parts = []
        step = a
        while step < b:
            block_idx = step // block
            tile = self._fill(block_idx)
            lo = (step - block_idx * block) * d
            stop = min(b, (block_idx + 1) * block)
            hi = (stop - block_idx * block) * d
            parts.append(tile[: self.rows, lo:hi])
            step = stop
        return parts[0] if len(parts) == 1 else np.concatenate(parts, axis=1)


@dataclass
class NoiseStream:
    """Per-replica noise view mapping standardized draws through a joint factor.

    Keeps this replica's row of every tile it has generated, K * dim floats
    for K steps read, so reading a range again generates nothing.
    """

    base_seed: int
    replica: int
    factor: np.ndarray
    distribution: str = "gaussian"

    def __post_init__(self):
        self._rows: dict[int, np.ndarray] = {}  # block index -> (block, dim) draws

    @property
    def dim(self) -> int:
        return self.factor.shape[0]

    def _row(self, block_idx: int) -> np.ndarray:
        row = self._rows.get(block_idx)
        if row is None:
            chunk_idx, r = divmod(self.replica, NOISE_CHUNK)
            tile = _standard_tile(self.base_seed, chunk_idx, block_idx, self.dim, self.distribution)
            row = self._rows[block_idx] = tile[r].reshape(-1, self.dim).copy()
        return row

    def standard_range(self, a: int, b: int) -> np.ndarray:
        """Standardized draws of this replica for steps [a, b), shape (b-a, dim)."""
        block = noise_block_steps(self.dim)
        parts = [
            self._row(i)[max(a - i * block, 0) : b - i * block]
            for i in range(a // block, -(-b // block))
        ]
        return parts[0] if len(parts) == 1 else np.concatenate(parts)

    def draws(self, K: int) -> np.ndarray:
        """All correlated draws for steps 0..K-1 in one array."""
        return self.standard_range(0, K) @ self.factor.T


def noise_stream(spec: SystemSpec, base_seed: int, replica: int) -> NoiseStream:
    """Noise stream for one replica of a system's joint noise model."""
    return NoiseStream(
        base_seed=base_seed,
        replica=replica,
        factor=factor_covariance(spec.noise.joint()),
        distribution=spec.noise.distribution,
    )


# ---------------------------------------------------------------------------
# segment kernel


def _compose(M: np.ndarray, N: np.ndarray) -> tuple[np.ndarray, np.ndarray]:
    """Compose the maps z -> M_j z + N_j u_j of one segment, index 0 first.

    Returns (P, W) with z_b = P z_a + W' u for the inputs u flattened
    step-major.  Both are fresh arrays, so a plan that keeps them holds no
    scan buffers.
    """
    L, d, e = N.shape
    if L == 1:
        return M[0].copy(), N[0].T.copy()
    S = _suffix_products(M.copy())
    Wt = np.empty((L, e, d))  # block j is (R_j N_j)'
    np.matmul(N[:-1].transpose(0, 2, 1), S[1:].transpose(0, 2, 1), out=Wt[:-1])
    Wt[-1] = N[-1].T
    return S[0].copy(), Wt.reshape(L * e, d)


def _step_maps(spec: SystemSpec, pair: SchedulePair, F: np.ndarray, a: int, b: int):
    """Per-step maps M_k = I - D_k A and input weights N_k = D_k F for k in [a, b)."""
    ks = np.arange(a, b)
    steps = np.stack([pair.slow.values(ks), pair.fast.values(ks)], axis=1)
    dvec = np.repeat(steps, [spec.n, spec.m], axis=1)[:, :, None]
    return np.eye(spec.n + spec.m) - dvec * spec.block_matrix(), dvec * F


def _segments(tile, start: int, stop: int, block: int, edges):
    """Yield (a, b, P, W, maps) for each kernel segment [a, b) of [start, stop).

    Segments end at every noise-tile edge (a multiple of block) and at every
    value of the sorted sequence edges.  tile(t0, t1) returns per-step arrays
    for the steps of one tile, the maps M and N first; it is called once per
    tile, and maps holds its arrays sliced to the segment.
    """
    t0 = start
    while t0 < stop:
        t1 = min(stop, (t0 // block + 1) * block)
        arrays = tile(t0, t1)
        bounds = [t0, *edges[bisect_right(edges, t0) : bisect_left(edges, t1)], t1]
        for a, b in zip(bounds[:-1], bounds[1:]):
            maps = [x[a - t0 : b - t0] for x in arrays]
            yield (a, b, *_compose(maps[0], maps[1]), maps)
        t0 = t1


def _finite(Z: np.ndarray) -> bool:
    # NaN compares false, so it fails the test like inf does.
    return float(np.abs(Z).max()) <= DIVERGENCE_CUTOFF


def _replay(Z, M, N, U, a: int, replicas=None) -> None:
    """Step a failing segment map by map and raise Diverged at the first bad step.

    Z holds the states entering step a, one row per replica; U holds the
    segment's inputs as (rows, steps, inputs).
    """
    for j in range(len(M)):
        Z = Z @ M[j].T + U[:, j] @ N[j].T
        bad = ~(np.abs(Z).max(axis=1) <= DIVERGENCE_CUTOFF)
        if np.any(bad):
            where = None if replicas is None else [int(replicas[i]) for i in np.flatnonzero(bad)]
            raise Diverged(a + j + 1, where)
    raise Diverged(a + len(M), None if replicas is None else list(replicas))


def _advance(z: np.ndarray, tile, start: int, stop: int, block: int, edges):
    """Advance one state vector from step start to stop, yielding (k, z_k) at each segment end.

    tile(t0, t1) returns the maps (M, N) and inputs U of the steps [t0, t1).
    """
    for a, b, P, W, (M, N, U) in _segments(tile, start, stop, block, edges):
        z_next = P @ z + U.reshape(-1) @ W
        if not _finite(z_next):
            _replay(z[None], M, N, U[None], a)
        z = z_next
        yield b, z


# ---------------------------------------------------------------------------
# single trajectories


@dataclass(frozen=True)
class TrajectoryState:
    k: int
    theta: np.ndarray
    r: np.ndarray


def _init_vectors(spec: SystemSpec, init) -> tuple[np.ndarray, np.ndarray]:
    if init is None:
        return np.zeros(spec.n), np.zeros(spec.m)
    theta0 = np.asarray(init[0], dtype=np.float64).reshape(spec.n)
    r0 = np.asarray(init[1], dtype=np.float64).reshape(spec.m)
    return theta0.copy(), r0.copy()


def simulate(
    spec: SystemSpec,
    pair: SchedulePair,
    init,
    K: int,
    noise: NoiseStream,
    record_stride: int = 1,
) -> list[TrajectoryState]:
    """Run the coupled recursion for K steps, recording every record_stride steps.

    Runs in original coordinates: the offset D_k b enters the segment kernel
    as one more input column whose draw is always one.
    """
    if K < 1:
        raise ValueError("K must be at least 1")
    if record_stride < 1:
        raise ValueError("record_stride must be at least 1")
    theta, r = _init_vectors(spec, init)
    n = spec.n
    Fb = np.column_stack([noise.factor, spec.offset()])

    def tile(a, b):
        M, N = _step_maps(spec, pair, Fb, a, b)
        return M, N, np.column_stack([noise.standard_range(a, b), np.ones(b - a)])

    states = [TrajectoryState(0, theta, r)]
    z = np.concatenate([theta, r])
    edges = range(record_stride, K, record_stride)
    # Unstable systems overflow the composed maps; the replay reports where.
    with np.errstate(over="ignore", invalid="ignore"):
        for k, z in _advance(z, tile, 0, K, noise_block_steps(noise.dim), edges):
            if k % record_stride == 0 or k == K:
                states.append(TrajectoryState(k, z[:n], z[n:]))
    return states


# ---------------------------------------------------------------------------
# transformed (decoupled) trajectories


@dataclass(frozen=True)
class TransformedState:
    k: int
    theta_t: np.ndarray
    r_t: np.ndarray


@dataclass
class TransformedRun:
    k0: int
    states: list[TransformedState]
    lseq: LSequence


def simulate_transformed(
    spec: SystemSpec,
    pair: SchedulePair,
    K: int,
    noise: NoiseStream,
    k0: int = 0,
    init=None,
    record_stride: int = 1,
) -> TransformedRun:
    """Run the decoupled recursion in transformed coordinates.

    The original recursion runs (in centered coordinates) up to the start
    index of the decoupling sequence to provide the initial transformed
    state; from there the fast update has no slow coupling by construction
    and the slow noise feeds the fast block through the decoupling matrices.
    Reconstructing the original iterates from the result is exact algebra,
    so a shared noise stream makes this a runtime equivalence oracle for
    `simulate`.
    """
    if K < 1:
        raise ValueError("K must be at least 1")
    lseq = l_sequence(spec, pair, K, k0=k0)
    k0 = lseq.k0

    n, m = spec.n, spec.m
    F = noise.factor
    block = noise_block_steps(noise.dim)
    T = centring_matrix(spec)
    delta = delta_matrix(spec)

    theta0, r0 = _init_vectors(spec, init)
    z = np.concatenate([theta0, r0]) - np.concatenate(fixed_point(spec))

    def original(a, b):
        return (*_step_maps(spec, pair, F, a, b), noise.standard_range(a, b))

    def decoupled(a, b):
        # Slow: theta' = theta - beta (B11 theta + A12 r) + beta V with
        # B11 = Delta - A12 L_k.  Fast: r' = r - (beta C_k A12 + gamma A22) r
        # + gamma W + beta C_k V with C_k = L_{k+1} + A22^{-1} A21.
        ks = np.arange(a, b)
        beta = pair.slow.values(ks)[:, None, None]
        gamma = pair.fast.values(ks)[:, None, None]
        Ls = lseq.values[a - k0 : b - k0 + 1]
        coupling = Ls[1:] + T[n:, :n]
        M = np.zeros((b - a, n + m, n + m))
        M[:, :n, :n] = np.eye(n) - beta * (delta - spec.A12 @ Ls[:-1])
        M[:, :n, n:] = -beta * spec.A12
        M[:, n:, n:] = np.eye(m) - beta * (coupling @ spec.A12) - gamma * spec.A22
        N = np.empty((b - a, n + m, F.shape[1]))
        N[:, :n] = beta * F[:n]
        N[:, n:] = beta * (coupling @ F[:n]) + gamma * F[n:]
        return M, N, noise.standard_range(a, b)

    with np.errstate(over="ignore", invalid="ignore"):
        for _, z in _advance(z, original, 0, k0, block, ()):
            pass
        x = T @ z
        x[n:] += lseq.at(k0) @ z[:n]
        states = [TransformedState(k0, x[:n], x[n:])]
        edges = range(record_stride * (k0 // record_stride + 1), K, record_stride)
        for k, x in _advance(x, decoupled, k0, K, block, edges):
            if k % record_stride == 0 or k == K:
                states.append(TransformedState(k, x[:n], x[n:]))
    return TransformedRun(k0=k0, states=states, lseq=lseq)


def reconstruct_original(spec: SystemSpec, run: TransformedRun) -> list[TrajectoryState]:
    """Invert the decoupling transform back to original coordinates."""
    n = spec.n
    hats = np.array(
        [np.concatenate([st.theta_t, st.r_t - run.lseq.at(st.k) @ st.theta_t]) for st in run.states]
    )
    X = np.linalg.solve(centring_matrix(spec), hats.T).T + np.concatenate(fixed_point(spec))
    return [TrajectoryState(st.k, x[:n], x[n:]) for st, x in zip(run.states, X)]


# ---------------------------------------------------------------------------
# exact second-moment propagation


@dataclass(frozen=True)
class CovarianceCheckpoint:
    k: int
    beta: float
    gamma: float
    Sigma11: np.ndarray
    Sigma12: np.ndarray
    Sigma22: np.ndarray


def propagate_covariance(
    spec: SystemSpec,
    pair: SchedulePair,
    C0,
    K: int,
    checkpoints,
) -> list[CovarianceCheckpoint]:
    """Propagate the exact second moment of the deviation from the fixed point.

    The recursion is C_{k+1} = (I - D_k A) C_k (I - D_k A)' + D_k Gamma D_k
    with D_k the diagonal of slow and fast step sizes.  Checkpoints report
    the moment in centered coordinates, scaled by the inverse step sizes.
    Each kernel segment advances the moment at once as C <- P C P' + W'W.
    """
    n, m = spec.n, spec.m
    d = n + m
    if C0 is None:
        C = np.zeros((d, d))
    else:
        C = symmetrize(np.asarray(C0, dtype=np.float64).reshape(d, d))
        scale = 1.0 + float(np.linalg.norm(C))
        if float(np.min(np.linalg.eigvalsh(C))) < -1e-10 * scale:
            raise NotPSD("initial second moment has a negative eigenvalue beyond tolerance")

    cps = sorted(set(int(c) for c in checkpoints))
    if not cps or cps[0] < 1 or cps[-1] > K:
        raise ValueError("checkpoints must be within [1, K]")

    F = factor_covariance(spec.noise.joint())
    T = centring_matrix(spec)
    out = []
    maps = functools.partial(_step_maps, spec, pair, F)
    for _, b, P, W, _ in _segments(maps, 0, cps[-1], noise_block_steps(d), cps):
        C = P @ C @ P.T + W.T @ W
        if b in cps:
            H = T @ symmetrize(C) @ T.T
            beta, gamma = pair.slow.value(b), pair.fast.value(b)
            out.append(
                CovarianceCheckpoint(
                    k=b,
                    beta=beta,
                    gamma=gamma,
                    Sigma11=H[:n, :n] / beta,
                    Sigma12=H[:n, n:] / beta,
                    Sigma22=H[n:, n:] / gamma,
                )
            )
    return out


# ---------------------------------------------------------------------------
# seeded parallel ensembles


@dataclass(frozen=True)
class CheckpointSamples:
    """Centered samples of every replica at one step index."""

    k: int
    beta: float
    gamma: float
    theta_hat: np.ndarray  # (N, n)
    r_hat: np.ndarray  # (N, m)


@dataclass
class EnsembleResult:
    base_seed: int
    replicas: int
    K: int
    checkpoints: list[CheckpointSamples]

    @property
    def final(self) -> CheckpointSamples:
        return self.checkpoints[-1]


def run_ensemble(
    spec: SystemSpec,
    pair: SchedulePair,
    N: int,
    K: int,
    checkpoints,
    base_seed: int,
    init=None,
    jobs: int = 1,
) -> EnsembleResult:
    """Simulate N independent replicas and sample centered iterates at checkpoints.

    Replica r draws from the stream keyed (base_seed, r); chunk layout is a
    fixed constant so any jobs value reproduces identical bits.  Samples are
    stored by replica index, making downstream statistics order-independent.
    """
    if N < 2:
        raise ValueError("ensemble needs at least 2 replicas")
    if K < 1:
        raise ValueError("K must be at least 1")
    cps = sorted(set(int(c) for c in checkpoints))
    if not cps or cps[0] < 0 or cps[-1] > K:
        raise ValueError("checkpoints must be within [0, K]")

    n, d = spec.n, spec.n + spec.m
    z0 = np.concatenate(_init_vectors(spec, init)) - np.concatenate(fixed_point(spec))
    F = factor_covariance(spec.noise.joint())
    T = centring_matrix(spec)
    # Over a segment the deviations of a replica chunk update as
    # Z_b = Z_a P' + Zraw W.  Unstable systems overflow the composed maps to
    # inf; that is the intended divergence signal, resolved stepwise later.
    with np.errstate(over="ignore", invalid="ignore"):
        maps = functools.partial(_step_maps, spec, pair, F)
        plan = [(a, b, P, W) for a, b, P, W, _ in _segments(maps, 0, K, noise_block_steps(d), cps)]
    cp_store = {c: np.empty((N, d)) for c in cps}
    chunks = [range(i, min(i + NOISE_CHUNK, N)) for i in range(0, N, NOISE_CHUNK)]

    def work(replicas: range) -> None:
        rows, lo = len(replicas), replicas.start
        reader = _ChunkNoise(base_seed, lo // NOISE_CHUNK, rows, d, spec.noise.distribution)
        Z = np.repeat(z0[None, :], rows, axis=0)
        if 0 in cp_store:
            cp_store[0][lo : lo + rows] = Z @ T.T
        with np.errstate(over="ignore", invalid="ignore"):
            for a, b, P, W in plan:
                zraw = reader.segment(a, b)
                Z_next = Z @ P.T + zraw @ W
                if not _finite(Z_next):
                    maps = _step_maps(spec, pair, F, a, b)
                    _replay(Z, *maps, zraw.reshape(rows, b - a, d), a, replicas)
                Z = Z_next
                if b in cp_store:
                    cp_store[b][lo : lo + rows] = Z @ T.T

    if jobs <= 1 or len(chunks) == 1:
        for chunk in chunks:
            work(chunk)
    else:
        with concurrent.futures.ThreadPoolExecutor(max_workers=jobs) as pool:
            list(pool.map(work, chunks))

    samples = [
        CheckpointSamples(
            k=c,
            beta=pair.slow.value(c),
            gamma=pair.fast.value(c),
            theta_hat=cp_store[c][:, :n],
            r_hat=cp_store[c][:, n:],
        )
        for c in cps
    ]
    return EnsembleResult(base_seed=base_seed, replicas=N, K=K, checkpoints=samples)


# ---------------------------------------------------------------------------
# CSV export


def format_float(x: float) -> str:
    """17 significant digits: exact round-trip for binary64."""
    return f"{float(x):.17g}"
