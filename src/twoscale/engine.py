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
exact composition of its steps.  Step maps are built once per tile, as one
(L, 2) x (2, d^2) product of the tile's step sizes with coefficient rows
fixed for the run, exact because each entry has one nonzero term, and
sliced per segment.  Exact propagation updates the second moment as
C <- P C P' + W'W.  Every simulated route goes through one driver,
`_advance`, which moves a block of row states as Z <- Z P' + U W, U the
rows' inputs over the segment: one row for `simulate` and for both phases
of `simulate_transformed`, one replica chunk for `run_ensemble`.  Every
route runs in deviations from the fixed point x*, so the offset b never
enters the kernel; `simulate` adds x* back to the states it records.  The
ensemble runs tile-major: it composes one noise tile's segments, moves
every chunk through them, and drops them before the next tile, so its
memory is flat in K.  A segment that ends beyond the divergence cutoff is
replayed one step at a time from its rebuilt per-step maps to report the
first bad step and the replicas that crossed it.  Exact propagation
replays a segment whose moment passes the cutoff squared the same way.

Gaussian ensembles aggregate each segment's noise: for Gaussian u the term
W'u is exactly N(0, W'W), and so is R'xi for the triangular factor R of
W = QR (R'R = W'W, also when Gamma is singular) and d standard normals xi.
`run_ensemble` therefore advances Gaussian replicas as Z <- Z P' + xi R,
d draws per replica per segment instead of L d, all N rows in one pass per
segment.  A diverging segment is replayed one replica chunk at a time with
the per-step inputs u = Q xi, which give W'u = R'xi exactly; when W itself
overflowed, Q is undefined and the replay reads the per-step stream's draws
instead.  Every other route draws per step and stays the pathwise
reference.

Determinism contract (stream layout 5)
--------------------------------------
Every generator is SFC64 seeded by `SeedSequence(entropy=base_seed,
spawn_key=key)`: the seed alone fills the entropy pool, zero-padded to a
fixed width, so no two seeds share a key (a negative seed is refused).
Domain 0 serves per-step tiles with key (0, chunk, block); domain 1 serves
aggregated draws with key (1, chunk).  The two never meet: the first key
word differs.

Per-step draws -- read by `simulate`, `simulate_transformed` and
Rademacher ensembles -- are a pure function of (base_seed, replica, step).
Replicas are grouped into chunks of NOISE_CHUNK and steps into blocks of
noise_block_steps(d) for joint noise dimension d; one generator per
(chunk, block) fills that tile in row-major order, so a reader generates
only the rows up to the last one it needs, and the draw for (replica,
step, coordinate c) is the tile entry [replica mod chunk,
(step mod block) * d + c].  A single trajectory's reader is keyed by
(base_seed, replica) and holds one tile row, the one it read last.  Tile
shapes are fixed functions of d alone, so which values a replica sees
never depends on N, K, checkpoints, chunk scheduling, or the degree of
parallelism.  A Gaussian tile is the generator's standard normals in
row-major order.  A scaled-Rademacher tile spends one raw bit per sign:
with cols = block * d, entry [r, j] is 1 - 2 * ((w[i // 64] >> (i % 64))
& 1) for i = r * cols + j and w the generator's raw 64-bit words, so bit 0
gives +1.0 and bit 1 gives -1.0.

Aggregated Gaussian draws are a pure function of (base_seed, replica,
segment partition).  One generator per chunk, keyed (1, chunk), serves the
whole run: each segment, in step order, takes its next (NOISE_CHUNK, d)
block of standard normals, and replica r reads row r mod NOISE_CHUNK of
chunk r // NOISE_CHUNK's block.  The partition is cut by the tile edges,
the checkpoints and K, so a replica's state at checkpoint c depends only
on the segments that end at or before c: it is unchanged when K grows or
checkpoints above c are added, and it does not depend on N.

Both kinds of draws are bit-identical for any --jobs setting and replay
exactly.
"""

from __future__ import annotations

import concurrent.futures
import functools
import itertools
from bisect import bisect_left, bisect_right
from dataclasses import dataclass

import numpy as np

from .errors import DIVERGENCE_CUTOFF, Diverged, MomentDiverged, NotPSD
from .linalg import _suffix_products, psd_floor, symmetrize
from .model import SystemSpec, centring_matrix, delta_matrix, fixed_point
from .schedules import SchedulePair
from .theory import LSequence, l_sequence

NOISE_CHUNK = 64  # replicas per noise tile


def noise_block_steps(dim: int) -> int:
    """Steps per noise tile; sized so a tile stays cache-resident.

    Part of the stream layout contract: a fixed function of the joint noise
    dimension only, so draws never depend on run parameters.
    """
    return max(256, 4096 // dim)


# ---------------------------------------------------------------------------
# noise streams


def _generator(base_seed: int, *key: int) -> np.random.Generator:
    """The SFC64 generator of one spawn key: (0, chunk, block) or (1, chunk)."""
    seq = np.random.SeedSequence(entropy=base_seed, spawn_key=key)
    return np.random.Generator(np.random.SFC64(seq))


def _standard_tile(
    base_seed: int, chunk_idx: int, block_idx: int, dim: int, distribution: str, rows=NOISE_CHUNK
) -> np.ndarray:
    """Standardized draws for the first rows rows of one (replica chunk, step block) tile.

    Shape (rows, noise_block_steps(dim) * dim); row r holds the draws of
    replica chunk_idx * NOISE_CHUNK + r for the block's steps, step-major,
    and does not depend on rows.  Gaussian tiles are standard normals in
    that order.  Scaled-Rademacher tiles take one raw bit per sign: the
    generator's raw 64-bit words, read least significant bit first, give
    flat entry i the sign 1 - 2 * ((word[i // 64] >> (i % 64)) & 1), so
    bit 0 is +1.0 and bit 1 is -1.0.
    """
    gen = _generator(base_seed, 0, chunk_idx, block_idx)
    cols = noise_block_steps(dim) * dim
    count = rows * cols
    if distribution == "gaussian":
        vals = gen.standard_normal(count)
    else:
        # cols need not be a multiple of 64 (4092 at dim 6): draw whole
        # words and drop the bits past the last row.
        words = gen.bit_generator.random_raw(-(-count // 64)).astype("<u8", copy=False)
        bits = np.unpackbits(words.view(np.uint8), count=count, bitorder="little")
        vals = (1 - 2 * bits.view(np.int8)).astype(np.float64)
    return vals.reshape(rows, cols)


def _step_reader(spec: SystemSpec, base_seed: int, replica: int):
    """Reader of one replica's standardized per-step draws.

    read(a, b) returns the draws of steps [a, b) flattened step-major as one
    row, shape (1, (b - a) * d).  [a, b) lies inside one noise tile, as every
    `_segments` segment does.  The reader holds only the tile row it read
    last, so reading in step order generates each tile once.
    """
    d = spec.n + spec.m
    block = noise_block_steps(d)
    chunk_idx, r = divmod(replica, NOISE_CHUNK)

    @functools.lru_cache(maxsize=1)
    def row(block_idx: int) -> np.ndarray:
        tile = _standard_tile(base_seed, chunk_idx, block_idx, d, spec.noise.distribution, r + 1)
        return tile[r].copy()

    def read(a: int, b: int) -> np.ndarray:
        t0 = a - a % block
        return row(a // block)[(a - t0) * d : (b - t0) * d].reshape(1, -1)

    return read


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


def _step_maps(spec: SystemSpec, pair: SchedulePair):
    """Builder maps(a, b) of the per-step maps M_k = I - D_k A and N_k = D_k F, k in [a, b).

    D_k A is linear in the step sizes s_k = (beta_k, gamma_k): it is s_k c
    for the coefficient rows c = (A with its fast rows zeroed, A with its
    slow rows zeroed), flattened, and D_k F likewise.  So one tile's maps are
    an (L, 2) x (2, d^2) and an (L, 2) x (2, d e) product, with rows built
    once per run.  They equal the entrywise D_k A and D_k F bit for bit: each
    entry has one nonzero term, the other being a step size times zero.  Only
    the sign of a zero can differ, since the product's sums start at +0.0.
    I - (+-0) is +0.0 either way, and N takes back F's signs whenever some
    beta_k F_ij or gamma_k F_ij can be zero: F has a -0.0 entry, as singular
    covariances give, or a product may underflow.
    """
    n, d = spec.n, spec.n + spec.m
    F = spec.noise.factor
    rows = np.zeros((2, d, 1))
    rows[0, :n] = rows[1, n:] = 1.0
    coef_A = (rows * spec.block_matrix()).reshape(2, d * d)
    coef_F = (rows * F).reshape(2, -1)
    identity = np.eye(d).reshape(d * d)
    signs = F.reshape(-1)
    # A product rounds to zero only if some step times the least |F_ij| that
    # carries a sign bit falls below the smallest normal double.
    least_signed = np.abs(signs[np.signbit(signs)]).min(initial=np.inf)

    def maps(a: int, b: int):
        ks = np.arange(a, b)
        steps = np.stack([pair.slow.values(ks), pair.fast.values(ks)], axis=1)
        M = steps @ coef_A
        np.subtract(identity, M, out=M)
        N = steps @ coef_F
        if not steps.min() * least_signed >= np.finfo(np.float64).tiny:
            np.copysign(N, signs, out=N)
        return M.reshape(b - a, d, d), N.reshape(b - a, d, -1)

    return maps


def _segments(maps, start: int, stop: int, block: int, edges):
    """Yield (a, b, P, W) for each kernel segment [a, b) of [start, stop).

    Segments end at every noise-tile edge (a multiple of block) and at every
    value of the sorted sequence edges, so a // block == (b - 1) // block.
    maps(t0, t1) returns the per-step maps (M, N) of the steps [t0, t1); it
    is called once per tile.
    """
    t0 = start
    while t0 < stop:
        t1 = min(stop, (t0 // block + 1) * block)
        M, N = maps(t0, t1)
        bounds = [t0, *edges[bisect_right(edges, t0) : bisect_left(edges, t1)], t1]
        for a, b in zip(bounds[:-1], bounds[1:]):
            yield (a, b, *_compose(M[a - t0 : b - t0], N[a - t0 : b - t0]))
        t0 = t1


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


def _replay_moment(C, M, N, a: int) -> None:
    """Step a failing segment's second moment map by map; raise Diverged at the first bad step."""
    for j in range(len(M)):
        C = M[j] @ C @ M[j].T + N[j] @ N[j].T
        if not float(np.abs(C).max()) <= DIVERGENCE_CUTOFF**2:
            raise MomentDiverged(a + j + 1)
    raise MomentDiverged(a + len(M))


def _advance(Z: np.ndarray, plan, read, maps, replicas=None, replay=None):
    """Advance row states Z through the segments of plan, yielding (b, Z_b) after each.

    plan yields (a, b, P, W); read(a, b) returns the rows' inputs U for
    steps [a, b), one row per state.  A segment that ends beyond the
    divergence cutoff raises Diverged with the first bad step and, when
    replicas names the rows, the replicas that crossed it: replay(a, b, Z_a,
    U, Z_b) locates it if given, else the segment is replayed from its
    rebuilt maps(a, b) with U read as per-step inputs.
    """
    for a, b, P, W in plan:
        U = read(a, b)
        Z_next = Z @ P.T + U @ W
        # NaN compares false, so it fails the test like inf does.
        if not float(np.abs(Z_next).max()) <= DIVERGENCE_CUTOFF:
            if replay is not None:
                replay(a, b, Z, U, Z_next)
            _replay(Z, *maps(a, b), U.reshape(len(Z), b - a, -1), a, replicas)
        Z = Z_next
        yield b, Z


# ---------------------------------------------------------------------------
# single trajectories


@dataclass(frozen=True)
class TrajectoryState:
    k: int
    theta: np.ndarray
    r: np.ndarray


def _deviation(spec: SystemSpec, init) -> np.ndarray:
    """The initial state (theta0, r0) stacked, the origin if init is None, minus the fixed point."""
    n, m = spec.n, spec.m
    x0 = np.zeros(n + m)
    if init is not None:
        x0[:n] = np.asarray(init[0], dtype=np.float64).reshape(n)
        x0[n:] = np.asarray(init[1], dtype=np.float64).reshape(m)
    return x0 - np.concatenate(fixed_point(spec))


def simulate(
    spec: SystemSpec,
    pair: SchedulePair,
    init,
    K: int,
    base_seed: int,
    record_stride: int = 1,
    *,
    replica: int = 0,
) -> list[TrajectoryState]:
    """Run the coupled recursion for K steps, recording every record_stride steps.

    Replica replica of the per-step draws keyed by base_seed drives the
    noise, through the factor of spec's own noise model.  Runs in deviations
    from the fixed point x* and records x* plus the deviation.
    """
    if K < 1:
        raise ValueError("K must be at least 1")
    if record_stride < 1:
        raise ValueError("record_stride must be at least 1")
    n = spec.n
    x_star = np.concatenate(fixed_point(spec))
    maps = _step_maps(spec, pair)
    read = _step_reader(spec, base_seed, replica)
    z0 = _deviation(spec, init)[None]

    states = []
    edges = range(record_stride, K, record_stride)
    plan = _segments(maps, 0, K, noise_block_steps(n + spec.m), edges)
    # Unstable systems overflow the composed maps; the replay reports where.
    with np.errstate(over="ignore", invalid="ignore"):
        for k, Z in itertools.chain([(0, z0)], _advance(z0, plan, read, maps)):
            if k % record_stride == 0 or k == K:
                x = Z[0] + x_star
                states.append(TrajectoryState(k, x[:n], x[n:]))
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
    base_seed: int,
    k0: int = 0,
    init=None,
    record_stride: int = 1,
) -> TransformedRun:
    """Run the decoupled recursion in transformed coordinates.

    The original recursion runs (in centered coordinates) up to the start
    index of the decoupling sequence to provide the initial transformed
    state; from there the fast update has no slow coupling by construction
    and the slow noise feeds the fast block through the decoupling matrices.
    Reads replica 0 of the per-step draws keyed by base_seed, through the
    factor of spec's own noise model.  Reconstructing the original iterates
    from the result is exact algebra, so with the same base_seed this is a
    runtime equivalence oracle for `simulate`.
    """
    if K < 1:
        raise ValueError("K must be at least 1")
    if record_stride < 1:
        raise ValueError("record_stride must be at least 1")
    lseq = l_sequence(spec, pair, K, k0=k0)
    k0 = lseq.k0

    n, m = spec.n, spec.m
    F = spec.noise.factor
    block = noise_block_steps(n + m)
    T = centring_matrix(spec)
    delta = delta_matrix(spec)
    Z = _deviation(spec, init)[None]
    original = _step_maps(spec, pair)
    read = _step_reader(spec, base_seed, 0)

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
        return M, N

    with np.errstate(over="ignore", invalid="ignore"):
        for _, Z in _advance(Z, _segments(original, 0, k0, block, ()), read, original):
            pass
        x = T @ Z[0]
        states = [TransformedState(k0, x[:n], x[n:])]
        edges = range(record_stride * (k0 // record_stride + 1), K, record_stride)
        plan = _segments(decoupled, k0, K, block, edges)
        for k, X in _advance(x[None], plan, read, decoupled):
            if k % record_stride == 0 or k == K:
                states.append(TransformedState(k, X[0, :n], X[0, n:]))
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
    Raises Diverged at the first step whose moment passes the divergence
    cutoff squared, found by replaying the failing segment step by step.
    """
    n, m = spec.n, spec.m
    d = n + m
    if C0 is None:
        C = np.zeros((d, d))
    else:
        C = symmetrize(np.asarray(C0, dtype=np.float64).reshape(d, d))
        if float(np.min(np.linalg.eigvalsh(C))) < psd_floor(C):
            raise NotPSD("initial second moment has a negative eigenvalue beyond tolerance")

    cps = sorted(set(int(c) for c in checkpoints))
    if not cps or cps[0] < 1 or cps[-1] > K:
        raise ValueError("checkpoints must be within [1, K]")

    T = centring_matrix(spec)
    out = []
    maps = _step_maps(spec, pair)
    plan = _segments(maps, 0, cps[-1], noise_block_steps(d), cps)
    # Unstable systems overflow the composed maps; the replay reports where.
    with np.errstate(over="ignore", invalid="ignore"):
        for a, b, P, W in plan:
            C_next = P @ C @ P.T + W.T @ W
            if not float(np.abs(C_next).max()) <= DIVERGENCE_CUTOFF**2:
                _replay_moment(C, *maps(a, b), a)
            C = C_next
            if b in cps:
                H = T @ symmetrize(C) @ T.T
                beta, gamma = pair.slow.value(b), pair.fast.value(b)
                blocks = H[:n, :n] / beta, H[:n, n:] / beta, H[n:, n:] / gamma
                out.append(CovarianceCheckpoint(b, beta, gamma, *blocks))
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


def _earliest(failed: list[Diverged]) -> Diverged:
    """The earliest of some chunks' divergences, naming every replica that crossed at that step."""
    step = min(e.step for e in failed)
    return Diverged(step, [r for e in failed if e.step == step for r in e.replicas])


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
    fixed constant so any jobs value reproduces identical bits.  Gaussian
    replicas take one exact N(0, W'W) draw per segment: row r % NOISE_CHUNK
    of the next (NOISE_CHUNK, d) block of standard normals from the
    generator of chunk r // NOISE_CHUNK, keyed (1, chunk), a pure function of
    (base_seed, r, segment partition), stable under growing K or adding
    later checkpoints.  All N rows cross each segment in one pass, serially
    at any jobs.  Rademacher replicas read the per-step draws keyed by
    (base_seed, r), those of `simulate(..., base_seed, replica=r)`, one tile
    at a time, and only they spread replica chunks over jobs threads.
    Either way every replica crosses a noise tile before any starts the
    next, so a divergence names the earliest bad step of the ensemble and
    every replica that crossed at it.  Samples are stored by replica index,
    making downstream statistics order-independent.
    """
    if N < 2:
        raise ValueError("ensemble needs at least 2 replicas")
    if K < 1:
        raise ValueError("K must be at least 1")
    cps = sorted(set(int(c) for c in checkpoints))
    if not cps or cps[0] < 0 or cps[-1] > K:
        raise ValueError("checkpoints must be within [0, K]")

    n, d = spec.n, spec.n + spec.m
    z0 = _deviation(spec, init)
    T = centring_matrix(spec)
    block = noise_block_steps(d)
    maps = _step_maps(spec, pair)
    Z = np.repeat(z0[None, :], N, axis=0)
    cp_store = {c: np.empty((N, d)) for c in cps}
    if 0 in cp_store:
        cp_store[0][:] = Z @ T.T
    chunks = [range(i, min(i + NOISE_CHUNK, N)) for i in range(0, N, NOISE_CHUNK)]

    if spec.noise.distribution == "gaussian":
        gens = [_generator(base_seed, 1, c) for c in range(len(chunks))]
        xi = np.empty((len(chunks) * NOISE_CHUNK, d))
        blocks = list(xi.reshape(len(chunks), NOISE_CHUNK, d))

        def draw(a, b):
            for gen, out in zip(gens, blocks):
                gen.standard_normal(out=out)
            return xi[:N]

        def replay(a, b, Z_a, U, Z_b):
            M, Nk = maps(a, b)
            W = _compose(M, Nk)[1]
            Q = np.linalg.qr(W)[0] if np.all(np.isfinite(W)) else None

            def inputs(c, rows):
                # u = Q xi for W = QR gives W'u = R'xi exactly.  When W itself
                # overflowed Q is undefined, and the chunk replays its per-step tile.
                count = rows.stop - rows.start
                if Q is None:
                    t0 = a - a % block
                    tile = _standard_tile(base_seed, c, a // block, d, "gaussian", count)
                    return tile[:, (a - t0) * d : (b - t0) * d].reshape(count, b - a, -1)
                return (U[rows] @ Q.T).reshape(count, b - a, -1)

            # Chunk by chunk, so the per-step inputs stay one chunk's size:
            # each chunk's inputs live only for its own _replay call.
            bad = ~(np.abs(Z_b).max(axis=1) <= DIVERGENCE_CUTOFF)
            failed = []
            for c, replicas in enumerate(chunks):
                rows = slice(replicas.start, replicas.stop)
                if bad[rows].any():
                    try:
                        _replay(Z_a[rows], M, Nk, inputs(c, rows), a, replicas)
                    except Diverged as exc:
                        # Without its traceback it no longer holds the chunk's inputs.
                        failed.append(exc.with_traceback(None))
            raise _earliest(failed)

        segments = _segments(maps, 0, K, block, cps)
        plan = ((a, b, P, np.linalg.qr(W, mode="r")) for a, b, P, W in segments)
        # Unstable systems overflow to inf by design; the replay locates it.
        with np.errstate(over="ignore", invalid="ignore"):
            for b, Z in _advance(Z, plan, draw, maps, replay=replay):
                if b in cp_store:
                    cp_store[b][:] = Z @ T.T
    else:

        def work(replicas: range, t0: int, segments) -> Diverged | None:
            rows = slice(replicas.start, replicas.stop)
            tile = _standard_tile(
                base_seed, replicas.start // NOISE_CHUNK, t0 // block, d,
                spec.noise.distribution, len(replicas),
            )

            def read(a, b):
                return tile[:, (a - t0) * d : (b - t0) * d]

            with np.errstate(over="ignore", invalid="ignore"):
                try:
                    for b, Z_b in _advance(Z[rows], segments, read, maps, replicas):
                        Z[rows] = Z_b
                        if b in cp_store:
                            cp_store[b][rows] = Z_b @ T.T
                except Diverged as exc:
                    return exc

        def run_tiles(mapper) -> None:
            for t0 in range(0, K, block):
                # Unstable systems overflow to inf by design; the replay locates it.
                with np.errstate(over="ignore", invalid="ignore"):
                    segments = list(_segments(maps, t0, min(K, t0 + block), block, cps))
                failed = [e for e in mapper(functools.partial(work, t0=t0, segments=segments), chunks) if e]
                if failed:
                    raise _earliest(failed)
                del segments  # free this tile's segments before composing the next

        if jobs <= 1 or len(chunks) == 1:
            run_tiles(map)
        else:
            with concurrent.futures.ThreadPoolExecutor(max_workers=jobs) as pool:
                run_tiles(pool.map)

    samples = [
        CheckpointSamples(c, pair.slow.value(c), pair.fast.value(c), X[:, :n], X[:, n:])
        for c, X in cp_store.items()
    ]
    return EnsembleResult(base_seed=base_seed, replicas=N, K=K, checkpoints=samples)
