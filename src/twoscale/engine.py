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

One planner, `_segments`, cuts every route's steps into segments and
batches them.  Segments end at every noise-tile edge and at every
checkpoint or recorded step, so each segment reads inside one tile and
every reported state is the exact composition of its steps.  Each run of
consecutive equal-length segments, as evenly spaced records give, goes to
one call of the planner's reduction as (L, B, d, d) and (L, B, d, e)
reshape views of the maps, step axis first, with no gather.  The default
reduction, `_compose`, makes each product with the same per-matrix BLAS
call on the same operands, so every (P, W) has the bits of a scan of its
own.  Step maps are built once per call of the planner's `maps`, a tile or
a span of MOMENT_TREE_TILES tiles, as one (L, 2) x (2, d^2) product of the
steps' sizes with coefficient rows fixed for the run, exact because each
entry has one nonzero term.  Exact propagation at d >= 3 updates the second
moment as C <- P C P' + W'W, and at d = 2 through the tree below.  Every
simulated route goes through one driver, `_advance`, which moves a block
of row states as Z <- Z P' + V, V the rows' noise term over the segment;
only the plan that yields V differs.
A single trajectory (`simulate`, both phases of `simulate_transformed`)
is one row with V = U W, U its inputs read through `_step_reader`; an
ensemble moves all N rows at once.  Every route runs in deviations from
the fixed point x*, so the offset b never enters the kernel; `simulate`
adds x* back to the states it records.  A Rademacher ensemble composes one
noise tile's segments, fills their V one replica chunk at a time with the
chunk's U W, summed over column blocks (below), and drops them before the
next tile, so its memory is flat in K.  A segment that ends beyond the
divergence cutoff is replayed one step at a time from its rebuilt per-step
maps, in each chunk with a row past the cutoff, to report the first bad
step and the replicas that crossed it.  Exact propagation replays a segment
whose moment passes the cutoff squared the same way.

Exact propagation at d = 2 composes no W: the planner hands its runs to
`_moment_tree`, which copies the maps batch-last, (d, d, B, L), forms Q_j =
N_j N_j' and reduces each segment with a pairwise tree: neighbouring steps
merge into (M_2 M_1, M_2 Q_1 M_2' + Q_2), level by level, until each
segment is one pair (P, G) and C <- P C P' + G.  Each entry of a product is
d elementwise multiply-adds vectorised across the B segments and their L
steps, and the reduction makes no BLAS call.  `_compose` hands BLAS one
d x d product at a time; at d = 2 that dispatch, 25-50 ns a product, costs
more than the arithmetic, and from d = 3 on the tree's d^3 elementwise
passes cost more than the dispatch.  Measured on a 2-core Xeon, OpenBLAS
0.3.31 on one thread, K = 2e5 with one checkpoint, `_compose` against the
tree (ranges of three runs): d = 2 35-52 against 26-28 ms, d = 3 46-52
against 64-75, d = 4 49-53 against 125-145, d = 6 79-83 against 415-436.
So the path is chosen from d alone.  Both reductions get the same
segments, so the cutoff check, `_replay_moment`'s first bad step and the
checkpoint rows fall on the same steps.  At d = 2 the planner takes the
maps of MOMENT_TREE_TILES tiles per `maps` call, so the runs are longer.
Four tiles share the fixed cost of the tree's eleven levels, and their 8192
steps of maps in flight, about 1.2 MB at the peak, keep memory flat in K;
eight tiles ran about 12% faster but held twice that.  The tree's sums run
in another order than the scan's, so d = 2 moments differ from
`_compose`'s by about 1e-15 relative.

Gaussian ensembles aggregate each segment's noise: for Gaussian u the term
W'u is exactly N(0, W'W), and so is R'xi for the triangular factor R of
W = QR (R'R = W'W, also when Gamma is singular) and d standard normals xi.
`run_ensemble` therefore takes V = xi R for Gaussian replicas, d draws per
replica per segment instead of L d.  A diverging segment is replayed with
the per-step inputs u = Q xi, which give W'u = R'xi exactly; when W itself
overflowed, Q is undefined and the replay reads the per-step stream's draws
instead.  Every other route draws per step and stays the pathwise
reference.

Determinism contract (stream layout STREAM_LAYOUT = 5)
------------------------------------------------------
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
(step mod block) * d + c].  A reader is keyed by base_seed and a range
of replicas inside one chunk, and holds those rows of the tile it read
last: one row for a single trajectory, the whole chunk for a Rademacher
ensemble.  Tile shapes are fixed functions of d alone, so which values a
replica sees never depends on N, K, checkpoints or chunk scheduling.  A
Gaussian tile is the generator's standard normals in row-major order, as
float64.  A scaled-Rademacher tile holds int8 signs and spends one raw bit
per sign: with cols = block * d, entry [r, j] is 1 - 2 * ((w[i // 64] >>
(i % 64)) & 1) for i = r * cols + j and w the generator's raw 64-bit words,
so bit 0 gives +1 and bit 1 gives -1.  Every consumer promotes the signs
to float64 exactly, so the dtype is no part of the values.

Aggregated Gaussian draws are a pure function of (base_seed, replica,
segment partition).  One generator per chunk, keyed (1, chunk), serves the
whole run: each segment, in step order, takes its next (NOISE_CHUNK, d)
block of standard normals, and replica r reads row r mod NOISE_CHUNK of
chunk r // NOISE_CHUNK's block.  The partition is cut by the tile edges,
the checkpoints and K, so a replica's state at checkpoint c depends only
on the segments that end at or before c: it is unchanged when K grows or
checkpoints above c are added, and it does not depend on N.

A Rademacher ensemble's noise term V = U W over a segment sums its L d
input columns in a fixed order: blocks of NOISE_SUM_COLS columns from the
segment's first column, V = U[:, 0:512] W[0:512] + U[:, 512:1024]
W[512:1024] + ..., each block one BLAS product, added in column order.
U stays int8 signs: each block is cast into one float64 buffer of
(NOISE_CHUNK, NOISE_SUM_COLS), allocated once per run, just before its
product, so the cast and the product run from cache.
The rule is part of the contract, like the layout: a new block width or
order changes the ensemble's bits by about 1e-16 relative.  No product runs
over more than NOISE_SUM_COLS terms; on OpenBLAS 0.3.31 that gave the same
bytes at 1 and 2 threads for d = 2, 6, 10 and 20, which is observed on that
build, not guaranteed.

Both kinds of draws replay exactly.
"""

from __future__ import annotations

import functools
import itertools
from bisect import bisect_left, bisect_right
from dataclasses import dataclass

import numpy as np

from .errors import DIVERGENCE_CUTOFF, Diverged, EnsembleTooLarge, MomentDiverged, NonFinite, NotPSD
from .linalg import _suffix_products, psd_floor, symmetrize
from .model import SystemSpec, centring_matrix, delta_matrix, fixed_point
from .schedules import SchedulePair
from .theory import LSequence, l_sequence

STREAM_LAYOUT = 5  # version of the noise stream layout described above
NOISE_CHUNK = 64  # replicas per noise tile
NOISE_SUM_COLS = 512  # input columns per block of a Rademacher segment's noise-term sum
MOMENT_TREE_TILES = 4  # noise tiles per `maps` call of d = 2 propagation, whose runs go to `_moment_tree`
# Largest float64 footprint an ensemble may plan: its N x d state, one N x d
# noise array and one N x d array per checkpoint.
ENSEMBLE_BYTES_CAP = 2 * 2**30


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
    and does not depend on rows.  Gaussian tiles are float64 standard
    normals in that order.  Scaled-Rademacher tiles are int8 signs, one raw
    bit per sign: the generator's raw 64-bit words, read least significant
    bit first, give flat entry i the sign 1 - 2 * ((word[i // 64] >> (i %
    64)) & 1), so bit 0 is +1 and bit 1 is -1.  The signs are computed in
    place on the unpacked bits, so a tile costs one byte per entry and no
    float64 copy; each consumer casts what it reads.
    """
    gen = _generator(base_seed, 0, chunk_idx, block_idx)
    cols = noise_block_steps(dim) * dim
    count = rows * cols
    if distribution == "gaussian":
        return gen.standard_normal(count).reshape(rows, cols)
    # cols need not be a multiple of 64 (4092 at dim 6): draw whole
    # words and drop the bits past the last row.
    words = gen.bit_generator.random_raw(-(-count // 64)).astype("<u8", copy=False)
    signs = np.unpackbits(words.view(np.uint8), count=count, bitorder="little").view(np.int8)
    signs *= -2  # in place on the unpacked bits: 0 stays 0, 1 becomes -2
    signs += 1
    return signs.reshape(rows, cols)


def _step_reader(spec: SystemSpec, base_seed: int, replicas: range):
    """Reader of the standardized per-step draws of replicas, which lie in one chunk.

    read(a, b) returns the draws of steps [a, b) flattened step-major, one
    row per replica, shape (len(replicas), (b - a) * d): float64 for
    Gaussian noise, int8 signs for scaled-Rademacher noise, which
    `_blocked_product` casts one block at a time and a product with a
    float64 map promotes exactly.  [a, b) lies inside one noise tile, as
    every `_segments` segment does.  The reader holds only its rows of the
    tile it read last, so reading in step order generates each tile once.
    """
    d = spec.n + spec.m
    block = noise_block_steps(d)
    chunk_idx, r0 = divmod(replicas.start, NOISE_CHUNK)

    @functools.lru_cache(maxsize=1)
    def rows(block_idx: int) -> np.ndarray:
        tile = _standard_tile(
            base_seed, chunk_idx, block_idx, d, spec.noise.distribution, r0 + len(replicas)
        )
        return tile[r0:].copy() if r0 else tile

    def read(a: int, b: int) -> np.ndarray:
        t0 = a - a % block
        return rows(a // block)[:, (a - t0) * d : (b - t0) * d]

    return read


# ---------------------------------------------------------------------------
# segment kernel


def _compose(M: np.ndarray, N: np.ndarray) -> tuple[np.ndarray, np.ndarray]:
    """Compose the maps z -> M_j z + N_j u_j of one segment, index 0 first.

    Returns (P, W) with z_b = P z_a + W' u for the inputs u flattened
    step-major.  M and N may carry a batch axis after the step axis,
    (L, B, d, d) and (L, B, d, e) for B segments of L steps each; then P is
    (B, d, d) and W is (B, L e, d), and every product is the same
    per-matrix BLAS call on the same operands as one segment at a time.
    Both are fresh arrays, so a plan that keeps them holds no scan buffers.
    """
    L, d, e = len(N), M.shape[-1], N.shape[-1]
    S = _suffix_products(M.copy())
    batch = N.shape[1:-2]
    Wt = np.empty((*batch, L, e, d))  # block j of segment i is (R_j N_j)'
    steps = Wt.swapaxes(0, -3)  # step axis first, as in M and N
    np.matmul(N[:-1].swapaxes(-1, -2), S[1:].swapaxes(-1, -2), out=steps[:-1])
    steps[-1] = N[-1].swapaxes(-1, -2)
    return S[0].copy(), Wt.reshape(*batch, L * e, d)


def _step_maps(spec: SystemSpec, pair: SchedulePair):
    """Builder maps(a, b) of the per-step maps M_k = I - D_k A and N_k = D_k F, k in [a, b).

    D_k A is linear in the step sizes s_k = (beta_k, gamma_k): it is s_k c
    for the coefficient rows c = (A with its fast rows zeroed, A with its
    slow rows zeroed), flattened, and D_k F likewise.  So one tile's maps are
    an (L, 2) x (2, d^2) and an (L, 2) x (2, d e) product, with rows built
    once per run.  Each entry has one nonzero term, the other being a step
    size times zero, so M is the entrywise I - D_k A bit for bit, and N is
    the entrywise D_k F up to the sign of its zeros.
    """
    n, d = spec.n, spec.n + spec.m
    F = spec.noise.factor
    rows = np.zeros((2, d, 1))
    rows[0, :n] = rows[1, n:] = 1.0
    coef_A = (rows * spec.block_matrix()).reshape(2, d * d)
    coef_F = (rows * F).reshape(2, -1)
    identity = np.eye(d).reshape(d * d)

    def maps(a: int, b: int):
        ks = np.arange(a, b)
        steps = np.stack([pair.slow.values(ks), pair.fast.values(ks)], axis=1)
        M = steps @ coef_A
        np.subtract(identity, M, out=M)
        N = steps @ coef_F
        return M.reshape(b - a, d, d), N.reshape(b - a, d, -1)

    return maps


def _segments(maps, start: int, stop: int, block: int, edges, reduce=None, tiles: int = 1):
    """Yield (a, b, X, Y) for each kernel segment [a, b) of [start, stop), the pair reduce gives it.

    The one planner of every route.  Segments end at every noise-tile edge
    (a multiple of block) and at every value of the sorted sequence edges,
    so a // block == (b - 1) // block.  maps(t0, t1) returns the per-step
    maps (M, N) of the steps [t0, t1); it is called once per span of tiles
    noise tiles, those that start at multiples of tiles * block.  Each run
    of consecutive segments of one length in a span goes to one call of
    reduce, `_compose` by default or `_moment_tree`, as (L, count, d, d)
    and (L, count, d, e) reshape views of the span's maps, step axis first,
    with no gather; reduce returns one pair of count stacked arrays.
    """
    reduce = _compose if reduce is None else reduce
    span = tiles * block
    t0 = start
    while t0 < stop:
        t1 = min(stop, (t0 // span + 1) * span)
        M, N = maps(t0, t1)
        tile_edges = range((t0 // block + 1) * block, t1, block)
        cuts = sorted({*tile_edges, *edges[bisect_right(edges, t0) : bisect_left(edges, t1)]})
        bounds = [t0, *cuts, t1]
        a = t0
        for L, run in itertools.groupby(y - x for x, y in zip(bounds, bounds[1:])):
            count = len(list(run))
            i0, i1 = a - t0, a - t0 + count * L
            # (L, count, ...) views: step axis first, one segment per batch entry.
            X, Y = reduce(
                M[i0:i1].reshape(count, L, *M.shape[1:]).swapaxes(0, 1),
                N[i0:i1].reshape(count, L, *N.shape[1:]).swapaxes(0, 1),
            )
            for i in range(count):
                yield (a + i * L, a + (i + 1) * L, X[i], Y[i])
            a += count * L
        t0 = t1


def _product(X: np.ndarray, Y: np.ndarray, out=None, tmp=None) -> np.ndarray:
    """X Y for stacks of matrices stored batch-last, (d, e, ...) times (e, f, ...).

    Each entry is the sum over the inner index, in order, of elementwise
    products, so the work runs vectorised across the batch axes with no BLAS
    call.  out and tmp, both of the product's shape, take the result and the
    terms after the first; either is allocated when None.
    """
    out = np.multiply(X[:, :1], Y[None, 0], out=out)
    for k in range(1, len(Y)):
        out += np.multiply(X[:, k : k + 1], Y[None, k], out=tmp)
    return out


def _moment_tree(M: np.ndarray, N: np.ndarray) -> tuple[np.ndarray, np.ndarray]:
    """Reduce the maps of B segments of L steps to one moment pair (P, G) each.

    M and N are (L, B, d, d) and (L, B, d, e), step axis first, as
    `_segments` hands a run to its reduction.  They are copied batch-last,
    (d, d, B, L) with step j of segment b at [..., b, j], and N becomes Q_j
    = N_j N_j'.  Neighbouring steps merge in pairs, step 1 then step 2 into
    (M_2 M_1, M_2 Q_1 M_2' + Q_2), level by level; an odd last step passes to
    the next level as it is.  Returns P and G, each (B, d, d), with C <- P C
    P' + G the moment update over each segment.  The levels alternate
    between the copies and one set of spare buffers, so no level allocates.
    """
    L, B, d, _ = M.shape
    M = np.ascontiguousarray(M.transpose(2, 3, 1, 0))
    N = np.ascontiguousarray(N.transpose(2, 3, 1, 0))
    Q = _product(N, N.swapaxes(0, 1))
    del N
    spare = np.empty((4, d * d * B * (L - L // 2)))  # a level's output pair, its M_2 Q_1 and one term

    def level(buf, length):
        return buf[: d * d * B * length].reshape(d, d, B, length)

    free = [spare[0], spare[1], M.reshape(-1), Q.reshape(-1)]
    while L > 1:
        h = L // 2
        M1, M2, Q1, Q2 = M[..., :-1:2], M[..., 1::2], Q[..., :-1:2], Q[..., 1::2]
        M_next, Q_next = level(free[0], L - h), level(free[1], L - h)
        MQ, tmp = level(spare[2], h), level(spare[3], h)
        _product(M2, Q1, MQ, tmp)
        G = _product(MQ, M2.swapaxes(0, 1), Q_next[..., :h], tmp)
        G += Q2
        _product(M2, M1, M_next[..., :h], tmp)
        if L % 2:
            M_next[..., h], Q_next[..., h] = M[..., -1], Q[..., -1]
        free[:2], free[2:] = free[2:], free[:2]
        M, Q, L = M_next, Q_next, L - h
    return M[..., 0].transpose(2, 0, 1).copy(), Q[..., 0].transpose(2, 0, 1).copy()


def _blocked_product(U: np.ndarray, W: np.ndarray, out: np.ndarray, buf: np.ndarray) -> None:
    """out = U @ W for int8 signs U, summed over blocks of NOISE_SUM_COLS columns in order.

    Each block is cast into the float64 buffer buf, of at least U's rows and
    NOISE_SUM_COLS columns, just before its BLAS product, so the cast and the
    product run from cache and no product's sum runs over more than
    NOISE_SUM_COLS terms.  The block products add in column order.
    """
    rows, cols = U.shape
    for j in range(0, cols, NOISE_SUM_COLS):
        block = buf[:rows, : min(NOISE_SUM_COLS, cols - j)]
        np.copyto(block, U[:, j : j + NOISE_SUM_COLS])
        if j:
            out += block @ W[j : j + NOISE_SUM_COLS]
        else:
            np.matmul(block, W[:NOISE_SUM_COLS], out=out)


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


def _advance(Z: np.ndarray, plan, locate):
    """Advance row states Z through the segments of plan, yielding (b, Z_b) after each.

    plan yields (a, b, P, V) with Z_b = Z_a P' + V, V the rows' noise term
    over steps [a, b).  A segment that ends beyond the divergence cutoff
    calls locate(a, b, Z_a, Z_b), which raises Diverged at the first bad step.
    """
    for a, b, P, V in plan:
        Z_next = Z @ P.T + V
        # NaN compares false, so it fails the test like inf does.
        if not float(np.abs(Z_next).max()) <= DIVERGENCE_CUTOFF:
            locate(a, b, Z, Z_next)
        Z = Z_next
        yield b, Z


def _trajectory(z: np.ndarray, segments, maps, read):
    """`_advance` for the one row z with V = read(a, b) @ W, replayed from maps(a, b)."""
    plan = ((a, b, P, read(a, b) @ W) for a, b, P, W in segments)

    def locate(a, b, Z_a, Z_b):
        _replay(Z_a, *maps(a, b), read(a, b).reshape(1, b - a, -1), a)

    return _advance(z, plan, locate)


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
        if not np.all(np.isfinite(x0)):
            raise NonFinite("initial state has non-finite entries")
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
    read = _step_reader(spec, base_seed, range(replica, replica + 1))
    z0 = _deviation(spec, init)[None]

    states = []
    edges = range(record_stride, K, record_stride)
    plan = _segments(maps, 0, K, noise_block_steps(n + spec.m), edges)
    # Unstable systems overflow the composed maps; the replay reports where.
    with np.errstate(over="ignore", invalid="ignore"):
        for k, Z in itertools.chain([(0, z0)], _trajectory(z0, plan, maps, read)):
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
    read = _step_reader(spec, base_seed, range(1))

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
        for _, Z in _trajectory(Z, _segments(original, 0, k0, block, ()), original, read):
            pass
        x = T @ Z[0]
        states = [TransformedState(k0, x[:n], x[n:])]
        edges = range(record_stride * (k0 // record_stride + 1), K, record_stride)
        plan = _segments(decoupled, k0, K, block, edges)
        for k, X in _trajectory(x[None], plan, decoupled, read):
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
    Each kernel segment advances the moment at once as C <- P C P' + G:
    at d = 2, (P, G) comes from `_moment_tree`, which makes no BLAS call;
    at d >= 3, G = W'W from `_compose`, which is faster there (the module
    docstring gives the crossover).  Both cut the same segments.  Raises
    Diverged at the first step whose moment passes the divergence cutoff
    squared, found by replaying the failing segment step by step.
    """
    n, m = spec.n, spec.m
    d = n + m
    if C0 is None:
        C = np.zeros((d, d))
    else:
        C = symmetrize(np.asarray(C0, dtype=np.float64).reshape(d, d))
        if not np.all(np.isfinite(C)):
            raise NonFinite("initial second moment has non-finite entries")
        if not float(np.min(np.linalg.eigvalsh(C))) >= psd_floor(C):
            raise NotPSD("initial second moment has a negative eigenvalue beyond tolerance")

    cps = sorted(set(int(c) for c in checkpoints))
    if not cps or cps[0] < 1 or cps[-1] > K:
        raise ValueError("checkpoints must be within [1, K]")

    T = centring_matrix(spec)
    out = []
    maps = _step_maps(spec, pair)
    block = noise_block_steps(d)
    if d == 2:
        plan = _segments(maps, 0, cps[-1], block, cps, _moment_tree, MOMENT_TREE_TILES)
    else:
        plan = ((a, b, P, W.T @ W) for a, b, P, W in _segments(maps, 0, cps[-1], block, cps))
    # Unstable systems overflow the composed maps; the replay reports where.
    with np.errstate(over="ignore", invalid="ignore"):
        for a, b, P, G in plan:
            C_next = P @ C @ P.T + G
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
# seeded ensembles


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
) -> EnsembleResult:
    """Simulate N independent replicas and sample centered iterates at checkpoints.

    Replica r draws from the stream keyed (base_seed, r); the chunk layout
    is a fixed constant.  Gaussian replicas take one exact N(0, W'W) draw
    per segment: row r % NOISE_CHUNK of the next (NOISE_CHUNK, d) block of
    standard normals from the generator of chunk r // NOISE_CHUNK, keyed
    (1, chunk), a pure function of (base_seed, r, segment partition),
    stable under growing K or adding later checkpoints.  Rademacher
    replicas read the per-step draws keyed by (base_seed, r), those of
    `simulate(..., base_seed, replica=r)`: each noise tile's segments are
    composed once, and each replica chunk in turn fills its rows of every
    segment's noise term, summed over blocks of NOISE_SUM_COLS input
    columns in order, holding one chunk's tile at a time.  Under either
    law all N rows cross each segment in one pass, so a divergence names the
    earliest bad step of the ensemble and every replica that crossed at it.
    Samples are stored by replica index, making downstream statistics
    order-independent.  An ensemble whose state, one noise array and
    checkpoint store, 8 N d (checkpoints + 2) bytes, would pass
    ENSEMBLE_BYTES_CAP is refused with EnsembleTooLarge before any of it
    is allocated.
    """
    if N < 2:
        raise ValueError("ensemble needs at least 2 replicas")
    if K < 1:
        raise ValueError("K must be at least 1")
    cps = sorted(set(int(c) for c in checkpoints))
    if not cps or cps[0] < 0 or cps[-1] > K:
        raise ValueError("checkpoints must be within [0, K]")

    n, d = spec.n, spec.n + spec.m
    estimate = 8 * N * d * (len(cps) + 2)
    if estimate > ENSEMBLE_BYTES_CAP:
        raise EnsembleTooLarge(
            f"ensemble of N={N} replicas at d={d} with {len(cps)} checkpoints needs about "
            f"{estimate / 2**30:.3g} GiB ({estimate} bytes), above the "
            f"{ENSEMBLE_BYTES_CAP / 2**30:.3g} GiB cap"
        )
    z0 = _deviation(spec, init)
    T = centring_matrix(spec)
    block = noise_block_steps(d)
    maps = _step_maps(spec, pair)
    Z = np.repeat(z0[None, :], N, axis=0)
    cp_store = {c: np.empty((N, d)) for c in cps}
    if 0 in cp_store:
        cp_store[0][:] = Z @ T.T
    chunks = [range(i, min(i + NOISE_CHUNK, N)) for i in range(0, N, NOISE_CHUNK)]
    gaussian = spec.noise.distribution == "gaussian"
    xi = np.empty((len(chunks), NOISE_CHUNK, d))
    drawn = xi.reshape(-1, d)[:N]

    def gaussian_plan():
        gens = [_generator(base_seed, 1, c) for c in range(len(chunks))]
        for a, b, P, W in _segments(maps, 0, K, block, cps):
            for gen, out in zip(gens, xi):
                gen.standard_normal(out=out)
            yield a, b, P, drawn @ np.linalg.qr(W, mode="r")

    def rademacher_plan():
        buf = np.empty((NOISE_CHUNK, NOISE_SUM_COLS))  # one sign block, cast to float64
        for t0 in range(0, K, block):
            segments = list(_segments(maps, t0, min(K, t0 + block), block, cps))
            V = np.empty((len(segments), N, d))
            for replicas in chunks:
                read = _step_reader(spec, base_seed, replicas)
                for (a, b, _, W), v in zip(segments, V):
                    _blocked_product(read(a, b), W, v[replicas.start : replicas.stop], buf)
                del read  # hold one chunk's tile at a time
            for (a, b, P, _), v in zip(segments, V):
                yield a, b, P, v
            del segments, V  # free this tile's maps and noise terms before the next

    def locate(a, b, Z_a, Z_b):
        M, Nk = maps(a, b)
        # u = Q xi for W = QR gives the drawn W'u = R'xi exactly.  If W itself
        # overflowed, Q is undefined and Gaussian chunks read per-step draws too.
        W = _compose(M, Nk)[1] if gaussian else None
        Q = np.linalg.qr(W)[0] if gaussian and np.all(np.isfinite(W)) else None
        bad = ~(np.abs(Z_b).max(axis=1) <= DIVERGENCE_CUTOFF)
        failed = []
        for replicas in chunks:
            if bad[replicas].any():
                U = _step_reader(spec, base_seed, replicas)(a, b) if Q is None else drawn[replicas] @ Q.T
                try:
                    _replay(Z_a[replicas], M, Nk, U.reshape(len(replicas), b - a, -1), a, replicas)
                except Diverged as exc:
                    # Without its traceback it no longer holds the chunk's inputs.
                    failed.append(exc.with_traceback(None))
                del U  # hold one chunk's inputs at a time
        raise _earliest(failed)

    plan = gaussian_plan() if gaussian else rademacher_plan()
    # Unstable systems overflow to inf by design; the locator finds where.
    with np.errstate(over="ignore", invalid="ignore"):
        for b, Z in _advance(Z, plan, locate):
            if b in cp_store:
                cp_store[b][:] = Z @ T.T

    samples = [
        CheckpointSamples(c, pair.slow.value(c), pair.fast.value(c), X[:, :n], X[:, n:])
        for c, X in cp_store.items()
    ]
    return EnsembleResult(base_seed=base_seed, replicas=N, K=K, checkpoints=samples)
