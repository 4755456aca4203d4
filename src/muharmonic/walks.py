"""Random-walk paths, the free-group boundary, and stationary measures.

Monte Carlo experiments are chunked: the master seed spawns one child
SeedSequence per fixed-size chunk, the chunks run in order, and each is
reduced to sums before the next starts, so results are reproducible bit
for bit and memory stays one chunk's worth.

The free-group experiments read only |X_n| and the first |w| letters of
X_n, so the sampler runs the simple walk as its length chain (a
birth-death chain with drift (2k-2)/2k) and stores just those letters.
Each path-step reads one raw byte u of the chunk's PCG64 (its 64-bit
words taken little-endian, so the stream is the same on every platform)
and maps it to r = (u * 2k) >> 8 in [0, 2k), Lemire's multiply-shift; a
byte whose low product byte falls below 256 mod 2k is redrawn, so r is
exactly uniform.  For k = 2 no byte is ever redrawn.  Chunks hold 25,000
paths.  Records made before this stream (which drew r with
`Generator.integers` in chunks of 10,000) have other Monte Carlo values.
One pass feeds all three boundary reports of every cylinder asked for:
the cylinder frequency, the martingale check and the averaged square.

A step of a chunk uses two identities so that it makes few passes over
all of the chunk's paths.  The length chain is L' = |L + 2 [r != 0] - 1|.
A path is stable at depth d when its last visit at or below d comes before
its first reach of d + margin, so a running maximum of L and a look at the
paths near the root decide it.  The draws, and so every path, letter,
length and flag, are those of the plain step-by-step sampler, which the
tests keep as their oracle.

Stationary measures of a chain that a group induces on a finite point set
are read off in closed form, the G-space side of Choquet-Deny: they are
the mixtures of the uniform measures on the orbits of H = <supp mu>.
"""

from __future__ import annotations

from dataclasses import asdict, dataclass
from typing import NamedTuple

import numpy as np

from ._ops import operation
from .groups import FiniteGroup, _element_index, _orbit_numbering, generated_subgroup, same_group
from .measures import FiniteMeasure, ZWindow
from .operators import GSpaceAction
from .freegroup import FreeWord, empty_word

CHUNK_SIZE = 25_000
DEFAULT_MARGIN = 10
# a martingale path agrees when |h(X_n) - 1_{limit in [w]}| is below this
THRESHOLD = 1e-3


# ------------------------------------------------------------------ walk paths

@dataclass(frozen=True, eq=False)
class WalkPath:
    """A sampled right-walk trajectory: positions[m] = start * Y_1 ... Y_m."""

    carrier: FiniteGroup
    start: int
    increments: tuple
    positions: tuple
    seed: int

    def __len__(self):
        return len(self.increments)


@operation
def sample_path(carrier, mu, start, n: int, seed: int) -> WalkPath:
    """Deterministic-by-seed path of length n with i.i.d. increments of law mu."""
    if n < 0:
        raise ValueError("path length must be >= 0")
    if not (isinstance(carrier, FiniteGroup) and mu.on_group and same_group(mu.carrier, carrier)):
        raise ValueError("law must be a measure on the carrier group")
    if not mu.is_probability():
        raise ValueError("walk law must be a probability measure")
    start = _element_index(carrier.order, start, "start")
    rng = np.random.default_rng(seed)
    weights = np.maximum(mu.weights.real, 0.0)
    weights = weights / weights.sum()
    incs = rng.choice(carrier.order, size=n, p=weights)
    pos = [start]
    for y in incs:
        pos.append(carrier.mul(pos[-1], int(y)))
    return WalkPath(carrier, start, tuple(int(y) for y in incs), tuple(pos), seed)


# ------------------------------------------------- exact boundary quantities

@operation
def harmonic_measure_cylinder(k: int, w: FreeWord) -> float:
    """Hitting measure of the boundary cylinder [w] for the simple walk.

    nu([w]) = (1/2k) (1/(2k-1))^{|w|-1}.
    """
    if w.rank != k:
        raise ValueError(f"cylinder rank {w.rank} != {k}")
    if len(w) == 0:
        raise ValueError("cylinders are indexed by nonempty reduced words")
    return (1.0 / (2 * k)) * (1.0 / (2 * k - 1)) ** (len(w) - 1)


@operation
def poisson_extension(k: int, w: FreeWord, g: FreeWord) -> float:
    """Harmonic extension of the cylinder indicator: h(g) = nu_g([w]).

    One vertex of `_poisson_values`, which holds the closed form.
    """
    if w.rank != k or g.rank != k:
        raise ValueError("rank mismatch between cylinder and vertex")
    if len(w) == 0:
        raise ValueError("cylinders are indexed by nonempty reduced words")
    letters = np.array([g.letters], dtype=np.int16)
    return float(_poisson_values(k, w.letters, letters, np.array([len(g)]))[0])


# --------------------------------------------------- vectorized chunked sampler

def _gens_array(k: int) -> np.ndarray:
    return np.array(list(range(1, k + 1)) + [-i for i in range(1, k + 1)], dtype=np.int16)


def _check_rank(k: int) -> None:
    # a step is drawn from one byte, which has room for 2k <= 256 values
    if not 1 <= k <= 128:
        raise ValueError(f"free-group rank k={k} is outside 1..128")


def _raw_bytes(bitgen, n: int) -> np.ndarray:
    """The next n raw bytes of bitgen: ceil(n / 8) words, read little-endian."""
    return bitgen.random_raw((n + 7) // 8).astype("<u8", copy=False).view(np.uint8)[:n]


def _draw_steps(bitgen, two_k: int, n: int) -> np.ndarray:
    """n uniform int16 values in [0, two_k), two_k <= 256, from raw bytes.

    Lemire's multiply-shift: byte u gives the product u * two_k, whose high
    byte is the value.  A product whose low byte is below 256 mod two_k is
    redrawn, at its own position only, which leaves floor(256 / two_k)
    accepted bytes on each value.
    """
    # the product is taken in uint16 by dtype, not by the promotion rules of
    # the numpy at hand (NumPy 1 would keep a uint8 array times a small
    # scalar in uint8, and wrap)
    prod = np.multiply(_raw_bytes(bitgen, n), two_k, dtype=np.uint16)
    limit = 256 % two_k
    if limit:
        redo = np.flatnonzero((prod & 255) < limit)
        while redo.size:
            fresh = np.multiply(_raw_bytes(bitgen, redo.size), two_k, dtype=np.uint16)
            prod[redo] = fresh
            redo = redo[(fresh & 255) < limit]
    prod >>= 8
    return prod.view(np.int16)  # every value is below 256


def _simulate_chunk(k, n_steps, n_paths, rng, keep, margin=DEFAULT_MARGIN, depths=None,
                    snapshot=None):
    """Simulate n_paths simple-walk trajectories on the length chain.

    From a nonempty reduced word exactly one of the 2k steps cancels, so
    each path-step draws one r uniform in [0, 2k) (`_draw_steps`, from the
    raw bytes of rng's bit generator): for a path of length
    L > 0, r == 0 cancels the last letter and otherwise pushes letter index
    (inv(top) + r) mod 2k, uniform over the 2k - 1 letters that do not
    cancel; at L == 0 it pushes letter index r.  Letter indices follow
    `_gens_array`; inv(i) = (i + k) mod 2k.  The draws do not depend on
    `keep`, `depths` or `snapshot`, so runs that store more see the same
    paths.

    Only the first `keep` letters of each word are stored, so letters are
    written only for pushes at depth < keep and memory is n_paths * keep.
    Returns (prefix, lengths, stable, snap).  `prefix[:, j]` is the j-th
    letter where j < lengths (entries at or past the length are stale).
    Row i of `stable` is for the depth d = depths[i] (default: keep alone):
    it marks the paths that reached length d + margin and never went back
    below d + 1 after that, whose first min(d, keep) letters are final.
    `snap` is (prefix, lengths) after `snapshot` steps, or None.

    A step makes few passes over the whole chunk:
    - the length chain is L' = |L + 2 [r != 0] - 1|: np.sign(r), two +=,
      -= 1 and np.abs, all in int16 (int32 from 2^15 steps on);
    - a path is stable at d when its last visit at or below d comes before
      its first reach of d + margin.  So one running maximum of L stands for
      the reach flags of every depth, and a fall to d is looked for only
      from step d + margin on, on paths that start the step at most
      max(depths) + 1 deep;
    - letters are stored one row per depth, so that a depth is one
      contiguous row, and L has the parity of the step, so only every other
      depth can push.
    The step writes its letters and falls by dense per-depth blends while at
    least n_paths / 32 paths start it near the root (below `keep`, or at most
    max(depths) + 1 deep once a fall can be seen), and by a gather on those
    paths otherwise.  The rule reads only that count.  Measured per step on
    25,000 paths (2 cores, k = 2), the gather costs as much as the blends
    at 2-3% of the paths near for words of up to 3 letters, and at about 8%
    for 8 letters.  Neither form changes a draw.
    """
    _check_rank(k)
    two_k = 2 * k
    bitgen = rng.bit_generator
    gens = _gens_array(k)
    depths = (keep,) if depths is None else tuple(depths)
    reach = [d + margin for d in depths]
    deepest = max(depths)
    # L <= n_steps, and int16 passes are about twice as fast as int32 ones
    ltype = np.int16 if n_steps < 2**15 else np.int32
    # rows[j + 1] holds letter j.  rows[0] is k, so that the letter pushed at
    # depth j is (rows[j] + k + r) mod 2k at every depth (at depth 0 it is r)
    rows = np.zeros((keep + 1, n_paths), dtype=np.uint16)
    rows[0] = k
    flat = rows.reshape(-1)
    ku, wrap = np.uint16(k), np.uint16(two_k)
    lengths = np.zeros(n_paths, dtype=ltype)
    highest = np.full(n_paths, np.iinfo(ltype).min, dtype=ltype)  # max L over steps 1..now
    fell = np.zeros((len(depths), n_paths), dtype=bool)

    def state():  # (prefix, lengths); the prefix comes column by column
        return gens[rows[1:].T], lengths.astype(np.int32)

    snap = None
    for step in range(n_steps):
        if step == snapshot:
            snap = state()
        r = _draw_steps(bitgen, two_k, n_paths)
        # the depths whose falls can be seen after this step: L <= step + 1
        falls = [i for i, t in enumerate(reach) if t <= step + 1]
        near = lengths <= min(step, max(keep - 1, deepest + 1 if falls else -1))
        if np.count_nonzero(near) * 32 >= n_paths:
            near = None
            ru = r.view(np.uint16)
            rr = None
            for j in range(step % 2, min(keep, step + 1), 2):
                at = lengths == j
                row = rows[j + 1]
                if j:
                    if rr is None:
                        nz = r != 0
                        rr = np.minimum(ru + ku, ru - ku)  # (r + k) mod 2k: uint16 wraps
                    at &= nz
                    new = rows[j] + rr
                    np.minimum(new, new - wrap, out=new)
                    new -= row
                else:
                    new = ru - row
                new *= at  # row + at * (new - row), modulo 2^16
                row += new
        else:
            near = np.flatnonzero(near)
            if near.size:
                depth = lengths[near]
                r_near = r[near]
                push = (depth < keep) & ((r_near != 0) | (depth == 0))
                at = depth[push].astype(np.intp) * n_paths + near[push]  # rows[L], flat
                flat[at + n_paths] = (flat[at] + k + r_near[push]) % two_k
        s = np.sign(r)
        lengths += s
        lengths += s
        lengths -= 1
        np.abs(lengths, out=lengths)
        np.maximum(highest, lengths, out=highest)
        if near is None:
            for i in falls:
                down = lengths <= depths[i]
                down &= highest >= reach[i]
                fell[i] |= down
        elif falls and near.size:
            depth = lengths[near]
            top = highest[near]
            for i in falls:
                fell[i, near[(depth <= depths[i]) & (top >= reach[i])]] = True
    if snapshot == n_steps:
        snap = state()
    stable = (highest >= np.array(reach)[:, None]) & ~fell
    return *state(), stable, snap


def _poisson_values(k, w_letters, words, lengths):
    """h(g) = nu_g([w]) for the simple walk at many vertices g at once.

    Row i of `words` holds the first letters of vertex i and `lengths[i]`
    its length; only columns j < min(len(w), lengths[i]) are read.  Closed
    form: with q = 2k-1 and d the tree distance from g to w,
    h = 1 - (1/2k) q^{-d} when w is a prefix of g (g sits in the shadow
    subtree), and h = ((2k-1)/2k) q^{-d} otherwise.  The powers q^{-d} are
    read from one table over the exponent range, q ** -d for each d.
    """
    m = len(w_letters)
    # lcp: the length of the common prefix of w and each vertex, one column
    # at a time (a cumprod along rows this short pays per row)
    lcp = np.zeros(len(lengths), dtype=np.int64)
    agree = np.ones(len(lengths), dtype=bool)
    for j in range(min(m, words.shape[1])):
        agree &= words[:, j] == w_letters[j]
        agree &= lengths > j
        lcp += agree
    q = float(2 * k - 1)
    # -d = 2 lcp - |g| - m lies in [-(max |g| + m), 0]
    lo = -int(np.max(lengths, initial=0)) - m
    q_d = (q ** np.arange(lo, 1))[2 * lcp - lengths - m - lo]  # q^{-d}
    return np.where(lcp == m, 1.0 - q_d / (2 * k), (q / (2 * k)) * q_d)


def _chunk_seeds(seed: int, n_paths: int):
    n_chunks = (n_paths + CHUNK_SIZE - 1) // CHUNK_SIZE
    children = np.random.SeedSequence(seed).spawn(n_chunks)
    sizes = [min(CHUNK_SIZE, n_paths - i * CHUNK_SIZE) for i in range(n_chunks)]
    return list(zip(children, sizes))


# ------------------------------------------------------------ MC experiments

@dataclass(frozen=True)
class CylinderEstimate:
    estimate: float
    stderr: float
    n_paths: int
    seed: int
    inconclusive_count: int

    def to_json(self) -> dict:
        return asdict(self)


@dataclass(frozen=True)
class MartingaleReport:
    n_paths: int
    n_steps: int
    conclusive_fraction: float
    agreement_fraction: float
    inconclusive_count: int
    threshold: float
    seed: int

    def to_json(self) -> dict:
        return asdict(self)


@dataclass(frozen=True)
class DiamondReport:
    """E[h(X_n)^2] against the boundary value nu([w]) and pointwise h(e)^2."""

    estimate: float
    stderr: float
    boundary_value: float
    pointwise_value: float
    n_paths: int
    n_steps: int
    seed: int

    @property
    def distance_to_boundary(self) -> float:
        return abs(self.estimate - self.boundary_value)

    @property
    def distance_to_pointwise(self) -> float:
        return abs(self.estimate - self.pointwise_value)

    def to_json(self) -> dict:
        return asdict(self) | {"distance_to_boundary": self.distance_to_boundary,
                               "distance_to_pointwise": self.distance_to_pointwise}


class BoundaryReport(NamedTuple):
    """The three reports of one cylinder [w], read off a shared pass."""

    cylinder: CylinderEstimate
    martingale: MartingaleReport
    diamond: DiamondReport


@operation
def boundary_reports(
    k: int,
    words,
    n_steps: int,
    n_paths: int,
    seed: int,
    snapshot: int = 60,
) -> tuple[BoundaryReport, ...]:
    """One Monte Carlo pass of the simple walk, reduced for each cylinder [w].

    A path is conclusive for [w] when its first |w| letters have stabilized
    (it reached length |w| + DEFAULT_MARGIN and never returned below |w| + 1).
    - `cylinder` estimates nu([w]) as the frequency of paths escaping
      through [w] among the conclusive ones.
    - `martingale` checks h(X_n) against the indicator of the path's limit
      cylinder: agreement means |h(X_n) - 1_{limit in [w]}| < THRESHOLD on
      a conclusive path.  Inconclusive paths are counted, never dropped.
    - `diamond` estimates E h(X_snapshot)^2.  The averaged products tend to
      the boundary product: the boundary function is an indicator, so the
      limit is nu([w]) itself, far from the pointwise value h(e)^2 -- the
      free group separates the two products.
    Chunks run in order, each reduced to per-word sums before the next.
    """
    _check_rank(k)
    words = tuple(words)
    if not words:
        raise ValueError("give at least one cylinder word")
    # both raise for a word of another rank or the empty word
    boundary = [harmonic_measure_cylinder(k, w) for w in words]
    h_e = [poisson_extension(k, w, empty_word(k)) for w in words]
    if n_steps < 0 or n_paths < 1 or not 0 <= snapshot <= n_steps:
        raise ValueError("need n_steps >= 0, n_paths >= 1 and 0 <= snapshot <= n_steps")
    depths = sorted({len(w) for w in words})
    letters = [np.array(w.letters, dtype=np.int16) for w in words]
    rows = [depths.index(len(w)) for w in words]
    # per word: conclusive, matching and agreeing paths, sum of h^2 and h^4
    sums = [[0, 0, 0, 0.0, 0.0] for _ in words]
    for child, size in _chunk_seeds(seed, n_paths):
        prefix, lengths, stable, (snap_prefix, snap_lengths) = _simulate_chunk(
            k, n_steps, size, np.random.default_rng(child), depths[-1], depths=depths,
            snapshot=snapshot)
        for acc, w_arr, row in zip(sums, letters, rows):
            ok = stable[row]
            inside = ok.copy()
            for j, letter in enumerate(w_arr):  # by column: rows are short
                inside &= prefix[:, j] == letter
            close = np.abs(_poisson_values(k, w_arr, prefix, lengths) - inside) < THRESHOLD
            h_snap = _poisson_values(k, w_arr, snap_prefix, snap_lengths)
            sq = h_snap * h_snap
            acc[0] += int(ok.sum())
            acc[1] += int(inside.sum())
            acc[2] += int((ok & close).sum())
            acc[3] += float(sq.sum())
            acc[4] += float((sq * sq).sum())
    reports = []
    for (conclusive, matches, agree, total, total_sq), nu, h0 in zip(sums, boundary, h_e):
        p = matches / conclusive if conclusive else 0.0
        est = total / n_paths if snapshot else h0 * h0  # every path is at e at step 0
        var = max(total_sq / n_paths - est * est, 0.0) if snapshot else 0.0
        reports.append(BoundaryReport(
            CylinderEstimate(p, float(np.sqrt(p * (1 - p) / conclusive)) if conclusive else 0.0,
                             n_paths, seed, n_paths - conclusive),
            MartingaleReport(n_paths, n_steps, conclusive / n_paths,
                             agree / conclusive if conclusive else 0.0,
                             n_paths - conclusive, THRESHOLD, seed),
            DiamondReport(est, float(np.sqrt(var / n_paths)), nu, h0 * h0, n_paths, snapshot, seed),
        ))
    return tuple(reports)


# ------------------------------------------------------------ stationary measures

@dataclass(frozen=True, eq=False)
class StationaryReport:
    """The extreme stationary probabilities of the induced chain, one per H-orbit.

    labels[x] numbers the H-orbit of point x, by the order of the orbits'
    least points; measures[k] is the uniform probability on orbit k.
    """

    labels: np.ndarray
    measures: tuple[FiniteMeasure, ...]

    @property
    def fixed_dim(self) -> int:
        return len(self.measures)

    def to_json(self) -> dict:
        return {"orbit_labels": self.labels.tolist(), "fixed_dim": self.fixed_dim}


@operation
def stationary_measure(action: GSpaceAction, mu: FiniteMeasure) -> StationaryReport:
    """The probabilities sigma with sigma P = sigma for the induced chain on the points.

    Closed form: each g permutes the points, so P is doubly stochastic and
    every state is recurrent; the chain's classes are the orbits of
    H = <supp mu>.  The stationary probabilities are the mixtures of the
    uniform measures on the H-orbits, and the fixed space of P^T is spanned
    by the orbit indicators.
    """
    if not (mu.on_group and same_group(mu.carrier, action.group)):
        raise ValueError("measure does not live on the acting group")
    if not mu.is_probability():
        raise ValueError("walk law must be a probability measure")
    h = generated_subgroup(action.group, mu.support())
    labels = _orbit_numbering(action.table[list(h.members)])
    sizes = np.bincount(labels)
    uniform = (labels == np.arange(sizes.size)[:, None]) / sizes[:, None]
    carrier = ZWindow(0, action.points - 1)
    return StationaryReport(labels, tuple(FiniteMeasure(carrier, w) for w in uniform))


# ------------------------------------------------------------- subharmonicity

@dataclass(frozen=True)
class SubharmonicReport:
    max_violation: float
    n_checked: int


@operation
def subharmonic_check(h: np.ndarray, g: FiniteGroup, mu: FiniteMeasure) -> SubharmonicReport:
    """Verify h(x) <= sum_t h(x t) mu(t) at every group element."""
    from .operators import right_markov_matrix

    h = np.asarray(h, dtype=float)
    averaged = (right_markov_matrix(g, mu).real @ h).real
    return SubharmonicReport(float((h - averaged).max()), g.order)
