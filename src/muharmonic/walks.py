"""Random-walk paths, the free-group boundary, and stationary measures.

Monte Carlo experiments are chunked: the master seed spawns one child
SeedSequence per fixed-size chunk, workers own disjoint streams, and all
aggregation is order-independent sums, so results are reproducible
regardless of how chunks are scheduled.

The free-group experiments read only |X_n| and the first |w| letters of
X_n, so the sampler runs the simple walk as its length chain (a
birth-death chain with drift (2k-2)/2k) and stores just those letters.
It draws one uniform r in [0, 2k) per path-step; this stream replaced a
sampler that kept whole words and drew the step's generator directly, so
Monte Carlo values differ from records made before that change.
"""

from __future__ import annotations

from dataclasses import asdict, dataclass

import numpy as np

from ._ops import operation
from .groups import FiniteGroup, same_group
from .measures import FiniteMeasure, ZWindow
from .operators import GSpaceAction, gspace_markov_matrix
from .freegroup import FreeWord, empty_word, free_mul, neighbors, word
from .subspaces import kernel

CHUNK_SIZE = 10_000
DEFAULT_MARGIN = 10


# ------------------------------------------------------------ walk laws and paths

@dataclass(frozen=True, eq=False)
class FreeMeasure:
    """Finitely supported probability law on a free group."""

    rank: int
    words: tuple[FreeWord, ...]
    weights: np.ndarray

    def __post_init__(self):
        w = np.asarray(self.weights, dtype=float)
        if w.shape != (len(self.words),):
            raise ValueError("weights must match the support")
        if np.any(w < -1e-12) or abs(w.sum() - 1.0) > 1e-12:
            raise ValueError("free-group laws must be probabilities")
        for wd in self.words:
            if wd.rank != self.rank:
                raise ValueError("support words must share the rank")
        object.__setattr__(self, "weights", w)
        w.setflags(write=False)


def srw(k: int) -> FreeMeasure:
    """Simple random walk law: uniform on the 2k generators and inverses."""
    gens = [word(k, (i,)) for i in range(1, k + 1)] + [word(k, (-i,)) for i in range(1, k + 1)]
    return FreeMeasure(k, tuple(gens), np.full(2 * k, 1.0 / (2 * k)))


@dataclass(frozen=True, eq=False)
class WalkPath:
    """A sampled right-walk trajectory: positions[m] = start * Y_1 ... Y_m."""

    carrier: FiniteGroup | ZWindow | int  # int = free-group rank
    start: object
    increments: tuple
    positions: tuple
    seed: int

    def __len__(self):
        return len(self.increments)


def walk_path_to_csv(path: WalkPath, file) -> None:
    """Audit trace: one (step, increment, position) row per step."""
    import csv

    with open(file, "w", newline="") as fh:
        writer = csv.writer(fh)
        writer.writerow(["step", "increment", "position"])
        writer.writerow([0, "", str(path.positions[0])])
        for m, (inc, pos) in enumerate(zip(path.increments, path.positions[1:]), start=1):
            writer.writerow([m, str(inc), str(pos)])


@operation
def sample_path(carrier, mu, start, n: int, seed: int) -> WalkPath:
    """Deterministic-by-seed path of length n with i.i.d. increments of law mu."""
    if n < 0:
        raise ValueError("path length must be >= 0")
    rng = np.random.default_rng(seed)
    if isinstance(carrier, FiniteGroup):
        if not (isinstance(mu, FiniteMeasure) and mu.on_group and same_group(mu.carrier, carrier)):
            raise ValueError("law must be a measure on the carrier group")
        if not mu.is_probability():
            raise ValueError("walk law must be a probability measure")
        weights = np.maximum(mu.weights.real, 0.0)
        weights = weights / weights.sum()
        incs = rng.choice(carrier.order, size=n, p=weights)
        pos = [int(start)]
        for y in incs:
            pos.append(carrier.mul(pos[-1], int(y)))
        return WalkPath(carrier, int(start), tuple(int(y) for y in incs), tuple(pos), seed)
    if isinstance(mu, FiniteMeasure) and not mu.on_group:
        if not mu.is_probability():
            raise ValueError("walk law must be a probability measure")
        support = np.array(mu.support())
        probs = np.array([mu.weights[s - mu.carrier.lo].real for s in support])
        probs = np.maximum(probs, 0.0)
        probs /= probs.sum()
        incs = rng.choice(support, size=n, p=probs)
        pos = [int(start)]
        for y in incs:
            pos.append(pos[-1] + int(y))
        return WalkPath(mu.carrier, int(start), tuple(int(y) for y in incs), tuple(pos), seed)
    if isinstance(mu, FreeMeasure):
        idx = rng.choice(len(mu.words), size=n, p=mu.weights)
        incs = [mu.words[i] for i in idx]
        pos = [start if isinstance(start, FreeWord) else empty_word(mu.rank)]
        for y in incs:
            pos.append(free_mul(pos[-1], y))
        return WalkPath(mu.rank, pos[0], tuple(incs), tuple(pos), seed)
    raise ValueError("unsupported carrier/law combination")


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


def _simulate_chunk(k, n_steps, n_paths, rng, keep, margin=DEFAULT_MARGIN):
    """Simulate n_paths simple-walk trajectories on the length chain.

    From a nonempty reduced word exactly one of the 2k steps cancels, so
    each path-step draws one r uniform in [0, 2k): for a path of length
    L > 0, r == 0 cancels the last letter and otherwise pushes letter index
    (inv(top) + r) mod 2k, uniform over the 2k - 1 letters that do not
    cancel; at L == 0 it pushes letter index r.  Letter indices follow
    `_gens_array`; inv(i) = (i + k) mod 2k.  The draws do not depend on
    `keep`, so runs that store more letters see the same paths.

    Only the first `keep` letters of each word are stored, so letters are
    written only for pushes at depth < keep and memory is n_paths * keep.
    Returns (prefix, lengths, stable): `prefix[:, j]` is the j-th letter
    where j < lengths (entries at or past the length are stale), and
    `stable` marks paths that reached length keep + margin and never went
    back below keep + 1 after that, whose first keep letters are final.
    """
    two_k = 2 * k
    prefix = np.zeros((n_paths, keep), dtype=np.int16)
    lengths = np.zeros(n_paths, dtype=np.int32)
    hit = np.zeros(n_paths, dtype=bool)
    fell = np.zeros(n_paths, dtype=bool)
    for _ in range(n_steps):
        r = rng.integers(0, two_k, size=n_paths, dtype=np.int16)
        low = np.flatnonzero(lengths < keep)
        if low.size:
            depth = lengths[low]
            r_low = r[low]
            push = (r_low != 0) | (depth == 0)
            low, depth, r_low = low[push], depth[push], r_low[push]
            top = prefix[low, np.maximum(depth - 1, 0)]
            prefix[low, depth] = np.where(depth == 0, r_low, (top + k + r_low) % two_k)
        cancel = (r == 0) & (lengths > 0)
        # +1, or -1 on a cancel; subtracting the mask twice avoids a temporary
        lengths += 1
        lengths -= cancel
        lengths -= cancel
        hit |= lengths >= keep + margin
        fell |= hit & (lengths <= keep)
    return _gens_array(k)[prefix], lengths, hit & ~fell


def _poisson_values(k, w_letters, words, lengths):
    """h(g) = nu_g([w]) for the simple walk at many vertices g at once.

    Row i of `words` holds the first letters of vertex i and `lengths[i]`
    its length; only columns j < min(len(w), lengths[i]) are read.  Closed
    form: with q = 2k-1 and d the tree distance from g to w,
    h = 1 - (1/2k) q^{-d} when w is a prefix of g (g sits in the shadow
    subtree), and h = ((2k-1)/2k) q^{-d} otherwise.
    """
    m = len(w_letters)
    width = min(m, words.shape[1])
    match = words[:, :width] == np.asarray(w_letters[:width])
    match &= np.arange(width) < lengths[:, None]
    lcp = match.cumprod(axis=1).sum(axis=1)
    q = float(2 * k - 1)
    q_d = q ** (2 * lcp - lengths - m)  # q^{-d}
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


def empirical_cylinder_measure(
    k: int,
    w: FreeWord,
    n_steps: int,
    n_paths: int,
    seed: int,
    margin: int = DEFAULT_MARGIN,
) -> CylinderEstimate:
    """Monte Carlo estimate of nu([w]): frequency of paths escaping through [w].

    A path is conclusive when its limit prefix has stabilized (it reached
    length |w| + margin and never returned below |w| + 1); the estimate is
    the match frequency among conclusive paths.
    """
    m = len(w)
    if m == 0:
        raise ValueError("cylinders are indexed by nonempty reduced words")
    w_arr = np.array(w.letters, dtype=np.int16)
    conclusive = 0
    matches = 0
    for child, size in _chunk_seeds(seed, n_paths):
        rng = np.random.default_rng(child)
        prefix, _, stable = _simulate_chunk(k, n_steps, size, rng, m, margin)
        conclusive += int(stable.sum())
        matches += int((stable & (prefix == w_arr).all(axis=1)).sum())
    p = matches / conclusive if conclusive else 0.0
    stderr = float(np.sqrt(p * (1 - p) / conclusive)) if conclusive else 0.0
    return CylinderEstimate(p, stderr, n_paths, seed, n_paths - conclusive)


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


@operation
def martingale_convergence_check(
    k: int,
    w: FreeWord,
    n_steps: int,
    n_paths: int,
    seed: int,
    threshold: float = 1e-3,
    margin: int = DEFAULT_MARGIN,
) -> MartingaleReport:
    """Check h(X_n) against the indicator of the path's limit cylinder.

    For each conclusive path (stabilized prefix), agreement means
    |h(X_n) - 1_{limit in [w]}| < threshold.  Inconclusive paths are counted
    separately, never silently dropped.
    """
    m = len(w)
    if m == 0:
        raise ValueError("cylinders are indexed by nonempty reduced words")
    w_arr = np.array(w.letters, dtype=np.int16)
    conclusive = 0
    agree = 0
    for child, size in _chunk_seeds(seed, n_paths):
        rng = np.random.default_rng(child)
        prefix, lengths, stable = _simulate_chunk(k, n_steps, size, rng, m, margin)
        h_vals = _poisson_values(k, w_arr, prefix, lengths)
        indicator = (stable & (prefix == w_arr).all(axis=1)).astype(float)
        close = np.abs(h_vals - indicator) < threshold
        conclusive += int(stable.sum())
        agree += int((stable & close).sum())
    return MartingaleReport(
        n_paths=n_paths,
        n_steps=n_steps,
        conclusive_fraction=conclusive / n_paths,
        agreement_fraction=agree / conclusive if conclusive else 0.0,
        inconclusive_count=n_paths - conclusive,
        threshold=threshold,
        seed=seed,
    )


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


@operation
def diamond_vs_pointwise_mc(
    k: int, w: FreeWord, n_steps: int, n_paths: int, seed: int
) -> DiamondReport:
    """Estimate the averaged square of the Poisson extension at the origin.

    The averaged products converge to the boundary product: since the
    boundary function is an indicator, the limit is nu([w]) itself, far from
    the pointwise value h(e)^2 -- the free group separates the two products.
    """
    m = len(w)
    w_arr = np.array(w.letters, dtype=np.int16)
    total = 0.0
    total_sq = 0.0
    h_e = poisson_extension(k, w, empty_word(k))
    if n_steps == 0:
        est = h_e * h_e
        return DiamondReport(est, 0.0, harmonic_measure_cylinder(k, w), h_e * h_e,
                             n_paths, 0, seed)
    for child, size in _chunk_seeds(seed, n_paths):
        rng = np.random.default_rng(child)
        prefix, lengths, _ = _simulate_chunk(k, n_steps, size, rng, m)
        h_vals = _poisson_values(k, w_arr, prefix, lengths)
        sq = h_vals * h_vals
        total += float(sq.sum())
        total_sq += float((sq * sq).sum())
    est = total / n_paths
    var = max(total_sq / n_paths - est * est, 0.0)
    return DiamondReport(
        estimate=est,
        stderr=float(np.sqrt(var / n_paths)),
        boundary_value=harmonic_measure_cylinder(k, w),
        pointwise_value=h_e * h_e,
        n_paths=n_paths,
        n_steps=n_steps,
        seed=seed,
    )


def mean_endpoint_length(k: int, n_steps: int, n_paths: int, seed: int) -> float:
    """Monte Carlo mean of |X_n| for the simple walk; drift is (2k-2)/(2k)."""
    total = 0
    for child, size in _chunk_seeds(seed, n_paths):
        rng = np.random.default_rng(child)
        _, lengths, _ = _simulate_chunk(k, n_steps, size, rng, 0)
        total += int(lengths.sum())
    return total / n_paths


# ------------------------------------------------------------ stationary measures

@dataclass(frozen=True)
class StationaryReport:
    """A fixed probability of the induced chain, found by two independent routes."""

    measure: FiniteMeasure
    eigen_measure: FiniteMeasure | None
    residual_power: float
    residual_eigen: float | None
    fixed_dim: int
    agreement: float | None
    converged: bool
    n_iterations: int

    def to_json(self) -> dict:
        return {
            "weights": [float(x.real) for x in self.measure.weights],
            "residual_power": self.residual_power,
            "residual_eigen": self.residual_eigen,
            "fixed_dim": self.fixed_dim,
            "agreement": self.agreement,
            "converged": self.converged,
            "n_iterations": self.n_iterations,
        }


@operation
def stationary_measure(
    action: GSpaceAction,
    mu: FiniteMeasure,
    tol: float = 1e-12,
    max_iter: int = 100_000,
) -> StationaryReport:
    """Probability sigma with sigma P = sigma for the induced chain on the points.

    Two routes: the eigen-solve of P^T at eigenvalue 1, and push-forward
    power iteration from the uniform distribution.  With a one-dimensional
    fixed space both are returned and must agree; otherwise the
    power-iteration limit is returned and the fixed dimension reported.
    """
    p = gspace_markov_matrix(action, mu).entries.real
    m = action.points
    carrier = ZWindow(0, m - 1)

    fixed = kernel(p.T - np.eye(m))
    fixed_dim = fixed.rank

    sigma = np.full(m, 1.0 / m)
    converged = False
    n_used = 0
    for n in range(1, max_iter + 1):
        nxt = sigma @ p
        n_used = n
        if float(np.abs(nxt - sigma).sum()) < tol:
            sigma = nxt
            converged = True
            break
        sigma = nxt
    sigma = np.maximum(sigma, 0.0)
    sigma = sigma / sigma.sum()
    residual_power = float(np.abs(sigma @ p - sigma).sum())
    power_measure = FiniteMeasure(carrier, sigma.astype(np.complex128))

    eigen_measure = None
    residual_eigen = None
    agreement = None
    if fixed_dim == 1:
        v = fixed.basis[0]
        # rotate the phase away, then clip roundoff negatives
        pivot = v[np.argmax(np.abs(v))]
        v = (v / (pivot / abs(pivot))).real
        if v.sum() < 0:
            v = -v
        v = np.maximum(v, 0.0)
        v = v / v.sum()
        residual_eigen = float(np.abs(v @ p - v).sum())
        eigen_measure = FiniteMeasure(carrier, v.astype(np.complex128))
        agreement = float(np.abs(v - sigma).sum())
    return StationaryReport(
        measure=power_measure,
        eigen_measure=eigen_measure,
        residual_power=residual_power,
        residual_eigen=residual_eigen,
        fixed_dim=fixed_dim,
        agreement=agreement,
        converged=converged,
        n_iterations=n_used,
    )


# ------------------------------------------------------------- subharmonicity

@dataclass(frozen=True)
class SubharmonicReport:
    max_violation: float
    n_checked: int

    @property
    def holds(self) -> bool:
        return self.max_violation <= 1e-12


@operation
def subharmonic_check(h: np.ndarray, g: FiniteGroup, mu: FiniteMeasure) -> SubharmonicReport:
    """Verify h(x) <= sum_t h(x t) mu(t) at every group element."""
    from .operators import right_markov_matrix

    h = np.asarray(h, dtype=float)
    averaged = (right_markov_matrix(g, mu).entries.real @ h).real
    return SubharmonicReport(float((h - averaged).max()), g.order)


def subharmonic_check_free(h_fn, k: int, samples) -> SubharmonicReport:
    """Same inequality for the simple walk on a free group, over sample words."""
    worst = -np.inf
    count = 0
    for g in samples:
        avg = sum(h_fn(nb) for nb in neighbors(g)) / (2 * k)
        worst = max(worst, h_fn(g) - avg)
        count += 1
    return SubharmonicReport(float(worst), count)
