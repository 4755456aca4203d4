"""Fixed spaces of averaging operators and the norm-1 projection onto them.

The Cesaro projection K returned here is the exact limit of the averages
(1/n) sum_{i<=n} M^i, computed algebraically as the spectral projection onto
ker(I - M) along range(I - M).  The averages themselves converge only at
O(1/n) (periodic chains oscillate), so the report carries their distance
from K at a chosen n as a diagnostic, in the closed form
avg_n - K = (1/n) N (I - N^n) (I - N)^{-1} with N = M - K.

The subgroup-invariant spaces are closed form too: the functions fixed by
H are the left-coset indicators, and the matrices commuting with rho(H) are
the indicators of the H-orbits (x, y) -> (x s, y s) on G x G.
"""

from __future__ import annotations

from dataclasses import dataclass, field

import numpy as np

from .groups import FiniteGroup, Subgroup, generated_subgroup, left_cosets
from .measures import FiniteMeasure
from .operators import OperatorMatrix, as_matrix, right_markov_matrix
from .subspaces import (
    DEFAULT_REL_TOL,
    Subspace,
    column_space,
    kernel,
    kernel_and_range,
    span_of_rows,
)


def harmonic_space(m: OperatorMatrix | np.ndarray, rel_tol: float = DEFAULT_REL_TOL) -> Subspace:
    """Kernel of (M - I): the space of vectors fixed by the averaging matrix."""
    a = as_matrix(m)
    return kernel(a - np.eye(a.shape[0]), rel_tol)


def trivial_solution_space(g: FiniteGroup, h: Subgroup, rep: str = "functions") -> Subspace:
    """Vectors fixed by every element of the subgroup.

    functions: span of the indicator functions of the left cosets gH.
    operators: commutant of {rho(x) : x in H} inside the matrix space,
    vectorized row-major.  Both are spanned by the indicators of the
    H-orbits that `orbit_labels` numbers.
    """
    return _indicator_space(orbit_labels(g, h, rep))


def orbit_labels(g: FiniteGroup, h: Subgroup, rep: str = "functions") -> np.ndarray:
    """Number the H-orbits of the coordinates, by their smallest coordinate.

    functions: x -> x s on G, whose orbits are the left cosets xH.
    operators: rho(s) X rho(s)^{-1} moves X[x, y] to X[x s, y s], so the
    orbits are those of (x, y) -> (x s, y s) on G x G, row-major.
    Every orbit has |H| coordinates, because right multiplication is free.
    """
    right = g.cayley[:, list(h.members)]  # right[x, k] = x s_k
    if rep == "functions":
        images = right
    elif rep == "operators":
        images = right[:, None, :] * g.order + right[None, :, :]
    else:
        raise ValueError(f"rep must be 'functions' or 'operators', got {rep!r}")
    _, labels = np.unique(images.min(axis=-1).ravel(), return_inverse=True)
    return labels


def _indicator_space(labels: np.ndarray) -> Subspace:
    """Span of the block indicators of a partition of the coordinates.

    labels[j] is the block of coordinate j, blocks numbered 0..count-1; the
    normalized indicators are disjointly supported, hence orthonormal.
    """
    sizes = np.bincount(labels)
    rows = np.zeros((sizes.size, labels.size), dtype=np.complex128)
    rows[labels, np.arange(labels.size)] = 1.0 / np.sqrt(sizes[labels])
    return Subspace(labels.size, rows, DEFAULT_REL_TOL)


def commutant(mats, *, dim: int | None = None, rel_tol: float = DEFAULT_REL_TOL) -> Subspace:
    """Solutions X of AX - XA = 0 for every A, as a subspace of vec'd matrices.

    The stacked Sylvester system uses row-major vec, where
    vec(AX - XA) = (kron(A, I) - kron(I, A.T)) vec(X).
    """
    mats = [as_matrix(a) for a in mats]
    if not mats:
        if dim is None:
            raise ValueError("empty matrix list needs an explicit dim")
        return span_of_rows(np.eye(dim * dim, dtype=np.complex128))
    n = mats[0].shape[0]
    for a in mats:
        if a.shape != (n, n):
            raise ValueError("all matrices must share the same square shape")
    eye = np.eye(n)
    blocks = [np.kron(a, eye) - np.kron(eye, a.T) for a in mats]
    return kernel(np.vstack(blocks), rel_tol)


def cesaro_limit(m: OperatorMatrix | np.ndarray, rel_tol: float = DEFAULT_REL_TOL) -> np.ndarray:
    """Exact limit of (1/n) sum_{i=1..n} M^i for a power-bounded matrix.

    This is the projection onto ker(I - M) along range(I - M); for such M the
    two spaces are complementary (the eigenvalue 1 is semisimple).
    """
    a = as_matrix(m)
    n = a.shape[0]
    shifted = np.eye(n) - a
    fixed, moving = kernel_and_range(shifted, rel_tol)
    if fixed.rank + moving.rank != n:
        raise ValueError(
            "ker(I - M) and range(I - M) do not split the space; "
            "is M power-bounded?"
        )
    basis = np.hstack([fixed.basis.T, moving.basis.T])
    coeffs = np.linalg.solve(basis, np.eye(n, dtype=np.complex128))
    return basis[:, : fixed.rank] @ coeffs[: fixed.rank, :]


def cesaro_mean(m: OperatorMatrix | np.ndarray, n: int,
                k: np.ndarray | None = None) -> np.ndarray:
    """The average (1/n) sum_{i=1..n} M^i of a power-bounded matrix, in closed form.

    With K the Cesaro limit (pass it as k when it is already known) and
    N = M - K, M^i - K = N^i for i >= 1, so the average is
    K + (1/n) N (I - N^n) (I - N)^{-1}; I - N is invertible because K
    removes the eigenvalue 1.
    """
    if n < 1:
        raise ValueError(f"n must be positive, got {n}")
    a = as_matrix(m)
    if k is None:
        k = cesaro_limit(a)
    eye = np.eye(a.shape[0])
    transient = a - k
    tail = transient @ (eye - np.linalg.matrix_power(transient, n))
    return k + np.linalg.solve(eye - transient, tail) / n


@dataclass(frozen=True)
class ProjectionReport:
    """The projection K with its quality residuals and iteration diagnostics."""

    K: OperatorMatrix
    idempotency_residual: float
    norm_inf: float
    commutation_residuals: dict[str, float] = field(default_factory=dict)
    range_rank: int = 0
    converged_iteratively: bool = False
    n_iterations: int = 0
    iterative_gap: float = 0.0

    def __post_init__(self):
        if self.idempotency_residual < 0 or self.norm_inf < 0 or self.iterative_gap < 0:
            raise ValueError("residual fields must be nonnegative")
        for name, r in self.commutation_residuals.items():
            if r < 0:
                raise ValueError(f"negative residual for {name}")

    def to_json(self) -> dict:
        return {
            "idempotency_residual": self.idempotency_residual,
            "norm_inf": self.norm_inf,
            "commutation_residuals": dict(self.commutation_residuals),
            "range_rank": self.range_rank,
            "converged_iteratively": self.converged_iteratively,
            "n_iterations": self.n_iterations,
            "iterative_gap": self.iterative_gap,
        }


def cesaro_projection(
    m: OperatorMatrix | np.ndarray,
    n_max: int = 10_000,
    tol: float = 1e-10,
    commute_with: dict[str, np.ndarray] | None = None,
) -> ProjectionReport:
    """Projection onto the fixed space of a stochastic matrix, with residuals.

    K is the exact Cesaro limit (see cesaro_limit).  As a diagnostic, the
    report gives the Frobenius gap between K and the average
    avg_n = (1/n) sum_{i<=n} M^i at n = n_max (see cesaro_mean).  n_iterations is that
    n, and converged_iteratively says whether the gap is below tol; periodic
    chains converge only along some n.  The report also carries
    ||K^2 - K||_F, the max absolute row sum, and commutation residuals
    against any supplied named operators.
    """
    if n_max < 1:
        raise ValueError(f"n_max must be positive, got {n_max}")
    a = as_matrix(m)
    k = cesaro_limit(a)

    gap = float(np.linalg.norm(cesaro_mean(a, n_max, k) - k))

    commutation = {}
    for name, t in (commute_with or {}).items():
        t = as_matrix(t)
        commutation[name] = float(np.linalg.norm(k @ t - t @ k))

    k_op = OperatorMatrix(k)
    return ProjectionReport(
        K=OperatorMatrix(k, stochastic=k_op.check_stochastic()),
        idempotency_residual=float(np.linalg.norm(k @ k - k)),
        norm_inf=float(np.abs(k).sum(axis=1).max()),
        commutation_residuals=commutation,
        range_rank=column_space(k).rank,
        converged_iteratively=gap < tol,
        n_iterations=n_max,
        iterative_gap=gap,
    )


def diamond_product(
    h1: np.ndarray,
    h2: np.ndarray,
    g: FiniteGroup,
    mu: FiniteMeasure,
    harmonic_tol: float = 1e-9,
) -> np.ndarray:
    """Limit of the averaged pointwise products of two harmonic vectors.

    Computed as K(h1 h2).  On a finite group the pointwise product of
    harmonic vectors is again harmonic, so the result coincides with h1*h2;
    the triviality verdict tests exactly that coincidence.
    """
    m = right_markov_matrix(g, mu).entries
    h1 = np.asarray(h1, dtype=np.complex128)
    h2 = np.asarray(h2, dtype=np.complex128)
    for tag, h in (("h1", h1), ("h2", h2)):
        res = float(np.abs(m @ h - h).max())
        if res > harmonic_tol * max(1.0, float(np.abs(h).max())):
            raise ValueError(f"{tag} is not harmonic: residual {res:.3e}")
    return cesaro_limit(m) @ (h1 * h2)


@dataclass(frozen=True)
class TrivialityVerdict:
    """Two equivalent triviality checks and their agreement."""

    diamond_matches_pointwise: bool
    diamond_residual: float
    harmonic_equals_trivial: bool
    subspace_residual: float
    harmonic_rank: int
    trivial_rank: int
    coset_count: int

    @property
    def consistent(self) -> bool:
        return self.diamond_matches_pointwise == self.harmonic_equals_trivial

    def to_json(self) -> dict:
        return {
            "diamond_matches_pointwise": self.diamond_matches_pointwise,
            "diamond_residual": self.diamond_residual,
            "harmonic_equals_trivial": self.harmonic_equals_trivial,
            "subspace_residual": self.subspace_residual,
            "harmonic_rank": self.harmonic_rank,
            "trivial_rank": self.trivial_rank,
            "coset_count": self.coset_count,
            "consistent": self.consistent,
        }


def harmonic_triviality_verdict(
    g: FiniteGroup, mu: FiniteMeasure, tol: float = 1e-9
) -> TrivialityVerdict:
    """Check that harmonic = trivial and that the diamond product is pointwise.

    Both conditions hold on every finite group; they are computed
    independently and their agreement is asserted.
    """
    m = right_markov_matrix(g, mu)
    space = harmonic_space(m)
    h_mu = generated_subgroup(g, mu.support())
    trivial = trivial_solution_space(g, h_mu, rep="functions")

    from .subspaces import mutual_residual

    sub_res = mutual_residual(space, trivial)
    equal = space.rank == trivial.rank and sub_res <= tol

    k = cesaro_limit(m)
    worst = 0.0
    for i in range(space.rank):
        for j in range(i, space.rank):
            prod = space.basis[i] * space.basis[j]
            worst = max(worst, float(np.abs(k @ prod - prod).max()))
    diamond_ok = worst <= tol

    verdict = TrivialityVerdict(
        diamond_matches_pointwise=diamond_ok,
        diamond_residual=worst,
        harmonic_equals_trivial=equal,
        subspace_residual=sub_res,
        harmonic_rank=space.rank,
        trivial_rank=trivial.rank,
        coset_count=len(left_cosets(g, h_mu).blocks),
    )
    if not verdict.consistent:
        raise RuntimeError(f"triviality checks disagree: {verdict.to_json()}")
    return verdict


@dataclass(frozen=True)
class L1TrivialityReport:
    """Kernel rank of the truncated predual operator on a lattice window."""

    window: int
    kernel_rank: int
    degenerate: bool
    smallest_singular_value: float

    def to_json(self) -> dict:
        return {
            "window": self.window,
            "kernel_rank": self.kernel_rank,
            "degenerate": self.degenerate,
            "smallest_singular_value": self.smallest_singular_value,
        }


def l1_harmonic_triviality(mu: FiniteMeasure, window: int) -> L1TrivialityReport:
    """Certify ker(I - T_L) = {0} for right convolution truncated to [-L, L].

    T_L is strictly substochastic at the window edges whenever the support
    of mu generates more than {0}, so the kernel is trivial.  A point mass
    at 0 is the degenerate excluded case: T_L = I and the kernel is the
    whole window space, flagged rather than certified.
    """
    if mu.on_group:
        raise ValueError("l1_harmonic_triviality expects a measure on a Z window")
    size = 2 * window + 1
    pts = np.arange(-window, window + 1)
    t = np.zeros((size, size), dtype=np.complex128)
    lo = mu.carrier.lo
    for i, gpt in enumerate(pts):
        for j, src in enumerate(pts):
            d = gpt - src
            if mu.carrier.lo <= d <= mu.carrier.hi:
                t[i, j] = mu.weights[d - lo]
    shifted = np.eye(size) - t
    ker = kernel(shifted)
    svals = np.linalg.svd(shifted, compute_uv=False)
    return L1TrivialityReport(
        window=window,
        kernel_rank=ker.rank,
        degenerate=mu.support() == [0],
        smallest_singular_value=float(svals[-1]),
    )
