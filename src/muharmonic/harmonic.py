"""Fixed spaces of averaging operators and the norm-1 projection onto them.

By Choquet-Deny on a finite group, the harmonic functions are constant on
the left cosets of H = <supp mu>, and the Cesaro limit K of the averages
(1/n) sum_{i<=n} M^i is the Haar average M(omega_H): the diamond product
K(h1 h2) takes coset means and factors nothing.  The generic K, the
projection onto ker(I - M) along range(I - M), stays as the oracle: one SVD
of I - M gives both bases, and K takes one k x k solve, k the dimension of
the fixed space.  The averages converge only at O(1/n) (periodic chains
oscillate), so the report carries the average at a chosen n and its
distance from K: avg_n - K = (1/n) N (I - N^n) (I - N)^{-1}, N = M - K.
Real data (every probability measure) runs in float64, as `subspaces._svd`
does; the results are complex128 either way.

The subgroup-invariant spaces are closed form too: the functions fixed by
H are the left-coset indicators, and the matrices commuting with rho(H) are
the indicators of the H-orbits (x, y) -> (x s, y s) on G x G.
"""

from __future__ import annotations

from dataclasses import asdict, dataclass, fields

import numpy as np

from ._ops import operation
from .groups import (FiniteGroup, Subgroup, _positive_integer, generated_subgroup, left_cosets,
                     orbit_labels)
from .ideals import haar_average
from .measures import FiniteMeasure, _measure_on, _measure_on_window
from .operators import right_markov_matrix
from .subspaces import Subspace, _rank, _svd, kernel, kernel_and_range, mutual_residual

# the Frobenius gap below which cesaro_projection calls the averages converged
_CONVERGED_GAP = 1e-10


@operation
def harmonic_space(m: np.ndarray) -> Subspace:
    """Kernel of (M - I): the space of vectors fixed by the averaging matrix."""
    a = np.asarray(m, dtype=np.complex128)
    return kernel(a - np.eye(a.shape[0]))


@operation
def trivial_solution_space(g: FiniteGroup, h: Subgroup, rep: str = "functions") -> Subspace:
    """Vectors fixed by every element of the subgroup.

    functions: span of the indicator functions of the left cosets gH.
    operators: commutant of {rho(x) : x in H} inside the matrix space,
    vectorized row-major.  Both are spanned by the indicators of the
    H-orbits that `orbit_labels` numbers.
    """
    return _indicator_space(orbit_labels(g, h, rep))


def _indicator_space(labels: np.ndarray) -> Subspace:
    """Span of the block indicators of a partition of the coordinates.

    labels[j] is the block of coordinate j, blocks numbered 0..count-1; the
    normalized indicators are disjointly supported, hence orthonormal.
    """
    sizes = np.bincount(labels)
    rows = np.zeros((sizes.size, labels.size), dtype=np.complex128)
    rows[labels, np.arange(labels.size)] = 1.0 / np.sqrt(sizes[labels])
    return Subspace(labels.size, rows)


@operation
def commutant(mats) -> Subspace:
    """Solutions X of AX - XA = 0 for every A, as a subspace of vec'd matrices.

    The stacked Sylvester system uses row-major vec, where
    vec(AX - XA) = (kron(A, I) - kron(I, A.T)) vec(X).
    """
    mats = [np.asarray(a, dtype=np.complex128) for a in mats]
    if not mats:
        raise ValueError("commutant needs at least one matrix")
    n = mats[0].shape[0]
    for a in mats:
        if a.shape != (n, n):
            raise ValueError("all matrices must share the same square shape")
    eye = np.eye(n)
    blocks = [np.kron(a, eye) - np.kron(eye, a.T) for a in mats]
    return kernel(np.vstack(blocks))


def cesaro_limit(m: np.ndarray) -> np.ndarray:
    """Exact limit of (1/n) sum_{i=1..n} M^i for a power-bounded matrix.

    This is the projection onto ker(I - M) along range(I - M); for such M the
    two spaces are complementary (the eigenvalue 1 is semisimple).  Where they
    are not, there is no such projection and the result is NaN.
    """
    return _fixed_space_and_limit(m)[1]


def _fixed_space_and_limit(m: np.ndarray) -> tuple[Subspace, np.ndarray]:
    """ker(I - M) and the Cesaro limit K, from one factorization of I - M.

    With N the n x k matrix of the kernel's orthonormal basis and R that of
    the range's, PN = N - R (R^H N) is the part of N orthogonal to the range,
    and K = N (N^H PN)^{-1} (PN)^H fixes N and sends R to 0: one k x k solve,
    k the dimension of the fixed space.  Real factors (M real) run in float64;
    K is complex128 either way.  If the two spaces do not split the space
    (their ranks do not add up to n, or they meet and N^H PN is singular)
    there is no such projection: K is then NaN, which the checks on K read
    as a failure.
    """
    a = np.asarray(m, dtype=np.complex128)
    n = a.shape[0]
    fixed, moving = kernel_and_range(np.eye(n) - a)
    k = np.full((n, n), np.nan, dtype=np.complex128)
    if fixed.rank + moving.rank == n:
        ker, rng = fixed.basis.T, moving.basis.T
        if not (np.any(ker.imag) or np.any(rng.imag)):
            ker, rng = ker.real, rng.real
        orth = ker - rng @ (rng.conj().T @ ker)
        try:
            k[:] = ker @ np.linalg.solve(ker.conj().T @ orth, orth.conj().T)
        except np.linalg.LinAlgError:
            pass
    return fixed, k


def cesaro_mean(m: np.ndarray, n: int, k: np.ndarray | None = None) -> np.ndarray:
    """The average (1/n) sum_{i=1..n} M^i of a power-bounded matrix, in closed form.

    With K the Cesaro limit (pass it as k when it is already known) and
    N = M - K, M^i - K = N^i for i >= 1, so the average is
    K + (1/n) N (I - N^n) (I - N)^{-1}; I - N is invertible because K
    removes the eigenvalue 1.  A k that does not remove it may leave I - N
    singular, and the solve then raises LinAlgError.  Real M and K run in
    float64; the result is complex128.
    """
    n = _positive_integer(n, "n")
    a = np.asarray(m, dtype=np.complex128)
    if k is None:
        k = cesaro_limit(a)
    if not (np.any(a.imag) or np.any(np.imag(k))):
        a, k = a.real, np.real(k)
    eye = np.eye(a.shape[0])
    transient = a - k
    tail = transient @ (eye - np.linalg.matrix_power(transient, n))
    return (k + np.linalg.solve(eye - transient, tail) / n).astype(np.complex128, copy=False)


@dataclass(frozen=True)
class ProjectionReport:
    """The projection K, the average A_n at n = n_iterations, and their residuals."""

    K: np.ndarray
    average: np.ndarray
    idempotency_residual: float
    norm_inf: float
    range_rank: int
    converged_iteratively: bool
    n_iterations: int
    iterative_gap: float

    def to_json(self) -> dict:
        return {f.name: getattr(self, f.name) for f in fields(self)
                if f.name not in ("K", "average")}


@operation
def cesaro_projection(m: np.ndarray, n_max: int) -> ProjectionReport:
    """Projection onto the fixed space of a stochastic matrix, with residuals.

    K is the exact Cesaro limit (see cesaro_limit), and `average` is
    A_n = (1/n) sum_{i<=n} M^i at n = n_max (see cesaro_mean), from the same K.
    The report gives the Frobenius gap ||A_n - K||_F; n_iterations is that n,
    and converged_iteratively says whether the gap is below 1e-10 (periodic
    chains converge only along some n).  It also carries ||K^2 - K||_F, the
    max absolute row sum of K and range_rank, the rank of ker(I - M), which
    is the range of K: K and that rank come from one factorization of I - M.
    """
    n_max = _positive_integer(n_max, "n_max")
    fixed, k = _fixed_space_and_limit(m)
    try:
        average = cesaro_mean(m, n_max, k)
    except np.linalg.LinAlgError:
        # I - (M - K) is singular: K leaves the eigenvalue 1 of M, so it is
        # not the Cesaro limit, and the closed form has no average to give
        average = np.full(k.shape, np.nan, dtype=np.complex128)
    gap = float(np.linalg.norm(average - k))
    return ProjectionReport(
        K=k,
        average=average,
        idempotency_residual=float(np.linalg.norm(k @ k - k)),
        norm_inf=float(np.abs(k).sum(axis=1).max()),
        range_rank=fixed.rank,
        converged_iteratively=gap < _CONVERGED_GAP,
        n_iterations=n_max,
        iterative_gap=gap,
    )


@operation
def diamond_product(h1: np.ndarray, h2: np.ndarray, g: FiniteGroup,
                    mu: FiniteMeasure) -> np.ndarray:
    """Limit of the averaged pointwise products of two vectors: K(h1 h2).

    K, the Cesaro limit of M(mu)^n for a probability mu, is the Haar average
    of H = <supp mu>, so this is the mean of h1 h2 over each left coset xH.
    For harmonic h1 and h2 (coset-constant) it is h1*h2, which the verdict
    tests.  Whether they are harmonic is not checked: for a vector that is
    not, the product differs from h1*h2, which is what criterion 1 compares.
    """
    _measure_on(g, mu, "mu", probability=True)
    prod = np.asarray(h1) * np.asarray(h2)
    if prod.shape != (g.order,):
        raise ValueError(f"h1 * h2: expected a vector of length {g.order}, got shape {prod.shape}")
    return haar_average(prod, orbit_labels(g, generated_subgroup(g, mu.support())))


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
        return asdict(self) | {"consistent": self.consistent}


@operation
def harmonic_triviality_verdict(
    g: FiniteGroup, mu: FiniteMeasure
) -> TrivialityVerdict:
    """Check that harmonic = trivial and that the diamond product is pointwise.

    Both conditions hold on every finite group; the verdict reports whether
    the two checks agree (`consistent`) and does not assert it.
    Both halves stay generic, as oracles for the closed forms: ker(I - M) and
    the K of its diamond products come from one factorization of I - M.
    """
    space, k = _fixed_space_and_limit(right_markov_matrix(g, mu))
    h_mu = generated_subgroup(g, mu.support())
    trivial = trivial_solution_space(g, h_mu, rep="functions")
    sub_res = mutual_residual(space, trivial)
    equal = space.rank == trivial.rank and sub_res <= 1e-9

    prods = [space.basis[i] * space.basis[j]
             for i in range(space.rank) for j in range(i, space.rank)]
    # numpy's max keeps a NaN (a K that does not exist), where max() would drop it
    worst = float(np.max([np.abs(k @ p - p).max() for p in prods], initial=0.0))
    diamond_ok = worst <= 1e-9

    return TrivialityVerdict(
        diamond_matches_pointwise=diamond_ok,
        diamond_residual=worst,
        harmonic_equals_trivial=equal,
        subspace_residual=sub_res,
        harmonic_rank=space.rank,
        trivial_rank=trivial.rank,
        coset_count=len(left_cosets(g, h_mu).blocks),
    )


@dataclass(frozen=True)
class L1TrivialityReport:
    """Kernel rank of the truncated predual operator on a lattice window."""

    window: int
    kernel_rank: int
    degenerate: bool
    smallest_singular_value: float


@operation
def l1_harmonic_triviality(mu: FiniteMeasure, window: int) -> L1TrivialityReport:
    """Certify ker(I - T_L) = {0} for right convolution truncated to [-L, L].

    T_L is strictly substochastic at the window edges whenever the support
    of mu generates more than {0}, so the kernel is trivial.  A point mass
    at 0 is the degenerate excluded case: T_L = I and the kernel is the
    whole window space, flagged rather than certified.
    """
    _measure_on_window(mu, "mu")
    window = _positive_integer(window, "window", 0)
    pts = np.arange(-window, window + 1)
    # T_L[i, j] = mu(pts[i] - pts[j]), zero off the support window
    offset = pts[:, None] - pts[None, :] - mu.carrier.lo
    inside = (offset >= 0) & (offset < mu.carrier.size)
    t = np.where(inside, mu.weights[np.clip(offset, 0, mu.carrier.size - 1)], 0.0)
    # one factorization gives the kernel rank and the smallest singular value
    _, svals, _ = _svd(np.eye(pts.size) - t, full_matrices=False)
    return L1TrivialityReport(
        window=window,
        kernel_rank=pts.size - _rank(svals),
        degenerate=mu.support() == [0],
        smallest_singular_value=float(svals[-1]),
    )
