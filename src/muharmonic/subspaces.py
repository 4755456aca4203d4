"""Numerically rank-revealed subspaces of C^n.

A Subspace stores an orthonormal row basis obtained from an SVD with a
relative singular-value cutoff; rank decisions therefore stay robust under
the roundoff of stochastic-matrix arithmetic.
"""

from __future__ import annotations

import csv
from dataclasses import dataclass

import numpy as np

DEFAULT_REL_TOL = 1e-10


@dataclass(frozen=True, eq=False)
class Subspace:
    ambient_dim: int
    basis: np.ndarray  # (rank, ambient_dim), orthonormal rows
    tol: float

    def __post_init__(self):
        self.basis.setflags(write=False)

    @property
    def rank(self) -> int:
        return self.basis.shape[0]

    def project(self, v: np.ndarray) -> np.ndarray:
        """Orthogonal projection onto the subspace."""
        if self.rank == 0:
            return np.zeros_like(np.asarray(v, dtype=np.complex128))
        b = self.basis
        return b.T @ (b.conj() @ np.asarray(v, dtype=np.complex128))

    def residual(self, v: np.ndarray) -> float:
        """Distance from v to the subspace."""
        v = np.asarray(v, dtype=np.complex128)
        return float(np.linalg.norm(v - self.project(v)))

    def contains(self, v: np.ndarray, tol: float = 1e-9) -> bool:
        return self.residual(v) <= tol * max(1.0, float(np.linalg.norm(v)))

    def __repr__(self):
        return f"Subspace(rank={self.rank}, ambient={self.ambient_dim})"


def _cutoff(singular_values: np.ndarray, rel_tol: float) -> float:
    # relative to the largest singular value, floored at rel_tol itself:
    # the operators here are unit-scale (stochastic matrices, permutation
    # representations, and their differences), so a sigma_max at roundoff
    # level means the matrix is genuinely zero
    if singular_values.size == 0:
        return rel_tol
    return rel_tol * max(float(singular_values[0]), 1.0)


def span_of_rows(rows: np.ndarray, rel_tol: float = DEFAULT_REL_TOL) -> Subspace:
    """Orthonormalized span of the given row vectors."""
    rows = np.atleast_2d(np.asarray(rows, dtype=np.complex128))
    ambient = rows.shape[1]
    if rows.shape[0] == 0 or not np.any(rows):
        return Subspace(ambient, np.zeros((0, ambient), dtype=np.complex128), rel_tol)
    u, s, vh = np.linalg.svd(rows, full_matrices=False)
    r = int(np.sum(s > _cutoff(s, rel_tol)))
    return Subspace(ambient, vh[:r].copy(), rel_tol)


def kernel(a: np.ndarray, rel_tol: float = DEFAULT_REL_TOL) -> Subspace:
    """Null space {v : a v = 0} via SVD with relative cutoff."""
    a = np.asarray(a, dtype=np.complex128)
    m, n = a.shape
    # a tall matrix already yields all n right singular vectors in thin form;
    # only wide matrices need the full V to expose the nullspace
    _, s, vh = np.linalg.svd(a, full_matrices=m < n)
    cut = _cutoff(s, rel_tol)
    r = int(np.sum(s > cut))
    # rows of vh beyond the rank are conjugated basis vectors of the kernel
    return Subspace(n, vh[r:].conj().copy(), rel_tol)


def column_space(a: np.ndarray, rel_tol: float = DEFAULT_REL_TOL) -> Subspace:
    """Range of the matrix (its column span), stored as orthonormal rows."""
    a = np.asarray(a, dtype=np.complex128)
    u, s, vh = np.linalg.svd(a, full_matrices=False)
    r = int(np.sum(s > _cutoff(s, rel_tol)))
    return Subspace(a.shape[0], u[:, :r].T.copy(), rel_tol)


def mutual_residual(a: Subspace, b: Subspace) -> float:
    """Max distance of either basis from the other span; 0 iff equal spaces."""
    worst = 0.0
    for v in a.basis:
        worst = max(worst, b.residual(v))
    for v in b.basis:
        worst = max(worst, a.residual(v))
    return worst


def subspaces_equal(a: Subspace, b: Subspace, tol: float = 1e-9) -> bool:
    """Equality = rank match plus mutual-containment residual below tol."""
    return a.rank == b.rank and mutual_residual(a, b) <= tol


def subspace_to_csv(space: Subspace, path) -> None:
    with open(path, "w", newline="") as fh:
        writer = csv.writer(fh)
        writer.writerow([f"c{j}" for j in range(space.ambient_dim)])
        for row in space.basis:
            writer.writerow([f"{z.real:.17g}{z.imag:+.17g}j" for z in row])
