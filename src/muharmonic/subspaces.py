"""Numerically rank-revealed subspaces of C^n.

A Subspace stores an orthonormal row basis obtained from an SVD with a
relative singular-value cutoff; rank decisions therefore stay robust under
the roundoff of stochastic-matrix arithmetic.

Every factorization goes through one SVD: data whose imaginary part is
exactly zero (the catalog's measures and their operators) is factorized in
real arithmetic, at about half the cost, and the factors are returned as
complex128; complex data keeps the complex SVD.  `kernel_and_range` takes
the kernel and the range of a square matrix from a single factorization.

Kernels and ranges factorize a matrix block by block: the columns that
share a nonzero row form one block, with the rows they touch, and each
block gets its own SVD.  The rank cutoff stays global, relative to the
largest singular value of any block, so the result is that of the whole
matrix; a matrix whose nonzero pattern is one block with no zero row is
factorized whole, bit for bit as before.  The blocks are read from the
entries alone: an averaging operator of a measure whose support generates
a proper subgroup splits into one block per orbit, and nothing here is
told so.
"""

from __future__ import annotations

from dataclasses import dataclass

import numpy as np

DEFAULT_REL_TOL = 1e-10


@dataclass(frozen=True, eq=False)
class Subspace:
    ambient_dim: int
    basis: np.ndarray  # (rank, ambient_dim), orthonormal rows

    def __post_init__(self):
        self.basis.setflags(write=False)

    @property
    def rank(self) -> int:
        return self.basis.shape[0]

    def project(self, v: np.ndarray) -> np.ndarray:
        """Orthogonal projection onto the subspace."""
        b = self.basis
        return b.T @ (b.conj() @ np.asarray(v, dtype=np.complex128))

    def residual(self, v: np.ndarray) -> float:
        """Distance from v to the subspace."""
        v = np.asarray(v, dtype=np.complex128)
        return float(np.linalg.norm(v - self.project(v)))

    def contains(self, v: np.ndarray) -> bool:
        return self.residual(v) <= 1e-9 * max(1.0, float(np.linalg.norm(v)))

    def __repr__(self):
        return f"Subspace(rank={self.rank}, ambient={self.ambient_dim})"


def _cutoff(sigma_max: float) -> float:
    # relative to the largest singular value, floored at DEFAULT_REL_TOL itself:
    # the operators here are unit-scale (stochastic matrices, permutation
    # representations, and their differences), so a sigma_max at roundoff
    # level means the matrix is genuinely zero
    return DEFAULT_REL_TOL * max(sigma_max, 1.0)


def _svd(a: np.ndarray, full_matrices: bool) -> tuple[np.ndarray, np.ndarray, np.ndarray]:
    """SVD of a complex128 matrix, in real arithmetic when its imaginary part is 0."""
    if np.any(a.imag):
        return np.linalg.svd(a, full_matrices=full_matrices)
    u, s, vh = np.linalg.svd(a.real, full_matrices=full_matrices)
    return u.astype(np.complex128), s, vh.astype(np.complex128)


def _rank(s: np.ndarray) -> int:
    return int(np.sum(s > _cutoff(float(s[0]) if s.size else 0.0)))


def _blocks(a: np.ndarray):
    """(rows, cols) of each connected block of the nonzero pattern of a.

    Columns sharing a nonzero row are in one block; a zero column is a block
    with no rows, and a zero row is in none.  Each column is labelled by the
    smallest column of its block: the labels pass to the rows and back, as
    minima over the nonzero entries, with pointer jumping, until they hold
    still.  Blocks come in the order of their smallest column, and list
    their rows and columns in increasing order.  A pass that labels every
    column 0, with no zero row, ends the search: that is one block of all
    the rows and columns, which further passes would only confirm.
    """
    m, n = a.shape
    r, c = np.divmod(np.flatnonzero(a != 0), n)
    col = np.arange(n)
    row = np.full(m, n)  # zero rows keep the label n, past every block
    while True:
        # column labels only fall, so the row minima may accumulate
        np.minimum.at(row, r, col[c])
        nxt = col.copy()
        np.minimum.at(nxt, c, row[r])
        nxt = nxt[nxt]
        if n and not nxt.any() and (row < n).all():
            yield np.arange(m), np.arange(n)
            return
        if (nxt == col).all():
            break
        col = nxt
    labels = np.flatnonzero(col == np.arange(n))
    col_ends = np.cumsum(np.bincount(col, minlength=n)[labels]).tolist()
    row_ends = np.cumsum(np.bincount(row, minlength=n + 1)[labels]).tolist()
    col_order = np.argsort(col, kind="stable")
    row_order = np.argsort(row, kind="stable")
    for i in range(labels.size):
        yield (row_order[row_ends[i - 1] if i else 0:row_ends[i]],
               col_order[col_ends[i - 1] if i else 0:col_ends[i]])


def _factor(a: np.ndarray):
    """SVD (rows, cols, u, s, vh) of each block of a, and the common rank cutoff.

    A tall block yields all its right singular vectors in thin form; a wide
    block gets its full V, whose rows beyond the rank span its kernel.
    """
    parts = []
    for rows, cols in _blocks(a):
        u, s, vh = _svd(a[rows[:, None], cols], full_matrices=rows.size < cols.size)
        parts.append((rows, cols, u, s, vh))
    sigma_max = max((float(s[0]) for *_, s, _ in parts if s.size), default=0.0)
    return parts, _cutoff(sigma_max)


def _scatter(dim: int, pieces) -> np.ndarray:
    """Rows given on coordinate subsets, as one (count, dim) array."""
    out = np.zeros((sum(len(rows) for _, rows in pieces), dim), dtype=np.complex128)
    at = 0
    for idx, rows in pieces:
        out[at:at + len(rows), idx] = rows
        at += len(rows)
    return out


def _null_rows(n: int, parts, cutoff: float) -> np.ndarray:
    # rows of each vh beyond its rank are conjugated kernel vectors
    return _scatter(n, [(cols, vh[np.sum(s > cutoff):].conj())
                        for _, cols, _, s, vh in parts])


def _range_rows(m: int, parts, cutoff: float) -> np.ndarray:
    return _scatter(m, [(rows, u[:, :np.sum(s > cutoff)].T) for rows, _, u, s, _ in parts])


def kernel(a: np.ndarray) -> Subspace:
    """Null space {v : a v = 0}, one SVD per block, with relative cutoff."""
    a = np.asarray(a, dtype=np.complex128)
    parts, cutoff = _factor(a)
    return Subspace(a.shape[1], _null_rows(a.shape[1], parts, cutoff))


def column_space(a: np.ndarray) -> Subspace:
    """Range of the matrix (its column span), stored as orthonormal rows."""
    a = np.asarray(a, dtype=np.complex128)
    parts, cutoff = _factor(a)
    return Subspace(a.shape[0], _range_rows(a.shape[0], parts, cutoff))


def kernel_and_range(a: np.ndarray) -> tuple[Subspace, Subspace]:
    """kernel(a) and column_space(a) of a square matrix, from one factorization."""
    a = np.asarray(a, dtype=np.complex128)
    m, n = a.shape
    parts, cutoff = _factor(a)
    return (Subspace(n, _null_rows(n, parts, cutoff)),
            Subspace(m, _range_rows(m, parts, cutoff)))


def mutual_residual(a: Subspace, b: Subspace) -> float:
    """Max distance of either basis from the other span; 0 iff equal spaces.

    The row norms of X - (X Y^H) Y are the distances of X's rows from the span
    of the orthonormal rows Y: two matrix products per side.
    """
    def worst(x: np.ndarray, y: np.ndarray) -> float:
        return np.max(np.linalg.norm(x - (x @ y.conj().T) @ y, axis=1), initial=0.0)

    return float(max(worst(a.basis, b.basis), worst(b.basis, a.basis)))
