"""Dense tableau simplex for l^1 distances to a subspace, by duality.

The dual of l^1 modulo a subspace J is its annihilator J^perp, so
dist_1(x, J) = max{<x, h> : h in J^perp, ||h||_inf <= 1}, attained by
Hahn-Banach.  With C an orthonormal basis of J^perp (one SVD) this is a
small LP over the coordinates z of h = C z, whose slack basis is feasible
from the start.  A plain tableau with Bland's rule is plenty:
deterministic, dependency-free, and guaranteed to terminate.
"""

from __future__ import annotations

import numpy as np

from .subspaces import kernel

_PIVOT_TOL = 1e-9
_MAX_PIVOTS = 50_000


def _simplex(tableau: np.ndarray, basis: list[int], n_vars: int) -> None:
    """Run primal simplex in place; last row is the reduced-cost row.

    Bland's rule as array passes: the entering column is the first eligible
    one, the ratio test scans only the rows with a positive pivot-column
    entry, and the elimination is one rank-1 update of the rows whose
    factor is nonzero (the others, and the signs of their zeros, stay).
    """
    m = tableau.shape[0] - 1
    for _ in range(_MAX_PIVOTS):
        eligible = np.flatnonzero(tableau[-1, :n_vars] < -_PIVOT_TOL)
        if eligible.size == 0:
            return
        entering = int(eligible[0])
        col = tableau[:m, entering]
        rows = np.flatnonzero(col > _PIVOT_TOL)
        best_ratio = np.inf
        leaving = -1
        for i, ratio in zip(rows.tolist(), (tableau[rows, -1] / col[rows]).tolist()):
            if ratio < best_ratio - _PIVOT_TOL or (
                abs(ratio - best_ratio) <= _PIVOT_TOL
                and (leaving < 0 or basis[i] < basis[leaving])
            ):
                best_ratio = ratio
                leaving = i
        if leaving < 0:
            raise RuntimeError("LP is unbounded; malformed projection problem")
        tableau[leaving] /= tableau[leaving, entering]
        factors = tableau[:, entering].copy()
        factors[leaving] = 0.0
        moved = np.flatnonzero(factors)
        tableau[moved] -= factors[moved, None] * tableau[leaving]
        basis[leaving] = entering
    raise RuntimeError("simplex did not terminate within the pivot budget")


def l1_distance_to_span(x: np.ndarray, basis_cols: np.ndarray):
    """min_t ||x - B t||_1 for real B (d, r), as its dual LP.

    x is one real vector (d,), which gives a float, or a batch (d, k) of
    columns, which gives k floats, each bit for bit the call on its column.
    With C (d, s) an orthonormal basis of the complement of span(B), taken
    once from the SVD of B^T: maximize <C^T x, z> subject to -1 <= C z <= 1,
    with z = zp - zm and one slack per inequality.  The constraint block is
    built once; each column gets its own cost row and simplex run.
    """
    x = np.asarray(x)
    basis_cols = np.asarray(basis_cols)
    if np.iscomplexobj(x) or np.iscomplexobj(basis_cols):
        if np.abs(np.imag(x)).max(initial=0.0) > 1e-12 or (
            basis_cols.size and np.abs(np.imag(basis_cols)).max(initial=0.0) > 1e-12
        ):
            raise ValueError("l1_distance_to_span handles real data only")
        x = np.real(x)
        basis_cols = np.real(basis_cols)
    d = x.shape[0]
    comp = kernel(basis_cols.T).basis.real.T  # (d, s)
    signed = np.vstack([comp, -comp])  # the rows C z <= 1, then -C z <= 1
    block = np.hstack([signed, -signed, np.eye(2 * d), np.ones((2 * d, 1))])
    n_vars = block.shape[1] - 1
    slack = range(2 * comp.shape[1], n_vars)
    dists = []
    for col in x.reshape(d, -1).T:
        cost = col @ comp
        tableau = np.vstack([block, np.concatenate([-cost, cost, np.zeros(2 * d + 1)])])
        _simplex(tableau, list(slack), n_vars)  # from the slack basis
        dists.append(float(tableau[-1, -1]))
    return dists[0] if x.ndim == 1 else np.array(dists)
