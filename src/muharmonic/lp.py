"""Dense tableau simplex for l^1 projection distances.

Problem sizes here stay below ~100 variables, so a plain tableau with
Bland's rule is plenty: deterministic, dependency-free, and guaranteed to
terminate.
"""

from __future__ import annotations

import numpy as np

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


def l1_distance_to_span(x: np.ndarray, basis_cols: np.ndarray) -> tuple[float, np.ndarray]:
    """min_t ||x - B t||_1 for real x (d,) and real B (d, r).

    Solved as an LP: split t = tp - tm and the residual into u - v with
    u, v >= 0, minimize sum(u + v) subject to B tp - B tm + u - v = x.
    Returns (distance, t).
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
    x = x.astype(float)
    d = x.shape[0]
    b_mat = basis_cols.astype(float).reshape(d, -1)
    r = b_mat.shape[1]
    if r == 0:
        return float(np.abs(x).sum()), np.zeros(0)

    n_vars = 2 * r + 2 * d
    a = np.hstack([b_mat, -b_mat, np.eye(d), -np.eye(d)])
    c = np.concatenate([np.zeros(2 * r), np.ones(2 * d)])

    # start from the feasible basis u_i (x_i >= 0) or v_i (x_i < 0)
    tableau = np.zeros((d + 1, n_vars + 1))
    tableau[:d, :n_vars] = a
    tableau[:d, -1] = x
    basis = []
    for i in range(d):
        if x[i] >= 0:
            basis.append(2 * r + i)
        else:
            tableau[i] *= -1.0
            basis.append(2 * r + d + i)
    tableau[-1, :n_vars] = c
    for i, var in enumerate(basis):  # eliminate basic costs from the cost row
        tableau[-1] -= c[var] * tableau[i]

    _simplex(tableau, basis, n_vars)

    z = np.zeros(n_vars)
    for i, var in enumerate(basis):
        z[var] = tableau[i, -1]
    t = z[:r] - z[r : 2 * r]
    distance = float(np.abs(x - b_mat @ t).sum())
    return distance, t
