"""Averaging (Markov) operators built from a group measure.

Every operator is a dense complex128 ``np.ndarray``.  Conventions, fixed
once and tested:

* functions on G are column vectors; the averaging matrix acts by
  ``(M h)(g) = sum_t h(g t) mu(t)``, i.e. ``M[g, x] = mu(g^{-1} x)``, so
  ``M(mu * nu) = M(mu) @ M(nu)``;
* the right regular representation permutes basis vectors by
  ``rho(g) e_h = e_{h g^{-1}}`` (on functions: ``(rho(g) f)(x) = f(x g)``),
  and ``M(mu) = sum_g mu(g) rho(g)``;
* the predual action on l^1 vectors is right convolution ``x -> x * mu``,
  whose matrix is ``M(mu).T``;
* operators on matrices use row-major vec, so conjugation by ``rho(g)``
  vectorizes to ``kron(rho(g), rho(g))`` (permutation matrices are
  orthogonal, which collapses the transpose-inverse factor).
"""

from __future__ import annotations

from dataclasses import dataclass

import numpy as np

from ._ops import operation
from .errors import CapacityError, ConstructionError
from .groups import (FiniteGroup, Subgroup, _index_table, _positive_integer, orbit_labels,
                     same_group)
from .measures import FiniteMeasure, convolve

CONJUGATION_ORDER_CAP = 24


# ------------------------------------------------------- regular representations

def right_regular(g: FiniteGroup) -> np.ndarray:
    """Stack of right-regular permutation matrices, shape (order, order, order)."""
    n = g.order
    rho = np.zeros((n, n, n))
    cols = np.arange(n)
    for a in range(n):
        rows = g.cayley[cols, g.inv(a)]  # h -> h a^{-1}
        rho[a, rows, cols] = 1.0
    return rho


def left_regular(g: FiniteGroup) -> np.ndarray:
    """Stack of left-regular permutation matrices rho_l(g) e_h = e_{g h}."""
    n = g.order
    rho = np.zeros((n, n, n))
    cols = np.arange(n)
    for a in range(n):
        rows = g.cayley[a, cols]
        rho[a, rows, cols] = 1.0
    return rho


# ------------------------------------------------------------ averaging matrices

@operation
def right_markov_matrix(g: FiniteGroup, mu: FiniteMeasure) -> np.ndarray:
    """Averaging matrix of the measure: M[g, x] = mu(g^{-1} x)."""
    if not (mu.on_group and same_group(mu.carrier, g)):
        raise ValueError("measure does not live on the given group")
    n = g.order
    m = np.zeros((n, n), dtype=np.complex128)
    m[np.arange(n)[:, None], g.cayley] = mu.weights[None, :]
    return m


@operation
def predual_action(x: np.ndarray, mu: FiniteMeasure) -> np.ndarray:
    """Right convolution x * mu of an l^1 vector; the predual of averaging.

    The pairing identity <x * mu, h> = <x, M h> holds with the bilinear
    pairing <x, h> = sum_g x(g) h(g).
    """
    g = mu.carrier
    if not isinstance(g, FiniteGroup):
        raise ValueError("predual_action expects a group-carried measure")
    x = np.asarray(x, dtype=np.complex128)
    return convolve(FiniteMeasure(g, x), mu).weights


def predual_matrix(g: FiniteGroup, mu: FiniteMeasure) -> np.ndarray:
    """Matrix of x -> x * mu; equals right_markov_matrix(g, mu).T."""
    return right_markov_matrix(g, mu).T.copy()


@operation
def conjugation_operator(g: FiniteGroup, mu: FiniteMeasure) -> np.ndarray:
    """The averaged conjugation A -> sum_g mu(g) rho(g) A rho(g)^{-1}.

    Materialized as an order^2 x order^2 matrix acting on row-major vec(A);
    group orders above CONJUGATION_ORDER_CAP are rejected so the fixed-space
    eigenproblems stay dense and small.
    """
    if g.order > CONJUGATION_ORDER_CAP:
        raise CapacityError(
            f"conjugation operators are materialized only for order <= "
            f"{CONJUGATION_ORDER_CAP}; got order {g.order}"
        )
    rho = right_regular(g)
    n = g.order
    out = np.zeros((n * n, n * n), dtype=np.complex128)
    for a in np.nonzero(mu.weights)[0]:
        out += mu.weights[a] * np.kron(rho[a], rho[a])
    return out


def _conjugate_sum(t: np.ndarray, tabs: np.ndarray, weights: np.ndarray) -> np.ndarray:
    """sum_k weights[..., k] T[..., tabs[k, x], tabs[k, y]] as one gather.

    T has shape (..., n, n), tabs (K, n) and weights (K,) or (..., K); the
    leading axes of T and weights are stack axes, one matrix per index.  Row
    k of the gather holds T[tabs[k, x], tabs[k, y]] in row-major (x, y) order.
    """
    n = t.shape[-1]
    flat = (tabs[:, :, None] * n + tabs[:, None, :]).reshape(len(tabs), n * n)
    # take and a contiguous weight vector keep every product in the unit-stride
    # layout of a single matrix, so a stacked call sums each product like it
    gathered = np.take(t.reshape(*t.shape[:-2], n * n), flat, axis=-1)
    weights = np.ascontiguousarray(weights)
    return np.matmul(weights[..., None, :], gathered)[..., 0, :].reshape(t.shape)


def apply_conjugation(g: FiniteGroup, mu: FiniteMeasure, a: np.ndarray) -> np.ndarray:
    """Apply the averaged conjugation directly to a matrix (no vec blowup).

    rho(s) A rho(s)^{-1} permutes entries by [x, y] -> A[x s, y s].  `a` may
    carry leading stack axes, shape (..., order, order); each matrix of the
    stack is conjugated.
    """
    a = np.asarray(a, dtype=np.complex128)
    s = np.nonzero(mu.weights)[0]
    return _conjugate_sum(a, g.cayley[:, s].T, mu.weights[s])


# ---------------------------------------------------------------- group actions

@dataclass(frozen=True, eq=False)
class GSpaceAction:
    """Action of a finite group on a finite point set, table[g, x] = g.x."""

    group: FiniteGroup
    points: int
    table: np.ndarray

    def __post_init__(self):
        object.__setattr__(self, "points", _positive_integer(self.points, "points"))
        shape = (self.group.order, self.points)
        t = _index_table(self.table, shape, "table",
                         f"{shape[0]} rows (one per group element) of {shape[1]} point indices")
        e = self.group.identity
        if not np.array_equal(t[e], np.arange(self.points)):
            raise ConstructionError("identity must act trivially")
        # row h of each side is (gh).x and g.(h.x) over all points x, so the
        # first mismatching row of the first failing g is the first pair
        for g in range(self.group.order):
            mismatch = (t[self.group.cayley[g]] != t[g][t]).any(axis=1)
            if mismatch.any():
                h = int(np.argmax(mismatch))
                raise ConstructionError(f"action fails homomorphism at (g={g}, h={h})")
        object.__setattr__(self, "table", t)
        t.setflags(write=False)


def coset_action(g: FiniteGroup, h: Subgroup) -> GSpaceAction:
    """G acting on the left cosets of a subgroup, numbered as `orbit_labels` does.

    a . (r H) = (a r) H, with r the smallest member of its coset.
    """
    labels = orbit_labels(g, h)
    _, reps = np.unique(labels, return_index=True)
    return GSpaceAction(g, len(reps), labels[g.cayley[:, reps]])


def trivial_action(g: FiniteGroup, points: int) -> GSpaceAction:
    return GSpaceAction(g, points, np.tile(np.arange(points), (g.order, 1)))


@operation
def gspace_markov_matrix(action: GSpaceAction, mu: FiniteMeasure) -> np.ndarray:
    """Transition matrix P[x, y] = mu({g : g.x = y}) of the induced chain."""
    if not (mu.on_group and same_group(mu.carrier, action.group)):
        raise ValueError("measure does not live on the acting group")
    m = action.points
    p = np.zeros((m, m), dtype=np.complex128)
    for g in np.nonzero(mu.weights)[0]:
        np.add.at(p, (np.arange(m), action.table[g]), mu.weights[g])
    return p
