"""Averaging (Markov) operators built from a group measure.

Each operator is pi(mu) = sum_a mu(a) P_a, with P_a[x, images[a, x]] = 1 the
permutation by which a moves a point set: the scatter of an image table
(`_table_matrix`), which `groups._table_apply` applies without building it.
Each builder refuses, through `measures._measure_on`, a measure on another
group.  Averaging operators are dense complex128 ``np.ndarray``.  Conventions,
fixed once and tested:

* functions on G are column vectors; the averaging matrix acts by
  ``(M h)(g) = sum_t h(g t) mu(t)``, i.e. ``M[g, x] = mu(g^{-1} x)``, so
  ``M(mu * nu) = M(mu) @ M(nu)``; its images are x -> x a;
* the right regular representation permutes basis vectors by
  ``rho(g) e_h = e_{h g^{-1}}`` (on functions: ``(rho(g) f)(x) = f(x g)``),
  and ``M(mu) = sum_g mu(g) rho(g)``;
* the predual action on l^1 vectors is right convolution ``x -> x * mu``,
  whose matrix is ``M(mu).T``;
* operators on matrices use row-major vec; conjugation by ``rho(a)`` has the
  pair images (x, y) -> (x a, y a) and satisfies the convention
  ``kron(rho(g), rho(g))`` (permutation matrices are orthogonal, which
  collapses the transpose-inverse factor).
"""

from __future__ import annotations

from dataclasses import dataclass

import numpy as np

from ._ops import operation
from .errors import CapacityError, ConstructionError
from .groups import (FiniteGroup, Subgroup, _index_table, _pair_images, _positive_integer,
                     _table_apply, orbit_labels)
from .measures import FiniteMeasure, _measure_on, convolve

CONJUGATION_ORDER_CAP = 24


def _table_matrix(images: np.ndarray, weights: np.ndarray) -> np.ndarray:
    """sum_k weights[..., k] P_k with P_k[x, images[..., k, x]] = 1, as one scatter.

    images has shape (..., K, d) and weights (..., K); the leading axes are
    stack axes, one d x d matrix per index.  Entries that several k hit are
    summed in the order of k.  The result has the dtype of the weights.
    """
    *stack, _, d = images.shape
    size = int(np.prod(stack)) * d * d
    rows = np.arange(0, size, d).reshape(*stack, 1, d)
    out = np.zeros(size, dtype=weights.dtype)
    np.add.at(out, (images + rows).ravel(),
              np.broadcast_to(weights[..., None], images.shape).ravel())
    return out.reshape(*stack, d, d)


# ------------------------------------------------------- regular representations

def right_regular(g: FiniteGroup) -> np.ndarray:
    """Stack of right-regular permutation matrices, shape (order, order, order)."""
    return _table_matrix(g.cayley.T[:, None, :], np.ones((g.order, 1)))


def left_regular(g: FiniteGroup) -> np.ndarray:
    """Stack of left-regular permutation matrices rho_l(g) e_h = e_{g h}."""
    return _table_matrix(g.left_quotients(g.elements())[:, None, :], np.ones((g.order, 1)))


# ------------------------------------------------------------ averaging matrices

@operation
def right_markov_matrix(g: FiniteGroup, mu: FiniteMeasure) -> np.ndarray:
    """Averaging matrix of the measure: M[g, x] = mu(g^{-1} x)."""
    _measure_on(g, mu, "mu")
    s = np.nonzero(mu.weights)[0]
    return _table_matrix(g.cayley[:, s].T, mu.weights[s])


@operation
def predual_action(x: np.ndarray, mu: FiniteMeasure) -> np.ndarray:
    """Right convolution x * mu of an l^1 vector; the predual of averaging.

    The pairing identity <x * mu, h> = <x, M h> holds with the bilinear
    pairing <x, h> = sum_g x(g) h(g).
    """
    _measure_on(mu.carrier, mu, "mu")
    x = np.asarray(x, dtype=np.complex128)
    return convolve(FiniteMeasure(mu.carrier, x), mu).weights


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
    _measure_on(g, mu, "mu")
    if g.order > CONJUGATION_ORDER_CAP:
        raise CapacityError(
            f"conjugation operators are materialized only for order <= "
            f"{CONJUGATION_ORDER_CAP}; got order {g.order}"
        )
    s = np.nonzero(mu.weights)[0]
    return _table_matrix(_pair_images(g.cayley[:, s].T), mu.weights[s])


def apply_conjugation(g: FiniteGroup, mu: FiniteMeasure, a: np.ndarray) -> np.ndarray:
    """Apply the averaged conjugation directly to a matrix (no vec blowup).

    rho(s) A rho(s)^{-1} permutes entries by [x, y] -> A[x s, y s].  `a` may
    carry leading stack axes, shape (..., order, order); each matrix of the
    stack is conjugated.
    """
    _measure_on(g, mu, "mu")
    a = np.asarray(a, dtype=np.complex128)
    s = np.nonzero(mu.weights)[0]
    vec = a.reshape(*a.shape[:-2], g.order ** 2)  # A[x, y] is vec[x n + y]
    return _table_apply(vec, _pair_images(g.cayley[:, s].T), mu.weights[s]).reshape(a.shape)


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
    _measure_on(action.group, mu, "mu")
    s = np.nonzero(mu.weights)[0]
    return _table_matrix(action.table[s], mu.weights[s])
