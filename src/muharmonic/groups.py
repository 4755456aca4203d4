"""Finite groups presented by Cayley tables.

Elements are dense integer indices ``0 .. order-1``.  Construction always
validates the identity and inverse tables; the full O(order^3) associativity
sweep runs for orders up to ``EXHAUSTIVE_CHECK_ORDER`` (larger groups are only
accepted from builders that are associative by construction, e.g. permutation
composition).
"""

from __future__ import annotations

import itertools
import operator
from collections.abc import Sequence
from dataclasses import dataclass

import numpy as np

from ._ops import operation
from .errors import CapacityError, ConstructionError

MAX_ORDER = 120
EXHAUSTIVE_CHECK_ORDER = 64


@dataclass(frozen=True, eq=False)
class FiniteGroup:
    """Group of ``order`` elements with multiplication table ``cayley[a, b]``."""

    order: int
    cayley: np.ndarray
    identity: int
    inverses: np.ndarray
    labels: tuple[str, ...] | None = None
    name: str = "group"

    def __post_init__(self):
        self.cayley.setflags(write=False)
        self.inverses.setflags(write=False)

    def mul(self, a: int, b: int) -> int:
        return int(self.cayley[a, b])

    def inv(self, a: int) -> int:
        return int(self.inverses[a])

    def left_quotients(self, s) -> np.ndarray:
        """Rows indexed by the elements s_k: entry [k, x] is the index of s_k^{-1} x."""
        return self.cayley[self.inverses[s]]

    def label(self, a: int) -> str:
        return self.labels[a] if self.labels is not None else str(a)

    def elements(self) -> range:
        return range(self.order)

    def is_abelian(self) -> bool:
        return bool(np.array_equal(self.cayley, self.cayley.T))

    def __repr__(self):
        return f"FiniteGroup({self.name}, order={self.order})"


@dataclass(frozen=True, eq=False)
class Subgroup:
    """A validated subgroup, stored as a sorted tuple of member indices."""

    parent: FiniteGroup
    members: tuple[int, ...]

    @property
    def order(self) -> int:
        return len(self.members)

    def __contains__(self, g: int) -> bool:
        return g in set(self.members)

    def __repr__(self):
        return f"Subgroup(order={self.order}, members={self.members})"


@dataclass(frozen=True, eq=False)
class CosetPartition:
    """Disjoint left cosets gH covering the parent group."""

    parent: FiniteGroup
    subgroup: Subgroup
    blocks: tuple[tuple[int, ...], ...]

    @property
    def block_count(self) -> int:
        return len(self.blocks)


def same_group(a: FiniteGroup, b: FiniteGroup) -> bool:
    """Structural equality: identical order and Cayley table."""
    return a is b or (a.order == b.order and np.array_equal(a.cayley, b.cayley))


def _validate_table(cayley: np.ndarray, check_associativity: bool) -> tuple[int, np.ndarray]:
    n = cayley.shape[0]
    identity = None
    rng = np.arange(n)
    for e in range(n):
        if np.array_equal(cayley[e], rng) and np.array_equal(cayley[:, e], rng):
            identity = e
            break
    if identity is None:
        raise ConstructionError("cayley: table has no two-sided identity element")

    inverses = np.full(n, -1, dtype=np.int64)
    for x in range(n):
        hits = np.nonzero(cayley[x] == identity)[0]
        if len(hits) == 0:
            raise ConstructionError(f"cayley: element {x} has no right inverse")
        y = int(hits[0])
        if cayley[y, x] != identity:
            raise ConstructionError(f"cayley: element {x}: right inverse {y} is not a left inverse")
        inverses[x] = y

    if check_associativity:
        # (xy)z == x(yz) for all triples; one (y, z) array per x, whose
        # first mismatch in row-major order is the first failing triple
        for x in range(n):
            lhs = cayley[cayley[x]]
            rhs = cayley[x][cayley]
            if not np.array_equal(lhs, rhs):
                y, z = (int(i) for i in np.argwhere(lhs != rhs)[0])
                raise ConstructionError(
                    f"cayley: associativity fails at triple (x={x}, y={y}, z={z}): "
                    f"(xy)z={int(lhs[y, z])} but x(yz)={int(rhs[y, z])}"
                )

    return identity, inverses


def _check_order(n: int) -> None:
    if n > MAX_ORDER:
        raise CapacityError(f"group order {n} exceeds the cap of {MAX_ORDER}")


def _positive_integer(x, param: str) -> int:
    """x as a positive integer; a bool is refused, and the message starts
    with the name of the parameter that x came in."""
    if isinstance(x, bool) or not hasattr(x, "__index__"):
        raise TypeError(f"{param}: expected a positive integer, got {x!r}")
    if operator.index(x) < 1:
        raise ConstructionError(f"{param}: expected a positive integer, got {x!r}")
    return operator.index(x)


def _element_index(order: int, x, param: str) -> int:
    """x as an element index of a group of `order` elements.

    A bool, a non-integer and an index outside 0..order-1 are refused, and the
    message starts with the name of the parameter that x came in.
    """
    if isinstance(x, bool) or not hasattr(x, "__index__"):
        raise TypeError(f"{param}: expected an element index, got {x!r}")
    x = operator.index(x)
    if not 0 <= x < order:
        raise ConstructionError(f"{param}: element index {x} outside 0..{order - 1}")
    return x


def _index_table(table, shape: tuple[int, int], param: str, expected: str) -> np.ndarray:
    """A new int64 array of the given shape whose entries index 0..shape[1]-1.

    An integer array, as the builders make, gets one vectorized dtype and range
    pass; a list of rows is read entry by entry through `_element_index`.  Any
    other table is refused with the message "<param>: expected <expected>".
    """
    rows, cols = shape
    if isinstance(table, np.ndarray):
        if table.shape != shape or table.dtype.kind not in "iu":
            raise ConstructionError(f"{param}: expected {expected}")
        outside = (table < 0) | (table >= cols)
        if outside.any():
            raise ConstructionError(f"{param}: element index {table[outside][0]} "
                                    f"outside 0..{cols - 1}")
        return table.astype(np.int64)  # a copy, so the caller's array stays writeable
    if (not isinstance(table, (list, tuple)) or len(table) != rows
            or any(not isinstance(row, (list, tuple)) or len(row) != cols for row in table)):
        raise ConstructionError(f"{param}: expected {expected}")
    return np.array([[_element_index(cols, x, param) for x in row] for row in table],
                    dtype=np.int64).reshape(shape)


def group_from_table(cayley, labels=None, name: str = "from_table") -> FiniteGroup:
    """Validate an explicit Cayley table and wrap it as a FiniteGroup.

    cayley is a square integer array, as the builders make, or a square list of
    rows of element indices; the group keeps its own copy.  The row count is
    checked against the order cap before any entry is read.  labels, if given, is
    a sequence of strings, one per element.
    """
    square = "a square list of rows of element indices"
    if not isinstance(cayley, (np.ndarray, list, tuple)) or len(cayley) == 0:
        raise ConstructionError(f"cayley: expected {square}")
    n = len(cayley)
    _check_order(n)
    cayley = _index_table(cayley, (n, n), "cayley", square)
    if labels is not None:
        if (isinstance(labels, str) or not isinstance(labels, Sequence) or len(labels) != n
                or not all(isinstance(t, str) for t in labels)):
            raise ConstructionError(f"labels: expected {n} strings, one per element, "
                                    f"got {labels!r}")
        labels = tuple(labels)
    identity, inverses = _validate_table(cayley, check_associativity=n <= EXHAUSTIVE_CHECK_ORDER)
    return FiniteGroup(n, cayley, identity, inverses, labels, name)


def cyclic_group(n: int) -> FiniteGroup:
    n = _positive_integer(n, "n")
    _check_order(n)  # before the n x n table is allocated
    i = np.arange(n)
    cayley = (i[:, None] + i[None, :]) % n
    return group_from_table(cayley, labels=[str(k) for k in range(n)], name=f"Z{n}")


def dihedral_group(n: int) -> FiniteGroup:
    """Dihedral group of order 2n: index j*n + i encodes r^i s^j."""
    n = _positive_integer(n, "n")
    _check_order(2 * n)  # before the Python double loop fills the table

    def mul(a, b):
        i1, j1 = a % n, a // n
        i2, j2 = b % n, b // n
        i = (i1 + i2) % n if j1 == 0 else (i1 - i2) % n
        return (j1 ^ j2) * n + i

    m = 2 * n
    cayley = np.array([[mul(a, b) for b in range(m)] for a in range(m)], dtype=np.int64)
    labels = [f"r{i}" for i in range(n)] + [f"r{i}s" for i in range(n)]
    return group_from_table(cayley, labels=labels, name=f"D{n}")


def _cycle_notation(perm: tuple[int, ...]) -> str:
    seen = [False] * len(perm)
    parts = []
    for start in range(len(perm)):
        if seen[start] or perm[start] == start:
            seen[start] = True
            continue
        cyc = [start]
        seen[start] = True
        nxt = perm[start]
        while nxt != start:
            cyc.append(nxt)
            seen[nxt] = True
            nxt = perm[nxt]
        parts.append("(" + " ".join(str(c + 1) for c in cyc) + ")")
    return "".join(parts) if parts else "e"


def symmetric_group(n: int) -> FiniteGroup:
    """S_n on permutations of {0..n-1} in lexicographic order; n <= 5.

    The product convention is composition with the right factor applied
    first, so the natural action table[g][x] = perm_g(x) is a homomorphism.
    """
    n = _positive_integer(n, "n")
    if n > 5:
        raise ConstructionError("n: symmetric groups are supported for 1 <= n <= 5")
    perms = list(itertools.permutations(range(n)))
    arr = np.array(perms, dtype=np.int64)
    # base-n codes increase with the lexicographic order, so searchsorted
    # maps each composed permutation arr[a, arr[b]] back to its index
    place = n ** np.arange(n - 1, -1, -1)
    cayley = np.searchsorted(arr @ place, arr[:, arr] @ place)
    labels = [_cycle_notation(p) for p in perms]
    return group_from_table(cayley, labels=labels, name=f"S{n}")


def product_group(a: FiniteGroup, b: FiniteGroup) -> FiniteGroup:
    """Direct product; index (x, y) -> x * b.order + y."""
    n = a.order * b.order
    if n > MAX_ORDER:
        raise CapacityError(f"product order {n} exceeds the cap of {MAX_ORDER}")
    ax, ay = np.divmod(np.arange(n), b.order)
    cx = a.cayley[ax[:, None], ax[None, :]]
    cy = b.cayley[ay[:, None], ay[None, :]]
    cayley = cx * b.order + cy
    labels = tuple(f"({a.label(x)},{b.label(y)})" for x, y in zip(ax, ay))
    return group_from_table(cayley, labels=labels, name=f"{a.name}x{b.name}")


@operation
def generated_subgroup(g: FiniteGroup, support) -> Subgroup:
    """Smallest subgroup containing ``support`` (closure under products and inverses)."""
    support = sorted({_element_index(g.order, s, "support") for s in support})
    if not support:
        raise ConstructionError("support: expected at least one element index")
    members = {g.identity}
    frontier = [g.identity]
    gens = set(support) | {g.inv(s) for s in support}
    while frontier:
        x = frontier.pop()
        for s in gens:
            y = g.mul(x, s)
            if y not in members:
                members.add(y)
                frontier.append(y)
    return Subgroup(g, tuple(sorted(members)))


def _pair_images(images: np.ndarray) -> np.ndarray:
    """The maps of images (K, n) on pairs: row k sends (x, y) to (images[k, x], images[k, y]),
    with (x, y) indexed row-major as x n + y, the place of X[x, y] in vec(X)."""
    k, n = images.shape
    return (images[:, :, None] * n + images[:, None, :]).reshape(k, n * n)


def _orbit_numbering(images: np.ndarray) -> np.ndarray:
    """Orbit labels, numbered by the orbits' least points.  Row k of images is the
    k-th element's map of the points, so the orbit of x is the column images[:, x]."""
    _, labels = np.unique(images.min(axis=0), return_inverse=True)
    return labels


def _table_apply(v: np.ndarray, images: np.ndarray, weights: np.ndarray) -> np.ndarray:
    """sum_k weights[..., k] v[..., images[k]], that is P v for P[x, images[k, x]] += weights[k].

    v has shape (..., d), images (K, d) and weights (K,) or (..., K); the leading
    axes of v and weights are stack axes.  One take, and contiguous weights, keep
    every product in the unit-stride layout of a single vector, so a stacked call
    sums each product like a single one.
    """
    return np.matmul(np.ascontiguousarray(weights)[..., None, :],
                     np.take(v, images, axis=-1))[..., 0, :]


def orbit_labels(g: FiniteGroup, h: Subgroup, rep: str = "functions") -> np.ndarray:
    """Number the H-orbits of the coordinates, by their smallest coordinate.

    functions: x -> x s on G, whose orbits are the left cosets xH.
    operators: rho(s) X rho(s)^{-1} moves X[x, y] to X[x s, y s], so the
    orbits are those of (x, y) -> (x s, y s) on G x G, row-major.
    Every orbit has |H| coordinates, because right multiplication is free.
    """
    if not same_group(h.parent, g):
        raise ConstructionError("subgroup does not belong to the given group")
    if rep not in ("functions", "operators"):
        raise ValueError(f"rep must be 'functions' or 'operators', got {rep!r}")
    right = g.cayley[:, list(h.members)].T  # right[k, x] = x s_k
    return _orbit_numbering(right if rep == "functions" else _pair_images(right))


@operation
def left_cosets(g: FiniteGroup, h: Subgroup) -> CosetPartition:
    """Partition of g into left cosets xH, in the numbering of `orbit_labels`."""
    # a stable sort by label lists each coset's members in increasing order
    members = np.argsort(orbit_labels(g, h), kind="stable").reshape(-1, h.order)
    return CosetPartition(g, h, tuple(map(tuple, members.tolist())))
