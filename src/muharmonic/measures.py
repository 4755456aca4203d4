"""Finite-support complex measures and their convolution algebra.

A measure lives either on a FiniteGroup (dense weight vector indexed by
element index) or on an integer window [lo, hi] (dense vector indexed by
``x - lo``).  Window arithmetic is exact: convolution grows the window to
[lo1+lo2, hi1+hi2], nothing is truncated.
"""

from __future__ import annotations

import sys
from dataclasses import dataclass

import numpy as np

from ._ops import operation
from .errors import ConstructionError
from .groups import FiniteGroup, Subgroup, _element_index, _table_apply, same_group

PROBABILITY_TOL = 1e-12


@dataclass(frozen=True)
class ZWindow:
    """Closed integer interval [lo, hi] used as a measure carrier on Z."""

    lo: int
    hi: int

    def __post_init__(self):
        if self.hi < self.lo:
            raise ValueError(f"empty window [{self.lo}, {self.hi}]")

    @property
    def size(self) -> int:
        return self.hi - self.lo + 1


Carrier = FiniteGroup | ZWindow


def _same_carrier(a: Carrier, b: Carrier) -> bool:
    if isinstance(a, FiniteGroup) and isinstance(b, FiniteGroup):
        return same_group(a, b)
    return isinstance(a, ZWindow) and isinstance(b, ZWindow)


@dataclass(frozen=True, eq=False)
class FiniteMeasure:
    """Dense complex measure on a group or an integer window."""

    carrier: Carrier
    weights: np.ndarray

    def __post_init__(self):
        w = np.asarray(self.weights, dtype=np.complex128)
        size = self.carrier.order if isinstance(self.carrier, FiniteGroup) else self.carrier.size
        if w.shape != (size,):
            raise ConstructionError(f"weight vector of length {w.shape} does not match carrier "
                                    f"size {size}")
        if not np.isfinite(w).all():
            raise ConstructionError("measure weights must be finite")
        object.__setattr__(self, "weights", w)
        w.setflags(write=False)

    @property
    def on_group(self) -> bool:
        return isinstance(self.carrier, FiniteGroup)

    def total_mass(self) -> complex:
        return complex(self.weights.sum())

    def is_probability(self) -> bool:
        w = self.weights
        return bool(
            np.all(np.abs(w.imag) <= PROBABILITY_TOL)
            and np.all(w.real >= -PROBABILITY_TOL)
            and abs(w.real.sum() - 1.0) <= PROBABILITY_TOL
        )

    def support(self) -> list[int]:
        """Indices (group) or integer points (window) carrying nonzero weight."""
        idx = np.nonzero(np.abs(self.weights) > 0)[0]
        if self.on_group:
            return [int(i) for i in idx]
        return [int(i) + self.carrier.lo for i in idx]

    def normalized(self) -> "FiniteMeasure":
        s = self.weights.sum()
        if s == 0:
            raise ValueError("cannot normalize a measure of total mass 0")
        return FiniteMeasure(self.carrier, self.weights / s)

    def __repr__(self):
        kind = self.carrier.name if self.on_group else f"Z[{self.carrier.lo},{self.carrier.hi}]"
        return f"FiniteMeasure({kind}, mass={self.total_mass():.6g})"


# ---------------------------------------------------------------- constructors

def point_mass(g: FiniteGroup, x: int) -> FiniteMeasure:
    w = np.zeros(g.order, dtype=np.complex128)
    w[_element_index(g.order, x, "x")] = 1.0
    return FiniteMeasure(g, w)


def from_pairs(g: FiniteGroup, pairs) -> FiniteMeasure:
    """The sum of c delta_x over the (x, c) pairs; each c is a finite number."""
    w = np.zeros(g.order, dtype=np.complex128)
    for x, c in pairs:
        x = _element_index(g.order, x, "pairs")
        if isinstance(c, bool) or not isinstance(c, (int, float, complex, np.number)):
            raise TypeError(f"pairs: expected a number, got {c!r}")
        if not abs(c) <= sys.float_info.max:  # refuses nan, inf and ints too large for a float
            raise ConstructionError(f"pairs: expected a finite number, got {c!r}")
        with np.errstate(over="ignore"):  # a sum past the float range is inf, refused below
            w[x] += c
    return FiniteMeasure(g, w)


def uniform_on(g: FiniteGroup, subset) -> FiniteMeasure:
    """Uniform probability on a nonempty set of distinct elements."""
    subset = [_element_index(g.order, x, "subset") for x in subset]
    if not subset:
        raise ConstructionError("subset: expected a nonempty list of element indices")
    if len(set(subset)) != len(subset):
        raise ConstructionError(f"subset: repeated element index in {subset}")
    w = np.zeros(g.order, dtype=np.complex128)
    w[subset] = 1.0 / len(subset)
    return FiniteMeasure(g, w)


def z_point_mass(x: int) -> FiniteMeasure:
    return FiniteMeasure(ZWindow(x, x), np.array([1.0 + 0j]))


def z_from_pairs(pairs) -> FiniteMeasure:
    pairs = [(int(x), c) for x, c in pairs]
    lo = min(x for x, _ in pairs)
    hi = max(x for x, _ in pairs)
    w = np.zeros(hi - lo + 1, dtype=np.complex128)
    for x, c in pairs:
        w[x - lo] += c
    return FiniteMeasure(ZWindow(lo, hi), w)


def simple_random_walk_z() -> FiniteMeasure:
    return z_from_pairs([(-1, 0.5), (1, 0.5)])


@operation
def haar_on_subgroup(g: FiniteGroup, h: Subgroup) -> FiniteMeasure:
    """Uniform probability on the members of the subgroup, zero elsewhere."""
    return uniform_on(g, h.members)


# ---------------------------------------------------------------- algebra

def _group_convolve(g: FiniteGroup, x: np.ndarray, y: np.ndarray) -> np.ndarray:
    """(x * y)(g) = sum_h x(h) y(h^{-1} g) over the last axis of weight arrays.

    x and y have shape (..., order); the leading axes are stack axes, one
    pair of measures per index.  One gather over the union of the supports
    of x, which gives each pair the products and sums of a single call.
    """
    s = np.nonzero(np.any(x != 0, axis=tuple(range(x.ndim - 1))))[0]
    return _table_apply(y, g.left_quotients(s), x[..., s])


@operation
def convolve(mu: FiniteMeasure, nu: FiniteMeasure) -> FiniteMeasure:
    """(mu * nu)(g) = sum_h mu(h) nu(h^{-1} g); total mass multiplies."""
    if not _same_carrier(mu.carrier, nu.carrier):
        raise ValueError("carrier mismatch: cannot convolve measures on different carriers")
    if mu.on_group:
        return FiniteMeasure(mu.carrier, _group_convolve(mu.carrier, mu.weights, nu.weights))
    a, b = mu.carrier, nu.carrier
    out = np.convolve(mu.weights, nu.weights)
    return FiniteMeasure(ZWindow(a.lo + b.lo, a.hi + b.hi), out)


@operation
def reflect(mu: FiniteMeasure) -> FiniteMeasure:
    """The reflected measure g -> mu(g^{-1}); an involution."""
    if mu.on_group:
        g: FiniteGroup = mu.carrier
        return FiniteMeasure(g, mu.weights[g.inverses])
    win = mu.carrier
    return FiniteMeasure(ZWindow(-win.hi, -win.lo), mu.weights[::-1])


@operation
def convolution_power(mu: FiniteMeasure, n: int) -> FiniteMeasure:
    """mu^n for n >= 1, by binary exponentiation."""
    if n < 1:
        raise ValueError("convolution powers start at n = 1")
    result = None
    base = mu
    while n > 0:
        if n & 1:
            result = base if result is None else convolve(result, base)
        n >>= 1
        if n:
            base = convolve(base, base)
    return result


@operation
def cesaro_average(mu: FiniteMeasure, n: int) -> FiniteMeasure:
    """(1/n) sum_{i=1..n} mu^i of a probability measure on a group; powers start at i = 1.

    Row e of the averaging matrix M(nu) is nu, and M(mu * nu) = M(mu) M(nu), so
    A_n is row e of (1/n) sum_{i<=n} M(mu)^i.  M(mu) is stochastic, hence
    power-bounded, and `cesaro_mean` gives that average in closed form and checks n.
    """
    from .harmonic import cesaro_mean
    from .operators import right_markov_matrix

    if not (mu.on_group and mu.is_probability()):
        raise ValueError("Cesaro averages are taken of a probability measure on a group")
    g: FiniteGroup = mu.carrier
    return FiniteMeasure(g, cesaro_mean(right_markov_matrix(g, mu), n)[g.identity])


@operation
def tv_norm(mu: FiniteMeasure) -> float:
    """Total variation norm sum |weights|."""
    return float(np.abs(mu.weights).sum())


@operation
def tv_distance(mu: FiniteMeasure, nu: FiniteMeasure) -> float:
    if not _same_carrier(mu.carrier, nu.carrier):
        raise ValueError("carrier mismatch: cannot compare measures on different carriers")
    if mu.on_group:
        return float(np.abs(mu.weights - nu.weights).sum())
    lo = min(mu.carrier.lo, nu.carrier.lo)
    hi = max(mu.carrier.hi, nu.carrier.hi)
    a = np.zeros(hi - lo + 1, dtype=np.complex128)
    b = np.zeros(hi - lo + 1, dtype=np.complex128)
    a[mu.carrier.lo - lo : mu.carrier.hi - lo + 1] = mu.weights
    b[nu.carrier.lo - lo : nu.carrier.hi - lo + 1] = nu.weights
    return float(np.abs(a - b).sum())


# ---------------------------------------------------------------- decay on Z

@dataclass(frozen=True)
class DecayReport:
    """Pairings <mu^n, f> for n = 1..N against a finitely supported test vector."""

    values: tuple[complex, ...]
    degenerate: bool

    def real_values(self) -> list[float]:
        return [v.real for v in self.values]


@operation
def weak_star_decay(mu: FiniteMeasure, f_pairs, n_max: int) -> DecayReport:
    """Exact pairing sequence <mu^n, f> on Z, f given as (point, value) pairs.

    A point mass at 0 is the degenerate case: the sequence is constant and
    the report is flagged instead of demonstrating decay.
    """
    if mu.on_group:
        raise ValueError("weak_star_decay expects a measure on a Z window")
    f = dict((int(x), complex(c)) for x, c in f_pairs)
    degenerate = mu.support() == [0]
    values = []
    power = mu
    for _ in range(n_max):
        total = 0.0 + 0.0j
        for x, c in f.items():
            if power.carrier.lo <= x <= power.carrier.hi:
                total += c * power.weights[x - power.carrier.lo]
        values.append(complex(total))
        power = convolve(power, mu)
    return DecayReport(tuple(values), degenerate)

