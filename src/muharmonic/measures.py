"""Finite-support complex measures and their convolution algebra.

A measure lives either on a FiniteGroup (dense weight vector indexed by
element index) or on an integer window [lo, hi] (dense vector indexed by
``x - lo``).  Window arithmetic is exact: convolution grows the window to
[lo1+lo2, hi1+hi2], nothing is truncated.
"""

from __future__ import annotations

import json
import operator
from dataclasses import dataclass

import numpy as np

from .groups import FiniteGroup, Subgroup, same_group

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

    def index(self, x: int) -> int:
        if not self.lo <= x <= self.hi:
            raise ValueError(f"{x} outside window [{self.lo}, {self.hi}]")
        return x - self.lo

    def points(self) -> np.ndarray:
        return np.arange(self.lo, self.hi + 1)


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
            raise ValueError(f"weight vector of length {w.shape} does not match carrier size {size}")
        object.__setattr__(self, "weights", w)
        w.setflags(write=False)

    @property
    def on_group(self) -> bool:
        return isinstance(self.carrier, FiniteGroup)

    def total_mass(self) -> complex:
        return complex(self.weights.sum())

    def is_probability(self, tol: float = PROBABILITY_TOL) -> bool:
        w = self.weights
        return bool(
            np.all(np.abs(w.imag) <= tol)
            and np.all(w.real >= -tol)
            and abs(w.real.sum() - 1.0) <= tol
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
    w[x] = 1.0
    return FiniteMeasure(g, w)


def from_pairs(g: FiniteGroup, pairs) -> FiniteMeasure:
    w = np.zeros(g.order, dtype=np.complex128)
    for x, c in pairs:
        w[int(x)] += c
    return FiniteMeasure(g, w)


def uniform_on(g: FiniteGroup, subset) -> FiniteMeasure:
    """Uniform probability on a nonempty set of distinct elements."""
    subset = list(subset)
    if not subset:
        raise ValueError("subset must be nonempty")
    if len(set(subset)) != len(subset):
        raise ValueError(f"subset has a repeated element index: {subset}")
    w = np.zeros(g.order, dtype=np.complex128)
    w[np.array(subset, dtype=np.int64)] = 1.0 / len(subset)
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


def haar_on_subgroup(g: FiniteGroup, h: Subgroup) -> FiniteMeasure:
    """Uniform probability on the members of the subgroup, zero elsewhere."""
    return uniform_on(g, h.members)


# ---------------------------------------------------------------- algebra

def convolve(mu: FiniteMeasure, nu: FiniteMeasure) -> FiniteMeasure:
    """(mu * nu)(g) = sum_h mu(h) nu(h^{-1} g); total mass multiplies."""
    if not _same_carrier(mu.carrier, nu.carrier):
        raise ValueError("carrier mismatch: cannot convolve measures on different carriers")
    if mu.on_group:
        g: FiniteGroup = mu.carrier
        s = np.nonzero(mu.weights)[0]
        return FiniteMeasure(g, mu.weights[s] @ nu.weights[g.left_quotients(s)])
    a, b = mu.carrier, nu.carrier
    out = np.convolve(mu.weights, nu.weights)
    return FiniteMeasure(ZWindow(a.lo + b.lo, a.hi + b.hi), out)


def reflect(mu: FiniteMeasure) -> FiniteMeasure:
    """The reflected measure g -> mu(g^{-1}); an involution."""
    if mu.on_group:
        g: FiniteGroup = mu.carrier
        return FiniteMeasure(g, mu.weights[g.inverses])
    win = mu.carrier
    return FiniteMeasure(ZWindow(-win.hi, -win.lo), mu.weights[::-1])


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


def cesaro_sequence(mu: FiniteMeasure, n_values) -> list[tuple[int, "FiniteMeasure"]]:
    """Pairs (n, A_n) for increasing n, sharing one accumulation pass.

    Each A_n is a probability measure whenever mu is.  On a group the powers
    are stepped as mu * mu^k (equal to mu^k * mu): supp mu, its weights and
    its gather table are taken once, and each step is the gather of
    `convolve` on raw weight arrays.  Window carriers grow per power and are
    handled one n at a time.
    """
    n_values = sorted(set(operator.index(n) for n in n_values))
    if not n_values or n_values[0] < 1:
        raise ValueError("Cesaro averages start at n = 1")
    if not mu.on_group:
        return [(n, _window_cesaro_average(mu, n)) for n in n_values]
    g: FiniteGroup = mu.carrier
    s = np.nonzero(mu.weights)[0]
    w_s, table = mu.weights[s], g.left_quotients(s)
    out = []
    acc = np.zeros_like(mu.weights)
    power = mu.weights
    wanted = set(n_values)
    for n in range(1, n_values[-1] + 1):
        if n > 1:
            power = w_s @ power[table]
        acc += power
        if n in wanted:
            out.append((n, FiniteMeasure(g, acc / n)))
    return out


def cesaro_average(mu: FiniteMeasure, n: int) -> FiniteMeasure:
    """(1/n) sum_{i=1..n} mu^i; powers start at i = 1."""
    return cesaro_sequence(mu, [n])[0][1]


def _window_cesaro_average(mu: FiniteMeasure, n: int) -> FiniteMeasure:
    """Cesaro average on a window carrier, accumulated on the final (largest) window."""
    powers = [mu]
    for _ in range(n - 1):
        powers.append(convolve(powers[-1], mu))
    final = powers[-1].carrier
    acc = np.zeros(final.size, dtype=np.complex128)
    for p in powers:
        off = p.carrier.lo - final.lo
        acc[off : off + p.carrier.size] += p.weights
    return FiniteMeasure(final, acc / n)


def tv_norm(mu: FiniteMeasure) -> float:
    """Total variation norm sum |weights|."""
    return float(np.abs(mu.weights).sum())


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


# ---------------------------------------------------------------- serialization

def measure_to_json(mu: FiniteMeasure) -> dict:
    if mu.on_group:
        carrier = {"type": "group", "order": mu.carrier.order, "name": mu.carrier.name}
    else:
        carrier = {"type": "z_window", "lo": mu.carrier.lo, "hi": mu.carrier.hi}
    return {
        "carrier": carrier,
        "weights": [[float(w.real), float(w.imag)] for w in mu.weights],
    }


def measure_from_json(obj, group: FiniteGroup | None = None) -> FiniteMeasure:
    if isinstance(obj, str):
        obj = json.loads(obj)
    carrier = obj["carrier"]
    weights = np.array([complex(re, im) for re, im in obj["weights"]])
    if carrier["type"] == "group":
        if group is None or group.order != carrier["order"]:
            raise ValueError("group-carried measure needs the matching FiniteGroup")
        return FiniteMeasure(group, weights)
    return FiniteMeasure(ZWindow(int(carrier["lo"]), int(carrier["hi"])), weights)
