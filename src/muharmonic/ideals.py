"""Coboundary ideals of a measure, quotient norms, and operator convolution.

The predual of the averaging operator displaces a vector x to x - x*mu; the
closed span of such displacements is a left ideal whose annihilator is the
harmonic space.  At finite scale no closure is needed: the ideal is exactly
the range of (I - P) for the predual matrix P.  The same construction runs
in two ambients: l^1 vectors on the group, and matrices with the trace norm
(the predual of the conjugation representation).

For a probability measure, with H the subgroup its support generates, the
annihilator of the ideal is the fixed space: the coset-constant functions,
or the commutant of rho(H).  So the Haar average E_H (x -> x * omega_H on
l^1, X -> (1/|H|) sum_{s in H} rho(s) X rho(s)^{-1} on matrices) answers
both questions about the ideal: the Euclidean distance of v from it is
||E_H v||_2, and the ambient-norm distance of x from it is ||E_H x||.
"""

from __future__ import annotations

import json
from dataclasses import dataclass
from functools import cached_property

import numpy as np

from ._ops import operation
from .groups import (FiniteGroup, _pair_images, _positive_integer, _table_apply,
                     generated_subgroup, orbit_labels)
from .measures import (
    FiniteMeasure,
    cesaro_average,
    convolve,
    point_mass,
    reflect,
    tv_norm,
)
from .operators import (
    apply_conjugation,
    conjugation_operator,
    predual_matrix,
)
from .subspaces import Subspace, column_space


@dataclass(frozen=True, eq=False)
class IdealBasis:
    """Range of (I - predual_op): the displacement ideal of the measure.

    labels numbers the H-orbits of the coordinates (see `orbit_labels`) when
    the ideal comes from a probability measure, as a trace ideal always does;
    it is None otherwise, and then only the LP measures distances to the
    ideal.  The SVD basis `space` is taken on first use: the closed forms
    that the labels allow never read it.
    """

    ambient: str  # "l1" or "trace"
    predual_op: np.ndarray
    labels: np.ndarray | None = None

    @cached_property
    def space(self) -> Subspace:
        return column_space(np.eye(self.predual_op.shape[0]) - self.predual_op)

    @property
    def rank(self) -> int:
        return self.space.rank

    def __repr__(self):
        return f"IdealBasis({self.ambient}, rank={self.rank}, dim={self.space.ambient_dim})"


def _haar_labels(g: FiniteGroup, mu: FiniteMeasure, rep: str) -> np.ndarray | None:
    """H-orbit labels of a probability measure's ideal; None for any other measure."""
    if not mu.is_probability():
        return None
    return orbit_labels(g, generated_subgroup(g, mu.support()), rep)


@operation
def coboundary_ideal(g: FiniteGroup, mu: FiniteMeasure) -> IdealBasis:
    """The ideal {x - x*mu} inside l^1 of the group."""
    return IdealBasis("l1", predual_matrix(g, mu), _haar_labels(g, mu, "functions"))


def trace_predual_matrix(g: FiniteGroup, mu: FiniteMeasure) -> np.ndarray:
    """Matrix (on row-major vec) of the trace-class predual action of mu.

    Pairing matrices by tr(SA), the predual of the averaged conjugation by
    mu is the averaged conjugation by the reflected measure.
    """
    return conjugation_operator(g, reflect(mu))


@operation
def trace_class_ideal(g: FiniteGroup, mu: FiniteMeasure) -> IdealBasis:
    """The ideal {X - P X} of trace-class matrices, by an SVD of I - P.

    This is the generic side: the Haar average answers its questions without
    the order^2 x order^2 matrix.  Only a probability measure is taken: the
    trace-norm distance to the ideal is computed by the Haar average alone.
    """
    labels = _haar_labels(g, mu, "operators")
    if labels is None:
        raise ValueError("trace_class_ideal needs a probability measure: only then is "
                         "the trace-norm distance to its ideal known, in closed form")
    return IdealBasis("trace", trace_predual_matrix(g, mu), labels)


def haar_average(x: np.ndarray, labels: np.ndarray) -> np.ndarray:
    """E_H x: each coordinate replaced by the mean of x over its H-orbit.

    On l^1 this is x * omega_H, with omega_H the Haar measure of H; on
    row-major vec'd matrices it is X -> (1/|H|) sum_{s in H} rho(s) X rho(s)^{-1}.
    It is the orthogonal projection onto the orbit indicators.  `x` may carry
    leading stack axes, shape (..., len(labels)); each row is averaged, by
    one bincount over the labels offset per row.
    """
    x = np.asarray(x, dtype=np.complex128)
    n_orbits = int(labels.max()) + 1
    rows = x.reshape(-1, labels.size)
    offset = (labels + n_orbits * np.arange(len(rows))[:, None]).reshape(-1)
    size = n_orbits * len(rows)
    sums = (np.bincount(offset, rows.real.reshape(-1), size)
            + 1j * np.bincount(offset, rows.imag.reshape(-1), size))
    means = sums.reshape(-1, n_orbits) / np.bincount(labels, minlength=n_orbits)
    return means[:, labels].reshape(x.shape)


# ------------------------------------------------------------- predual norms

def ambient_norm(x: np.ndarray, ambient: str) -> float:
    """l1: sum of moduli; trace: sum of singular values of the unvec'd matrix."""
    return float(_ambient_norms(np.asarray(x, dtype=np.complex128)[None, :], ambient)[0])


def _ambient_norms(rows: np.ndarray, ambient: str) -> np.ndarray:
    """ambient_norm of each row of a 2-D array."""
    if ambient == "l1":
        return np.abs(rows).sum(axis=1)
    if ambient == "trace":
        n = int(round(np.sqrt(rows.shape[1])))
        return np.linalg.svd(rows.reshape(-1, n, n), compute_uv=False).sum(axis=1)
    raise ValueError(f"unknown ambient {ambient!r}")


@operation
def quotient_norm(x: np.ndarray, ideal: IdealBasis) -> float:
    """dist(x, ideal) in the ambient norm, in closed form: ||E_H x||.

    x - E_H x lies in the ideal, and pairing x with the sign of E_H x (l^1)
    or with the adjoint polar part of E_H X (trace), both fixed by H, attains
    ||E_H x||.  In l^1 this is the sum over left cosets of |sum_coset x|; in
    the trace ambient, the trace norm of E_H X.
    """
    if ideal.labels is None:
        raise ValueError("quotient_norm needs the H-orbit labels that coboundary_ideal and "
                         "trace_class_ideal record for a probability measure; use "
                         "l1_distance for an ideal given only by its operator")
    return ambient_norm(haar_average(x, ideal.labels), ideal.ambient)


@operation
def l1_distance(x: np.ndarray, ideal: IdealBasis):
    """Predual-norm distance from x to the ideal.

    x is one vector (d,), which gives a float, or a batch (d, k) of columns,
    which gives k floats.
    l1 ambient: exact, via the in-package simplex on the dual LP (real data):
    the max of <x, h> over the vectors h orthogonal to the ideal with
    ||h||_inf <= 1, the bounded harmonic side.  The complement is taken by SVD
    from the ideal's basis, not from H-orbit labels, so this stays the oracle
    that quotient_norm is checked against; a batch shares one complement.
    trace ambient: the closed form of quotient_norm (trace_class_ideal records
    the H-orbit labels).
    """
    x = np.asarray(x, dtype=np.complex128)
    if ideal.rank and ideal.ambient == "l1":
        from .lp import l1_distance_to_span

        return l1_distance_to_span(x, ideal.space.basis.T)  # columns span the ideal
    cols = x.reshape(x.shape[0], -1).T
    if ideal.rank:
        dists = [quotient_norm(v, ideal) for v in cols]
    else:
        dists = [ambient_norm(v, ideal.ambient) for v in cols]
    return dists[0] if x.ndim == 1 else np.array(dists)


# -------------------------------------------------------- averaged norm trace

# rows of the step buffer of quotient_norm_trace: its memory stays bounded
# whatever n_max, and the norms of a block are taken in one array pass
_TRACE_BLOCK = 256


def _row_gather(p: np.ndarray) -> tuple[np.ndarray, np.ndarray] | None:
    """P as a padded row gather (cols, vals), each of shape (k, d), or None.

    With d = dim P and k the most nonzeros in a row, column i of cols holds
    row i's nonzero columns in order, padded by zero weights in vals, so that
    P y = (vals * y[cols]).sum(axis=0).  It is returned only when
    d >= max(64, 16 k): on S5 with two nonzeros a row (d = 120) a step takes
    half the time of p @ y, while below d = 64, or from k = 8 on S5, the
    dense product is as fast or faster.
    """
    d = p.shape[0]
    if d < 64:
        return None
    nonzero = p != 0
    k = int(nonzero.sum(axis=1).max())
    if d < 16 * k:
        return None
    cols = np.argsort(~nonzero, axis=1, kind="stable")[:, :k].T.copy()
    return cols, p[np.arange(d), cols]


def _write_series_csv(path, values) -> None:
    """Write an `n,value` header and one row per value, n = 1, 2, ..., in one write.

    The bytes are those of csv.writer: rows end in \\r\\n, values are printed
    with 17 significant digits, and no field needs quoting.
    """
    rows = "".join(f"{n},{v:.17g}\r\n" for n, v in enumerate(values, start=1))
    with open(path, "w", newline="") as fh:
        fh.write("n,value\r\n" + rows)


@dataclass(frozen=True)
class QuotientNormTrace:
    """Norms a_n of the running predual averages, against the ideal distance.

    a_n = || (1/n) sum_{i=1..n} P^i x || decreases to the quotient norm
    dist(x, ideal); n * a_n is subadditive, so inf and limit agree.
    """

    norms: tuple[float, ...]
    distance: float
    ambient: str

    @property
    def inf_value(self) -> float:
        return min(self.norms)

    @property
    def limit_estimate(self) -> float:
        return self.norms[-1]

    def to_csv(self, path) -> None:
        _write_series_csv(path, self.norms)

    def summary(self) -> dict:
        return {
            "distance": self.distance,
            "inf": self.inf_value,
            "limit_estimate": self.limit_estimate,
        }

    def to_json(self) -> str:
        return json.dumps(self.summary(), sort_keys=True)


@operation
def quotient_norm_trace(x: np.ndarray, ideal: IdealBasis, n_max: int) -> QuotientNormTrace:
    """Compute a_n for n <= n_max and compare with the ideal distance.

    The averages are those of the ideal's predual operator, their norms
    those of its ambient.  Each step is one product P y: a padded row
    gather through P's nonzeros when d >= max(64, 16 k) (see `_row_gather`),
    the dense p @ y otherwise.  The gather adds the same products, so it
    agrees with p @ y up to rounding order and fused multiply-adds, and
    bitwise for two nonzeros a row with dyadic weights.  The steps fill a
    buffer of at most 256 rows, whose norms are taken in one pass, so memory
    stays bounded whatever n_max.  The distance is quotient_norm when the ideal
    carries its H-orbit labels, and the LP (l1_distance) otherwise.  The
    averages stay above it for every n; that bound is validated here, while
    the tightness |a_N - dist| is left to callers to assert at their chosen N.
    """
    n_max = _positive_integer(n_max, "n_max")
    p = ideal.predual_op
    gather = _row_gather(p)
    if gather is None:
        step = p.__matmul__
    else:
        cols, vals = gather
        step = lambda y: (vals * y[cols]).sum(axis=0)
    x = np.asarray(x, dtype=np.complex128)
    norms = np.empty(n_max)
    buf = np.empty((min(_TRACE_BLOCK, n_max), x.size), dtype=np.complex128)
    y = x
    acc = np.zeros_like(x)
    for start in range(0, n_max, buf.shape[0]):
        block = buf[: min(buf.shape[0], n_max - start)]
        for row in block:
            y = step(y)
            row[...] = y
        # the running sums acc + y_i in the order of the per-step loop
        block[0] += acc
        np.cumsum(block, axis=0, out=block)
        acc = block[-1].copy()
        block /= np.arange(start + 1, start + block.shape[0] + 1)[:, None]
        norms[start : start + block.shape[0]] = _ambient_norms(block, ideal.ambient)
    dist = quotient_norm(x, ideal) if ideal.labels is not None else l1_distance(x, ideal)
    slack = 1e-8 * max(1.0, ambient_norm(x, ideal.ambient))
    below = np.flatnonzero(norms < dist - slack)
    if below.size:
        n = int(below[0]) + 1
        raise RuntimeError(
            f"a_{n} = {norms[n - 1]} dipped below the quotient norm {dist}; "
            "numerical inconsistency"
        )
    return QuotientNormTrace(tuple(norms.tolist()), dist, ideal.ambient)


# --------------------------------------------------- bounded approximate identity

@dataclass(frozen=True)
class ApproximateIdentityReport:
    n: int
    max_residual: float

    def to_json(self) -> dict:
        return {"n": self.n, "max_residual": self.max_residual}


@operation
def approximate_identity(
    g: FiniteGroup, mu: FiniteMeasure, n: int
) -> tuple[FiniteMeasure, ApproximateIdentityReport]:
    """The defect measure eta_n = delta_e - (1/n) sum_{i<=n} mu^i, with its action.

    eta_n acts as a right approximate identity on the coboundary ideal; the
    report takes the canonical generating family phi_h = delta_h - delta_h * mu
    and records max_h ||phi_h * eta_n - phi_h||_1.  phi_h = delta_h * phi_e and
    left translation is an l^1 isometry, so every h gives the value of phi_e.
    """
    n = _positive_integer(n, "n")
    delta_e = point_mass(g, g.identity)
    eta = FiniteMeasure(g, delta_e.weights - cesaro_average(mu, n).weights)
    phi = FiniteMeasure(g, delta_e.weights - convolve(delta_e, mu).weights)
    moved = convolve(phi, eta)
    residual = tv_norm(FiniteMeasure(g, moved.weights - phi.weights))
    return eta, ApproximateIdentityReport(n, residual)


# ------------------------------------------------------- operator convolution

@operation
def diagonal_measure(s: np.ndarray, g: FiniteGroup) -> FiniteMeasure:
    """Diagonal read-off of an operator as a complex measure on the group."""
    s = np.asarray(s, dtype=np.complex128)
    if s.shape != (g.order, g.order):
        raise ValueError("operator dimension must equal the group order")
    return FiniteMeasure(g, np.diag(s).copy())


@operation
def operator_convolve(s: np.ndarray, t: np.ndarray, g: FiniteGroup) -> np.ndarray:
    """Convolution of matrices: conjugate T by left translations, weighted by
    the diagonal measure of S.

    S * T = sum_h diag(S)(h) rho_l(h) T rho_l(h)^{-1}; the trace multiplies
    and the diagonal measure is a homomorphism onto group convolution.  S and
    T may carry the same leading stack axes, shape (..., order, order); the
    pairs are convolved one by one, in one gather over the union of the
    diagonal supports.
    """
    s = np.asarray(s, dtype=np.complex128)
    t = np.asarray(t, dtype=np.complex128)
    n = g.order
    if s.shape[-2:] != (n, n) or t.shape[-2:] != (n, n) or s.shape != t.shape:
        raise ValueError("operators must match the group order")
    kappa = np.diagonal(s, axis1=-2, axis2=-1)
    h = np.nonzero(np.any(kappa != 0, axis=tuple(range(kappa.ndim - 1))))[0]
    vec = t.reshape(*t.shape[:-2], n * n)  # T[x, y] is vec[x n + y]
    return _table_apply(vec, _pair_images(g.left_quotients(h)), kappa[..., h]).reshape(t.shape)


# entries of T gathered by one stacked operator_convolve (4 MB complex): the
# random trials of a matrix-convolution check run in stacks of this size
_GATHER_ENTRIES = 1 << 18


def _trial_blocks(trials: int, order: int):
    """Stack sizes that split `trials` convolutions at one group order."""
    size = max(1, _GATHER_ENTRIES // order**3)
    for start in range(0, trials, size):
        yield min(size, trials - start)


@dataclass(frozen=True)
class LeftIdealReport:
    trials: int
    max_residual: float
    seed: int

    def to_json(self) -> dict:
        return {"trials": self.trials, "max_residual": self.max_residual, "seed": self.seed}


@operation
def left_ideal_residual(
    g: FiniteGroup, mu: FiniteMeasure, trials: int, seed: int = 0
) -> LeftIdealReport:
    """Check S * X stays in the trace-class ideal for X in it and arbitrary S.

    For each trial, S has entries uniform on the unit square of the complex
    plane, X = (I - P)Y for a random Y, and the residual is the Euclidean
    distance of vec(S * X) from the ideal span, ||E_H(S * X)||_2: for a
    probability measure the span is the orthogonal complement of the
    commutant of rho(H), onto which E_H projects.
    """
    if trials < 1:
        raise ValueError("trials must be >= 1")
    labels = _haar_labels(g, mu, "operators")
    if labels is None:
        raise ValueError("left_ideal_residual needs a probability measure: only then is "
                         "the ideal's orthogonal complement the commutant of rho(H)")
    back = reflect(mu)  # P, the trace predual, is the conjugation by reflect(mu)
    rng = np.random.default_rng(seed)
    n = g.order
    worst = 0.0
    for size in _trial_blocks(trials, n):
        # the numbers of `size` sequential draws of S (re, im) and Y (re, im)
        u = rng.random((size, 4, n, n))
        s = u[:, 0] + 1j * u[:, 1]
        y = u[:, 2] + 1j * u[:, 3]
        sx = operator_convolve(s, y - apply_conjugation(g, back, y), g)
        for row in haar_average(sx.reshape(size, n * n), labels):
            worst = max(worst, float(np.linalg.norm(row)))
    return LeftIdealReport(trials, worst, seed)
