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

from dataclasses import asdict, dataclass
from functools import cached_property

import numpy as np

from ._ops import operation
from .groups import FiniteGroup, _positive_integer, generated_subgroup, orbit_labels
from .lp import l1_distance_to_span
from .measures import (FiniteMeasure, _measure_on, cesaro_average, convolve, point_mass, reflect,
                       tv_norm)
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
    _measure_on(g, mu, "mu", probability=True)
    return IdealBasis("trace", trace_predual_matrix(g, mu), _haar_labels(g, mu, "operators"))


def haar_average(x: np.ndarray, labels: np.ndarray) -> np.ndarray:
    """E_H x: each coordinate replaced by the mean of x over its H-orbit.

    On l^1 this is x * omega_H, with omega_H the Haar measure of H; on
    row-major vec'd matrices it is X -> (1/|H|) sum_{s in H} rho(s) X rho(s)^{-1}.
    It is the orthogonal projection onto the orbit indicators.  `x` may carry
    leading stack axes, shape (..., len(labels)); each row is averaged, by
    one bincount over the labels offset per row, and comes back C-ordered, so
    that a reduction along the rows sums each one like a single vector.
    """
    x = np.asarray(x, dtype=np.complex128)
    n_orbits = int(labels.max()) + 1
    rows = x.reshape(-1, labels.size)
    offset = (labels + n_orbits * np.arange(len(rows))[:, None]).reshape(-1)
    size = n_orbits * len(rows)
    sums = (np.bincount(offset, rows.real.reshape(-1), size)
            + 1j * np.bincount(offset, rows.imag.reshape(-1), size))
    means = sums.reshape(-1, n_orbits) / np.bincount(labels, minlength=n_orbits)
    return np.take(means, labels, axis=-1).reshape(x.shape)


# ------------------------------------------------------------- predual norms

def _ambient_norms(rows: np.ndarray, ambient: str) -> np.ndarray:
    """Per row: l1, the sum of moduli; trace, the singular values of the unvec'd matrix."""
    if ambient == "l1":
        return np.abs(rows).sum(axis=1)
    if ambient == "trace":
        n = int(round(np.sqrt(rows.shape[1])))
        return np.linalg.svd(rows.reshape(-1, n, n), compute_uv=False).sum(axis=1)
    raise ValueError(f"unknown ambient {ambient!r}")


@operation
def quotient_norm(x: np.ndarray, ideal: IdealBasis):
    """dist(x, ideal) in the ambient norm, in closed form: ||E_H x||.

    x - E_H x lies in the ideal, and pairing x with the sign of E_H x (l^1)
    or with the adjoint polar part of E_H X (trace), both fixed by H, attains
    ||E_H x||.  In l^1 this is the sum over left cosets of |sum_coset x|; in
    the trace ambient, the trace norm of E_H X.  A vector x (d,) gives a
    float, a batch (d, k) of columns k floats, each bitwise its column's.
    """
    if ideal.labels is None:
        advice = ("build the trace ideal with trace_class_ideal, which records them"
                  if ideal.ambient == "trace"
                  else "use l1_distance for an ideal given only by its operator")
        raise ValueError("quotient_norm needs the H-orbit labels that coboundary_ideal and "
                         f"trace_class_ideal record for a probability measure; {advice}")
    x = np.asarray(x, dtype=np.complex128)
    norms = _ambient_norms(haar_average(x.reshape(x.shape[0], -1).T, ideal.labels), ideal.ambient)
    return float(norms[0]) if x.ndim == 1 else norms


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
    if ideal.ambient == "trace":
        return quotient_norm(x, ideal)
    x = np.asarray(x, dtype=np.complex128)
    if ideal.rank:
        return l1_distance_to_span(x, ideal.space.basis.T)  # columns span the ideal
    # the ideal is {0}; the copy is C-ordered, so each row sums as one vector
    dists = _ambient_norms(x.reshape(x.shape[0], -1).T.copy(), "l1")
    return float(dists[0]) if x.ndim == 1 else dists


# -------------------------------------------------------- averaged norm trace

# running sums in one block of quotient_norm_trace: one product with a power
# of P at every dimension, and one array pass for the norms, so memory stays a
# few blocks whatever n_max.  A power of two, so that the doubling of the
# first block ends on P^_TRACE_BLOCK
_TRACE_BLOCK = 256


def _power_sums(p: np.ndarray, x: np.ndarray, n_max: int):
    """The running sums S_n = sum_{i<=n} P^i x, n = 1..n_max, as rows of blocks.

    Blocks have _TRACE_BLOCK rows (the last may be short), and each is the
    caller's to overwrite.  A row vector y^T maps to (P y)^T = y^T P^T, and
    S_{a+j} = S_a + P^a S_j.  The first block doubles: with its first m rows
    and q = (P^m)^T, the next m are S_m + S_j q.  A later block, after S_a,
    holds S_a + D_j with D_j = P^a S_j, the block before's D times
    q = (P^_TRACE_BLOCK)^T: one matrix product and one addition per block.
    """
    size = min(_TRACE_BLOCK, n_max)
    first = np.empty((size, x.size), dtype=x.dtype)
    np.matmul(x, p.T, out=first[0])
    q, m = p.T, 1  # q = (P^m)^T while rows remain
    while m < size:
        k = min(m, size - m)
        np.matmul(first[:k], q, out=first[m : m + k])
        first[m : m + k] += first[m - 1]
        m += k
        if m < n_max:
            q = q @ q
    out = first.copy()
    yield out
    moved, spare, base = first, np.empty_like(first), first[-1]
    for start in range(size, n_max, size):
        rows = min(size, n_max - start)
        np.matmul(moved[:rows], q, out=spare[:rows])
        moved, spare = spare, moved
        np.add(base, moved[:rows], out=out[:rows])
        base = out[rows - 1].copy()
        yield out[:rows]


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


@operation
def quotient_norm_trace(x: np.ndarray, ideal: IdealBasis, n_max: int) -> QuotientNormTrace:
    """Compute a_n for n <= n_max and compare with the ideal distance.

    The averages are those of the ideal's predual operator P, their norms
    those of its ambient.  The running sums S_n = sum_{i<=n} P^i x come in
    blocks of 256, whose norms are taken in one pass, so memory stays a few
    blocks whatever n_max.  Each block is one matrix product with a power of
    P and one addition (see `_power_sums`): it adds in another order than a
    per-step loop of p @ y, and closer to that loop run in extended
    precision.  When P and x have zero imaginary part the whole call runs in
    float64.  The distance is quotient_norm when the ideal carries its
    H-orbit labels, and the LP (l1_distance) otherwise.  The averages stay
    above it for every n; the report does not judge itself, and callers
    check that bound and the tightness |a_N - dist| at their chosen N.
    """
    n_max = _positive_integer(n_max, "n_max")
    p = ideal.predual_op
    x = np.asarray(x, dtype=np.complex128)
    dist = quotient_norm(x, ideal) if ideal.labels is not None else l1_distance(x, ideal)
    if not (np.any(x.imag) or np.any(p.imag)):  # real data: real arithmetic, as subspaces._svd
        p, x = np.ascontiguousarray(p.real), x.real.copy()
    norms = np.empty(n_max)
    start = 0
    for sums in _power_sums(p, x, n_max):
        sums /= np.arange(start + 1, start + len(sums) + 1)[:, None]
        norms[start : start + len(sums)] = _ambient_norms(sums, ideal.ambient)
        start += len(sums)
    return QuotientNormTrace(tuple(norms.tolist()), dist, ideal.ambient)


# --------------------------------------------------- bounded approximate identity

@dataclass(frozen=True)
class ApproximateIdentityReport:
    n: int
    max_residual: float


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
    _measure_on(g, mu, "mu")
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
    and the diagonal measure is a homomorphism onto group convolution.
    Entrywise (S * T)[x, y] = sum_h kappa(h) T[h^{-1} x, h^{-1} y], and the
    quotient x^{-1} y is the same for (x, y) and (h^{-1} x, h^{-1} y).  So
    with T'[x, v] = T[x, x v] and L[x, z] = kappa(x z^{-1}), (S * T)' = L T':
    one n x n matrix product per pair, between two moves of the n^2 entries.
    S and T may carry the same leading stack axes, shape (..., order, order);
    the stack is one stacked product, which rounds each pair like a single call.
    """
    s = np.asarray(s, dtype=np.complex128)
    t = np.asarray(t, dtype=np.complex128)
    n = g.order
    if s.shape[-2:] != (n, n) or t.shape[-2:] != (n, n) or s.shape != t.shape:
        raise ValueError("operators must match the group order")
    rows = np.arange(n)[:, None] * n  # T[x, y] is vec[x n + y]
    forward = (rows + g.cayley).ravel()  # T'[x, v] = T[x, x v]
    back = (rows + g.left_quotients(np.arange(n))).ravel()  # X[x, y] = X'[x, x^{-1} y]
    slice_matrix = np.take(np.diagonal(s, axis1=-2, axis2=-1), g.cayley[:, g.inverses], axis=-1)
    vec = t.reshape(*t.shape[:-2], n * n)
    slices = slice_matrix @ np.take(vec, forward, axis=-1).reshape(t.shape)
    return np.take(slices.reshape(vec.shape), back, axis=-1).reshape(t.shape)


# complex multiply-adds of one stacked operator_convolve product, n^3 per
# pair: the random trials of a matrix-convolution check run in stacks of
# 2^18 // n^3 pairs (18 on S4), sizes kept because stacks sized by the n^2
# entries of a pair measured slower on S4
_STACK_MULADDS = 1 << 18


def _trial_blocks(trials: int, order: int):
    """Stack sizes that split `trials` convolutions at one group order."""
    size = max(1, _STACK_MULADDS // order**3)
    for start in range(0, trials, size):
        yield min(size, trials - start)


@dataclass(frozen=True)
class LeftIdealReport:
    trials: int
    max_residual: float
    seed: int

    def to_json(self) -> dict:
        return asdict(self)


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
    _measure_on(g, mu, "mu", probability=True)
    trials = _positive_integer(trials, "trials")
    seed = _positive_integer(seed, "seed", 0)
    labels = _haar_labels(g, mu, "operators")
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
        rows = haar_average(sx.reshape(size, n * n), labels)
        worst = max(worst, float(np.linalg.norm(rows, axis=-1).max()))
    return LeftIdealReport(trials, worst, seed)
