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

import csv
import json
from dataclasses import dataclass

import numpy as np

from .groups import FiniteGroup, generated_subgroup
from .harmonic import orbit_labels
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
    as_matrix,
    conjugation_operator,
    predual_matrix,
)
from .subspaces import Subspace, column_space


@dataclass(frozen=True, eq=False)
class IdealBasis:
    """Range of (I - predual_op): the displacement ideal of the measure.

    labels numbers the H-orbits of the coordinates (see `orbit_labels`) when
    the ideal comes from a probability measure; it is None otherwise, and
    then only the LP measures distances to the ideal.
    """

    ambient: str  # "l1" or "trace"
    space: Subspace
    predual_op: np.ndarray
    labels: np.ndarray | None = None

    @property
    def rank(self) -> int:
        return self.space.rank

    def __repr__(self):
        return f"IdealBasis({self.ambient}, rank={self.rank}, dim={self.space.ambient_dim})"


def _displacement_ideal(p: np.ndarray, ambient: str,
                        labels: np.ndarray | None = None) -> IdealBasis:
    return IdealBasis(ambient, column_space(np.eye(p.shape[0]) - p), p, labels)


def _haar_labels(g: FiniteGroup, mu: FiniteMeasure, rep: str) -> np.ndarray | None:
    """H-orbit labels of a probability measure's ideal; None for any other measure."""
    if not mu.is_probability():
        return None
    return orbit_labels(g, generated_subgroup(g, mu.support()), rep)


def coboundary_ideal(g: FiniteGroup, mu: FiniteMeasure) -> IdealBasis:
    """The ideal {x - x*mu} inside l^1 of the group."""
    return _displacement_ideal(predual_matrix(g, mu), "l1", _haar_labels(g, mu, "functions"))


def trace_predual_matrix(g: FiniteGroup, mu: FiniteMeasure) -> np.ndarray:
    """Matrix (on row-major vec) of the trace-class predual action of mu.

    Pairing matrices by tr(SA), the predual of the averaged conjugation by
    mu is the averaged conjugation by the reflected measure.
    """
    return conjugation_operator(g, reflect(mu)).entries


def predual_coboundary_ideal(predual_op: np.ndarray, ambient: str = "l1") -> IdealBasis:
    """Range of (I - P) for an explicit predual operator matrix; no H is known."""
    return _displacement_ideal(as_matrix(predual_op), ambient)


def trace_class_ideal(g: FiniteGroup, mu: FiniteMeasure) -> IdealBasis:
    """The ideal {X - P X} of trace-class matrices, by an SVD of I - P.

    This is the generic side: the Haar average answers its questions without
    the order^2 x order^2 matrix.
    """
    return _displacement_ideal(trace_predual_matrix(g, mu), "trace",
                               _haar_labels(g, mu, "operators"))


def haar_average(x: np.ndarray, labels: np.ndarray) -> np.ndarray:
    """E_H x: each coordinate replaced by the mean of x over its H-orbit.

    On l^1 this is x * omega_H, with omega_H the Haar measure of H; on
    row-major vec'd matrices it is X -> (1/|H|) sum_{s in H} rho(s) X rho(s)^{-1}.
    It is the orthogonal projection onto the orbit indicators.
    """
    x = np.asarray(x, dtype=np.complex128)
    sums = np.bincount(labels, x.real) + 1j * np.bincount(labels, x.imag)
    return (sums / np.bincount(labels))[labels]


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


def l1_distance(x: np.ndarray, ideal: IdealBasis) -> float:
    """Predual-norm distance from x to the ideal.

    l1 ambient: exact, via the in-package simplex (real data); the oracle
    that quotient_norm is checked against.
    trace ambient: the closed form of quotient_norm.
    """
    x = np.asarray(x, dtype=np.complex128)
    if ideal.rank == 0:
        return ambient_norm(x, ideal.ambient)
    if ideal.ambient != "l1":
        return quotient_norm(x, ideal)
    from .lp import l1_distance_to_span

    dist, _ = l1_distance_to_span(x, ideal.space.basis.T)  # columns span the ideal
    return dist


# -------------------------------------------------------- averaged norm trace

# rows of the step buffer of quotient_norm_trace: its memory stays bounded
# whatever n_max, and the norms of a block are taken in one array pass
_TRACE_BLOCK = 256


@dataclass(frozen=True)
class QuotientNormTrace:
    """Norms a_n of the running predual averages, against the ideal distance.

    a_n = || (1/n) sum_{i=1..n} P^i x || decreases to the quotient norm
    dist(x, ideal); n * a_n is subadditive, so inf and limit agree.
    """

    norms: tuple[float, ...]
    distance: float | None
    ambient: str

    @property
    def inf_value(self) -> float:
        return min(self.norms)

    @property
    def limit_estimate(self) -> float:
        return self.norms[-1]

    def to_csv(self, path) -> None:
        with open(path, "w", newline="") as fh:
            writer = csv.writer(fh)
            writer.writerow(["n", "value"])
            for n, a in enumerate(self.norms, start=1):
                writer.writerow([n, f"{a:.17g}"])

    def summary(self) -> dict:
        return {
            "distance": self.distance,
            "inf": self.inf_value,
            "limit_estimate": self.limit_estimate,
        }

    def to_json(self) -> str:
        return json.dumps(self.summary(), sort_keys=True)


def quotient_norm_trace(
    x: np.ndarray,
    predual_op: np.ndarray,
    n_max: int,
    ideal: IdealBasis | None = None,
    ambient: str = "l1",
) -> QuotientNormTrace:
    """Compute a_n for n <= n_max and compare with the ideal distance.

    The distance is quotient_norm when the ideal carries its H-orbit labels,
    and the LP (l1_distance) otherwise.  The averages stay above it for
    every n; that bound is validated here, while the tightness |a_N - dist|
    is left to callers to assert at their chosen N.
    """
    if n_max < 1:
        raise ValueError("n_max must be >= 1")
    p = as_matrix(predual_op)
    x = np.asarray(x, dtype=np.complex128)
    if ideal is not None:
        ambient = ideal.ambient
    norms = np.empty(n_max)
    buf = np.empty((min(_TRACE_BLOCK, n_max), x.size), dtype=np.complex128)
    y = x
    acc = np.zeros_like(x)
    for start in range(0, n_max, buf.shape[0]):
        block = buf[: min(buf.shape[0], n_max - start)]
        for row in block:
            y = p @ y
            row[...] = y
        # the running sums acc + y_i in the order of the per-step loop
        block[0] += acc
        np.cumsum(block, axis=0, out=block)
        acc = block[-1].copy()
        block /= np.arange(start + 1, start + block.shape[0] + 1)[:, None]
        norms[start : start + block.shape[0]] = _ambient_norms(block, ambient)
    dist = None
    if ideal is not None:
        dist = quotient_norm(x, ideal) if ideal.labels is not None else l1_distance(x, ideal)
        slack = 1e-8 * max(1.0, ambient_norm(x, ambient))
        below = np.flatnonzero(norms < dist - slack)
        if below.size:
            n = int(below[0]) + 1
            raise RuntimeError(
                f"a_{n} = {norms[n - 1]} dipped below the quotient norm {dist}; "
                "numerical inconsistency"
            )
    return QuotientNormTrace(tuple(norms.tolist()), dist, ambient)


# --------------------------------------------------- bounded approximate identity

@dataclass(frozen=True)
class ApproximateIdentityReport:
    n: int
    max_residual: float
    residuals: tuple[float, ...]

    def to_json(self) -> dict:
        return {"n": self.n, "max_residual": self.max_residual}


def approximate_identity(
    g: FiniteGroup, mu: FiniteMeasure, n: int
) -> tuple[FiniteMeasure, ApproximateIdentityReport]:
    """The defect measure eta_n = delta_e - (1/n) sum_{i<=n} mu^i, with its action.

    eta_n acts as a right approximate identity on the coboundary ideal; the
    report takes the canonical generating family phi_h = delta_h - delta_h * mu
    and records ||phi_h * eta_n - phi_h||_1 for every h.
    """
    if n < 1:
        raise ValueError("n must be >= 1")
    delta_e = point_mass(g, g.identity)
    avg = cesaro_average(mu, n)
    eta = FiniteMeasure(g, delta_e.weights - avg.weights)
    residuals = []
    for h in range(g.order):
        delta_h = point_mass(g, h)
        phi = FiniteMeasure(g, delta_h.weights - convolve(delta_h, mu).weights)
        moved = convolve(phi, eta)
        residuals.append(tv_norm(FiniteMeasure(g, moved.weights - phi.weights)))
    return eta, ApproximateIdentityReport(n, max(residuals), tuple(residuals))


# ------------------------------------------------------- operator convolution

def diagonal_measure(s: np.ndarray, g: FiniteGroup) -> FiniteMeasure:
    """Diagonal read-off of an operator as a complex measure on the group."""
    s = as_matrix(s)
    if s.shape != (g.order, g.order):
        raise ValueError("operator dimension must equal the group order")
    return FiniteMeasure(g, np.diag(s).copy())


def operator_convolve(s: np.ndarray, t: np.ndarray, g: FiniteGroup) -> np.ndarray:
    """Convolution of matrices: conjugate T by left translations, weighted by
    the diagonal measure of S.

    S * T = sum_h diag(S)(h) rho_l(h) T rho_l(h)^{-1}; the trace multiplies
    and the diagonal measure is a homomorphism onto group convolution.
    """
    s = as_matrix(s)
    t = as_matrix(t)
    n = g.order
    if s.shape != (n, n) or t.shape != (n, n):
        raise ValueError("operators must match the group order")
    kappa = np.diag(s)
    h = np.nonzero(kappa)[0]
    idx = g.left_quotients(h)
    # row k holds T[h_k^-1 x, h_k^-1 y] in row-major (x, y) order
    flat = (idx[:, :, None] * n + idx[:, None, :]).reshape(h.size, n * n)
    return (kappa[h] @ t.reshape(-1)[flat]).reshape(n, n)


@dataclass(frozen=True)
class LeftIdealReport:
    trials: int
    max_residual: float
    seed: int

    def to_json(self) -> dict:
        return {"trials": self.trials, "max_residual": self.max_residual, "seed": self.seed}


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
    for _ in range(trials):
        s = rng.random((n, n)) + 1j * rng.random((n, n))
        y = (rng.random(n * n) + 1j * rng.random(n * n)).reshape(n, n)
        sx = operator_convolve(s, y - apply_conjugation(g, back, y), g)
        worst = max(worst, float(np.linalg.norm(haar_average(sx.reshape(-1), labels))))
    return LeftIdealReport(trials, worst, seed)
