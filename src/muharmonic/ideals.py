"""Coboundary ideals of a measure, quotient norms, and operator convolution.

The predual of the averaging operator displaces a vector x to x - x*mu; the
closed span of such displacements is a left ideal whose annihilator is the
harmonic space.  At finite scale no closure is needed: the ideal is exactly
the range of (I - P) for the predual matrix P.  The same construction runs
in two ambients: l^1 vectors on the group, and matrices with the trace norm
(the predual of the conjugation representation).
"""

from __future__ import annotations

import csv
import json
from dataclasses import dataclass

import numpy as np

from .errors import CapacityError
from .groups import FiniteGroup
from .measures import (
    FiniteMeasure,
    cesaro_average,
    convolve,
    point_mass,
    reflect,
    tv_norm,
)
from .operators import (
    as_matrix,
    conjugation_operator,
    predual_matrix,
)
from .subspaces import Subspace, column_space

TRACE_GRID_DIM_CAP = 4


@dataclass(frozen=True, eq=False)
class IdealBasis:
    """Range of (I - predual_op): the displacement ideal of the measure."""

    ambient: str  # "l1" or "trace"
    space: Subspace
    predual_op: np.ndarray

    @property
    def rank(self) -> int:
        return self.space.rank

    def __repr__(self):
        return f"IdealBasis({self.ambient}, rank={self.rank}, dim={self.space.ambient_dim})"


def coboundary_ideal(g: FiniteGroup, mu: FiniteMeasure) -> IdealBasis:
    """The ideal {x - x*mu} inside l^1 of the group."""
    p = predual_matrix(g, mu)
    space = column_space(np.eye(g.order) - p)
    return IdealBasis("l1", space, p)


def trace_predual_matrix(g: FiniteGroup, mu: FiniteMeasure) -> np.ndarray:
    """Matrix (on row-major vec) of the trace-class predual action of mu.

    Pairing matrices by tr(SA), the predual of the averaged conjugation by
    mu is the averaged conjugation by the reflected measure.
    """
    return conjugation_operator(g, reflect(mu)).entries


def predual_coboundary_ideal(predual_op: np.ndarray, ambient: str = "l1") -> IdealBasis:
    """Range of (I - P) for an explicit predual operator matrix."""
    p = as_matrix(predual_op)
    space = column_space(np.eye(p.shape[0]) - p)
    return IdealBasis(ambient, space, p)


def trace_class_ideal(g: FiniteGroup, mu: FiniteMeasure) -> IdealBasis:
    return predual_coboundary_ideal(trace_predual_matrix(g, mu), ambient="trace")


# ------------------------------------------------------------- predual norms

def ambient_norm(x: np.ndarray, ambient: str) -> float:
    """l1: sum of moduli; trace: sum of singular values of the unvec'd matrix."""
    x = np.asarray(x, dtype=np.complex128)
    if ambient == "l1":
        return float(np.abs(x).sum())
    if ambient == "trace":
        n = int(round(np.sqrt(x.shape[0])))
        return float(np.linalg.svd(x.reshape(n, n), compute_uv=False).sum())
    raise ValueError(f"unknown ambient {ambient!r}")


def _trace_grid_distance(x: np.ndarray, basis: np.ndarray, step_target: float = 1e-6) -> float:
    """Grid-with-refinement minimization of ||x - B t||_tr over real t.

    Pattern search on a convex objective: evaluate a 5^r grid around the
    current center, recenter on the winner, and halve the window only when
    the winner was interior (a boundary winner means the optimum may still
    lie outside, so the box drifts with a gentler shrink).
    """
    r = basis.shape[1]
    center = np.zeros(r)
    width = ambient_norm(x, "trace") + 1.0
    offsets = np.array([-1.0, -0.5, 0.0, 0.5, 1.0])

    def value(t):
        return ambient_norm(x - basis @ t, "trace")

    while width > step_target:
        grids = np.meshgrid(*[center[i] + width * offsets for i in range(r)], indexing="ij")
        pts = np.stack([g.ravel() for g in grids], axis=1)
        vals = np.array([value(p) for p in pts])
        i = int(np.argmin(vals))
        on_boundary = bool(np.any(np.abs(pts[i] - center) >= width * 0.999))
        center = pts[i]
        width *= 0.9 if on_boundary else 0.5
    return value(center)


def l1_distance(x: np.ndarray, ideal: IdealBasis) -> float:
    """Predual-norm distance from x to the ideal.

    l1 ambient: exact, via the in-package simplex (real data).
    trace ambient: grid refinement, capped at vec dimension 4.
    """
    x = np.asarray(x, dtype=np.complex128)
    if ideal.rank == 0:
        return ambient_norm(x, ideal.ambient)
    basis = ideal.space.basis.T  # columns span the ideal
    if ideal.ambient == "l1":
        from .lp import l1_distance_to_span

        dist, _ = l1_distance_to_span(x, basis)
        return dist
    if ideal.space.ambient_dim > TRACE_GRID_DIM_CAP:
        raise CapacityError(
            f"trace-norm distance is grid-based and capped at vec dimension "
            f"{TRACE_GRID_DIM_CAP}; got {ideal.space.ambient_dim}"
        )
    if np.abs(basis.imag).max(initial=0.0) > 1e-12 or np.abs(x.imag).max(initial=0.0) > 1e-12:
        raise ValueError("trace-norm grid distance handles real data only")
    return _trace_grid_distance(x.real, basis.real)


# -------------------------------------------------------- averaged norm trace

@dataclass(frozen=True)
class QuotientNormTrace:
    """Norms a_n of the running predual averages, against the ideal distance.

    a_n = || (1/n) sum_{i=1..n} P^i x || decreases to the quotient norm
    dist(x, ideal); n * a_n is subadditive, so inf and limit agree.
    """

    norms: tuple[float, ...]
    lp_distance: float | None
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
            "lp_distance": self.lp_distance,
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

    The averages stay above the quotient norm for every n; that bound is
    validated here, while the tightness |a_N - dist| is left to callers to
    assert at their chosen N.
    """
    if n_max < 1:
        raise ValueError("n_max must be >= 1")
    p = as_matrix(predual_op)
    x = np.asarray(x, dtype=np.complex128)
    if ideal is not None:
        ambient = ideal.ambient
    norms = []
    y = x.copy()
    acc = np.zeros_like(x)
    for n in range(1, n_max + 1):
        y = p @ y
        acc = acc + y
        norms.append(ambient_norm(acc / n, ambient))
    dist = None
    if ideal is not None:
        dist = l1_distance(x, ideal)
        slack = 1e-8 * max(1.0, ambient_norm(x, ambient))
        for n, a in enumerate(norms, start=1):
            if a < dist - slack:
                raise RuntimeError(
                    f"a_{n} = {a} dipped below the quotient norm {dist}; "
                    "numerical inconsistency"
                )
    return QuotientNormTrace(tuple(norms), dist, ambient)


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
    return np.tensordot(kappa[h], t[idx[:, :, None], idx[:, None, :]], axes=1)


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
    distance of vec(S * X) from the ideal span.
    """
    if trials < 1:
        raise ValueError("trials must be >= 1")
    ideal = trace_class_ideal(g, mu)
    rng = np.random.default_rng(seed)
    n = g.order
    p = ideal.predual_op
    worst = 0.0
    for _ in range(trials):
        s = rng.random((n, n)) + 1j * rng.random((n, n))
        y = rng.random(n * n) + 1j * rng.random(n * n)
        x_vec = y - p @ y
        sx = operator_convolve(s, x_vec.reshape(n, n), g)
        worst = max(worst, ideal.space.residual(sx.reshape(-1)))
    return LeftIdealReport(trials, worst, seed)
