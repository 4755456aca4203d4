"""Scenario catalog, config-driven experiment runner, and acceptance checks.

Every experiment is deterministic given its config and seed; Monte Carlo
seeds are spawned per chunk so aggregation order never matters.  The suite
scenario runs each acceptance criterion at its pinned tolerance and then
asserts that the run called every public operation (each function marked
``@operation``) at least once along the way.
"""

from __future__ import annotations

import inspect
import itertools
import json
import math
import os
import time
import zlib
from dataclasses import asdict, dataclass, field, fields
from fractions import Fraction
from functools import lru_cache, reduce

import numpy as np

from ._ops import MARKED, collecting, operation
from .errors import ConfigError, ConstructionError
from .freegroup import (FreeWord, _packed_ball, _packed_neighbors, empty_word, free_ball,
                        free_inverse, free_mul, word)
from .groups import (FiniteGroup, cyclic_group, dihedral_group, generated_subgroup,
                     group_from_table, product_group, symmetric_group)
from .harmonic import (
    _indicator_space,
    cesaro_mean,
    cesaro_projection,
    commutant,
    diamond_product,
    harmonic_space,
    harmonic_triviality_verdict,
    l1_harmonic_triviality,
    trivial_solution_space,
)
from .ideals import (
    QuotientNormTrace,
    _trial_blocks,
    _write_series_csv,
    approximate_identity,
    coboundary_ideal,
    diagonal_measure,
    l1_distance,
    left_ideal_residual,
    operator_convolve,
    quotient_norm,
    quotient_norm_trace,
    trace_class_ideal,
)
from .measures import (
    FiniteMeasure,
    _group_convolve,
    cesaro_average,
    convolve,
    convolution_power,
    from_pairs,
    haar_on_subgroup,
    point_mass,
    reflect,
    simple_random_walk_z,
    tv_distance,
    tv_norm,
    uniform_on,
    weak_star_decay,
)
from .operators import (
    GSpaceAction,
    conjugation_operator,
    coset_action,
    gspace_markov_matrix,
    left_regular,
    predual_action,
    right_markov_matrix,
    right_regular,
)
from .subspaces import column_space, kernel, mutual_residual
from .walks import (
    CylinderEstimate,
    DiamondReport,
    MartingaleReport,
    _poisson_values,
    boundary_reports,
    harmonic_measure_cylinder,
    poisson_extension,
    sample_path,
    stationary_measure,
    subharmonic_check,
)

MASTER_SEED = 20260808


# ------------------------------------------------------------------- catalog

@dataclass(frozen=True, eq=False)
class CatalogEntry:
    name: str
    group: FiniteGroup
    measure: FiniteMeasure

    def __repr__(self):
        return f"CatalogEntry({self.name})"


@lru_cache(maxsize=1)
def _catalog_tuple() -> tuple[CatalogEntry, ...]:
    z2, z4, z5, z6 = (cyclic_group(n) for n in (2, 4, 5, 6))
    v4 = product_group(z2, z2)
    s3, s4 = symmetric_group(3), symmetric_group(4)
    return (
        CatalogEntry("Z2_delta1", z2, point_mass(z2, 1)),
        CatalogEntry("Z4_delta1", z4, point_mass(z4, 1)),
        CatalogEntry("Z6_delta2", z6, point_mass(z6, 2)),
        # (1,0) has index 2 and (0,1) index 1 in the product indexing
        CatalogEntry("V4_two_gens", v4, from_pairs(v4, [(2, 0.5), (1, 0.5)])),
        CatalogEntry(
            "S3_transpositions",
            s3,
            uniform_on(s3, [s3.labels.index("(1 2)"), s3.labels.index("(1 3)")]),
        ),
        CatalogEntry(
            "S4_two_gens",
            s4,
            uniform_on(s4, [s4.labels.index("(1 2)"), s4.labels.index("(1 2 3 4)")]),
        ),
        CatalogEntry("Z5_07_03", z5, from_pairs(z5, [(1, 0.7), (2, 0.3)])),
    )


@operation
def catalog() -> list[CatalogEntry]:
    """The built-in (group, measure) pairs every group-side check runs over."""
    return list(_catalog_tuple())


def catalog_entry(name: str) -> CatalogEntry:
    for e in _catalog_tuple():
        if e.name == name:
            return e
    raise ConfigError(f"entry: unknown catalog entry {name!r}")


# ------------------------------------------------------------- records

@dataclass(frozen=True)
class CheckResult:
    name: str
    value: float
    bound: float
    passed: bool

    def to_json(self) -> dict:
        return asdict(self)


@dataclass
class RunRecord:
    scenario: str
    config: dict
    checks: list[CheckResult] = field(default_factory=list)
    extra: dict = field(default_factory=dict)
    started: float = 0.0
    finished: float = 0.0

    @property
    def passed(self) -> bool:
        return all(c.passed for c in self.checks)

    def payload(self) -> dict:
        return {
            "scenario": self.scenario,
            "config": self.config,
            "checks": [c.to_json() for c in self.checks],
            "extra": self.extra,
            "verdict": "pass" if self.passed else "fail",
        }

    def canonical_json(self) -> str:
        """Deterministic serialization: timestamps excluded."""
        return json.dumps(self.payload(), sort_keys=True)

    def to_json(self) -> str:
        body = self.payload()
        body["started"] = self.started
        body["finished"] = self.finished
        return json.dumps(body, sort_keys=True)


_MODES = {"le": float.__le__, "ge": float.__ge__, "eq": float.__eq__}


def _check(name: str, value: float, bound: float, mode: str = "le") -> CheckResult:
    value, bound = float(value), float(bound)
    return CheckResult(name, value, bound, _MODES[mode](value, bound))


# ------------------------------------------------------------- config

_MEASURE_FORMS = ("point", "uniform_on", "entries")


@dataclass(frozen=True)
class _Kind:
    """What a config field holds: its JSON type and, for integers, its least value."""

    type: type
    expected: str
    least: int | None = None

    def check(self, val, path: str) -> None:
        """Refuse, naming the path, a value that is not of this kind."""
        if (not isinstance(val, self.type) or isinstance(val, bool)
                or (self.least is not None and val < self.least)):
            raise ConfigError(f"{path}: expected {self.expected}, got {val!r}")


_OBJECT = _Kind(dict, "a JSON object")
_TEXT = _Kind(str, "a string")
_SIZE = _Kind(int, "a positive integer", 1)
_SEED = _Kind(int, "a nonnegative integer", 0)


def _field(kind: _Kind, flag_help: str | dict[str, str] | None = None, default=None):
    """A config field; a field with flag help also has the command-line flag --<name>.

    The help is one text, or a text per scenario where the field's meaning differs.
    """
    return field(default=default, metadata={"kind": kind, "help": flag_help})


@dataclass(frozen=True)
class ExperimentConfig:
    """A scenario and its settings, checked on construction.

    The fields are the config-file keys; `None` means unset, and a size left unset
    takes the scenario's default.  A field the scenario does not read must keep its
    default.  The fields with flag help, in this order, are the CLI flags after --config.
    """

    scenario: str
    group: dict | None = _field(_OBJECT)
    measure: dict | None = _field(_OBJECT)
    seed: int = _field(_SEED, "master seed", MASTER_SEED)
    out: str | None = _field(_TEXT, "output directory for JSON records and CSV series")
    paths: int | None = _field(_SIZE, "Monte Carlo path count")
    n: int | None = _field(_SIZE, "step count / averaging horizon")
    trials: int | None = _field(_SIZE, {
        "ncconv": "random trials per entry (each trial makes five operator convolutions, "
                  "about 3 ms on S5)",
        "stationary": "random coset actions"})
    word: str = _field(_TEXT, "free-group cylinder, e.g. a, ab, a'b", "a")
    entry: str | None = _field(_TEXT, "run a single catalog entry by name")

    def __post_init__(self):
        if self.scenario not in SCENARIOS:
            raise ConfigError(f"scenario: must be one of {SCENARIOS}, got {self.scenario!r}")
        reads = scenario_fields(self.scenario)
        for f in fields(self)[1:]:  # the fields after scenario
            val, kind = getattr(self, f.name), f.metadata["kind"]
            if f.name not in reads and val != f.default:
                raise ConfigError(f"{f.name}: not read by {self.scenario}")
            if val is not None or f.default is not None:
                kind.check(val, f.name)
        if (self.group is None) != (self.measure is None):
            raise ConfigError("measure: a group and a measure must be given together")

    @staticmethod
    def from_dict(raw: dict) -> "ExperimentConfig":
        """Config from a JSON object; a null value leaves its field unset."""
        if not isinstance(raw, dict):
            raise ConfigError("config: expected a JSON object")
        names = {f.name for f in fields(ExperimentConfig)}
        for key in raw:
            if key not in names:
                raise ConfigError(f"{key}: unknown config key")
        given = {key: val for key, val in raw.items() if val is not None}
        return ExperimentConfig(given.pop("scenario", None), **given)

    def echo(self) -> dict:
        """The record's copy of the config: the scenario and the fields it reads,
        but the output directory."""
        reads = scenario_fields(self.scenario).keys() - {"out"}
        return {key: val for key, val in asdict(self).items()
                if key == "scenario" or key in reads}

    def resolve_pairs(self) -> list[CatalogEntry]:
        """Catalog entries to run over: explicit pair > named entry > all."""
        if self.group is not None:
            g = _group_from_spec(self.group, "group")
            mu = _measure_from_spec(g, self.measure)
            if not mu.is_probability():
                raise ConfigError(f"measure.{next(iter(self.measure))}: weights must be "
                                  f"nonnegative reals summing to 1, got total "
                                  f"{mu.total_mass():.6g}")
            return [CatalogEntry("custom", g, mu)]
        if self.entry is not None:
            return [catalog_entry(self.entry)]
        return catalog()


def _group_from_spec(spec, path: str) -> FiniteGroup:
    """Group from a spec of the README's forms; the factors of a product are specs at
    <path>.factors[i].  The constructor checks its parameters, and each of its messages
    starts with the parameter's name, so prefixing the path names the field."""
    # each kind: its constructor and the spec's keys besides "kind", which are the
    # constructor's parameters, the first one required.  The table is made per call
    # from the names as bound now, so a wrapper bound to a name sees the call.
    kinds = {"cyclic": (cyclic_group, "n"), "dihedral": (dihedral_group, "n"),
             "symmetric": (symmetric_group, "n"),
             "product": (lambda factors: reduce(product_group, factors), "factors"),
             "from_table": (group_from_table, "cayley", "labels")}
    if not isinstance(spec, dict):
        raise ConfigError(f"{path}: expected a JSON object, got {spec!r}")
    kind = spec.get("kind")
    if not isinstance(kind, str) or kind not in kinds:
        raise ConfigError(f"{path}.kind: expected one of {' / '.join(kinds)}, got {kind!r}")
    build, *keys = kinds[kind]
    params = {key: val for key, val in spec.items() if key != "kind"}
    for key in params:
        if key not in keys:
            raise ConfigError(f"{path}.{key}: unknown key")
    if keys[0] not in params:
        raise ConfigError(f"{path}.{keys[0]}: missing")
    if kind == "product":
        factors = params["factors"]
        if not isinstance(factors, list) or len(factors) < 2:
            raise ConfigError(f"{path}.factors: expected a list of two or more group specs, "
                              f"got {factors!r}")
        params["factors"] = [_group_from_spec(f, f"{path}.factors[{i}]")
                             for i, f in enumerate(factors)]
    try:
        return build(**params)
    except (TypeError, ConstructionError) as exc:  # a CapacityError ends the run with exit 3
        raise ConfigError(f"{path}.{exc}") from exc


def _measure_from_spec(g: FiniteGroup, spec: dict) -> FiniteMeasure:
    """Measure from a spec of one form.  The constructor checks the value, and the
    form's path takes the place of the parameter's name in its messages."""
    for key in spec:
        if key not in _MEASURE_FORMS:
            raise ConfigError(f"measure.{key}: unknown measure form")
    if len(spec) != 1:
        raise ConfigError(f"measure: expected one of point / uniform_on / entries, "
                          f"got {sorted(spec)}")
    (form, value), = spec.items()
    if form == "uniform_on" and not isinstance(value, list):
        raise ConfigError("measure.uniform_on: expected a nonempty list of element indices")
    if form == "entries":
        if not isinstance(value, list):
            raise ConfigError("measure.entries: expected a list of [index, weight] items")
        for item in value:
            if not isinstance(item, list) or len(item) != 2:
                raise ConfigError(f"measure.entries: expected [index, weight], got {item!r}")
    # each form's constructor and the name of the parameter the form fills
    build, param = {"point": (point_mass, "x"), "uniform_on": (uniform_on, "subset"),
                    "entries": (from_pairs, "pairs")}[form]
    try:
        return build(g, value)
    except (TypeError, ConstructionError) as exc:
        raise ConfigError(f"measure.{form}: {str(exc).removeprefix(param + ': ')}") from exc


def parse_word(k: int, spec: str) -> FreeWord:
    """Parse words like "a", "ab", "a'b" into reduced free words."""
    alphabet = "abcdefghijklmnopqrstuvwxyz"[:k]
    letters = []
    for i, ch in enumerate(spec):
        if ch in alphabet:
            letters.append(alphabet.index(ch) + 1)
        elif ch == "'" and i and spec[i - 1] in alphabet:  # a' inverts the letter a
            letters[-1] = -letters[-1]
        else:
            raise ConfigError(f"word: unexpected character {ch!r}")
    return word(k, letters)


# ---------------------------------------------------------- check builders
# Each scenario is one builder: it returns the checks and fills `extra` (the
# record's extras).  Its parameters after `extra`, with their defaults, are the
# config fields the scenario reads; `pairs` stands for group, measure and entry.

def _harmonic_checks(extra: dict, pairs: list[CatalogEntry]) -> list[CheckResult]:
    checks = []
    for e in pairs:
        verdict = harmonic_triviality_verdict(e.group, e.measure)
        checks.append(_check(f"{e.name}: dim harmonic == cosets",
                             verdict.harmonic_rank, verdict.coset_count, "eq"))
        checks.append(_check(f"{e.name}: subspace residual",
                             verdict.subspace_residual, 1e-9))
        checks.append(_check(f"{e.name}: verdict consistent",
                             1.0 if verdict.consistent else 0.0, 1.0, "ge"))
        # exercise the diamond product on an explicit harmonic pair: a coset
        # indicator, nonconstant whenever there are two or more cosets
        h_mu = generated_subgroup(e.group, e.measure.support())
        h = trivial_solution_space(e.group, h_mu).basis[0]
        dia = diamond_product(h, h, e.group, e.measure)
        checks.append(_check(f"{e.name}: diamond == pointwise",
                             float(np.abs(dia - h * h).max()), 1e-12))
        extra[e.name] = verdict.to_json()
    return checks


def _cesaro_checks(extra: dict, pairs: list[CatalogEntry], n: int = 1000) -> list[CheckResult]:
    """A_n against Haar and the Cesaro gap at the same n, from one projection report."""
    checks = []
    for e in pairs:
        g = e.group
        omega = haar_on_subgroup(g, generated_subgroup(g, e.measure.support()))
        report = cesaro_projection(right_markov_matrix(g, e.measure), n_max=n)
        checks.append(_check(f"{e.name}: tv(A_{n}, haar)",
                             tv_distance(FiniteMeasure(g, report.average[g.identity]), omega),
                             1e-2))
        target = right_markov_matrix(g, omega)
        checks.append(_check(f"{e.name}: ||K - pi(haar)||_F",
                             float(np.linalg.norm(report.K - target)), 1e-9))
        checks.append(_check(f"{e.name}: tv_norm(haar) == 1",
                             abs(tv_norm(omega) - 1.0), 1e-12))
        extra[e.name] = report.to_json()
    return checks


def _entry_seed(base: int, name: str) -> int:
    """Per-entry seed derived from the entry name, not its position, so an
    entry draws the same numbers alone (--entry) as within the catalog."""
    return base + (zlib.crc32(name.encode()) % 1_000_000)


def _ncconv_checks(extra: dict, pairs: list[CatalogEntry], trials: int = 100,
                   seed: int = MASTER_SEED) -> list[CheckResult]:
    checks = []
    for e in pairs:
        g = e.group
        n = g.order
        entry_seed = _entry_seed(seed, e.name)
        rng = np.random.default_rng(entry_seed)
        worst_tr = worst_kappa = worst_assoc = 0.0
        for size in _trial_blocks(trials, n):
            # the numbers of `size` sequential draws of A, B and C (re, im each)
            u = rng.random((size, 6, n, n))
            a, b, c = (u[:, i] + 1j * u[:, i + 1] for i in (0, 2, 4))
            ab = operator_convolve(a, b, g)
            # complex scalars: numpy's array product rounds differently
            for tr_ab, tr_a, tr_b in zip(*(np.trace(m, axis1=-2, axis2=-1) for m in (ab, a, b))):
                worst_tr = max(worst_tr, abs(tr_ab - tr_a * tr_b))
            diag_ab, diag_a, diag_b = (np.diagonal(m, axis1=-2, axis2=-1) for m in (ab, a, b))
            kappa = _group_convolve(g, diag_a, diag_b)
            worst_kappa = max(worst_kappa, float(np.abs(diag_ab - kappa).max()))
            worst_assoc = max(worst_assoc, float(np.abs(
                operator_convolve(ab, c, g) - operator_convolve(a, operator_convolve(b, c, g), g)
            ).max()))
        checks.append(_check(f"{e.name}: |tr(S*T) - trS trT|", worst_tr, 1e-10))
        checks.append(_check(f"{e.name}: kappa homomorphism", worst_kappa, 1e-10))
        checks.append(_check(f"{e.name}: associativity", worst_assoc, 1e-10))
        report = left_ideal_residual(g, e.measure, trials=trials, seed=entry_seed + 1)
        checks.append(_check(f"{e.name}: left-ideal residual", report.max_residual, 1e-9))
        extra[e.name] = report.to_json()
    return checks


def _random_coset_action(seed: int) -> tuple[GSpaceAction, FiniteMeasure]:
    """G acting on G/K, K trivial or cyclic, with a walk law on one or two elements.

    So H = <supp mu> is often a proper subgroup with several orbits on the
    points, and the stationary probabilities form a simplex of dimension > 0.
    """
    rng = np.random.default_rng(seed)
    g = catalog()[int(rng.integers(0, len(catalog())))].group
    k = generated_subgroup(g, [g.identity if rng.random() < 0.5 else int(rng.integers(g.order))])
    support = rng.choice(g.order, size=min(int(rng.integers(1, 3)), g.order), replace=False)
    weights = rng.random(support.size) + 0.05
    return coset_action(g, k), from_pairs(g, zip(support.tolist(), weights / weights.sum()))


def _stationary_checks(extra: dict, trials: int = 20,
                       seed: int = MASTER_SEED) -> list[CheckResult]:
    """S3 on its three points, then the orbit form on `trials` random coset actions
    against the generic kernel of P^T - I."""
    s3 = symmetric_group(3)
    action = GSpaceAction(s3, 3, np.array(list(itertools.permutations(range(3))), dtype=np.int64))
    mu = uniform_on(s3, [s3.labels.index("(1 2)"), s3.labels.index("(1 3)")])
    report = stationary_measure(action, mu)
    extra["s3_on_points"] = report.to_json()
    # one orbit, so the uniform measure is the only stationary probability
    weights = np.array([sigma.weights for sigma in report.measures])
    checks = [_check("S3 on points: uniform", float(np.abs(weights - 1 / 3).max()), 1e-12)]
    rank_gaps = 0
    worst_res = worst_fixed = 0.0
    dims = []
    for i in range(trials):
        action_i, mu_i = _random_coset_action(seed + i)
        rep = stationary_measure(action_i, mu_i)
        p = gspace_markov_matrix(action_i, mu_i).real
        oracle = kernel(p.T - np.eye(action_i.points))
        orbits = _indicator_space(rep.labels)
        rank_gaps += oracle.rank != orbits.rank
        worst_res = max(worst_res, mutual_residual(oracle, orbits))
        sigmas = np.array([sigma.weights.real for sigma in rep.measures])
        worst_fixed = max(worst_fixed, float(np.abs(sigmas @ p - sigmas).sum(axis=1).max()))
        dims.append(rep.fixed_dim)
    extra["fixed_dims"] = dims
    return checks + [
        _check("random actions: draws with rank(kernel) != orbit count", rank_gaps, 0, "eq"),
        _check("random actions: kernel vs orbit-indicator residual", worst_res, 1e-9),
        _check("random actions: max ||sigma P - sigma||_1", worst_fixed, 1e-12),
    ]


def _decay_checks(extra: dict, n: int = 200, out: str | None = None) -> list[CheckResult]:
    """<mu^m, delta_0> for the simple walk on Z, m = 1..n, against binomials."""
    if n < 4:
        # below 4 the binomial or the decreasing-sequence loop has no terms
        raise ConfigError(f"n: decay needs at least 4 steps, got {n}")
    mu = simple_random_walk_z()
    report = weak_star_decay(mu, [(0, 1.0)], n)
    vals = report.real_values()
    worst = 0.0
    for m in range(1, n // 2 + 1):
        exact = float(Fraction(math.comb(2 * m, m), 4**m))
        worst = max(worst, abs(vals[2 * m - 1] - exact))
    power100 = convolution_power(mu, 100)
    at_zero = float(power100.weights[0 - power100.carrier.lo].real)
    increasing_violation = 0.0
    for m in range(1, n // 2):
        increasing_violation = max(increasing_violation, vals[2 * m + 1] - vals[2 * m - 1])
    extra["final_value"] = vals[-1]
    if out:
        _write_series_csv(os.path.join(out, "decay_srw.csv"), vals)
    return [
        _check(f"binomial match over 2m <= {n}", worst, 1e-12),
        _check("P(S_100 = 0)", abs(at_zero - 0.07958923738717877), 1e-7),
        _check("even-n sequence decreasing", increasing_violation, 0.0),
    ]


# ---------------------------------------------------------------- criteria
# Each criterion function returns its CheckResults.

def _crit_projection() -> list[CheckResult]:
    checks = []
    for e in catalog():
        m = right_markov_matrix(e.group, e.measure)
        report = cesaro_projection(m, n_max=2000)
        k = report.K
        checks.append(_check(f"{e.name}: ||K^2-K||", float(np.linalg.norm(k @ k - k)), 1e-9))
        checks.append(_check(f"{e.name}: | ||K||_inf - 1 |",
                             abs(float(np.abs(k).sum(axis=1).max()) - 1.0), 1e-12))
        checks.append(_check(f"{e.name}: max commutation residual",
                             max(float(np.linalg.norm(k @ t - t @ k))
                                 for t in left_regular(e.group)), 1e-12))
        checks.append(_check(f"{e.name}: entrywise >= -1e-12",
                             float(-k.real.min()), 1e-12))
        space = harmonic_space(m)
        checks.append(_check(f"{e.name}: rank K == dim harmonic",
                             column_space(k).rank, space.rank, "eq"))
        worst = max(space.residual(col) for col in k.T)
        checks.append(_check(f"{e.name}: range(K) in harmonic space", worst, 1e-9))
    return checks


def _crit_operator_harmonic() -> list[CheckResult]:
    checks = []
    for e in catalog():
        pi_mu = conjugation_operator(e.group, e.measure)
        fixed = harmonic_space(pi_mu)
        h_mu = generated_subgroup(e.group, e.measure.support())
        comm = trivial_solution_space(e.group, h_mu, rep="operators")
        checks.append(_check(f"{e.name}: fixed rank == commutant rank",
                             fixed.rank, comm.rank, "eq"))
        checks.append(_check(f"{e.name}: operator-space residual",
                             mutual_residual(fixed, comm), 1e-9))
        if e.name == "S3_transpositions":
            rho = right_regular(e.group)
            generic = commutant([rho[x] for x in h_mu.members])
            checks.append(_check("S3: commutant rank == 6", generic.rank, 6, "eq"))
    return checks


def _crit_nc_convolution() -> list[CheckResult]:
    # frozen worked example on Z/2, with kappa(S*T) = kappa(S) * kappa(T) exact
    z2 = catalog_entry("Z2_delta1")
    s = np.array([[1.0, 2.0], [3.0, 4.0]], dtype=np.complex128)
    t = np.array([[5.0, 6.0], [7.0, 8.0]], dtype=np.complex128)
    st = operator_convolve(s, t, z2.group)
    expected = np.array([[37.0, 34.0], [31.0, 28.0]])
    kappa = convolve(diagonal_measure(s, z2.group), diagonal_measure(t, z2.group))
    kappa_gap = float(np.abs(diagonal_measure(st, z2.group).weights - kappa.weights).max())
    # the generic SVD side of the left-ideal property, on the same example:
    # S * (T - PTP) stays in the trace-class ideal
    ideal = trace_class_ideal(z2.group, z2.measure)
    member = (t.reshape(-1) - ideal.predual_op @ t.reshape(-1)).reshape(2, 2)
    inside = ideal.space.contains(operator_convolve(s, member, z2.group).reshape(-1))
    worked = _check("Z2 worked example exact",
                    max(float(np.abs(st - expected).max()), kappa_gap, 0.0 if inside else 1.0),
                    0.0)
    mu6 = catalog_entry("Z6_delta2").measure
    involution = _check("reflect is an involution", tv_distance(reflect(reflect(mu6)), mu6), 0.0)
    return [worked, *_ncconv_checks({}, catalog()), involution]


def _crit_quotient_norms() -> list[CheckResult]:
    checks = []
    z2 = catalog_entry("Z2_delta1")
    ideal2 = coboundary_ideal(z2.group, z2.measure)
    trace_a = quotient_norm_trace(np.array([1.0, 0.0]), ideal2, 64)
    checks.append(_check("Z2 dist((1,0)) == 1", abs(trace_a.distance - 1.0), 1e-12))
    checks.append(_check("Z2 a_n == 1 throughout",
                         max(abs(a - 1.0) for a in trace_a.norms), 1e-12))
    trace_b = quotient_norm_trace(np.array([1.0, -1.0]), ideal2, 64)
    checks.append(_check("Z2 dist((1,-1)) == 0", abs(trace_b.distance), 1e-12))
    checks.append(_check("Z2 a_2 == 0", abs(trace_b.norms[1]), 1e-12))
    checks += [_never_below_check("Z2 (1,0)", trace_a, 1.0),
               _never_below_check("Z2 (1,-1)", trace_b, 2.0)]
    n_avg = 4096
    witnesses = []
    for idx, e in enumerate(catalog()):
        ideal = coboundary_ideal(e.group, e.measure)
        d = e.group.order
        rng = np.random.default_rng(MASTER_SEED + 3000 + idx)
        xs = rng.standard_normal((d, 20))
        xs /= np.abs(xs).sum(axis=0, keepdims=True)  # signed, unit l1 mass
        a_final = np.abs(cesaro_mean(ideal.predual_op, n_avg) @ xs).sum(axis=0)
        lp = l1_distance(xs, ideal)  # one complement for the 20 points
        closed = quotient_norm(xs, ideal)
        checks.append(_check(f"{e.name}: |a_4096 - lp distance|",
                             np.abs(a_final - lp).max(), 5e-3))
        witnesses.append(_check(f"{e.name}: |lp - closed form|", np.abs(lp - closed).max(), 1e-9))
    # <P x, h> = <x, M h>: the predual action is the transpose of the Markov operator
    e6 = catalog_entry("Z6_delta2")
    x = np.array([1.0, 2.0, 0.0, 0.0, 1.0, -1.0], dtype=np.complex128)
    h = np.arange(6, dtype=np.complex128)
    m = right_markov_matrix(e6.group, e6.measure)
    pairing_gap = abs(np.dot(predual_action(x, e6.measure), h) - np.dot(x, m @ h))
    return checks + witnesses + [_check("predual pairing identity", float(pairing_gap), 1e-12)]


def _crit_approximate_identity() -> list[CheckResult]:
    checks = []
    z2 = catalog_entry("Z2_delta1")
    _, exact = approximate_identity(z2.group, z2.measure, 2)
    checks.append(_check("Z2 exact at n=2", exact.max_residual, 1e-15))
    for e in catalog():
        _, report = approximate_identity(e.group, e.measure, 256)
        checks.append(_check(f"{e.name}: residual at n=256", report.max_residual, 1e-2))
    # the closed-form average against (1/8) sum_{i=1..8} mu^i by repeated convolution
    worst = 0.0
    for e in catalog():
        powers = itertools.accumulate([e.measure] * 8, convolve)  # mu^1, ..., mu^8
        mean = FiniteMeasure(e.group, sum(p.weights for p in powers) / 8)
        worst = max(worst, tv_distance(cesaro_average(e.measure, 8), mean))
    return checks + [_check("cesaro_average(mu, 8) == (1/8) sum_{i<=8} mu^i", worst, 1e-12)]


# The boundary checks of one cylinder [w], read off a `boundary_reports` pass.
# Criteria 8-10 give them pinned bounds, and `freewalk` bounds from its sizes.

def _fraction(x: float) -> str:
    """x as the fraction it is, e.g. 1/12; as a decimal if no small fraction is x."""
    f = Fraction(x).limit_denominator()
    return str(f) if math.isclose(f, x, rel_tol=1e-12) else f"{x:.6g}"


def _cylinder_check(w: FreeWord, est: CylinderEstimate, bound: float) -> CheckResult:
    exact = harmonic_measure_cylinder(w.rank, w)
    return _check(f"|nu_hat([{w}]) - {_fraction(exact)}|", abs(est.estimate - exact), bound)


def _martingale_checks(mart: MartingaleReport, conclusive_bound: float) -> list[CheckResult]:
    return [_check("conclusive fraction", mart.conclusive_fraction, conclusive_bound, "ge"),
            _check("agreement fraction", mart.agreement_fraction, 0.99, "ge")]


def _diamond_check(dia: DiamondReport, bound: float) -> CheckResult:
    return _check(f"|E h(X_{dia.n_steps})^2 - {_fraction(dia.boundary_value)}|",
                  dia.distance_to_boundary, bound)


@lru_cache(maxsize=1)
def _boundary_pass():
    """The one sampler pass criteria 8-10 share: [a] and [ab], 100 steps, 10^5 paths.

    Cached so the three criteria read one pass; the suite clears it on every run.
    """
    return boundary_reports(2, (parse_word(2, "a"), parse_word(2, "ab")), 100, 100_000,
                            MASTER_SEED + 41)


def _crit_harmonic_measure() -> list[CheckResult]:
    est_a, est_ab = (report.cylinder for report in _boundary_pass())
    return [
        _cylinder_check(parse_word(2, "a"), est_a, 0.005),
        _cylinder_check(parse_word(2, "ab"), est_ab, 0.004),
        _check("inconclusive([a]) count", est_a.inconclusive_count, 100, "le"),
        # the length-1 cylinders are those of the words of the unit sphere
        _check("length-1 cylinders sum to 1",
               abs(sum(harmonic_measure_cylinder(2, w) for w in free_ball(2, 1)[1:]) - 1.0),
               1e-15),
    ]


def _crit_diamond_separation() -> list[CheckResult]:
    report = _boundary_pass()[0].diamond
    return [
        _diamond_check(report, 0.01),
        _check("separation from h(e)^2", report.distance_to_pointwise, 0.15, "ge"),
    ]


def _ball_gap(h, letters: np.ndarray, lengths: np.ndarray) -> np.ndarray:
    """h(g) minus the mean of h over the neighbours of g, for g in a packed rank-2
    ball; h maps packed words (letters, lengths) to values."""
    return h(letters, lengths) - sum(h(*nb) for nb in _packed_neighbors(2, letters, lengths)) / 4.0


def _crit_poisson_harmonicity() -> list[CheckResult]:
    # the extensions of [a] and [ab], stacked: one pass over the ball and its neighbours
    letters, lengths = _packed_ball(2, 8)
    gaps = _ball_gap(lambda *v: np.stack([_poisson_values(2, w, *v) for w in ((1,), (1, 2))]),
                     letters, lengths)
    total = sum(_poisson_values(2, w, letters, lengths) for w in ((1,), (-1,), (2,), (-2,)))
    w = word(3, (1, 2, -1))

    def h_max(*v):  # the larger of the Poisson extensions of [a] and [b']: subharmonic
        return np.maximum(_poisson_values(2, (1,), *v), _poisson_values(2, (-2,), *v))

    e6 = catalog_entry("Z6_delta2")
    space = harmonic_space(right_markov_matrix(e6.group, e6.measure))
    habs = np.abs(space.basis.sum(axis=0))
    return [
        _check(f"mean-value residual on ball(8) [{len(lengths)} vertices]",
               float(np.abs(gaps).max()), 1e-12),
        _check("partition-of-unity residual on ball(8)",
               float(np.abs(total - 1.0).max()), 1e-12),
        _check("h(e) == nu([w]) on [a] and [ab]",
               max(abs(poisson_extension(2, v, empty_word(2)) - harmonic_measure_cylinder(2, v))
                   for v in (parse_word(2, "a"), parse_word(2, "ab"))), 1e-15),
        _check("free word w * w^-1 == e", len(free_mul(w, free_inverse(w))), 0, "eq"),
        # the modulus check below is vacuous on an empty basis, whose sum is 0
        _check("Z6_delta2: harmonic rank == cosets", space.rank, 2, "eq"),
        _check("modulus of harmonic is subharmonic",
               subharmonic_check(habs.real, e6.group, e6.measure).max_violation, 1e-12),
        _check("max of extensions is subharmonic",
               _ball_gap(h_max, *_packed_ball(2, 6)).max(), 1e-12),
    ]


def _crit_determinism() -> list[CheckResult]:
    z4 = catalog_entry("Z4_delta1")
    reruns = (
        ("freewalk rerun byte-identical", lambda: run(ExperimentConfig(
            scenario="freewalk", paths=2000, n=60, seed=MASTER_SEED + 7)).canonical_json()),
        ("harmonic rerun byte-identical",
         lambda: run(ExperimentConfig(scenario="harmonic", entry="Z6_delta2")).canonical_json()),
        ("sample_path rerun identical",
         lambda: sample_path(z4.group, z4.measure, 0, 64, MASTER_SEED).positions),
    )
    return [_check(name, 0.0 if again() == again() else 1.0, 0.0) for name, again in reruns]


ACCEPTANCE = (
    (1, "finite_triviality", lambda: _harmonic_checks({}, catalog())),
    (2, "cesaro_limit", lambda: _cesaro_checks({}, catalog())),
    (3, "projection", _crit_projection),
    (4, "operator_harmonic_space", _crit_operator_harmonic),
    (5, "nc_convolution", _crit_nc_convolution),
    (6, "quotient_norms", _crit_quotient_norms),
    (7, "approximate_identity", _crit_approximate_identity),
    (8, "harmonic_measure", _crit_harmonic_measure),
    (9, "martingale_convergence",
     lambda: _martingale_checks(_boundary_pass()[0].martingale, 0.999)),
    (10, "diamond_separation", _crit_diamond_separation),
    (11, "poisson_harmonicity", _crit_poisson_harmonicity),
    (12, "stationary_measures", lambda: _stationary_checks({}, seed=MASTER_SEED + 500)),
    (13, "lattice_decay", lambda: _decay_checks({})),
    (14, "l1_triviality", lambda: [
        _check(f"kernel rank at L={window}",
               l1_harmonic_triviality(simple_random_walk_z(), window).kernel_rank, 0, "eq")
        for window in (5, 50)]),
    (15, "determinism", _crit_determinism),
)


def run_criterion(number: int) -> list[CheckResult]:
    for num, _, fn in ACCEPTANCE:
        if num == number:
            return fn()
    raise ValueError(f"no acceptance criterion {number}")


# ------------------------------------------------------------- scenarios

def _never_below_check(name: str, trace: QuotientNormTrace, x_norm: float) -> CheckResult:
    """a_n >= dist(x, ideal) for every n, up to 1e-8 max(1, ||x||) of rounding."""
    return _check(f"{name}: min a_n - quotient norm", trace.inf_value - trace.distance,
                  -1e-8 * max(1.0, x_norm), "ge")


def _derriennic_checks(extra: dict, pairs: list[CatalogEntry], n: int = 4096,
                       seed: int = MASTER_SEED, out: str | None = None) -> list[CheckResult]:
    checks = []
    for e in pairs:
        ideal = coboundary_ideal(e.group, e.measure)
        # signed, unit l1 mass: a nonnegative x sits at distance ||x||_1 = 1
        # from the ideal whatever the measure, which would make the check vacuous
        rng = np.random.default_rng(_entry_seed(seed, e.name))
        x = rng.standard_normal(e.group.order)
        x /= np.abs(x).sum()
        trace = quotient_norm_trace(x, ideal, n)
        checks.append(_check(f"{e.name}: |a_N - quotient norm|",
                             abs(trace.limit_estimate - trace.distance), 5e-3))
        checks.append(_never_below_check(e.name, trace, np.abs(x).sum()))
        extra[e.name] = trace.summary()
        if out:
            trace.to_csv(os.path.join(out, f"derriennic_{e.name}.csv"))
    return checks


def _freewalk_checks(extra: dict, word: str = "a", paths: int = 100_000, n: int = 100,
                     seed: int = MASTER_SEED) -> list[CheckResult]:
    w = parse_word(2, word)
    if len(w) == 0:
        raise ConfigError(f"word: {word!r} reduces to the identity, "
                          "which indexes no cylinder")
    (est, mart, dia), = boundary_reports(2, (w,), n, paths, seed, snapshot=min(n, 60))
    extra.update(cylinder=est.to_json(), martingale=mart.to_json(), diamond=dia.to_json())
    exact = harmonic_measure_cylinder(2, w)
    conclusive = est.n_paths - est.inconclusive_count
    # with no conclusive path there is no estimate, and the bound 0 fails the check
    sigma = np.sqrt(exact * (1 - exact) / conclusive) if conclusive else 0.0
    # the pinned conclusive fraction holds at the default horizon; shorter runs
    # get the looser fractions they can honestly meet (and fail if they cannot)
    conclusive_bound = 0.999 if n >= 100 else (0.95 if n >= 25 else 0.5)
    return [_cylinder_check(w, est, 4 * sigma), *_martingale_checks(mart, conclusive_bound),
            _diamond_check(dia, max(0.01, 5 * dia.stderr))]


def _suite_checks(extra: dict) -> list[CheckResult]:
    # coverage counts this run's calls: an earlier run's catalog and sampler
    # pass are not reused
    _catalog_tuple.cache_clear()
    _boundary_pass.cache_clear()
    checks = []
    with collecting() as called:
        for number, name, fn in ACCEPTANCE:
            crit_checks = fn()
            # the first failed check in the criterion's order, the record's order
            first_failed = next((c for c in crit_checks if not c.passed), None)
            ok = first_failed is None
            line = f"criterion {number:02d} {name}: {'PASS' if ok else 'FAIL'}"
            if not ok:
                line += (f" ({first_failed.name}: value={first_failed.value:.3e}, "
                         f"bound={first_failed.bound:.3e})")
            print(line)
            checks.extend(crit_checks)
            extra[f"criterion_{number:02d}_{name}"] = "pass" if ok else "fail"
    missing = OPERATION_NAMES - called
    checks.append(_check(f"op coverage complete (missing: {sorted(missing)})",
                         len(missing), 0, "eq"))
    return checks


# harmonic, cesaro, ncconv, stationary and decay: criteria 1, 2, 5, 12 and 13
_SCENARIO_FUNCS = {
    "harmonic": _harmonic_checks,
    "cesaro": _cesaro_checks,
    "derriennic": _derriennic_checks,
    "ncconv": _ncconv_checks,
    "freewalk": _freewalk_checks,
    "stationary": _stationary_checks,
    "decay": _decay_checks,
    "suite": _suite_checks,
}
SCENARIOS = tuple(_SCENARIO_FUNCS)


def scenario_fields(scenario: str) -> dict:
    """The config fields a scenario reads, each with its default (None: unset):
    seed and out, which every record echoes, then its builder's parameters."""
    reads = {"seed": MASTER_SEED, "out": None}
    for p in list(inspect.signature(_SCENARIO_FUNCS[scenario]).parameters.values())[1:]:
        reads.update(dict.fromkeys(("group", "measure", "entry")) if p.name == "pairs"
                     else {p.name: p.default})
    return reads


@operation
def run(cfg: ExperimentConfig) -> RunRecord:
    """Execute a scenario and return its record; writes artifacts under cfg.out."""
    builder = _SCENARIO_FUNCS[cfg.scenario]
    given = {name: cfg.resolve_pairs() if name == "pairs" else getattr(cfg, name)
             for name in list(inspect.signature(builder).parameters)[1:]}
    if cfg.out:
        try:
            os.makedirs(cfg.out, exist_ok=True)
        except OSError as exc:
            raise ConfigError(f"out: cannot make the directory {cfg.out}: {exc}") from exc
    record = RunRecord(scenario=cfg.scenario, config=cfg.echo())
    record.started = time.time()
    record.checks = builder(record.extra, **{k: v for k, v in given.items() if v is not None})
    record.finished = time.time()
    if cfg.out:
        path = os.path.join(cfg.out, f"record_{cfg.scenario}.json")
        with open(path, "w") as fh:
            fh.write(record.to_json())
    return record


#: every public operation the suite must call at least once: the functions
#: marked @operation in the modules imported above
OPERATION_NAMES = frozenset(MARKED)
