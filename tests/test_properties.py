"""Property tests: convolution-algebra identities on generated groups and measures."""

import itertools
import math
from functools import lru_cache

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from muharmonic import (
    FiniteMeasure,
    cesaro_average,
    cesaro_limit,
    cesaro_projection,
    coboundary_ideal,
    column_space,
    convolve,
    coset_action,
    cyclic_group,
    diamond_product,
    dihedral_group,
    from_pairs,
    generated_subgroup,
    gspace_markov_matrix,
    haar_on_subgroup,
    harmonic_space,
    kernel,
    l1_distance,
    mutual_residual,
    point_mass,
    predual_action,
    product_group,
    quotient_norm,
    reflect,
    right_markov_matrix,
    sample_path,
    stationary_measure,
    symmetric_group,
    uniform_on,
)
from muharmonic.groups import MAX_ORDER
from muharmonic.harmonic import _indicator_space
from test_lp import primal_l1_distance

TOL = 1e-10
PROPERTY_SETTINGS = settings(max_examples=40, deadline=None)

# builder specs: (kind, n) or ("product", spec, spec)
_BASE_SPECS = st.one_of(
    st.tuples(st.just("cyclic"), st.integers(1, 12)),
    st.tuples(st.just("dihedral"), st.integers(1, 6)),
    st.tuples(st.just("symmetric"), st.integers(1, 5)),
)


def _spec_order(spec) -> int:
    if spec[0] == "product":
        return _spec_order(spec[1]) * _spec_order(spec[2])
    kind, n = spec
    return {"cyclic": n, "dihedral": 2 * n, "symmetric": math.factorial(n)}[kind]


GROUP_SPECS = st.one_of(
    _BASE_SPECS,
    st.tuples(st.just("product"), _BASE_SPECS, _BASE_SPECS).filter(
        lambda spec: _spec_order(spec) <= MAX_ORDER),
)


_BUILDERS = {"cyclic": cyclic_group, "dihedral": dihedral_group, "symmetric": symmetric_group}


@lru_cache(maxsize=None)
def _group(spec):
    if spec[0] == "product":
        return product_group(_group(spec[1]), _group(spec[2]))
    kind, n = spec
    return _BUILDERS[kind](n)


@st.composite
def groups_and_measures(draw, count):
    """A generated group and `count` random complex measures on it; some are sparse."""
    g = _group(draw(GROUP_SPECS))
    rng = np.random.default_rng(draw(st.integers(0, 2**32 - 1)))
    measures = []
    for _ in range(count):
        w = rng.standard_normal(g.order) + 1j * rng.standard_normal(g.order)
        support = draw(st.integers(0, g.order))
        w[rng.permutation(g.order)[support:]] = 0.0
        measures.append(FiniteMeasure(g, w))
    return g, measures


@PROPERTY_SETTINGS
@given(groups_and_measures(3))
def test_convolution_is_associative(case):
    _, (a, b, c) = case
    lhs = convolve(convolve(a, b), c).weights
    rhs = convolve(a, convolve(b, c)).weights
    assert np.abs(lhs - rhs).max(initial=0.0) < TOL


@PROPERTY_SETTINGS
@given(groups_and_measures(2))
def test_total_mass_multiplies(case):
    _, (a, b) = case
    assert abs(convolve(a, b).total_mass() - a.total_mass() * b.total_mass()) < TOL


@PROPERTY_SETTINGS
@given(groups_and_measures(2))
def test_reflection_reverses_convolution(case):
    _, (a, b) = case
    lhs = reflect(convolve(a, b)).weights
    rhs = convolve(reflect(b), reflect(a)).weights
    assert np.abs(lhs - rhs).max(initial=0.0) < TOL


@PROPERTY_SETTINGS
@given(groups_and_measures(3))
def test_predual_pairing(case):
    # <x * mu, h> = <x, M h> with the bilinear pairing sum_g x(g) h(g)
    g, (mu, x, h) = case
    m = right_markov_matrix(g, mu)
    lhs = np.dot(predual_action(x.weights, mu), h.weights)
    rhs = np.dot(x.weights, m @ h.weights)
    assert abs(lhs - rhs) < TOL


@PROPERTY_SETTINGS
@given(GROUP_SPECS.filter(lambda spec: _spec_order(spec) <= 24), st.data())
def test_quotient_norm_equals_the_lp(spec, data):
    # the closed form sum over cosets |sum_coset x| against the simplex, for a
    # random probability measure and a signed x
    g = _group(spec)
    rng = np.random.default_rng(data.draw(st.integers(0, 2**32 - 1)))
    w = rng.random(g.order) + 1e-3
    w[rng.permutation(g.order)[data.draw(st.integers(1, g.order)):]] = 0.0
    ideal = coboundary_ideal(g, FiniteMeasure(g, (w / w.sum()).astype(np.complex128)))
    x = rng.standard_normal(g.order)
    dual = l1_distance(x, ideal)
    assert abs(quotient_norm(x, ideal) - dual) < 1e-9
    # the dual LP of l1_distance against the primal one
    primal, _ = primal_l1_distance(x, ideal.space.basis.T.real)
    assert abs(dual - primal) < 1e-12


def _sparse_probability(g, data):
    """A random probability measure on g with 1 to 3 support points, and H = <supp>."""
    rng = np.random.default_rng(data.draw(st.integers(0, 2**32 - 1)))
    w = np.zeros(g.order)
    support = rng.permutation(g.order)[:data.draw(st.integers(1, min(3, g.order)))]
    w[support] = rng.random(support.size) + 1e-3
    mu = FiniteMeasure(g, (w / w.sum()).astype(np.complex128))
    return mu, generated_subgroup(g, support.tolist())


@PROPERTY_SETTINGS
@given(GROUP_SPECS, st.data())
def test_harmonic_rank_is_the_coset_count(spec, data):
    # Choquet-Deny on a finite group: the mu-harmonic functions are the
    # functions constant on the left cosets of H = <supp mu>; a support that
    # does not generate G makes I - M block-diagonal, one block per coset
    g = _group(spec)
    mu, h = _sparse_probability(g, data)
    assert harmonic_space(right_markov_matrix(g, mu)).rank == g.order // h.order


@PROPERTY_SETTINGS
@given(GROUP_SPECS, st.data())
def test_cesaro_limit_is_the_haar_projection(spec, data):
    # K = lim (1/n) sum_{i<=n} M^i is the averaging matrix of omega_H, the
    # Haar measure of H = <supp mu>: an idempotent of l^inf norm 1.  This
    # pins the rank cutoff that splits ker(I - M) from range(I - M).
    g = _group(spec)
    mu, h = _sparse_probability(g, data)
    k = cesaro_limit(right_markov_matrix(g, mu))
    assert np.linalg.norm(k @ k - k) < 1e-9
    assert abs(np.abs(k).sum(axis=1).max() - 1.0) < 1e-9
    assert np.linalg.norm(k - right_markov_matrix(g, haar_on_subgroup(g, h))) < 1e-9


@PROPERTY_SETTINGS
@given(GROUP_SPECS, st.data())
def test_diamond_product_is_the_generic_cesaro_limit(spec, data):
    # the coset means of h1 h2 against K(h1 h2), with K from an SVD of I - M
    g = _group(spec)
    mu, _ = _sparse_probability(g, data)
    rng = np.random.default_rng(data.draw(st.integers(0, 2**32 - 1)))
    h1, h2 = rng.standard_normal((2, g.order)) + 1j * rng.standard_normal((2, g.order))
    generic = cesaro_limit(right_markov_matrix(g, mu)) @ (h1 * h2)
    assert np.abs(diamond_product(h1, h2, g, mu) - generic).max() <= 1e-12


@PROPERTY_SETTINGS
@given(groups_and_measures(1), st.data())
def test_cesaro_average_is_the_average_of_the_convolution_powers(case, data):
    # row e of the closed form against the loop over mu^1..mu^n; a random
    # complex measure (or the zero measure) is not a probability and is refused
    g, (sigma,) = case
    mu, _ = _sparse_probability(g, data)
    n = data.draw(st.integers(1, 40))
    acc, power = mu.weights.copy(), mu
    for _ in range(n - 1):
        power = convolve(mu, power)
        acc += power.weights
    avg = cesaro_average(mu, n)
    assert np.abs(avg.weights - acc / n).max() < 1e-12
    assert avg.is_probability()
    with pytest.raises(ValueError, match=f"^mu: expected a probability measure on {g.name}, got "):
        cesaro_average(sigma, n)


@PROPERTY_SETTINGS
@given(GROUP_SPECS, st.data())
def test_projection_average_row_e_is_the_cesaro_average(spec, data):
    # the cesaro scenario reads A_n from the projection report; it is the
    # same floating-point computation as cesaro_average, bit for bit
    g = _group(spec)
    mu, _ = _sparse_probability(g, data)
    n = data.draw(st.integers(1, 5000))
    report = cesaro_projection(right_markov_matrix(g, mu), n)
    assert np.array_equal(report.average[g.identity], cesaro_average(mu, n).weights)


@PROPERTY_SETTINGS
@given(GROUP_SPECS, st.data())
def test_stationary_orbit_form_is_the_kernel_of_the_transposed_chain(spec, data):
    # G on G/K, K drawn: P is doubly stochastic and its classes are the orbits
    # of H = <supp mu>, so the fixed space of P^T is spanned by the orbit indicators
    g = _group(spec)
    mu, _ = _sparse_probability(g, data)
    k = generated_subgroup(g, data.draw(st.lists(st.integers(0, g.order - 1), min_size=1,
                                                 max_size=2)))
    action = coset_action(g, k)
    report = stationary_measure(action, mu)
    p = gspace_markov_matrix(action, mu).real
    oracle = kernel(p.T - np.eye(action.points))
    assert oracle.rank == report.fixed_dim
    assert mutual_residual(oracle, _indicator_space(report.labels)) <= 1e-9


def _character(spec, data):
    """The values of a one-dimensional character of _group(spec), drawn with data."""
    if spec[0] == "product":  # element (x, y) has index x * |second factor| + y
        return np.outer(_character(spec[1], data), _character(spec[2], data)).ravel()
    kind, n = spec
    if kind == "cyclic":
        k = data.draw(st.integers(0, n - 1))
        return np.exp(2j * np.pi * k * np.arange(n) / n)
    if kind == "dihedral":  # r^i s^j has index j * n + i; r -> -1 needs an even n
        r = data.draw(st.sampled_from([1, -1] if n % 2 == 0 else [1]))
        s = data.draw(st.sampled_from([1, -1]))
        j, i = np.divmod(np.arange(2 * n), n)
        return (r ** i * s ** j).astype(np.complex128)
    # symmetric: the trivial character or the sign, over the lexicographic permutations
    signs = [(-1) ** sum(p[a] > p[b] for a, b in itertools.combinations(range(n), 2))
             for p in itertools.permutations(range(n))]
    return np.array(signs if data.draw(st.booleans()) else [1] * len(signs), dtype=np.complex128)


def _twisted(spec, data):
    """(g, mu, H = <supp mu>, chi, mu_chi = chi * mu) for a sparse probability mu."""
    g = _group(spec)
    mu, h = _sparse_probability(g, data)
    chi = _character(spec, data)
    assert np.allclose(chi[g.cayley], np.outer(chi, chi))  # a homomorphism into U(1)
    return g, mu, h, chi, FiniteMeasure(g, chi * mu.weights)


# M_{mu_chi} = D_chi_bar M_mu D_chi, so the complex operator is the real one
# conjugated by a unitary diagonal: its fixed space is chi_bar times mu's
_CYCLIC_AND_PRODUCT = GROUP_SPECS.filter(lambda spec: spec[0] in ("cyclic", "product"))


@PROPERTY_SETTINGS
@given(_CYCLIC_AND_PRODUCT, st.data())
def test_twisting_by_a_character_conjugates_the_harmonic_space(spec, data):
    g, mu, _, chi, mu_chi = _twisted(spec, data)
    fixed = harmonic_space(right_markov_matrix(g, mu))
    twisted = harmonic_space(right_markov_matrix(g, mu_chi))
    assert twisted.rank == fixed.rank
    assert mutual_residual(twisted, column_space((fixed.basis * chi.conj()).T)) <= 1e-9


@PROPERTY_SETTINGS
@given(_CYCLIC_AND_PRODUCT, st.data())
def test_twisting_by_a_character_conjugates_the_cesaro_limit(spec, data):
    g, _, h, chi, mu_chi = _twisted(spec, data)
    k = cesaro_limit(right_markov_matrix(g, mu_chi))
    haar = right_markov_matrix(g, haar_on_subgroup(g, h))
    assert np.linalg.norm(k - chi.conj()[:, None] * haar * chi[None, :]) < 1e-9


@PROPERTY_SETTINGS
@given(st.one_of(st.integers(), st.floats(), st.booleans()))
def test_every_constructor_takes_the_same_element_indices(x):
    # one rule: an int in 0..order-1 is taken, any other value refused alike
    g = _group(("cyclic", 6))
    law = point_mass(g, 1)
    calls = (lambda: point_mass(g, x), lambda: uniform_on(g, [x]),
             lambda: from_pairs(g, [(x, 1.0)]), lambda: generated_subgroup(g, [x]),
             lambda: sample_path(g, law, x, 2, seed=0))
    outcomes = set()
    for call in calls:
        try:
            call()
            outcomes.add(None)
        except (TypeError, ValueError) as exc:
            outcomes.add(type(exc))
    assert len(outcomes) == 1, (x, outcomes)
    assert (outcomes == {None}) == (type(x) is int and 0 <= x < g.order)
