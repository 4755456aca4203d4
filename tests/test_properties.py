"""Property tests: convolution-algebra identities on generated groups and measures."""

import math
from functools import lru_cache

import numpy as np
from hypothesis import given, settings
from hypothesis import strategies as st

from muharmonic import (
    FiniteMeasure,
    build_group,
    cesaro_limit,
    coboundary_ideal,
    convolve,
    generated_subgroup,
    haar_on_subgroup,
    harmonic_space,
    l1_distance,
    predual_action,
    quotient_norm,
    reflect,
    right_markov_matrix,
)
from muharmonic.groups import MAX_ORDER

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


@lru_cache(maxsize=None)
def _group(spec):
    if spec[0] == "product":
        return build_group("product", factors=[_group(spec[1]), _group(spec[2])])
    kind, n = spec
    return build_group(kind, n=n)


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
    assert abs(quotient_norm(x, ideal) - l1_distance(x, ideal)) < 1e-9


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
