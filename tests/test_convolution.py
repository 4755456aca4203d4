"""Group convolution kernels against their defining sums, on non-commuting groups."""

import numpy as np
import pytest

from muharmonic import (
    FiniteMeasure,
    catalog,
    cesaro_average,
    convolution_power,
    convolve,
    diagonal_measure,
    dihedral_group,
    group_from_table,
    operator_convolve,
    point_mass,
    symmetric_group,
)
from muharmonic.groups import _pair_images, _table_apply


def _relabelled_d4():
    """D4 as an explicit table under a fixed shuffle, so the identity is not index 0."""
    d4 = dihedral_group(4)
    sigma = np.random.default_rng(5).permutation(d4.order)
    table = np.empty_like(d4.cayley)
    table[np.ix_(sigma, sigma)] = sigma[d4.cayley]
    return group_from_table(table)


GROUPS = [symmetric_group(3), symmetric_group(4), _relabelled_d4()]
GROUP_IDS = ["S3", "S4", "D4_from_table"]


def _random_weights(rng, n, support=None):
    w = rng.standard_normal(n) + 1j * rng.standard_normal(n)
    if support is not None:
        keep = np.zeros(n, dtype=bool)
        keep[rng.choice(n, size=support, replace=False)] = True
        w[~keep] = 0.0
    return w


def _convolve_by_definition(g, mu, nu):
    """(mu * nu)(x) = sum_h mu(h) nu(h^{-1} x), one term at a time."""
    return np.array([sum(mu[h] * nu[g.mul(g.inv(h), x)] for h in g.elements())
                     for x in g.elements()])


def _operator_convolve_per_h(s, t, g):
    """S * T = sum_h diag(S)(h) T[h^{-1} x, h^{-1} y], one h at a time."""
    out = np.zeros((g.order, g.order), dtype=np.complex128)
    for h in g.elements():
        idx = g.cayley[g.inv(h)]
        out += s[h, h] * t[np.ix_(idx, idx)]
    return out


def _operator_convolve_by_gather(s, t, g):
    """S * T as one gather of the n^3 entries T[h^{-1} x, h^{-1} y], over the
    union of the diagonal supports of a stack of pairs."""
    n = g.order
    kappa = np.diagonal(s, axis1=-2, axis2=-1)
    h = np.nonzero(np.any(kappa != 0, axis=tuple(range(kappa.ndim - 1))))[0]
    vec = t.reshape(*t.shape[:-2], n * n)  # T[x, y] is vec[x n + y]
    return _table_apply(vec, _pair_images(g.left_quotients(h)), kappa[..., h]).reshape(t.shape)


def test_groups_do_not_commute():
    assert not any(g.is_abelian() for g in GROUPS)
    assert GROUPS[2].identity != 0


@pytest.mark.parametrize("g", GROUPS, ids=GROUP_IDS)
def test_convolve_matches_defining_sum(g):
    rng = np.random.default_rng(g.order)
    n = g.order
    nu = _random_weights(rng, n)
    cases = [
        _random_weights(rng, n),
        point_mass(g, n - 1).weights,
        _random_weights(rng, n, support=3),
    ]
    for mu in cases:
        got = convolve(FiniteMeasure(g, mu), FiniteMeasure(g, nu)).weights
        assert np.abs(got - _convolve_by_definition(g, mu, nu)).max() < 1e-12
        # and with the factors swapped, which differ on a non-commuting group
        got = convolve(FiniteMeasure(g, nu), FiniteMeasure(g, mu)).weights
        assert np.abs(got - _convolve_by_definition(g, nu, mu)).max() < 1e-12


@pytest.mark.parametrize("g", GROUPS, ids=GROUP_IDS)
def test_convolve_with_the_zero_measure(g):
    zero = FiniteMeasure(g, np.zeros(g.order))
    nu = FiniteMeasure(g, _random_weights(np.random.default_rng(1), g.order))
    for out in (convolve(zero, nu), convolve(nu, zero), convolve(zero, zero)):
        assert out.weights.shape == (g.order,)
        assert not out.weights.any()


@pytest.mark.parametrize("g", GROUPS, ids=GROUP_IDS)
def test_power_commutes_with_its_base(g):
    mu = FiniteMeasure(g, _random_weights(np.random.default_rng(2), g.order, support=2))
    mu = FiniteMeasure(g, mu.weights / np.abs(mu.weights).sum())
    for k in range(1, 8):
        power = convolution_power(mu, k)
        gap = convolve(mu, power).weights - convolve(power, mu).weights
        assert np.abs(gap).max() < 1e-12


@pytest.mark.parametrize("g", GROUPS, ids=GROUP_IDS)
def test_cesaro_average_is_its_sequence_entry(g):
    rng = np.random.default_rng(3)
    mu = FiniteMeasure(g, np.abs(_random_weights(rng, g.order, support=2))).normalized()
    for n in [1, 2, 5, 17, 40]:
        assert cesaro_average(mu, n).is_probability()
    with pytest.raises(TypeError):
        cesaro_average(mu, 2.5)
    # the accumulation starts at mu^1
    direct = sum(convolution_power(mu, i).weights for i in range(1, 6)) / 5
    assert np.abs(cesaro_average(mu, 5).weights - direct).max() < 1e-12


@pytest.mark.parametrize("g", GROUPS, ids=GROUP_IDS)
def test_operator_convolve_matches_per_h_loop(g):
    rng = np.random.default_rng(4)
    n = g.order
    for trial in range(3):
        s = rng.standard_normal((n, n)) + 1j * rng.standard_normal((n, n))
        t = rng.standard_normal((n, n)) + 1j * rng.standard_normal((n, n))
        if trial:
            # a diagonal with zeros
            s[np.diag_indices(n)] *= rng.random(n) < 0.3
        st = operator_convolve(s, t, g)
        assert np.abs(st - _operator_convolve_per_h(s, t, g)).max() < 1e-12
        kappa = convolve(diagonal_measure(s, g), diagonal_measure(t, g)).weights
        assert np.abs(np.diag(st) - kappa).max() < 1e-12


@pytest.mark.parametrize("g", GROUPS, ids=GROUP_IDS)
def test_operator_convolve_by_zero_diagonal(g):
    n = g.order
    s = np.ones((n, n)) - np.eye(n)
    st = operator_convolve(s, np.ones((n, n)), g)
    assert st.shape == (n, n)
    assert not st.any()


def _oracle_groups():
    groups = {e.group.name: e.group for e in catalog()}
    groups["S5"] = symmetric_group(5)
    return list(groups.values())


@pytest.mark.parametrize("g", _oracle_groups(), ids=lambda g: g.name)
def test_operator_convolve_matches_the_pair_gather(g):
    rng = np.random.default_rng(6)
    n = g.order
    s, t = (rng.standard_normal((2, 3, n, n)) + 1j * rng.standard_normal((2, 3, n, n))
            for _ in range(2))
    # zeros on the diagonals: one pair's diagonal is empty, the others are sparse
    s[..., np.arange(n), np.arange(n)] *= rng.random((2, 3, n)) < 0.4
    s[1, 2, np.arange(n), np.arange(n)] = 0.0
    stacked = operator_convolve(s, t, g)
    assert stacked.shape == (2, 3, n, n)
    assert np.abs(stacked - _operator_convolve_by_gather(s, t, g)).max() < 1e-12
    assert not stacked[1, 2].any()
    for i, j in ((0, 0), (1, 1)):
        single = operator_convolve(s[i, j], t[i, j], g)
        assert np.abs(single - _operator_convolve_by_gather(s[i, j], t[i, j], g)).max() < 1e-12
