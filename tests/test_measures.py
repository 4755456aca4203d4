import math
import re
from fractions import Fraction

import numpy as np
import pytest

from muharmonic import (
    ConstructionError,
    FiniteMeasure,
    catalog,
    cesaro_average,
    convolution_power,
    convolve,
    cyclic_group,
    from_pairs,
    generated_subgroup,
    haar_on_subgroup,
    point_mass,
    reflect,
    simple_random_walk_z,
    symmetric_group,
    tv_distance,
    tv_norm,
    uniform_on,
    weak_star_decay,
    z_from_pairs,
    z_point_mass,
)

Z2 = cyclic_group(2)
Z4 = cyclic_group(4)
Z5 = cyclic_group(5)
Z6 = cyclic_group(6)


def test_convolution_on_z2():
    d1 = point_mass(Z2, 1)
    assert np.allclose(convolve(d1, d1).weights, point_mass(Z2, 0).weights)
    half = from_pairs(Z2, [(0, 0.5), (1, 0.5)])
    assert np.allclose(convolve(half, half).weights, half.weights)


def test_srw_even_return_probability_exact():
    srw = simple_random_walk_z()
    p100 = convolution_power(srw, 100)
    exact = Fraction(math.comb(100, 50), 4**50)
    at_zero = p100.weights[0 - p100.carrier.lo].real
    assert abs(at_zero - float(exact)) < 1e-15
    assert abs(at_zero - 0.07958923738717877) < 1e-12


def test_window_growth_is_exact():
    a = z_from_pairs([(-1, 0.5), (1, 0.5)])
    b = z_from_pairs([(-2, 0.25), (3, 0.75)])
    c = convolve(a, b)
    assert (c.carrier.lo, c.carrier.hi) == (-3, 4)
    assert abs(c.total_mass() - 1.0) < 1e-14


def test_reflect_examples():
    mu = from_pairs(Z5, [(1, 0.7), (2, 0.3)])
    r = reflect(mu)
    assert abs(r.weights[4] - 0.7) < 1e-15
    assert abs(r.weights[3] - 0.3) < 1e-15
    sym = z_from_pairs([(-1, 0.5), (1, 0.5)])
    assert tv_distance(reflect(sym), sym) == 0.0


def test_reflect_involution_random():
    rng = np.random.default_rng(3)
    for _ in range(100):
        mu = FiniteMeasure(Z6, rng.standard_normal(6) + 1j * rng.standard_normal(6))
        assert np.allclose(reflect(reflect(mu)).weights, mu.weights)


def test_reflect_antihomomorphism():
    rng = np.random.default_rng(4)
    from muharmonic import symmetric_group

    s3 = symmetric_group(3)
    for _ in range(50):
        mu = FiniteMeasure(s3, rng.standard_normal(6) + 1j * rng.standard_normal(6))
        nu = FiniteMeasure(s3, rng.standard_normal(6) + 1j * rng.standard_normal(6))
        lhs = reflect(convolve(mu, nu))
        rhs = convolve(reflect(nu), reflect(mu))
        assert np.abs(lhs.weights - rhs.weights).max() < 1e-12


def test_convolution_associative_distributive():
    rng = np.random.default_rng(5)
    for _ in range(50):
        ms = [FiniteMeasure(Z6, rng.standard_normal(6) + 1j * rng.standard_normal(6))
              for _ in range(3)]
        a, b, c = ms
        lhs = convolve(convolve(a, b), c)
        rhs = convolve(a, convolve(b, c))
        assert np.abs(lhs.weights - rhs.weights).max() < 1e-12
        lhs2 = convolve(a, FiniteMeasure(Z6, b.weights + c.weights))
        rhs2 = convolve(a, b).weights + convolve(a, c).weights
        assert np.abs(lhs2.weights - rhs2).max() < 1e-12


def test_cesaro_examples():
    assert np.allclose(cesaro_average(point_mass(Z4, 1), 4).weights, 0.25)
    e = point_mass(Z4, 0)
    for n in (1, 3, 7):
        assert np.allclose(cesaro_average(e, n).weights, e.weights)
    a3 = cesaro_average(point_mass(Z6, 2), 3)
    expected = np.zeros(6)
    expected[[0, 2, 4]] = 1 / 3
    assert np.allclose(a3.weights, expected)


def test_powers_start_at_one():
    mu = point_mass(Z4, 1)
    with pytest.raises(ValueError):
        convolution_power(mu, 0)
    with pytest.raises(ValueError):
        cesaro_average(mu, 0)


def test_probability_flag_preserved():
    mu = from_pairs(Z6, [(1, 0.25), (2, 0.75)])
    assert mu.is_probability()
    assert convolve(mu, mu).is_probability()
    assert convolution_power(mu, 7).is_probability()
    assert cesaro_average(mu, 9).is_probability()


def test_tv_examples():
    mu = from_pairs(Z5, [(1, 0.7), (2, 0.3)])
    assert abs(tv_norm(mu) - 1.0) < 1e-15
    assert tv_distance(point_mass(Z4, 0), point_mass(Z4, 1)) == 2.0
    uniform = uniform_on(Z4, range(4))
    assert tv_distance(uniform, cesaro_average(point_mass(Z4, 1), 4)) < 1e-15


def test_uniform_on_rejects_repeated_or_empty_subsets():
    assert uniform_on(Z4, [3, 1]).is_probability()
    with pytest.raises(ValueError, match="repeated"):
        uniform_on(Z4, [1, 1])  # used to give weights [0, 0.5, 0, 0]
    with pytest.raises(ValueError, match="nonempty"):
        uniform_on(Z4, [])


@pytest.mark.parametrize("call, error, message", [
    (lambda: point_mass(Z6, True), TypeError, "x: expected an element index, got True"),  # was 6
    # numpy indexing took -1 as the last element: delta_5, and {2, 5} for uniform_on
    (lambda: point_mass(Z6, -1), ConstructionError, "x: element index -1 outside 0..5"),
    (lambda: uniform_on(Z6, [-1, 2]), ConstructionError, "subset: element index -1 outside 0..5"),
    (lambda: from_pairs(Z6, [(1.5, 1.0)]), TypeError,  # was delta_1
     "pairs: expected an element index, got 1.5"),
    (lambda: from_pairs(Z6, [(1, "half")]), TypeError, "pairs: expected a number, got 'half'"),
    (lambda: from_pairs(Z6, [(1, math.inf)]), ConstructionError,
     "pairs: expected a finite number, got inf"),
], ids=["point-bool", "point-negative", "uniform-negative", "pairs-float-index",
        "pairs-text-weight", "pairs-inf-weight"])
def test_measure_constructors_refuse_a_bad_index_or_weight(call, error, message):
    with pytest.raises(error, match=f"^{re.escape(message)}$"):
        call()


def test_haar_examples():
    h = generated_subgroup(Z6, [2])
    omega = haar_on_subgroup(Z6, h)
    assert np.allclose(omega.weights[[0, 2, 4]], 1 / 3)
    assert np.allclose(omega.weights[[1, 3, 5]], 0.0)
    trivial = generated_subgroup(Z6, [0])
    assert np.allclose(haar_on_subgroup(Z6, trivial).weights, point_mass(Z6, 0).weights)
    whole = generated_subgroup(Z6, [1])
    assert np.allclose(haar_on_subgroup(Z6, whole).weights, 1 / 6)


@pytest.mark.parametrize("bad", [np.nan, np.inf, -np.inf, complex(0.5, np.nan)])
def test_measure_refuses_non_finite_weights(bad):
    with pytest.raises(ValueError, match="^measure weights must be finite$"):
        FiniteMeasure(Z4, np.array([bad, 0.5, 0, 0]))
    with pytest.raises(ValueError, match="^measure weights must be finite$"):
        z_from_pairs([(0, 0.5), (1, bad)])


def test_carrier_mismatch_errors():
    with pytest.raises(ValueError):
        convolve(point_mass(Z4, 0), point_mass(Z6, 0))
    with pytest.raises(ValueError):
        convolve(point_mass(Z4, 0), z_point_mass(0))


def test_weak_star_decay_srw():
    report = weak_star_decay(simple_random_walk_z(), [(0, 1.0)], 100)
    vals = report.real_values()
    assert not report.degenerate
    assert abs(vals[99] - 0.07958923738717877) < 1e-12
    evens = vals[1::2]
    assert all(b < a for a, b in zip(evens, evens[1:]))
    assert all(abs(v) < 1e-15 for v in vals[0::2])  # odd powers never return


def test_weak_star_decay_degenerate():
    report = weak_star_decay(z_point_mass(0), [(0, 2.0)], 10)
    assert report.degenerate
    assert all(abs(v - 2.0) < 1e-15 for v in report.real_values())


def _cesaro_by_convolve(mu, n_values):
    """The reference loop: each power by a full `convolve` call."""
    out, acc, power = [], np.zeros_like(mu.weights), mu
    for n in range(1, max(n_values) + 1):
        if n > 1:
            power = convolve(mu, power)
        acc = acc + power.weights
        if n in n_values:
            out.append((n, acc / n))
    return out


@pytest.mark.parametrize("mu", [e.measure for e in catalog()], ids=[e.name for e in catalog()])
def test_cesaro_average_matches_the_convolve_loop(mu):
    n_values = [1, 2, 7, 64, 300]
    want = _cesaro_by_convolve(mu, n_values)
    assert [n for n, _ in want] == n_values
    for n, ref in want:
        assert np.abs(cesaro_average(mu, n).weights - ref).max() < 1e-12


@pytest.mark.parametrize("mu", [
    from_pairs(symmetric_group(3), [(0, 0.2 - 0.1j), (1, 0.3 + 0.2j), (3, 0.5 - 0.1j)]),
    from_pairs(Z4, [(1, 1.5), (2, -0.5)]),
    FiniteMeasure(Z4, np.zeros(4)),
    simple_random_walk_z(),
], ids=["S3_complex", "Z4_signed", "Z4_zero", "Z_window"])
def test_cesaro_average_refuses_what_is_not_a_probability_on_a_group(mu):
    with pytest.raises(ValueError, match=r"^mu: expected a probability measure on (S3|Z4|a group), "
                                         r"got FiniteMeasure\("):
        cesaro_average(mu, 3)
