import numpy as np
import pytest

from muharmonic import (
    CapacityError,
    ConstructionError,
    FiniteMeasure,
    GSpaceAction,
    apply_conjugation,
    conjugation_operator,
    convolve,
    coset_action,
    cyclic_group,
    from_pairs,
    generated_subgroup,
    gspace_markov_matrix,
    left_regular,
    point_mass,
    predual_action,
    right_markov_matrix,
    right_regular,
    symmetric_group,
    translation_action,
    trivial_action,
    uniform_on,
)

Z2 = cyclic_group(2)
Z3 = cyclic_group(3)
Z4 = cyclic_group(4)
Z6 = cyclic_group(6)
S3 = symmetric_group(3)


def _random_probability(rng, g):
    w = rng.random(g.order)
    return FiniteMeasure(g, (w / w.sum()).astype(np.complex128))


def test_markov_examples():
    swap = right_markov_matrix(Z2, point_mass(Z2, 1))
    assert np.allclose(swap.entries.real, [[0, 1], [1, 0]])
    assert swap.stochastic
    ident = right_markov_matrix(Z4, point_mass(Z4, 0))
    assert np.allclose(ident.entries, np.eye(4))
    circ = right_markov_matrix(Z4, from_pairs(Z4, [(1, 0.5), (3, 0.5)]))
    expected = np.zeros((4, 4))
    for g in range(4):
        expected[g, (g + 1) % 4] = 0.5
        expected[g, (g - 1) % 4] = 0.5
    assert np.allclose(circ.entries.real, expected)


def test_markov_is_homomorphism():
    # fixed convention: M(mu * nu) = M(mu) @ M(nu)
    rng = np.random.default_rng(11)
    for g in (Z6, S3):
        for _ in range(20):
            mu = _random_probability(rng, g)
            nu = _random_probability(rng, g)
            lhs = right_markov_matrix(g, convolve(mu, nu)).entries
            rhs = right_markov_matrix(g, mu).entries @ right_markov_matrix(g, nu).entries
            assert np.abs(lhs - rhs).max() < 1e-12


def test_markov_equals_averaged_right_regular():
    rng = np.random.default_rng(12)
    rho = right_regular(S3)
    mu = _random_probability(rng, S3)
    direct = right_markov_matrix(S3, mu).entries
    averaged = sum(mu.weights[g] * rho[g] for g in range(6))
    assert np.abs(direct - averaged).max() < 1e-15


def test_regular_representations_are_homomorphisms_and_commute():
    rho = right_regular(S3)
    lam = left_regular(S3)
    for a in range(6):
        for b in range(6):
            assert np.array_equal(rho[a] @ rho[b], rho[S3.mul(a, b)])
            assert np.array_equal(lam[a] @ lam[b], lam[S3.mul(a, b)])
            assert np.array_equal(rho[a] @ lam[b], lam[b] @ rho[a])


def test_predual_examples():
    assert np.allclose(predual_action(np.array([1.0, 0.0]), point_mass(Z2, 1)), [0, 1])
    x = np.array([0.3, 0.7, 0.1, 0.4])
    assert np.allclose(predual_action(x, point_mass(Z4, 0)), x)


def test_predual_pairing_identity():
    rng = np.random.default_rng(13)
    for _ in range(100):
        mu = _random_probability(rng, S3)
        x = rng.standard_normal(6) + 1j * rng.standard_normal(6)
        h = rng.standard_normal(6) + 1j * rng.standard_normal(6)
        lhs = np.dot(predual_action(x, mu), h)
        rhs = np.dot(x, right_markov_matrix(S3, mu).entries @ h)
        assert abs(lhs - rhs) < 1e-12


def test_conjugation_examples():
    conj = conjugation_operator(Z2, point_mass(Z2, 1))
    a = np.array([[1.0, 2.0], [3.0, 4.0]], dtype=complex)
    out = (conj.entries @ a.reshape(-1)).reshape(2, 2)
    assert np.allclose(out, [[4, 3], [2, 1]])
    ident = conjugation_operator(Z2, point_mass(Z2, 0))
    assert np.allclose(ident.entries, np.eye(4))


def test_conjugation_preserves_trace():
    rng = np.random.default_rng(14)
    mu = _random_probability(rng, S3)
    for _ in range(20):
        a = rng.standard_normal((6, 6)) + 1j * rng.standard_normal((6, 6))
        out = apply_conjugation(S3, mu, a)
        assert abs(np.trace(out) - np.trace(a)) < 1e-12


def test_conjugation_composition_convention():
    rng = np.random.default_rng(15)
    for _ in range(10):
        mu = _random_probability(rng, S3)
        nu = _random_probability(rng, S3)
        lhs = conjugation_operator(S3, mu).entries @ conjugation_operator(S3, nu).entries
        rhs = conjugation_operator(S3, convolve(mu, nu)).entries
        assert np.abs(lhs - rhs).max() < 1e-12


def test_conjugation_matches_direct_application():
    rng = np.random.default_rng(16)
    mu = _random_probability(rng, Z6)
    conj = conjugation_operator(Z6, mu).entries
    a = rng.standard_normal((6, 6)) + 1j * rng.standard_normal((6, 6))
    via_vec = (conj @ a.reshape(-1)).reshape(6, 6)
    assert np.abs(via_vec - apply_conjugation(Z6, mu, a)).max() < 1e-13


def test_apply_conjugation_matches_the_vec_operator_for_complex_measures():
    # left_ideal_residual applies P by the gather; the vec matrix is the reference
    rng = np.random.default_rng(17)
    for g in (S3, symmetric_group(4)):
        n = g.order
        nu = FiniteMeasure(g, rng.standard_normal(n) + 1j * rng.standard_normal(n))
        a = rng.standard_normal((n, n)) + 1j * rng.standard_normal((n, n))
        via_vec = conjugation_operator(g, nu).entries @ a.reshape(-1)
        assert np.abs(via_vec - apply_conjugation(g, nu, a).reshape(-1)).max() < 1e-12


def test_conjugation_capacity_error():
    big = cyclic_group(30)
    with pytest.raises(CapacityError):
        conjugation_operator(big, point_mass(big, 1))


def test_gspace_examples():
    import itertools

    perms = list(itertools.permutations(range(3)))
    action = GSpaceAction(S3, 3, np.array([list(p) for p in perms]))
    mu = uniform_on(S3, [S3.labels.index("(1 2)"), S3.labels.index("(1 3)")])
    p = gspace_markov_matrix(action, mu)
    assert p.stochastic
    assert np.allclose(p.entries.real[0], [0, 0.5, 0.5])

    triv = trivial_action(S3, 4)
    assert np.allclose(gspace_markov_matrix(triv, mu).entries, np.eye(4))

    shift = gspace_markov_matrix(translation_action(Z3), point_mass(Z3, 1))
    expected = np.zeros((3, 3))
    for x in range(3):
        expected[x, (1 + x) % 3] = 1.0  # left translation by the generator
    assert np.allclose(shift.entries.real, expected)


def test_gspace_doubly_stochastic():
    rng = np.random.default_rng(17)
    h = generated_subgroup(S3, [S3.labels.index("(1 2)")])
    action = coset_action(S3, h)
    mu = _random_probability(rng, S3)
    p = gspace_markov_matrix(action, mu).entries.real
    assert np.allclose(p.sum(axis=0), 1.0)
    assert np.allclose(p.sum(axis=1), 1.0)


def test_action_validation():
    bad = np.zeros((2, 3), dtype=int)  # identity does not act trivially
    with pytest.raises(ConstructionError):
        GSpaceAction(Z2, 3, bad)


def test_stochastic_flag_semantics():
    m = right_markov_matrix(Z4, FiniteMeasure(Z4, np.array([0.5, 0.5, 0.5, 0.5])))
    assert not m.stochastic  # mass 2, flagged off rather than rejected
    assert not m.check_stochastic()
