import re

import numpy as np
import pytest

from muharmonic import (
    CapacityError,
    ConstructionError,
    FiniteMeasure,
    GSpaceAction,
    apply_conjugation,
    catalog,
    conjugation_operator,
    convolve,
    coset_action,
    cyclic_group,
    dihedral_group,
    from_pairs,
    generated_subgroup,
    gspace_markov_matrix,
    left_cosets,
    left_regular,
    point_mass,
    predual_action,
    right_markov_matrix,
    right_regular,
    symmetric_group,
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


def _assert_stochastic(m):
    assert isinstance(m, np.ndarray) and m.dtype == np.complex128
    assert np.all(m.imag == 0) and np.all(m.real >= 0)
    assert np.allclose(m.sum(axis=1), 1.0)


def test_markov_examples():
    swap = right_markov_matrix(Z2, point_mass(Z2, 1))
    assert np.allclose(swap.real, [[0, 1], [1, 0]])
    _assert_stochastic(swap)
    ident = right_markov_matrix(Z4, point_mass(Z4, 0))
    assert np.allclose(ident, np.eye(4))
    circ = right_markov_matrix(Z4, from_pairs(Z4, [(1, 0.5), (3, 0.5)]))
    expected = np.zeros((4, 4))
    for g in range(4):
        expected[g, (g + 1) % 4] = 0.5
        expected[g, (g - 1) % 4] = 0.5
    assert np.allclose(circ.real, expected)


def test_markov_is_homomorphism():
    # fixed convention: M(mu * nu) = M(mu) @ M(nu)
    rng = np.random.default_rng(11)
    for g in (Z6, S3):
        for _ in range(20):
            mu = _random_probability(rng, g)
            nu = _random_probability(rng, g)
            lhs = right_markov_matrix(g, convolve(mu, nu))
            rhs = right_markov_matrix(g, mu) @ right_markov_matrix(g, nu)
            assert np.abs(lhs - rhs).max() < 1e-12


def _right_regular_by_definition(g):
    """Reference: rho(a) e_h = e_{h a^{-1}}, one permutation matrix per element."""
    n = g.order
    rho = np.zeros((n, n, n))
    for a in range(n):
        for h in range(n):
            rho[a, g.mul(h, g.inv(a)), h] = 1.0
    return rho


def _left_regular_by_definition(g):
    """Reference: rho_l(a) e_h = e_{a h}."""
    n = g.order
    lam = np.zeros((n, n, n))
    for a in range(n):
        for h in range(n):
            lam[a, g.mul(a, h), h] = 1.0
    return lam


def _complex_measures(rng, g, count=3):
    """Complex measures on g whose supports are about half the group."""
    for _ in range(count):
        w = rng.standard_normal(g.order) + 1j * rng.standard_normal(g.order)
        w[rng.random(g.order) < 0.5] = 0
        yield FiniteMeasure(g, w)


def _measures():
    """The catalog's measures and complex measures on its groups and on S4."""
    rng = np.random.default_rng(18)
    out = [(e.group, e.measure) for e in catalog()]
    for g in [e.group for e in catalog()] + [symmetric_group(4)]:
        out += [(g, mu) for mu in _complex_measures(rng, g)]
    return out


def test_regular_representations_match_their_definitions():
    for g in [e.group for e in catalog()] + [dihedral_group(6)]:
        rho, lam = right_regular(g), left_regular(g)
        assert rho.dtype == lam.dtype == np.float64
        assert np.array_equal(rho, _right_regular_by_definition(g))
        assert np.array_equal(lam, _left_regular_by_definition(g))


def test_markov_equals_averaged_right_regular():
    rng = np.random.default_rng(12)
    rho = _right_regular_by_definition(S3)
    mu = _random_probability(rng, S3)
    direct = right_markov_matrix(S3, mu)
    averaged = sum(mu.weights[g] * rho[g] for g in range(6))
    assert np.abs(direct - averaged).max() < 1e-15


def test_markov_entries_are_mu_of_g_inverse_x():
    for g, mu in _measures():
        m = right_markov_matrix(g, mu)
        assert m.dtype == np.complex128
        for x in range(g.order):
            for y in range(g.order):
                assert m[x, y] == mu.weights[g.mul(g.inv(x), y)]


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
        rhs = np.dot(x, right_markov_matrix(S3, mu) @ h)
        assert abs(lhs - rhs) < 1e-12


def test_conjugation_examples():
    conj = conjugation_operator(Z2, point_mass(Z2, 1))
    a = np.array([[1.0, 2.0], [3.0, 4.0]], dtype=complex)
    assert isinstance(conj, np.ndarray) and conj.dtype == np.complex128
    out = (conj @ a.reshape(-1)).reshape(2, 2)
    assert np.allclose(out, [[4, 3], [2, 1]])
    ident = conjugation_operator(Z2, point_mass(Z2, 0))
    assert np.allclose(ident, np.eye(4))


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
        lhs = conjugation_operator(S3, mu) @ conjugation_operator(S3, nu)
        rhs = conjugation_operator(S3, convolve(mu, nu))
        assert np.abs(lhs - rhs).max() < 1e-12


def test_conjugation_matches_direct_application():
    rng = np.random.default_rng(16)
    mu = _random_probability(rng, Z6)
    conj = conjugation_operator(Z6, mu)
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
        via_vec = conjugation_operator(g, nu) @ a.reshape(-1)
        assert np.abs(via_vec - apply_conjugation(g, nu, a).reshape(-1)).max() < 1e-12


def _conjugation_by_kron(g, mu):
    """Reference: sum_a mu(a) kron(rho(a), rho(a)), the vec form of A -> rho(a) A rho(a)^{-1}."""
    rho = _right_regular_by_definition(g)
    n = g.order
    out = np.zeros((n * n, n * n), dtype=np.complex128)
    for a in np.nonzero(mu.weights)[0]:
        out += mu.weights[a] * np.kron(rho[a], rho[a])
    return out


def test_conjugation_operator_is_bitwise_the_kron_sum():
    for g, mu in _measures():
        assert conjugation_operator(g, mu).tobytes() == _conjugation_by_kron(g, mu).tobytes()


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
    _assert_stochastic(p)
    assert np.allclose(p.real[0], [0, 0.5, 0.5])

    triv = trivial_action(S3, 4)
    assert np.allclose(gspace_markov_matrix(triv, mu), np.eye(4))

    shift = gspace_markov_matrix(GSpaceAction(Z3, 3, Z3.cayley.copy()), point_mass(Z3, 1))
    expected = np.zeros((3, 3))
    for x in range(3):
        expected[x, (1 + x) % 3] = 1.0  # left translation by the generator
    assert np.allclose(shift.real, expected)


def test_gspace_doubly_stochastic():
    rng = np.random.default_rng(17)
    h = generated_subgroup(S3, [S3.labels.index("(1 2)")])
    action = coset_action(S3, h)
    mu = _random_probability(rng, S3)
    p = gspace_markov_matrix(action, mu).real
    assert np.allclose(p.sum(axis=0), 1.0)
    assert np.allclose(p.sum(axis=1), 1.0)


def test_gspace_entries_are_the_mass_moving_x_to_y():
    # coset actions have points that several elements move alike, so entries sum
    rng = np.random.default_rng(19)
    for g, mu in _measures():
        k = generated_subgroup(g, [int(rng.integers(g.order))])
        for action in (coset_action(g, k), trivial_action(g, 3)):
            p = gspace_markov_matrix(action, mu)
            assert p.dtype == np.complex128
            for x in range(action.points):
                for y in range(action.points):
                    moved = [a for a in range(g.order) if action.table[a, x] == y]
                    assert p[x, y] == sum(mu.weights[a] for a in moved)


def _cosets_by_definition(g, h):
    """Reference: the cosets xH for x = 0, 1, ..., each sorted, in order of first appearance."""
    blocks = []
    for x in range(g.order):
        block = tuple(sorted(g.mul(x, s) for s in h.members))
        if block not in blocks:
            blocks.append(block)
    return tuple(blocks)


def _coset_action_table(blocks, g):
    """Reference: number the blocks, act on their first members."""
    block_index = np.zeros(g.order, dtype=np.int64)
    for i, block in enumerate(blocks):
        block_index[list(block)] = i
    reps = [block[0] for block in blocks]
    return np.array([[block_index[g.mul(a, r)] for r in reps] for a in range(g.order)])


def test_coset_action_matches_the_left_cosets_numbering():
    rng = np.random.default_rng(5)
    groups = [e.group for e in catalog()] + [symmetric_group(5), dihedral_group(6)]
    for g in groups:
        for _ in range(5):
            gens = rng.choice(g.order, size=min(g.order, int(rng.integers(1, 4))), replace=False)
            h = generated_subgroup(g, [int(x) for x in gens])
            blocks = _cosets_by_definition(g, h)
            assert left_cosets(g, h).blocks == blocks
            assert np.array_equal(coset_action(g, h).table, _coset_action_table(blocks, g))
    for subgroup_of_other in (coset_action, left_cosets):
        with pytest.raises(ConstructionError, match="does not belong"):
            subgroup_of_other(S3, generated_subgroup(Z6, [2]))


def test_action_validation():
    bad = np.zeros((2, 3), dtype=int)  # identity does not act trivially
    with pytest.raises(ConstructionError):
        GSpaceAction(Z2, 3, bad)


@pytest.mark.parametrize("table, error, message", [
    # both were taken as the swap action: 1.5 and True read as the point 1
    ([[0, 1], [1.5, 0]], TypeError, "table: expected an element index, got 1.5"),
    ([[0, True], [True, 0]], TypeError, "table: expected an element index, got True"),
    # numpy's "inhomogeneous shape" error, which named no parameter
    ([[0, 1], [1]], ConstructionError,
     "table: expected 2 rows (one per group element) of 2 point indices"),
    (np.array([[0.0, 1.0], [1.0, 0.0]]), ConstructionError,
     "table: expected 2 rows (one per group element) of 2 point indices"),
    (np.array([[0, 1], [1, 2]]), ConstructionError, "table: element index 2 outside 0..1"),
], ids=["float", "bool", "ragged", "float-array", "array-outside"])
def test_action_table_is_read_by_the_group_table_rule(table, error, message):
    with pytest.raises(error, match=f"^{re.escape(message)}$"):
        GSpaceAction(Z2, 2, table)
    assert np.array_equal(GSpaceAction(Z2, 2, [[0, 1], [1, 0]]).table, [[0, 1], [1, 0]])


@pytest.mark.parametrize("points, error", [
    # True and 1.0 ended in numpy's TypeError, which named no parameter, and
    # -1 in an error that named the table
    (True, TypeError), (1.0, TypeError), (-1, ConstructionError), (0, ConstructionError),
])
def test_action_points_is_a_positive_integer(points, error):
    message = f"points: expected a positive integer, got {points!r}"
    with pytest.raises(error, match=f"^{re.escape(message)}$"):
        GSpaceAction(Z2, points, [[0], [0]])
    assert GSpaceAction(Z2, np.int64(1), [[0], [0]]).points == 1


def test_action_validation_names_the_first_failing_pair():
    # Z4 on itself: the identity row is valid, but 3 acts as 1, so
    # (g=1, h=1) holds and (g=1, h=2) is the first pair that fails
    z4 = cyclic_group(4)
    table = z4.cayley[[0, 1, 2, 1]]
    with pytest.raises(ConstructionError) as err:
        GSpaceAction(z4, 4, table)
    assert str(err.value) == "action fails homomorphism at (g=1, h=2)"


def test_stochastic_flag_semantics():
    m = right_markov_matrix(Z4, FiniteMeasure(Z4, np.array([0.5, 0.5, 0.5, 0.5])))
    assert np.allclose(m.sum(axis=1), 2.0)  # mass 2: built, not refused
