import numpy as np

from muharmonic import column_space, kernel, mutual_residual, span_of_rows, subspaces_equal


def test_kernel_of_rank_one():
    a = np.array([[1.0, 2.0, 3.0]])
    k = kernel(a)
    assert k.rank == 2
    assert np.abs(a @ k.basis.T).max() < 1e-12
    assert np.allclose(k.basis @ k.basis.conj().T, np.eye(2))


def test_kernel_of_numerically_zero_matrix_is_full():
    a = np.full((3, 3), 1e-15)
    assert kernel(a).rank == 3


def test_kernel_wide_matrix():
    a = np.array([[1.0, -1.0, 0.0, 0.0], [0.0, 0.0, 1.0, -1.0]])
    k = kernel(a)
    assert k.rank == 2
    assert np.abs(a @ k.basis.T).max() < 1e-12


def test_column_space():
    a = np.array([[1.0, 2.0], [2.0, 4.0], [0.0, 0.0]])
    c = column_space(a)
    assert c.rank == 1
    assert c.residual(np.array([1.0, 2.0, 0.0])) < 1e-12


def test_span_and_equality():
    s1 = span_of_rows(np.array([[1.0, 0.0, 0.0], [1.0, 1.0, 0.0]]))
    s2 = span_of_rows(np.array([[0.0, 1.0, 0.0], [2.0, 0.0, 0.0]]))
    assert s1.rank == 2
    assert subspaces_equal(s1, s2)
    s3 = span_of_rows(np.array([[0.0, 0.0, 1.0]]))
    assert not subspaces_equal(s1, s3)
    assert mutual_residual(s1, s2) < 1e-12


def test_complex_kernel_vectors_satisfy_equation():
    rng = np.random.default_rng(0)
    a = rng.standard_normal((5, 8)) + 1j * rng.standard_normal((5, 8))
    k = kernel(a)
    assert k.rank == 3
    assert np.abs(a @ k.basis.T).max() < 1e-10


def test_zero_span():
    s = span_of_rows(np.zeros((2, 4)))
    assert s.rank == 0
    assert s.residual(np.array([1.0, 0, 0, 0])) == 1.0


def test_project_onto_complex_span_not_its_conjugate():
    from muharmonic import cyclic_group, from_pairs, harmonic_space, right_markov_matrix

    z3 = cyclic_group(3)
    omega = np.exp(2j * np.pi / 3)
    # (M h)(g) = conj(omega) h(g + 1) fixes chi(g) = omega^g but not conj(chi)
    mu = from_pairs(z3, [(1, np.conj(omega))])
    space = harmonic_space(right_markov_matrix(z3, mu))
    chi = omega ** np.arange(3)
    assert space.rank == 1
    assert space.residual(chi) < 1e-12
    assert space.contains(chi)
    assert not space.contains(chi.conj())
    assert np.allclose(space.project(chi), chi)
    assert mutual_residual(space, span_of_rows(chi[None, :])) < 1e-12
    assert not subspaces_equal(space, span_of_rows(chi.conj()[None, :]))
