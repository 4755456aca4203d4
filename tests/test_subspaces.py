import numpy as np
import pytest

from muharmonic import (
    catalog,
    column_space,
    kernel,
    kernel_and_range,
    mutual_residual,
    right_markov_matrix,
    span_of_rows,
    subspaces_equal,
)
from muharmonic import subspaces


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


def _shifted(e) -> np.ndarray:
    return np.eye(e.group.order) - right_markov_matrix(e.group, e.measure).entries


def _complex_matrix(seed: int = 3) -> np.ndarray:
    rng = np.random.default_rng(seed)
    b = rng.standard_normal((6, 3)) + 1j * rng.standard_normal((6, 3))
    return b @ (rng.standard_normal((3, 6)) + 1j * rng.standard_normal((3, 6)))  # rank 3


@pytest.mark.parametrize("a", [_shifted(e) for e in catalog()] + [_complex_matrix()],
                         ids=[e.name for e in catalog()] + ["complex_rank3"])
def test_kernel_and_range_is_bitwise_kernel_and_column_space(a):
    ker, rng_ = kernel_and_range(a)
    assert ker.basis.tobytes() == kernel(a).basis.tobytes()
    assert rng_.basis.tobytes() == column_space(a).basis.tobytes()


def _spy_svd(monkeypatch) -> list:
    dtypes = []
    svd = np.linalg.svd

    def spy(a, *args, **kwargs):
        dtypes.append(np.asarray(a).dtype)
        return svd(a, *args, **kwargs)

    monkeypatch.setattr(subspaces.np.linalg, "svd", spy)
    return dtypes


def test_real_data_takes_the_real_svd_and_complex_data_the_complex_one(monkeypatch):
    dtypes = _spy_svd(monkeypatch)
    a = _shifted(catalog()[5]).astype(np.complex128)
    kernel(a), column_space(a), span_of_rows(a), kernel_and_range(a)
    assert dtypes == [np.float64] * 4
    dtypes.clear()
    c = _complex_matrix()
    kernel(c), column_space(c), span_of_rows(c), kernel_and_range(c)
    assert dtypes == [np.complex128] * 4


@pytest.mark.parametrize("e", catalog(), ids=lambda e: e.name)
def test_real_and_complex_paths_give_the_same_subspaces(e, monkeypatch):
    a = _shifted(e).astype(np.complex128)
    real = [kernel(a), column_space(a), span_of_rows(a), *kernel_and_range(a)]
    monkeypatch.setattr(subspaces, "_svd", lambda m, full_matrices:
                        np.linalg.svd(m, full_matrices=full_matrices))
    cplx = [kernel(a), column_space(a), span_of_rows(a), *kernel_and_range(a)]
    for r, c in zip(real, cplx):
        assert r.basis.dtype == c.basis.dtype == np.complex128
        assert r.rank == c.rank
        assert mutual_residual(r, c) <= 1e-12
