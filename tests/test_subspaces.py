import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from muharmonic import (
    Subspace,
    catalog,
    catalog_entry,
    column_space,
    conjugation_operator,
    kernel,
    kernel_and_range,
    mutual_residual,
    right_markov_matrix,
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
    s1 = column_space(np.array([[1.0, 0.0, 0.0], [1.0, 1.0, 0.0]]).T)
    s2 = column_space(np.array([[0.0, 1.0, 0.0], [2.0, 0.0, 0.0]]).T)
    assert s1.rank == 2
    assert s1.rank == s2.rank and mutual_residual(s1, s2) <= 1e-9
    s3 = column_space(np.array([[0.0, 0.0, 1.0]]).T)
    assert not (s1.rank == s3.rank and mutual_residual(s1, s3) <= 1e-9)
    assert mutual_residual(s1, s2) < 1e-12


def test_complex_kernel_vectors_satisfy_equation():
    rng = np.random.default_rng(0)
    a = rng.standard_normal((5, 8)) + 1j * rng.standard_normal((5, 8))
    k = kernel(a)
    assert k.rank == 3
    assert np.abs(a @ k.basis.T).max() < 1e-10


def test_zero_span():
    s = column_space(np.zeros((2, 4)).T)
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
    assert mutual_residual(space, column_space(chi[:, None])) < 1e-12
    other = column_space(chi.conj()[:, None])
    assert not (space.rank == other.rank and mutual_residual(space, other) <= 1e-9)


def _shifted(e) -> np.ndarray:
    return np.eye(e.group.order) - right_markov_matrix(e.group, e.measure)


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
    """The list of matrices handed to np.linalg.svd from here on."""
    seen = []
    svd = np.linalg.svd

    def spy(a, *args, **kwargs):
        seen.append(np.asarray(a))
        return svd(a, *args, **kwargs)

    monkeypatch.setattr(subspaces.np.linalg, "svd", spy)
    return seen


def test_real_data_takes_the_real_svd_and_complex_data_the_complex_one(monkeypatch):
    seen = _spy_svd(monkeypatch)
    a = _shifted(catalog()[5]).astype(np.complex128)
    kernel(a), column_space(a), kernel_and_range(a)
    assert [x.dtype for x in seen] == [np.float64] * 3
    seen.clear()
    c = _complex_matrix()
    kernel(c), column_space(c), kernel_and_range(c)
    assert [x.dtype for x in seen] == [np.complex128] * 3


@pytest.mark.parametrize("e", catalog(), ids=lambda e: e.name)
def test_real_and_complex_paths_give_the_same_subspaces(e, monkeypatch):
    a = _shifted(e).astype(np.complex128)
    real = [kernel(a), column_space(a), *kernel_and_range(a)]
    monkeypatch.setattr(subspaces, "_svd", lambda m, full_matrices:
                        np.linalg.svd(m, full_matrices=full_matrices))
    cplx = [kernel(a), column_space(a), *kernel_and_range(a)]
    for r, c in zip(real, cplx):
        assert r.basis.dtype == c.basis.dtype == np.complex128
        assert r.rank == c.rank
        assert mutual_residual(r, c) <= 1e-12


# ---------------------------------------------------------- block kernels

def _dense_kernel(a: np.ndarray) -> np.ndarray:
    """Oracle: the kernel of the whole matrix from one dense SVD, global cutoff."""
    _, s, vh = np.linalg.svd(a, full_matrices=True)
    cutoff = subspaces.DEFAULT_REL_TOL * max(float(s[0]) if s.size else 0.0, 1.0)
    return vh[int(np.sum(s > cutoff)):].conj()


def _random_block(rng, m, n, svals, is_complex):
    """An m x n block with the given nonzero singular values on random frames.

    Every entry is nonzero almost surely, so the block is one block of the
    nonzero pattern.
    """
    def frame(k):
        x = rng.standard_normal((k, k))
        if is_complex:
            x = x + 1j * rng.standard_normal((k, k))
        return np.linalg.qr(x)[0]
    return (frame(m)[:, :len(svals)] * svals) @ frame(n)[:, :len(svals)].conj().T


@st.composite
def _block_diagonal_matrices(draw):
    """Random blocks on the diagonal, zero rows and columns, rows and columns permuted.

    Blocks are tall, wide or square, some rank deficient, all real or all
    complex, with nonzero singular values in [0.1, 10].  Optionally the
    first block's largest singular value is raised to 100 or 1000 and a
    further block gets singular values a factor 30 below the global cutoff,
    where a cutoff taken per block would count them, or a factor 1e5 above
    it.  (Closer above the cutoff the dense oracle's kernel is itself
    perturbed by about eps * sigma_max / sigma, over 1e-9.)
    """
    rng = np.random.default_rng(draw(st.integers(0, 2**32 - 1)))
    is_complex = draw(st.booleans())
    blocks = []
    for _ in range(draw(st.integers(1, 5))):
        m, n = draw(st.integers(1, 6)), draw(st.integers(1, 6))
        svals = rng.uniform(0.1, 10.0, draw(st.integers(1, min(m, n))))
        if not blocks and draw(st.booleans()):
            svals[0] = sigma_max = float(draw(st.sampled_from([100.0, 1000.0])))
            k = draw(st.integers(1, 3))
            side = draw(st.sampled_from([1 / 30, 1e5]))
            blocks.append(_random_block(rng, k, k, np.full(k, side * 1e-10 * sigma_max),
                                        is_complex))
        blocks.append(_random_block(rng, m, n, svals, is_complex))
    m = sum(b.shape[0] for b in blocks) + draw(st.integers(0, 3))  # zero rows
    n = sum(b.shape[1] for b in blocks) + draw(st.integers(0, 3))  # zero columns
    a = np.zeros((m, n), dtype=np.complex128 if is_complex else np.float64)
    i = j = 0
    for b in blocks:
        a[i:i + b.shape[0], j:j + b.shape[1]] = b
        i, j = i + b.shape[0], j + b.shape[1]
    return a[rng.permutation(m)][:, rng.permutation(n)]


@settings(max_examples=150, deadline=None)
@given(_block_diagonal_matrices())
def test_block_kernel_matches_the_dense_kernel(a):
    k = kernel(a)
    oracle = _dense_kernel(a)
    assert k.rank == oracle.shape[0]
    assert k.basis.shape == (oracle.shape[0], a.shape[1])
    assert np.abs(k.basis @ k.basis.conj().T - np.eye(k.rank)).max(initial=0.0) < 1e-12
    assert mutual_residual(k, Subspace(a.shape[1], oracle)) <= 1e-9


@pytest.mark.parametrize("a", [_shifted(catalog_entry("S4_two_gens")), _complex_matrix(),
                               _complex_matrix()[:4], _complex_matrix()[:, :4]],
                         ids=["S4_two_gens", "complex_square", "complex_wide", "complex_tall"])
def test_one_block_is_factorized_whole_bitwise(a):
    # a matrix whose nonzero pattern is one block, with no zero row, gets the
    # dense SVD of the whole matrix: the same input, hence the same bits
    m, n = a.shape
    _, s, vh = subspaces._svd(a.astype(np.complex128), full_matrices=m < n)
    dense = vh[subspaces._rank(s):].conj()
    assert kernel(a).basis.tobytes() == dense.tobytes()


def test_operator_criterion_factorizes_nothing_above_24(monkeypatch):
    # pi_mu - I on S4 is 576 x 576 but splits into 24 blocks of 24 x 24; the
    # S3 commutant stack (six 36 x 36 Sylvester blocks, one per member of H)
    # splits into 30 x 6 blocks, the identity's rows being zero
    from muharmonic.experiments import _crit_operator_harmonic

    seen = _spy_svd(monkeypatch)
    assert all(c.passed for c in _crit_operator_harmonic())
    shapes = [x.shape for x in seen]
    assert shapes
    assert max(cols for _, cols in shapes) <= 24
    assert max(rows * cols for rows, cols in shapes) <= 24 * 24


def _blocks_by_full_passes(a):
    """Oracle: the label passes of `_blocks` run until they hold still."""
    m, n = a.shape
    r, c = np.divmod(np.flatnonzero(a != 0), n)
    col = np.arange(n)
    row = np.full(m, n)
    while True:
        np.minimum.at(row, r, col[c])
        nxt = col.copy()
        np.minimum.at(nxt, c, row[r])
        nxt = nxt[nxt]
        if (nxt == col).all():
            break
        col = nxt
    labels = np.flatnonzero(col == np.arange(n))
    return [(np.flatnonzero(row == label), np.flatnonzero(col == label)) for label in labels]


def _catalog_block_inputs():
    for e in catalog():
        shifted = right_markov_matrix(e.group, e.measure) - np.eye(e.group.order)
        yield e.name + ":I-M", shifted
        conj = conjugation_operator(e.group, e.measure)
        yield e.name + ":conj-I", conj - np.eye(conj.shape[0])
    a = np.zeros((7, 6))
    a[np.ix_([4, 0], [2, 5])] = [[1.0, 2.0], [0.0, 3.0]]
    a[np.ix_([1, 6], [0, 3])] = [[4.0, 0.0], [5.0, 6.0]]
    yield "two blocks, zero rows and zero columns", a
    yield "one block and a zero row", np.array([[1.0, 2.0], [0.0, 0.0], [3.0, 0.0]])


_BLOCK_INPUTS = dict(_catalog_block_inputs())


@pytest.mark.parametrize("name", list(_BLOCK_INPUTS))
def test_blocks_are_those_of_the_full_passes(name):
    a = _BLOCK_INPUTS[name]
    got = list(subspaces._blocks(a))
    expected = _blocks_by_full_passes(a)
    assert len(got) == len(expected)
    for (rows, cols), (rows_ref, cols_ref) in zip(got, expected):
        assert rows.dtype == rows_ref.dtype and cols.dtype == cols_ref.dtype
        assert np.array_equal(rows, rows_ref) and np.array_equal(cols, cols_ref)
