import tracemalloc

import numpy as np
import pytest

from muharmonic import (
    FiniteMeasure,
    approximate_identity,
    apply_conjugation,
    catalog,
    coboundary_ideal,
    convolve,
    cyclic_group,
    diagonal_measure,
    from_pairs,
    generated_subgroup,
    haar_average,
    haar_on_subgroup,
    harmonic_space,
    l1_distance,
    left_cosets,
    left_ideal_residual,
    operator_convolve,
    orbit_labels,
    point_mass,
    predual_coboundary_ideal,
    predual_matrix,
    quotient_norm,
    quotient_norm_trace,
    right_regular,
    symmetric_group,
    trace_class_ideal,
    trace_predual_matrix,
    uniform_on,
)
from muharmonic.ideals import _TRACE_BLOCK

Z2 = cyclic_group(2)
Z4 = cyclic_group(4)
Z6 = cyclic_group(6)
S3 = symmetric_group(3)

S3_MU = uniform_on(S3, [S3.labels.index("(1 2)"), S3.labels.index("(1 3)")])
CATALOG = [
    (Z2, point_mass(Z2, 1)),
    (Z4, point_mass(Z4, 1)),
    (Z6, point_mass(Z6, 2)),
    (S3, S3_MU),
]


def _trace_norm(vec: np.ndarray) -> float:
    n = int(round(np.sqrt(vec.size)))
    return float(np.linalg.svd(vec.reshape(n, n), compute_uv=False).sum())


def _trace_grid_distance(x: np.ndarray, basis: np.ndarray, step_target: float = 1e-6) -> float:
    """Grid-with-refinement minimization of ||x - B t||_tr over real t: the
    oracle for the closed-form trace distance on tiny ideals.

    Pattern search on a convex objective: evaluate a 5^r grid around the
    current center, recenter on the winner, and halve the window only when
    the winner was interior (a boundary winner means the optimum may still
    lie outside, so the box drifts with a gentler shrink).
    """
    r = basis.shape[1]
    center = np.zeros(r)
    width = _trace_norm(x) + 1.0
    offsets = np.array([-1.0, -0.5, 0.0, 0.5, 1.0])

    def value(t):
        return _trace_norm(x - basis @ t)

    while width > step_target:
        grids = np.meshgrid(*[center[i] + width * offsets for i in range(r)], indexing="ij")
        pts = np.stack([g.ravel() for g in grids], axis=1)
        vals = np.array([value(p) for p in pts])
        i = int(np.argmin(vals))
        on_boundary = bool(np.any(np.abs(pts[i] - center) >= width * 0.999))
        center = pts[i]
        width *= 0.9 if on_boundary else 0.5
    return value(center)


def test_coboundary_ideal_examples():
    ideal = coboundary_ideal(Z2, point_mass(Z2, 1))
    assert ideal.rank == 1
    assert ideal.space.residual(np.array([1.0, -1.0]) / np.sqrt(2)) < 1e-12
    assert coboundary_ideal(Z4, point_mass(Z4, 0)).rank == 0
    assert coboundary_ideal(Z4, point_mass(Z4, 1)).rank == 3


def test_trace_class_ideal_examples():
    ideal = trace_class_ideal(Z2, point_mass(Z2, 1))
    assert ideal.rank == 2
    # displacements A - PAP span the antisymmetric-under-swap part
    a = np.array([[1.0, 2.0], [3.0, 4.0]])
    p = np.array([[0.0, 1.0], [1.0, 0.0]])
    disp = (a - p @ a @ p).reshape(-1)
    assert ideal.space.residual(disp) < 1e-12
    assert trace_class_ideal(Z2, point_mass(Z2, 0)).rank == 0


def test_rank_complementarity_and_annihilator_duality():
    from muharmonic import conjugation_operator, right_markov_matrix

    for g, mu in CATALOG:
        n = g.order
        ideal = trace_class_ideal(g, mu)
        fixed = harmonic_space(conjugation_operator(g, mu))
        assert ideal.rank + fixed.rank == n * n
        # trace pairing tr(S A) vanishes between the ideal and the fixed space
        worst = 0.0
        for s_vec in ideal.space.basis:
            s_mat = s_vec.reshape(n, n)
            for a_vec in fixed.basis:
                worst = max(worst, abs(np.trace(s_mat @ a_vec.reshape(n, n))))
        assert worst < 1e-10

        l1_ideal = coboundary_ideal(g, mu)
        f_space = harmonic_space(right_markov_matrix(g, mu))
        assert l1_ideal.rank + f_space.rank == n


def test_ideal_vectors_sum_to_zero_on_cosets():
    for g, mu in CATALOG:
        ideal = coboundary_ideal(g, mu)
        h = generated_subgroup(g, mu.support())
        part = left_cosets(g, h)
        for v in ideal.space.basis:
            assert abs(v.sum()) < 1e-12
            for block in part.blocks:
                assert abs(v[list(block)].sum()) < 1e-12


def test_l1_distance_examples():
    ideal = coboundary_ideal(Z2, point_mass(Z2, 1))
    assert abs(l1_distance(np.array([1.0, 0.0]), ideal) - 1.0) < 1e-12
    assert l1_distance(np.array([1.0, -1.0]), ideal) < 1e-12
    member = ideal.space.basis[0] * 2.7
    assert l1_distance(member.real, ideal) < 1e-12


def test_trace_norm_distance_duality_cases():
    ideal = trace_class_ideal(Z2, point_mass(Z2, 1))
    # independent oracle by duality: the annihilator of the ideal is the
    # commutant {aI + bP}, operator norm max|a+-b|, so the quotient norm of X
    # is sup |a tr(X) + b tr(XP)| over that ball; both hand cases give 1
    x1 = np.diag([1.0, 0.0]).reshape(-1)
    assert abs(l1_distance(x1, ideal) - 1.0) < 1e-5
    x2 = np.array([[0.0, 1.0], [0.0, 0.0]]).reshape(-1)
    assert abs(l1_distance(x2, ideal) - 1.0) < 1e-5
    member = ideal.space.basis[0].real * 1.3 + ideal.space.basis[1].real * 0.4
    assert l1_distance(member, ideal) < 1e-5


def test_trace_norm_distance_matches_duality_on_random_matrices():
    # for the swap law on Z/2 the quotient norm has a closed dual form:
    # sup over the commutant ball {aI + bP : max|a+-b| <= 1} of
    # |a tr(X) + b tr(XP)| = max(|tr X|, |tr XP|)
    ideal = trace_class_ideal(Z2, point_mass(Z2, 1))
    p = np.array([[0.0, 1.0], [1.0, 0.0]])
    rng = np.random.default_rng(99)
    for _ in range(15):
        x = rng.standard_normal((2, 2)) * 2
        dist = l1_distance(x.reshape(-1), ideal)
        dual = max(abs(np.trace(x)), abs(np.trace(x @ p)))
        assert abs(dist - dual) < 1e-5


def test_trace_norm_distance_on_s3_matches_quotient_norm():
    # vec dimension 36; the Haar average is written out with the right
    # regular matrices, and both directions of the distance are certified
    ideal = trace_class_ideal(S3, S3_MU)
    rho = right_regular(S3)
    h = generated_subgroup(S3, S3_MU.support()).members
    rng = np.random.default_rng(36)
    for _ in range(5):
        x = rng.standard_normal((6, 6)) + 1j * rng.standard_normal((6, 6))
        avg = sum(rho[s] @ x @ rho[s].T for s in h) / len(h)
        expected = _trace_norm(avg.reshape(-1))
        assert abs(l1_distance(x.reshape(-1), ideal) - expected) < 1e-12
        assert abs(quotient_norm(x.reshape(-1), ideal) - expected) < 1e-12
        # "<=": x - E_H x lies in the ideal
        assert ideal.space.contains((x - avg).reshape(-1))
        # ">=": the adjoint polar part of E_H X commutes with rho(H), so it
        # annihilates the ideal; it has operator norm 1 and pairs to the value
        u, _, vh = np.linalg.svd(avg)
        a = (u @ vh).conj().T
        assert max(np.abs(rho[s] @ a @ rho[s].T - a).max() for s in h) < 1e-12
        assert abs(np.trace(x @ a) - expected) < 1e-10


def test_trace_closed_form_matches_grid_on_z2():
    ideal = trace_class_ideal(Z2, point_mass(Z2, 1))
    assert np.abs(ideal.space.basis.imag).max() < 1e-12
    basis = ideal.space.basis.T.real
    rng = np.random.default_rng(98)
    for _ in range(10):
        x = rng.standard_normal(4) * 2
        assert abs(quotient_norm(x, ideal) - _trace_grid_distance(x, basis)) < 1e-5


def test_grid_distance_matches_lp_on_l1_like_problem():
    # cross-check the grid minimizer against a known 1-parameter optimum
    basis = np.array([[1.0], [-1.0], [0.0], [0.0]])
    x = np.array([1.0, 0.0, 0.0, 0.0])
    val = _trace_grid_distance(x, basis)
    # trace norm of unvec'd 2x2 [[1-t, -t], [0, 0]] = sqrt((1-t)^2 + t^2), min at 1/2
    assert abs(val - np.sqrt(0.5)) < 1e-5


def test_quotient_norm_trace_hand_cases():
    ideal = coboundary_ideal(Z2, point_mass(Z2, 1))
    tr1 = quotient_norm_trace(np.array([1.0, 0.0]), ideal.predual_op, 32, ideal=ideal)
    assert all(abs(a - 1.0) < 1e-12 for a in tr1.norms)
    assert abs(tr1.distance - 1.0) < 1e-12
    tr2 = quotient_norm_trace(np.array([1.0, -1.0]), ideal.predual_op, 32, ideal=ideal)
    assert abs(tr2.norms[1]) < 1e-12
    assert abs(tr2.distance) < 1e-12
    assert abs(tr2.limit_estimate) < 1e-12
    tr0 = quotient_norm_trace(np.zeros(2), ideal.predual_op, 8, ideal=ideal)
    assert all(a == 0.0 for a in tr0.norms)


def test_quotient_norm_trace_subadditivity():
    rng = np.random.default_rng(31)
    ideal = coboundary_ideal(S3, S3_MU)
    x = rng.standard_normal(6)
    tr = quotient_norm_trace(x, ideal.predual_op, 128, ideal=ideal)
    s = [n * a for n, a in enumerate(tr.norms, start=1)]
    for m in range(1, 60):
        for n in range(1, 60):
            assert s[m + n - 1] <= s[m - 1] + s[n - 1] + 1e-9
    for n in range(1, 64):
        assert tr.norms[2 * n - 1] <= tr.norms[n - 1] + 1e-9
    assert min(tr.norms) >= tr.distance - 1e-8


def test_approximate_identity_examples():
    eta2, report2 = approximate_identity(Z2, point_mass(Z2, 1), 2)
    assert np.allclose(eta2.weights, [0.5, -0.5])
    assert report2.max_residual == 0.0

    _, report1 = approximate_identity(Z2, point_mass(Z2, 1), 1)
    assert np.isfinite(report1.max_residual)
    assert report1.max_residual > 0

    zero = FiniteMeasure(Z2, np.zeros(2))
    eta, _ = approximate_identity(Z2, point_mass(Z2, 1), 4)
    moved = convolve(zero, eta)
    assert np.abs(moved.weights - zero.weights).max() == 0.0


def test_diagonal_measure_examples():
    s = np.array([[1.0, 2.0], [3.0, 4.0]])
    kappa = diagonal_measure(s, Z2)
    assert np.allclose(kappa.weights, [1.0, 4.0])
    assert np.allclose(diagonal_measure(np.eye(2), Z2).weights, [1.0, 1.0])
    t = np.array([[0.5, 0.0], [1.0, -2.0]])
    lhs = diagonal_measure(s + t, Z2).weights
    rhs = diagonal_measure(s, Z2).weights + diagonal_measure(t, Z2).weights
    assert np.allclose(lhs, rhs)


def test_operator_convolve_examples():
    s_id = np.diag([1.0, 0.0])
    t = np.array([[5.0, 6.0], [7.0, 8.0]])
    assert np.allclose(operator_convolve(s_id, t, Z2), t)
    s = np.array([[1.0, 2.0], [3.0, 4.0]])
    st = operator_convolve(s, t, Z2)
    assert np.array_equal(st.real, [[37.0, 34.0], [31.0, 28.0]])
    assert abs(np.trace(st) - 65.0) < 1e-12
    kappa_st = diagonal_measure(st, Z2)
    kappa_conv = convolve(diagonal_measure(s, Z2), diagonal_measure(t, Z2))
    assert np.allclose(kappa_st.weights, kappa_conv.weights)


def test_operator_convolution_identities_random():
    rng = np.random.default_rng(33)
    for g in (Z4, S3):
        n = g.order
        for _ in range(25):
            a = rng.random((n, n)) + 1j * rng.random((n, n))
            b = rng.random((n, n)) + 1j * rng.random((n, n))
            c = rng.random((n, n)) + 1j * rng.random((n, n))
            ab = operator_convolve(a, b, g)
            assert abs(np.trace(ab) - np.trace(a) * np.trace(b)) < 1e-10
            lhs = diagonal_measure(ab, g).weights
            rhs = convolve(diagonal_measure(a, g), diagonal_measure(b, g)).weights
            assert np.abs(lhs - rhs).max() < 1e-10
            assoc = operator_convolve(ab, c, g) - operator_convolve(a, operator_convolve(b, c, g), g)
            assert np.abs(assoc).max() < 1e-10


def test_predual_module_identity():
    # averaging the right-conjugation predual passes through the convolution
    rng = np.random.default_rng(34)
    n = S3.order
    for _ in range(10):
        sigma = FiniteMeasure(S3, rng.standard_normal(n) + 1j * rng.standard_normal(n))
        s = rng.random((n, n)) + 1j * rng.random((n, n))
        t = rng.random((n, n)) + 1j * rng.random((n, n))
        lhs = apply_conjugation(S3, sigma, operator_convolve(s, t, S3))
        rhs = operator_convolve(s, apply_conjugation(S3, sigma, t), S3)
        assert np.abs(lhs - rhs).max() < 1e-10


def test_diagonal_measure_equivariance():
    # the diagonal map intertwines conjugation by the regular representations
    # with translation of measures: left conjugation -> left translation,
    # right conjugation -> right translation by the inverse
    from muharmonic import left_regular, right_regular

    rng = np.random.default_rng(35)
    lam = left_regular(S3)
    rho = right_regular(S3)
    s = rng.random((6, 6)) + 1j * rng.random((6, 6))
    for g in range(6):
        left = diagonal_measure(lam[g] @ s @ lam[g].T, S3)
        expect_left = convolve(point_mass(S3, g), diagonal_measure(s, S3))
        assert np.abs(left.weights - expect_left.weights).max() < 1e-14
        right = diagonal_measure(rho[g] @ s @ rho[g].T, S3)
        expect_right = convolve(diagonal_measure(s, S3), point_mass(S3, S3.inv(g)))
        assert np.abs(right.weights - expect_right.weights).max() < 1e-14


def test_trace_predual_is_transpose_of_conjugation():
    from muharmonic import conjugation_operator

    p = trace_predual_matrix(S3, S3_MU)
    forward = conjugation_operator(S3, S3_MU).entries
    assert np.abs(p - forward.T).max() < 1e-14


def test_left_ideal_residual_examples():
    report = left_ideal_residual(Z2, point_mass(Z2, 1), trials=100, seed=0)
    assert report.max_residual < 1e-9
    report_s3 = left_ideal_residual(S3, S3_MU, trials=50, seed=1)
    assert report_s3.max_residual < 1e-9

    ideal = trace_class_ideal(Z2, point_mass(Z2, 1))
    rng = np.random.default_rng(2)
    s = rng.random((2, 2)) + 1j * rng.random((2, 2))
    zero_residual = ideal.space.residual(operator_convolve(s, np.zeros((2, 2)), Z2).reshape(-1))
    assert zero_residual == 0.0


def test_quotient_norm_trace_takes_the_lp_without_labels():
    x = np.array([1.0, 0.0, -1.0, 0.5, 0.0, -0.5])
    mu = point_mass(Z6, 2)
    closed = quotient_norm_trace(x, predual_matrix(Z6, mu), 8, ideal=coboundary_ideal(Z6, mu))
    bare = predual_coboundary_ideal(predual_matrix(Z6, mu))
    assert bare.labels is None
    with pytest.raises(ValueError, match="labels"):
        quotient_norm(x, bare)
    lp = quotient_norm_trace(x, bare.predual_op, 8, ideal=bare)
    assert abs(lp.distance - closed.distance) < 1e-12
    # cosets {0,2,4} and {1,3,5}: |1 - 1 + 0| + |0 + 0.5 - 0.5|
    assert closed.distance == 0.0


def test_ideal_of_a_signed_measure_records_no_labels():
    signed = FiniteMeasure(Z4, np.array([0.0, 1.5, 0.0, -0.5], dtype=np.complex128))
    assert coboundary_ideal(Z4, signed).labels is None
    assert trace_class_ideal(Z4, signed).labels is None
    with pytest.raises(ValueError, match="probability measure"):
        left_ideal_residual(Z4, signed, trials=1)


@pytest.mark.parametrize("entry", catalog(), ids=lambda e: e.name)
def test_left_ideal_residual_matches_the_svd_residual(entry):
    # replay the draws of left_ideal_residual against the SVD of I - P
    g, mu = entry.group, entry.measure
    n = g.order
    ideal = trace_class_ideal(g, mu)
    report = left_ideal_residual(g, mu, trials=3, seed=5)
    rng = np.random.default_rng(5)
    svd_worst = 0.0
    for _ in range(3):
        s = rng.random((n, n)) + 1j * rng.random((n, n))
        y = rng.random(n * n) + 1j * rng.random(n * n)
        sx = operator_convolve(s, (y - ideal.predual_op @ y).reshape(n, n), g)
        svd_worst = max(svd_worst, ideal.space.residual(sx.reshape(-1)))
    assert report.max_residual < 1e-9 and svd_worst < 1e-9
    assert abs(report.max_residual - svd_worst) < 1e-12
    # away from the ideal both distances are of order one
    for _ in range(3):
        v = rng.standard_normal(n * n) + 1j * rng.standard_normal(n * n)
        closed = float(np.linalg.norm(haar_average(v, ideal.labels)))
        assert closed > 0.1
        assert abs(ideal.space.residual(v) - closed) < 1e-10


@pytest.mark.parametrize("entry", catalog(), ids=lambda e: e.name)
def test_haar_average_is_an_orthogonal_projection(entry):
    g, mu = entry.group, entry.measure
    h = generated_subgroup(g, mu.support())
    rng = np.random.default_rng(7)
    for rep, dim in (("functions", g.order), ("operators", g.order ** 2)):
        labels = orbit_labels(g, h, rep)
        x, y = (rng.standard_normal(dim) + 1j * rng.standard_normal(dim) for _ in range(2))
        ex, ey = haar_average(x, labels), haar_average(y, labels)
        assert np.abs(haar_average(ex, labels) - ex).max() < 1e-12  # idempotent
        assert abs(np.vdot(ex, y) - np.vdot(x, ey)) < 1e-12  # self-adjoint
    # on l^1 it is right convolution with the Haar measure of H
    x = rng.standard_normal(g.order) + 1j * rng.standard_normal(g.order)
    omega = haar_on_subgroup(g, h)
    expected = convolve(FiniteMeasure(g, x), omega).weights
    assert np.abs(haar_average(x, orbit_labels(g, h)) - expected).max() < 1e-12


def test_left_ideal_residual_builds_no_svd(monkeypatch):
    # the Haar average replaces the order^2 x order^2 SVD of I - P
    def no_svd(*args, **kwargs):
        raise AssertionError("an SVD ran")

    monkeypatch.setattr("numpy.linalg.svd", no_svd)
    s4 = symmetric_group(4)
    mu = uniform_on(s4, [s4.labels.index("(1 2)"), s4.labels.index("(1 2 3 4)")])
    assert left_ideal_residual(s4, mu, trials=2, seed=3).max_residual < 1e-9


def _norms_by_steps(x, p, n_max, norm):
    """The reference loop for a_n: one matrix-vector step and one norm per n."""
    y, acc, norms = x, np.zeros_like(x), []
    for n in range(1, n_max + 1):
        y = p @ y
        acc = acc + y
        norms.append(norm(acc / n))
    return norms


@pytest.mark.parametrize("n_max", [1, _TRACE_BLOCK - 1, _TRACE_BLOCK, _TRACE_BLOCK + 1, 4096])
@pytest.mark.parametrize("ambient", ["l1", "trace"])
def test_quotient_norm_trace_is_bitwise_the_per_step_loop(ambient, n_max):
    rng = np.random.default_rng(n_max)
    if ambient == "l1":
        p, norm = predual_matrix(S3, S3_MU), lambda v: float(np.abs(v).sum())
    else:
        p, norm = trace_predual_matrix(S3, S3_MU), _trace_norm
    x = rng.standard_normal(p.shape[0]) + 1j * rng.standard_normal(p.shape[0])
    got = quotient_norm_trace(x, p, n_max, ambient=ambient).norms
    assert len(got) == n_max
    assert np.array(got).tobytes() == np.array(_norms_by_steps(x, p, n_max, norm)).tobytes()


def test_quotient_norm_trace_memory_does_not_grow_with_n_max():
    s4 = symmetric_group(4)
    mu = uniform_on(s4, [s4.labels.index("(1 2)"), s4.labels.index("(1 2 3 4)")])
    p = predual_matrix(s4, mu)
    x = np.random.default_rng(5).standard_normal(s4.order)

    def transient_peak(n_max):
        # peak bytes above what the call leaves behind (its result included)
        tracemalloc.start()
        try:
            result = quotient_norm_trace(x, p, n_max)
            current, peak = tracemalloc.get_traced_memory()
        finally:
            tracemalloc.stop()
        assert len(result.norms) == n_max
        return peak - current

    small, large = transient_peak(512), transient_peak(8192)
    # keeping every average would add 16 * |G| = 384 bytes per extra step;
    # only the float64 norms, on their way into the result tuple, may grow
    assert large - small <= 16 * (8192 - 512)
