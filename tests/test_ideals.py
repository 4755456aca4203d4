import tracemalloc

import numpy as np
import pytest

from muharmonic import (
    FiniteMeasure,
    IdealBasis,
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
    predual_matrix,
    quotient_norm,
    quotient_norm_trace,
    reflect,
    right_regular,
    symmetric_group,
    trace_class_ideal,
    trace_predual_matrix,
    uniform_on,
)
from muharmonic import subspaces
from muharmonic.experiments import ExperimentConfig, run
from muharmonic.ideals import _STACK_MULADDS, _TRACE_BLOCK, _haar_labels

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


def test_trace_distance_factors_nothing(monkeypatch):
    # the rank of S4's 576 x 576 I - P takes 24 block SVDs; the closed form
    # for the distances takes none, and gives what quotient_norm gives
    s4 = symmetric_group(4)
    ideal = trace_class_ideal(s4, uniform_on(s4, [s4.labels.index("(1 2)"),
                                                  s4.labels.index("(1 2 3 4)")]))
    xs = np.random.default_rng(24).standard_normal((576, 3))
    calls = []
    svd = subspaces._svd
    monkeypatch.setattr(subspaces, "_svd", lambda *a, **k: calls.append(1) or svd(*a, **k))
    dists = l1_distance(xs, ideal)
    assert calls == []
    assert dists.tobytes() == np.array([quotient_norm(x, ideal) for x in xs.T]).tobytes()
    assert ideal.rank > 0  # so the rank-reading route took quotient_norm too
    assert len(calls) == 24


@pytest.mark.parametrize("entry", catalog(), ids=lambda e: e.name)
def test_quotient_norm_batch_is_bitwise_the_per_column_calls(entry):
    # a (d, k) batch gives k floats, as l1_distance does, on both ambients
    rng = np.random.default_rng(entry.group.order)
    for ideal in (coboundary_ideal(entry.group, entry.measure),
                  trace_class_ideal(entry.group, entry.measure)):
        d = ideal.labels.size
        for xs in (rng.standard_normal((d, 5)),
                   rng.standard_normal((d, 5)) + 1j * rng.standard_normal((d, 5))):
            batch = quotient_norm(xs, ideal)
            assert batch.shape == (5,)
            assert batch.tobytes() == np.array([quotient_norm(x, ideal) for x in xs.T]).tobytes()


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
    tr1 = quotient_norm_trace(np.array([1.0, 0.0]), ideal, 32)
    assert all(abs(a - 1.0) < 1e-12 for a in tr1.norms)
    assert abs(tr1.distance - 1.0) < 1e-12
    tr2 = quotient_norm_trace(np.array([1.0, -1.0]), ideal, 32)
    assert abs(tr2.norms[1]) < 1e-12
    assert abs(tr2.distance) < 1e-12
    assert abs(tr2.limit_estimate) < 1e-12
    tr0 = quotient_norm_trace(np.zeros(2), ideal, 8)
    assert all(a == 0.0 for a in tr0.norms)


def test_quotient_norm_trace_subadditivity():
    rng = np.random.default_rng(31)
    ideal = coboundary_ideal(S3, S3_MU)
    x = rng.standard_normal(6)
    tr = quotient_norm_trace(x, ideal, 128)
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
    assert report2.max_residual <= 1e-15  # criterion 7's bound for "Z2 exact at n=2"

    _, report1 = approximate_identity(Z2, point_mass(Z2, 1), 1)
    assert np.isfinite(report1.max_residual)
    assert report1.max_residual > 0

    zero = FiniteMeasure(Z2, np.zeros(2))
    eta, _ = approximate_identity(Z2, point_mass(Z2, 1), 4)
    moved = convolve(zero, eta)
    assert np.abs(moved.weights - zero.weights).max() == 0.0


def _approximate_identity_residuals_by_h(g, mu, eta):
    """The reference: ||phi_h * eta - phi_h||_1 for every h, phi_h = delta_h - delta_h * mu."""
    out = []
    for h in range(g.order):
        delta_h = point_mass(g, h)
        phi = delta_h.weights - convolve(delta_h, mu).weights
        out.append(float(np.abs(convolve(FiniteMeasure(g, phi), eta).weights - phi).sum()))
    return out


@pytest.mark.parametrize("entry", catalog(), ids=lambda e: e.name)
def test_approximate_identity_residual_is_the_same_for_every_translate(entry):
    # left translation is an l^1 isometry, so phi_e stands for every phi_h
    g, mu = entry.group, entry.measure
    for n in (1, 2, 256):
        eta, report = approximate_identity(g, mu, n)
        by_h = _approximate_identity_residuals_by_h(g, mu, eta)
        assert max(by_h) - min(by_h) <= 1e-15
        assert abs(report.max_residual - max(by_h)) <= 1e-15


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
    forward = conjugation_operator(S3, S3_MU)
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
    closed = quotient_norm_trace(x, coboundary_ideal(Z6, mu), 8)
    bare = IdealBasis("l1", predual_matrix(Z6, mu))
    assert bare.labels is None
    with pytest.raises(ValueError, match="labels"):
        quotient_norm(x, bare)
    lp = quotient_norm_trace(x, bare, 8)
    assert abs(lp.distance - closed.distance) < 1e-12
    # cosets {0,2,4} and {1,3,5}: |1 - 1 + 0| + |0 + 0.5 - 0.5|
    assert closed.distance == 0.0


def test_a_trace_ideal_without_labels_names_trace_class_ideal():
    # the advice must not send the caller to l1_distance, which raises here too
    bare = IdealBasis("trace", trace_predual_matrix(Z2, point_mass(Z2, 1)))
    x = np.array([1.0, 0.0, 0.0, -1.0])
    for call in (lambda: l1_distance(x, bare), lambda: quotient_norm_trace(x, bare, 4)):
        with pytest.raises(ValueError, match="labels") as raised:
            call()
        assert "trace_class_ideal, which records them" in str(raised.value)
        assert "l1_distance" not in str(raised.value)


def test_trace_class_ideal_refuses_a_signed_measure():
    # a signed measure on Z3 once gave an ideal of rank 9, to which l1_distance
    # then refused every distance
    z3 = cyclic_group(3)
    for pairs in ([(1, 0.5), (2, -0.2)], [(1, 1.5), (2, -0.5)]):
        with pytest.raises(ValueError, match="^mu: expected a probability measure on Z3, got "):
            trace_class_ideal(z3, from_pairs(z3, pairs))


def test_ideal_of_a_signed_measure_records_no_labels():
    signed = FiniteMeasure(Z4, np.array([0.0, 1.5, 0.0, -0.5], dtype=np.complex128))
    assert coboundary_ideal(Z4, signed).labels is None
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


def _stack(rng, *shape):
    return rng.random(shape) + 1j * rng.random(shape)


@pytest.mark.parametrize("entry", catalog(), ids=lambda e: e.name)
def test_stacked_calls_are_bitwise_the_per_matrix_calls(entry):
    g, mu = entry.group, entry.measure
    n = g.order
    rng = np.random.default_rng(13)
    s, t = _stack(rng, 2, 3, n, n), _stack(rng, 2, 3, n, n)
    labels = _haar_labels(g, mu, "operators")
    stacked = (operator_convolve(s, t, g), apply_conjugation(g, mu, t),
               haar_average(t.reshape(2, 3, n * n), labels))
    for i, j in np.ndindex(2, 3):
        single = (operator_convolve(s[i, j], t[i, j], g), apply_conjugation(g, mu, t[i, j]),
                  haar_average(t[i, j].reshape(-1), labels))
        for got, want in zip(stacked, single):
            assert got[i, j].tobytes() == want.tobytes()
    # every pair takes its whole slice matrix, so a zero on one diagonal keeps the bits
    s[0, 1, 0, 0] = 0.0
    st = operator_convolve(s, t, g)[0, 1]
    assert st.tobytes() == operator_convolve(s[0, 1], t[0, 1], g).tobytes()


def _left_ideal_residual_by_trials(g, mu, trials, seed):
    """One draw, one convolution and one Haar average per trial: the reference."""
    labels = _haar_labels(g, mu, "operators")
    back = reflect(mu)
    rng = np.random.default_rng(seed)
    n = g.order
    worst = 0.0
    for _ in range(trials):
        s = rng.random((n, n)) + 1j * rng.random((n, n))
        y = (rng.random(n * n) + 1j * rng.random(n * n)).reshape(n, n)
        sx = operator_convolve(s, y - apply_conjugation(g, back, y), g)
        worst = max(worst, float(np.linalg.norm(haar_average(sx.reshape(-1), labels), axis=-1)))
    return worst


def test_left_ideal_residual_blocks_give_the_per_trial_result():
    s4 = symmetric_group(4)
    mu = uniform_on(s4, [s4.labels.index("(1 2)"), s4.labels.index("(1 2 3 4)")])
    block = _STACK_MULADDS // s4.order ** 3
    assert block == 18
    for trials in (1, block - 1, block, block + 1):
        report = left_ideal_residual(s4, mu, trials=trials, seed=9)
        assert report.trials == trials
        assert report.max_residual == _left_ideal_residual_by_trials(s4, mu, trials, 9)


def test_derriennic_on_s5_takes_no_svd(monkeypatch):
    # the closed-form quotient norm never reads the ideal's SVD basis
    calls = []
    svd = np.linalg.svd

    def counting_svd(*args, **kwargs):
        calls.append(np.shape(args[0]))
        return svd(*args, **kwargs)

    monkeypatch.setattr("numpy.linalg.svd", counting_svd)
    s5 = symmetric_group(5)
    support = [s5.labels.index("(1 2)"), s5.labels.index("(1 2 3 4 5)")]
    record = run(ExperimentConfig(scenario="derriennic", group={"kind": "symmetric", "n": 5},
                                  measure={"uniform_on": support}))
    assert record.passed
    assert calls == []
    ideal = coboundary_ideal(s5, uniform_on(s5, support))
    assert ideal.rank == 119 and len(calls) == 1  # the basis is still there on demand


def _norms_by_steps(x, p, n_max, norm):
    """The reference loop for a_n: one matrix-vector step and one norm per n."""
    y, acc, norms = x, np.zeros_like(x), []
    for n in range(1, n_max + 1):
        y = p @ y
        acc = acc + y
        norms.append(norm(acc / n))
    return norms


S4 = symmetric_group(4)
S5 = symmetric_group(5)
S4_GENS = [S4.labels.index("(1 2)"), S4.labels.index("(1 2 3 4)")]
S5_GENS = [S5.labels.index("(1 2)"), S5.labels.index("(1 2 3 4 5)")]


def _l1_norm(v):
    return float(np.abs(v).sum())


# S3 (d = 6 and 36), S5 in l1 (d = 120) and S4 in the trace ambient (d = 576):
# every dimension takes the powers of P
_STEP_CASES = {
    "l1": lambda: (coboundary_ideal(S3, S3_MU), _l1_norm),
    "trace": lambda: (trace_class_ideal(S3, S3_MU), _trace_norm),
    "S5-l1": lambda: (coboundary_ideal(S5, uniform_on(S5, S5_GENS)), _l1_norm),
    "S4-trace": lambda: (trace_class_ideal(S4, uniform_on(S4, S4_GENS)), _trace_norm),
}


def _step_case_x(d, n_max, kind):
    rng = np.random.default_rng(n_max)
    x = rng.standard_normal(d)
    return x + 1j * rng.standard_normal(d) if kind == "complex" else x


# 1, 2 and 3 end the doubling early, 255-257 sit on the edge of the first
# block, and 4096 runs 16 blocks; S4 in the trace ambient, the largest
# dimension, runs a single power and the first two blocks
@pytest.mark.parametrize("n_max, case", [
    (n_max, case)
    for n_max in (1, 2, 3, _TRACE_BLOCK - 1, _TRACE_BLOCK, _TRACE_BLOCK + 1, 4096)
    for case in ("l1", "trace", "S5-l1", "S4-trace")
    if case != "S4-trace" or n_max in (1, _TRACE_BLOCK + 1)
])
@pytest.mark.parametrize("kind", ["real", "complex"])
def test_quotient_norm_trace_powers_match_the_per_step_loop(case, n_max, kind):
    # the powers of P add in another order: up to 9.2e-14 relative on these
    # cases, nearly all of it the loop's own rounding, which takes its 4096
    # terms one at a time (against the loop in long double, 2.9e-15 and 9e-14)
    ideal, norm = _STEP_CASES[case]()
    p = ideal.predual_op
    x = _step_case_x(len(p), n_max, kind)
    got = np.array(quotient_norm_trace(x, ideal, n_max).norms)
    want = np.array(_norms_by_steps(x, p, n_max, norm))
    assert got.shape == (n_max,)
    assert np.max(np.abs(got - want) / want) <= 1e-12


@pytest.mark.skipif(np.finfo(np.longdouble).eps >= np.finfo(float).eps,
                    reason="long double is double here")
@pytest.mark.parametrize("case", ["l1", "S5-l1"])
def test_quotient_norm_trace_powers_are_closer_to_a_long_double_loop(case):
    # the per-step loop in float64 parts from the loop in long double by up
    # to 9e-14 at n = 4096; the powers stay within a few units of rounding
    ideal, _ = _STEP_CASES[case]()
    p = ideal.predual_op.real.astype(np.longdouble)
    n_max = 4096
    x = _step_case_x(len(p), n_max, "real")
    y, acc, want = x.astype(np.longdouble), 0, []
    for n in range(1, n_max + 1):
        y = p @ y
        acc = acc + y
        want.append(float(np.abs(acc / n).sum()))
    want = np.array(want)
    got = np.array(quotient_norm_trace(x, ideal, n_max).norms)
    assert np.max(np.abs(got - want) / want) <= 1e-14


@pytest.mark.parametrize("case", ["S5-l1", "S4-trace"])
def test_quotient_norm_trace_matches_the_per_step_loop_for_non_dyadic_weights(case):
    # 0.7 and 0.3 round in each product, and the powers add in another order,
    # so they can part from the step p @ y in the last bits
    if case == "S5-l1":
        ideal, norm = coboundary_ideal(S5, from_pairs(S5, zip(S5_GENS, (0.7, 0.3)))), _l1_norm
    else:
        ideal, norm = trace_class_ideal(S4, from_pairs(S4, zip(S4_GENS, (0.7, 0.3)))), _trace_norm
    rng = np.random.default_rng(3)
    d = len(ideal.predual_op)
    x = rng.standard_normal(d) + 1j * rng.standard_normal(d)
    n_max = _TRACE_BLOCK + 1
    got = np.array(quotient_norm_trace(x, ideal, n_max).norms)
    want = np.array(_norms_by_steps(x, ideal.predual_op, n_max, norm))
    assert np.max(np.abs(got - want) / want) <= 1e-13


def test_quotient_norm_trace_memory_does_not_grow_with_n_max():
    def transient_peak(x, ideal, n_max):
        # peak bytes above what the call leaves behind (its result included)
        tracemalloc.start()
        try:
            result = quotient_norm_trace(x, ideal, n_max)
            current, peak = tracemalloc.get_traced_memory()
        finally:
            tracemalloc.stop()
        assert len(result.norms) == n_max
        return peak - current

    z17 = cyclic_group(17)
    for ideal in (coboundary_ideal(S4, uniform_on(S4, S4_GENS)),  # the powers, d = 24
                  coboundary_ideal(S5, uniform_on(S5, S5_GENS)),  # the powers, d = 120
                  trace_class_ideal(z17, point_mass(z17, 1))):  # the powers, d = 289
        d = len(ideal.predual_op)
        x = np.random.default_rng(5).standard_normal(d)
        small, large = transient_peak(x, ideal, 512), transient_peak(x, ideal, 8192)
        # keeping every average would add 8 d (192, 960 or 2312) bytes per extra
        # step; only the float64 norms, on their way into the result tuple, may grow
        assert large - small <= 16 * (8192 - 512)


def test_l1_distance_takes_a_batch_in_every_ambient():
    # rank 0, the l1 LP and the trace closed form: a (d, k) batch gives the
    # k distances of its columns
    rng = np.random.default_rng(37)
    for ideal in (coboundary_ideal(Z2, point_mass(Z2, 0)), coboundary_ideal(S3, S3_MU),
                  trace_class_ideal(Z2, point_mass(Z2, 1))):
        d = ideal.space.ambient_dim
        xs = rng.standard_normal((d, 3))
        batch = l1_distance(xs, ideal)
        assert batch.shape == (3,)
        assert batch.tobytes() == np.array([l1_distance(x, ideal) for x in xs.T]).tobytes()
