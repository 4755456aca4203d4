import numpy as np
import pytest

from muharmonic import (
    ConstructionError,
    FiniteMeasure,
    approximate_identity,
    catalog,
    cesaro_average,
    cesaro_limit,
    cesaro_mean,
    cesaro_projection,
    coboundary_ideal,
    commutant,
    cyclic_group,
    diamond_product,
    from_pairs,
    generated_subgroup,
    haar_on_subgroup,
    harmonic_space,
    harmonic_triviality_verdict,
    l1_harmonic_triviality,
    left_regular,
    mutual_residual,
    point_mass,
    quotient_norm_trace,
    right_markov_matrix,
    right_regular,
    simple_random_walk_z,
    symmetric_group,
    trivial_solution_space,
    uniform_on,
    z_from_pairs,
    z_point_mass,
)
from muharmonic.subspaces import kernel

Z2 = cyclic_group(2)
Z4 = cyclic_group(4)
Z6 = cyclic_group(6)
S3 = symmetric_group(3)
S5 = symmetric_group(5)
S5_MU = uniform_on(S5, [S5.labels.index("(1 2)"), S5.labels.index("(1 2 3 4 5)")])


def test_harmonic_space_examples():
    swap = right_markov_matrix(Z2, point_mass(Z2, 1))
    space = harmonic_space(swap)
    assert space.rank == 1
    assert space.residual(np.ones(2) / np.sqrt(2)) < 1e-12

    space6 = harmonic_space(right_markov_matrix(Z6, point_mass(Z6, 2)))
    assert space6.rank == 2
    even = np.zeros(6)
    even[[0, 2, 4]] = 1.0
    assert space6.residual(even / np.linalg.norm(even)) < 1e-12

    mu = uniform_on(S3, [S3.labels.index("(1 2)"), S3.labels.index("(1 3)")])
    assert harmonic_space(right_markov_matrix(S3, mu)).rank == 1


def test_trivial_solution_space_examples():
    h = generated_subgroup(Z6, [2])
    assert trivial_solution_space(Z6, h, "functions").rank == 2
    trivial = generated_subgroup(Z6, [0])
    assert trivial_solution_space(Z6, trivial, "functions").rank == 6
    whole2 = generated_subgroup(Z2, [1])
    ops = trivial_solution_space(Z2, whole2, "operators")
    assert ops.rank == 2
    swap = right_regular(Z2)[1]
    assert ops.residual(np.eye(2).reshape(-1)) < 1e-12
    assert ops.residual(swap.reshape(-1)) < 1e-12


def test_commutant_examples():
    swap = np.array([[0.0, 1.0], [1.0, 0.0]])
    assert commutant([swap]).rank == 2
    assert commutant([np.eye(2)]).rank == 4
    rho = right_regular(S3)
    assert commutant([rho[g] for g in range(6)]).rank == 6
    with pytest.raises(ValueError, match="at least one matrix"):
        commutant([])


def test_cesaro_projection_examples():
    rep4 = cesaro_projection(right_markov_matrix(Z4, point_mass(Z4, 1)), n_max=64)
    assert isinstance(rep4.K, np.ndarray) and rep4.K.dtype == np.complex128
    assert np.abs(rep4.K - 0.25).max() < 1e-12

    repe = cesaro_projection(right_markov_matrix(Z4, point_mass(Z4, 0)), n_max=16)
    assert np.abs(repe.K - np.eye(4)).max() < 1e-12
    assert repe.converged_iteratively

    h = generated_subgroup(Z6, [2])
    rep6 = cesaro_projection(right_markov_matrix(Z6, point_mass(Z6, 2)), n_max=64)
    target = right_markov_matrix(Z6, haar_on_subgroup(Z6, h))
    assert np.abs(rep6.K - target).max() < 1e-12


def test_projection_invariants():
    mu = uniform_on(S3, [S3.labels.index("(1 2)"), S3.labels.index("(1 3)")])
    m = right_markov_matrix(S3, mu)
    rep = cesaro_projection(m, n_max=256)
    assert rep.idempotency_residual < 1e-9
    assert abs(rep.norm_inf - 1.0) < 1e-12
    assert max(np.linalg.norm(rep.K @ t - t @ rep.K) for t in left_regular(S3)) < 1e-12
    assert rep.K.real.min() > -1e-12
    space = harmonic_space(m)
    assert rep.range_rank == space.rank
    assert max(space.residual(col) for col in rep.K.T) < 1e-9
    omega = haar_on_subgroup(S3, generated_subgroup(S3, mu.support()))
    assert np.linalg.norm(rep.K - right_markov_matrix(S3, omega)) < 1e-9


def test_diamond_examples():
    mu = point_mass(Z6, 2)
    c1 = np.full(6, 2.0, dtype=complex)
    c2 = np.full(6, -1.5, dtype=complex)
    assert np.allclose(diamond_product(c1, c2, Z6, mu), c1 * c2)

    sign = np.zeros(6, dtype=complex)
    sign[[0, 2, 4]] = 1.0
    sign[[1, 3, 5]] = -1.0
    dia = diamond_product(sign, sign, Z6, mu)
    assert np.abs(dia - 1.0).max() < 1e-12


def test_diamond_of_a_non_harmonic_vector_differs_from_its_square():
    # K(h1 h2) exists for any two vectors, so the product does not raise; for a
    # vector that is not harmonic it differs from h1 h2, which criterion 1 reads.
    # K averages over the cosets {0, 2, 4} and {1, 3, 5} of <2>
    mu = point_mass(Z6, 2)
    bad = np.arange(6, dtype=complex)
    dia = diamond_product(bad, bad, Z6, mu)
    assert np.abs(dia - np.tile([20 / 3, 35 / 3], 3)).max() < 1e-12
    assert np.abs(dia - bad * bad).max() > 1


@pytest.mark.parametrize("g, mu", [(e.group, e.measure) for e in catalog()] + [(S5, S5_MU)],
                         ids=[e.name for e in catalog()] + ["S5"])
def test_diamond_product_is_the_generic_cesaro_limit(g, mu):
    # the coset means of h1 h2 against K(h1 h2), with K from an SVD of I - M
    rng = np.random.default_rng(g.order)
    h1, h2 = rng.standard_normal((2, g.order)) + 1j * rng.standard_normal((2, g.order))
    generic = cesaro_limit(right_markov_matrix(g, mu)) @ (h1 * h2)
    assert np.abs(diamond_product(h1, h2, g, mu) - generic).max() <= 1e-12


def test_diamond_product_factors_nothing(monkeypatch):
    def refuse(*args, **kwargs):
        raise AssertionError("diamond_product factored a matrix")

    for name in ("svd", "solve"):
        monkeypatch.setattr(f"numpy.linalg.{name}", refuse)
    h = np.arange(S5.order, dtype=complex)
    assert np.abs(diamond_product(h, h, S5, S5_MU) - np.mean(h * h)).max() < 1e-9


@pytest.mark.parametrize("pairs", [[(2, 0.5)], [(2, 1.5), (4, -0.5)], [(2, 1j)]],
                         ids=["mass 1/2", "signed", "complex"])
def test_diamond_product_refuses_a_measure_that_is_not_a_probability(pairs):
    # the coset means are K(h1 h2) only for a probability; the generic route
    # returned a value for any measure
    with pytest.raises(ValueError, match=r"^mu: expected a probability measure on Z6, got "):
        diamond_product(np.ones(6), np.ones(6), Z6, from_pairs(Z6, pairs))


def test_diamond_product_refuses_a_vector_of_another_length():
    # a length-12 product would be averaged as two rows of six, without the guard
    with pytest.raises(ValueError, match=r"^h1 \* h2: expected a vector of length 6, got "):
        diamond_product(np.ones(12), np.ones(12), Z6, point_mass(Z6, 2))


def test_verdict_on_catalog_style_pairs():
    for g, mu in (
        (Z6, point_mass(Z6, 2)),
        (S3, uniform_on(S3, [S3.labels.index("(1 2)"), S3.labels.index("(1 3)")])),
        (Z4, point_mass(Z4, 0)),  # identity law: everything harmonic, everything trivial
    ):
        verdict = harmonic_triviality_verdict(g, mu)
        assert verdict.diamond_matches_pointwise
        assert verdict.harmonic_equals_trivial
        assert verdict.consistent
        assert verdict.harmonic_rank == verdict.coset_count


def test_verdict_identity_law_full_space():
    verdict = harmonic_triviality_verdict(Z4, point_mass(Z4, 0))
    assert verdict.harmonic_rank == 4


def test_operator_fixed_space_equals_commutant():
    from muharmonic import conjugation_operator

    mu = uniform_on(S3, [S3.labels.index("(1 2)"), S3.labels.index("(1 3)")])
    fixed = harmonic_space(conjugation_operator(S3, mu))
    h = generated_subgroup(S3, mu.support())
    comm = trivial_solution_space(S3, h, "operators")
    assert fixed.rank == comm.rank == 6
    assert mutual_residual(fixed, comm) < 1e-9


def test_l1_triviality_examples():
    srw = simple_random_walk_z()
    for window in (5, 50):
        report = l1_harmonic_triviality(srw, window)
        assert report.kernel_rank == 0
        assert not report.degenerate
        assert report.smallest_singular_value > 0
    degenerate = l1_harmonic_triviality(z_point_mass(0), 5)
    assert degenerate.degenerate
    assert degenerate.kernel_rank == 11


def _l1_triviality_by_loops(mu, window):
    """T_L filled entry by entry, kernel and singular values in complex
    arithmetic: the reference for l1_harmonic_triviality."""
    size = 2 * window + 1
    pts = np.arange(-window, window + 1)
    t = np.zeros((size, size), dtype=np.complex128)
    for i, gpt in enumerate(pts):
        for j, src in enumerate(pts):
            d = gpt - src
            if mu.carrier.lo <= d <= mu.carrier.hi:
                t[i, j] = mu.weights[d - mu.carrier.lo]
    shifted = np.eye(size) - t
    return kernel(shifted).rank, np.linalg.svd(shifted, compute_uv=False)[-1]


@pytest.mark.parametrize("mu", [
    simple_random_walk_z(),
    z_point_mass(0),
    z_point_mass(3),
    z_from_pairs([(-2, 0.25), (0, 0.5), (5, 0.25)]),
    z_from_pairs([(-1, 0.5 + 0.5j), (2, 0.5 - 0.5j)]),  # complex weights
    z_from_pairs([(30, 0.5), (31, 0.5)]),  # support outside the small window
], ids=["srw", "delta0", "delta3", "spread", "complex", "far"])
@pytest.mark.parametrize("window", [0, 1, 5, 12])
def test_l1_triviality_matches_the_double_loop(mu, window):
    report = l1_harmonic_triviality(mu, window)
    rank, smallest = _l1_triviality_by_loops(mu, window)
    assert report.kernel_rank == rank
    assert abs(report.smallest_singular_value - smallest) < 1e-12


def test_l1_triviality_takes_one_real_factorization(monkeypatch):
    dtypes = []
    svd = np.linalg.svd

    def spy(a, *args, **kwargs):
        dtypes.append(np.asarray(a).dtype)
        return svd(a, *args, **kwargs)

    monkeypatch.setattr("numpy.linalg.svd", spy)
    assert l1_harmonic_triviality(simple_random_walk_z(), 50).kernel_rank == 0
    assert dtypes == [np.float64]


def test_subharmonicity_of_modulus_and_max():
    from muharmonic import subharmonic_check

    rng = np.random.default_rng(21)
    mu = from_pairs(Z6, [(2, 0.5), (4, 0.5)])
    space = harmonic_space(right_markov_matrix(Z6, mu))
    for _ in range(20):
        coeffs = rng.standard_normal(space.rank) + 1j * rng.standard_normal(space.rank)
        h = coeffs @ space.basis
        report = subharmonic_check(np.abs(h), Z6, mu)
        assert report.max_violation <= 1e-12
        h2 = (rng.standard_normal(space.rank) @ space.basis).real
        pair_max = np.maximum(np.abs(h), np.abs(h2))
        assert subharmonic_check(pair_max, Z6, mu).max_violation <= 1e-12


def test_operator_commutant_closed_form_matches_generic():
    from muharmonic import catalog

    for e in catalog():
        if e.group.order > 6:
            continue
        h = generated_subgroup(e.group, e.measure.support())
        rho = right_regular(e.group)
        closed = trivial_solution_space(e.group, h, "operators")
        generic = commutant([rho[x] for x in h.members])
        assert closed.rank == generic.rank == e.group.order ** 2 // h.order, e.name
        assert mutual_residual(closed, generic) <= 1e-12, e.name
        assert np.allclose(closed.basis @ closed.basis.conj().T, np.eye(closed.rank))


def test_function_indicator_space_is_orthonormal_coset_span():
    h = generated_subgroup(Z6, [2])
    space = trivial_solution_space(Z6, h, "functions")
    assert np.allclose(space.basis @ space.basis.conj().T, np.eye(2))
    even = np.zeros(6)
    even[[0, 2, 4]] = 1.0
    assert space.contains(even) and space.contains(1.0 - even)


def _averaging_loop_gap(m: np.ndarray, k: np.ndarray, n: int) -> float:
    """Reference: ||(1/n) sum_{i<=n} M^i - K||_F by explicit accumulation."""
    power = m.copy()
    total = m.copy()
    for _ in range(n - 1):
        power = power @ m
        total = total + power
    return float(np.linalg.norm(total / n - k))


@pytest.mark.parametrize("n_max", [7, 2000])
def test_cesaro_gap_closed_form_matches_loop(n_max):
    from muharmonic import catalog

    for e in catalog():
        m = right_markov_matrix(e.group, e.measure)
        report = cesaro_projection(m, n_max=n_max)
        assert report.n_iterations == n_max
        expected = _averaging_loop_gap(m, report.K, n_max)
        assert abs(report.iterative_gap - expected) <= 1e-12, e.name
        assert report.converged_iteratively == (report.iterative_gap < 1e-10)


def test_cesaro_periodic_chain_converges_at_even_n():
    from muharmonic import catalog_entry

    e = catalog_entry("Z2_delta1")
    m = right_markov_matrix(e.group, e.measure)
    even = cesaro_projection(m, n_max=10)
    assert even.converged_iteratively is True
    assert even.iterative_gap < 1e-14
    odd = cesaro_projection(m, n_max=11)
    assert odd.converged_iteratively is False
    assert abs(odd.iterative_gap - 1.0 / 11) < 1e-14


def test_cesaro_projection_rejects_nonpositive_n_max():
    with pytest.raises(ValueError, match="n_max"):
        cesaro_projection(right_markov_matrix(Z2, point_mass(Z2, 1)), n_max=0)


_Z4_SHIFT = point_mass(Z4, 1)
_COUNTS = {
    "cesaro_projection": ("n_max", lambda n: cesaro_projection(
        right_markov_matrix(Z4, _Z4_SHIFT), n)),
    "cesaro_mean": ("n", lambda n: cesaro_mean(right_markov_matrix(Z4, _Z4_SHIFT), n)),
    "cesaro_average": ("n", lambda n: cesaro_average(_Z4_SHIFT, n)),
    "approximate_identity": ("n", lambda n: approximate_identity(Z4, _Z4_SHIFT, n)),
    "quotient_norm_trace": ("n_max", lambda n: quotient_norm_trace(
        np.eye(4)[0], coboundary_ideal(Z4, _Z4_SHIFT), n)),
}


@pytest.mark.parametrize("value, error", [
    # True was taken as the count 1, and 2.5 ended in numpy's "exponent must
    # be an integer" or a take TypeError, neither naming the parameter
    (True, TypeError), (2.5, TypeError), (0, ConstructionError),
], ids=["bool", "float", "zero"])
@pytest.mark.parametrize("name", list(_COUNTS))
def test_counts_are_positive_integers_named_by_their_parameter(name, value, error):
    param, call = _COUNTS[name]
    with pytest.raises(error, match=f"^{param}: expected a positive integer, got {value!r}$"):
        call(value)
    call(np.int64(2))


def _character_measure(n: int) -> FiniteMeasure:
    """A complex measure on Z_n whose averaging fixes exactly chi(g) = omega^g.

    M chi_k = mu_hat(k) chi_k with mu_hat(k) = sum_s mu(s) omega^{ks}, so mu is
    the inverse transform of mu_hat(1) = 1 and complex |mu_hat(k)| < 1
    elsewhere; M is then a normal, power-bounded, non-real matrix.
    """
    omega = np.exp(2j * np.pi / n)
    hat = 0.6 * np.exp(1j * np.arange(n)) * np.linspace(0.3, 1.0, n)
    hat[1] = 1.0
    s = np.arange(n)
    return FiniteMeasure(cyclic_group(n), (hat[None, :] * omega ** -np.outer(s, s)).sum(axis=1) / n)


@pytest.mark.parametrize("n", [3, 5, 8])
def test_complex_measure_on_cyclic_group_fixes_the_character(n):
    mu = _character_measure(n)
    m = right_markov_matrix(mu.carrier, mu)
    assert np.abs(m.imag).max() > 0.01  # the complex SVD path
    chi = np.exp(2j * np.pi * np.arange(n) / n)
    space = harmonic_space(m)
    assert space.rank == 1
    assert space.residual(chi) <= 1e-12
    k = cesaro_limit(m)
    assert np.linalg.norm(k @ k - k) <= 1e-12
    assert np.abs(k - np.outer(chi, chi.conj()) / n).max() <= 1e-12
