import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from muharmonic import lp
from muharmonic.experiments import MASTER_SEED, catalog
from muharmonic.ideals import coboundary_ideal
from muharmonic.lp import l1_distance_to_span


def primal_l1_distance(x, b):
    """(min_t ||x - B t||_1, an optimal t) for real x (d,) and B (d, r), by the
    primal LP: the reference oracle of the dual that l1_distance_to_span solves.

    Split t = tp - tm and the residual into u - v with u, v >= 0, and minimize
    sum(u + v) subject to B tp - B tm + u - v = x, from the feasible basis u_i
    (x_i >= 0) or v_i (x_i < 0).
    """
    x = np.asarray(x, dtype=float)
    d = x.shape[0]
    b = np.asarray(b, dtype=float).reshape(d, -1)
    r = b.shape[1]
    if r == 0:
        return float(np.abs(x).sum()), np.zeros(0)
    n_vars = 2 * r + 2 * d
    c = np.concatenate([np.zeros(2 * r), np.ones(2 * d)])
    tableau = np.zeros((d + 1, n_vars + 1))
    tableau[:d, :n_vars] = np.hstack([b, -b, np.eye(d), -np.eye(d)])
    tableau[:d, -1] = x
    basis = []
    for i in range(d):
        if x[i] >= 0:
            basis.append(2 * r + i)
        else:
            tableau[i] *= -1.0
            basis.append(2 * r + d + i)
    tableau[-1, :n_vars] = c
    for i, var in enumerate(basis):  # eliminate basic costs from the cost row
        tableau[-1] -= c[var] * tableau[i]
    lp._simplex(tableau, basis, n_vars)
    z = np.zeros(n_vars)
    z[basis] = tableau[:d, -1]
    t = z[:r] - z[r:2 * r]
    return float(np.abs(x - b @ t).sum()), t


def test_hand_case_distance_one():
    x, b = np.array([1.0, 0.0]), np.array([[1.0], [-1.0]])
    d = l1_distance_to_span(x, b)
    assert abs(d - 1.0) < 1e-12
    # any t in [0, 1] is optimal; the oracle's t must achieve the distance
    d_ref, t = primal_l1_distance(x, b)
    assert abs(d_ref - 1.0) < 1e-12
    assert abs(np.abs(x - b @ t).sum() - d) < 1e-12


def test_member_has_distance_zero():
    b = np.array([[1.0, 0.0], [-1.0, 1.0], [0.0, 2.0]])
    x = b @ np.array([0.7, -1.3])
    assert l1_distance_to_span(x, b) < 1e-12
    assert primal_l1_distance(x, b)[0] < 1e-12


def test_empty_span():
    x, b = np.array([1.0, -2.0, 3.0]), np.zeros((3, 0))
    assert l1_distance_to_span(x, b) == 6.0
    d, t = primal_l1_distance(x, b)
    assert d == 6.0
    assert t.size == 0


def test_upper_bound_validity_random():
    rng = np.random.default_rng(7)
    for _ in range(30):
        dim, r = int(rng.integers(2, 9)), int(rng.integers(1, 4))
        b = rng.standard_normal((dim, r))
        x = rng.standard_normal(dim)
        d = l1_distance_to_span(x, b)
        _, t_opt = primal_l1_distance(x, b)
        assert abs(np.abs(x - b @ t_opt).sum() - d) < 1e-9
        for _ in range(50):
            t = rng.standard_normal(r)
            assert d <= np.abs(x - b @ t).sum() + 1e-9


def test_against_grid_refinement_small():
    rng = np.random.default_rng(8)
    for _ in range(10):
        dim = int(rng.integers(2, 6))
        b = rng.standard_normal((dim, 1))
        x = rng.standard_normal(dim)
        d = l1_distance_to_span(x, b)
        # independent 1-d oracle: nested grid scan with halving window
        best, width = 0.0, 10.0
        value = np.inf
        for _ in range(60):
            ts = np.linspace(best - width, best + width, 81)
            vals = np.abs(x[:, None] - b @ ts[None, :]).sum(axis=0)
            best = ts[np.argmin(vals)]
            value = vals.min()
            width *= 0.5
        assert abs(d - value) < 1e-6


def test_rejects_complex():
    with pytest.raises(ValueError):
        l1_distance_to_span(np.array([1.0 + 1j, 0.0]), np.array([[1.0], [1.0]]))


@settings(max_examples=40, deadline=None)
@given(st.integers(2, 12), st.data())
def test_dual_equals_the_primal_on_random_lps(dim, data):
    r = data.draw(st.integers(0, dim))
    rng = np.random.default_rng(data.draw(st.integers(0, 2**32 - 1)))
    b, x = rng.standard_normal((dim, r)), rng.standard_normal(dim)
    if data.draw(st.booleans()):  # ties, degenerate pivots and rank-deficient spans
        b, x = np.round(b * 2), np.round(x * 3)
    d_ref, t = primal_l1_distance(x, b)
    d = l1_distance_to_span(x, b)
    assert abs(d - d_ref) <= 1e-12 * max(1.0, np.abs(x).sum())
    assert abs(np.abs(x - b @ t).sum() - d) <= 1e-12 * max(1.0, np.abs(x).sum())


def _scalar_simplex(tableau, basis, n_vars):
    """Bland's rule one column, one row and one elimination at a time: the
    reference that lp._simplex must reproduce bit for bit."""
    m = tableau.shape[0] - 1
    for _ in range(lp._MAX_PIVOTS):
        costs = tableau[-1, :n_vars]
        entering = -1
        for j in range(n_vars):
            if costs[j] < -lp._PIVOT_TOL:
                entering = j
                break
        if entering < 0:
            return
        col = tableau[:m, entering]
        best_ratio = np.inf
        leaving = -1
        for i in range(m):
            if col[i] > lp._PIVOT_TOL:
                ratio = tableau[i, -1] / col[i]
                if ratio < best_ratio - lp._PIVOT_TOL or (
                    abs(ratio - best_ratio) <= lp._PIVOT_TOL
                    and (leaving < 0 or basis[i] < basis[leaving])
                ):
                    best_ratio = ratio
                    leaving = i
        if leaving < 0:
            raise RuntimeError("LP is unbounded; malformed projection problem")
        pivot = tableau[leaving, entering]
        tableau[leaving] /= pivot
        for i in range(m + 1):
            if i != leaving and abs(tableau[i, entering]) > 0:
                tableau[i] -= tableau[i, entering] * tableau[leaving]
        basis[leaving] = entering
    raise RuntimeError("simplex did not terminate within the pivot budget")


def _dual_bytes(x, b):
    return (np.float64(l1_distance_to_span(x, b)).tobytes(),)


def _primal_bytes(x, b):
    d, t = primal_l1_distance(x, b)
    return np.float64(d).tobytes(), t.tobytes()


def _both_simplexes(monkeypatch, solve, problems):
    """(solve's results as bytes, final tableau, basis) of every problem by
    lp._simplex, then by the reference."""
    results = []
    for simplex in (lp._simplex, _scalar_simplex):
        finals = []

        def recording(tableau, basis, n_vars, simplex=simplex):
            simplex(tableau, basis, n_vars)
            finals.append((tableau.tobytes(), list(basis)))

        monkeypatch.setattr(lp, "_simplex", recording)
        runs = [solve(x, b) for x, b in problems]
        results.append([run + final for run, final in zip(runs, finals)])
    return results


def _assert_bitwise(monkeypatch, problems):
    """Both simplexes agree bit for bit, on the dual LPs and on the primal
    oracle's: distances, t, final tableaux (the signs of zeros included), bases."""
    for solve in (_dual_bytes, _primal_bytes):
        array_runs, scalar_runs = _both_simplexes(monkeypatch, solve, problems)
        assert len(array_runs) == len(scalar_runs) == len(problems)
        assert array_runs == scalar_runs


def test_array_pivots_match_the_scalar_simplex_on_criterion_6(monkeypatch):
    # the 140 signed unit-mass vectors of acceptance criterion 6
    problems = []
    for idx, e in enumerate(catalog()):
        basis = coboundary_ideal(e.group, e.measure).space.basis.T
        xs = np.random.default_rng(MASTER_SEED + 3000 + idx).standard_normal((e.group.order, 20))
        xs /= np.abs(xs).sum(axis=0, keepdims=True)
        problems += [(x, basis.real) for x in xs.T]
    assert len(problems) == 140
    _assert_bitwise(monkeypatch, problems)
    for x, b in problems:
        assert abs(l1_distance_to_span(x, b) - primal_l1_distance(x, b)[0]) < 1e-12


def test_array_pivots_match_the_scalar_simplex_on_random_lps(monkeypatch):
    rng = np.random.default_rng(11)
    problems = []
    for _ in range(60):
        dim, r = int(rng.integers(2, 12)), int(rng.integers(1, 6))
        b, x = rng.standard_normal((dim, r)), rng.standard_normal(dim)
        if rng.random() < 0.5:  # ties and degenerate pivots: small integer data
            b, x = np.round(b * 2), np.round(x * 3)
        problems.append((x, b))
    _assert_bitwise(monkeypatch, problems)


def test_a_batch_is_bitwise_the_calls_on_its_columns():
    # criterion 6's 20 points per catalog entry, through lp and through the
    # ideal (whose complex128 input reaches the LP as a strided real view)
    from muharmonic.ideals import l1_distance

    for idx, e in enumerate(catalog()):
        ideal = coboundary_ideal(e.group, e.measure)
        basis = ideal.space.basis.T
        xs = np.random.default_rng(MASTER_SEED + 3000 + idx).standard_normal((e.group.order, 20))
        xs /= np.abs(xs).sum(axis=0, keepdims=True)
        for solve, b in ((l1_distance_to_span, basis.real), (l1_distance, ideal)):
            batch = solve(xs, b)
            singles = [solve(x, b) for x in xs.T]
            assert isinstance(batch, np.ndarray) and batch.shape == (20,)
            assert all(type(d) is float for d in singles)
            assert batch.tobytes() == np.array(singles).tobytes()
