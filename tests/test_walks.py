import numpy as np
import pytest

from muharmonic import (
    GSpaceAction,
    cyclic_group,
    diamond_vs_pointwise_mc,
    empirical_cylinder_measure,
    empty_word,
    free_ball,
    harmonic_measure_cylinder,
    martingale_convergence_check,
    mean_endpoint_length,
    neighbors,
    point_mass,
    poisson_extension,
    sample_path,
    simple_random_walk_z,
    srw,
    stationary_measure,
    subharmonic_check_free,
    symmetric_group,
    translation_action,
    trivial_action,
    uniform_on,
    word,
)
from muharmonic.experiments import _packed_ball
from muharmonic.freegroup import FreeWord
from muharmonic.walks import _chunk_seeds, _gens_array, _poisson_values, _simulate_chunk

W_A = word(2, (1,))
W_AB = word(2, (1, 2))


def test_sample_path_deterministic_walk():
    z4 = cyclic_group(4)
    path = sample_path(z4, point_mass(z4, 1), 0, 5, seed=3)
    assert path.positions == (0, 1, 2, 3, 0, 1)


def test_sample_path_seed_reproducibility():
    s3 = symmetric_group(3)
    mu = uniform_on(s3, [1, 2, 3])
    p1 = sample_path(s3, mu, 0, 50, seed=9)
    p2 = sample_path(s3, mu, 0, 50, seed=9)
    assert p1.positions == p2.positions
    assert p1.increments == p2.increments
    p3 = sample_path(s3, mu, 0, 50, seed=10)
    assert p3.positions != p1.positions


def test_sample_path_on_z_and_free_group():
    path = sample_path(None, simple_random_walk_z(), 0, 100, seed=1)
    assert path.positions[0] == 0
    assert all(abs(b - a) == 1 for a, b in zip(path.positions, path.positions[1:]))

    free_path = sample_path(None, srw(2), empty_word(2), 30, seed=2)
    assert free_path.positions[0] == empty_word(2)
    assert all(len(i) == 1 for i in free_path.increments)


def test_free_walk_drift():
    # mean |X_100| concentrates near n/2 for the rank-2 simple walk
    mean_len = mean_endpoint_length(2, 100, 10_000, seed=5)
    assert abs(mean_len - 50.0) < 1.5


def test_cylinder_measure_formula():
    assert harmonic_measure_cylinder(2, W_A) == 0.25
    assert abs(harmonic_measure_cylinder(2, W_AB) - 1 / 12) < 1e-15
    total = sum(harmonic_measure_cylinder(2, word(2, (s,))) for s in (1, -1, 2, -2))
    assert abs(total - 1.0) < 1e-15
    with pytest.raises(ValueError):
        harmonic_measure_cylinder(2, empty_word(2))


def test_poisson_extension_values():
    assert abs(poisson_extension(2, W_A, empty_word(2)) - 0.25) < 1e-15
    assert abs(poisson_extension(2, W_A, word(2, (1,))) - 0.75) < 1e-15
    assert abs(poisson_extension(2, W_A, word(2, (1, 1))) - 11 / 12) < 1e-15
    assert abs(poisson_extension(2, W_A, word(2, (2,))) - 1 / 12) < 1e-15
    # mean value at the identity
    vals = [poisson_extension(2, W_A, word(2, (s,))) for s in (1, -1, 2, -2)]
    assert abs(sum(vals) / 4 - 0.25) < 1e-15
    with pytest.raises(ValueError, match="rank mismatch"):
        poisson_extension(3, W_A, empty_word(3))
    with pytest.raises(ValueError, match="nonempty"):
        poisson_extension(2, empty_word(2), W_A)


def test_poisson_extension_harmonic_on_ball():
    for w in (W_A, W_AB):
        for g in free_ball(2, 5):
            avg = sum(poisson_extension(2, w, nb) for nb in neighbors(g)) / 4
            assert abs(avg - poisson_extension(2, w, g)) < 1e-13
    for g in free_ball(2, 5):
        total = sum(poisson_extension(2, word(2, (s,)), g) for s in (1, -1, 2, -2))
        assert abs(total - 1.0) < 1e-13
        for s in (1, -1, 2, -2):
            assert 0.0 <= poisson_extension(2, word(2, (s,)), g) <= 1.0


def test_vectorized_h_matches_scalar():
    rng = np.random.default_rng(6)
    words_arr, lengths, _ = _simulate_chunk(2, 40, 200, rng, keep=40)
    w_arr = np.array(W_AB.letters, dtype=np.int16)
    h_vec = _poisson_values(2, w_arr, words_arr, lengths)
    for i in range(200):
        g = word(2, [int(s) for s in words_arr[i, : lengths[i]]])
        assert abs(h_vec[i] - poisson_extension(2, W_AB, g)) < 1e-13


def test_sampler_prefix_matches_full_words():
    # the draws do not depend on keep: a short prefix is the start of the full word
    for k, keep in ((2, 1), (2, 3), (3, 2)):
        short = _simulate_chunk(k, 50, 500, np.random.default_rng(21), keep=keep)
        full = _simulate_chunk(k, 50, 500, np.random.default_rng(21), keep=50)
        assert short[0].shape == (500, keep)
        assert np.array_equal(short[0], full[0][:, :keep])
        assert np.array_equal(short[1], full[1])


def test_sampler_full_words_are_reduced():
    for k in (1, 2, 3):
        words_arr, lengths, _ = _simulate_chunk(k, 30, 300, np.random.default_rng(22), keep=30)
        assert np.all((lengths >= 0) & (lengths <= 30) & (lengths % 2 == 0))
        for i in range(300):
            letters = tuple(int(s) for s in words_arr[i, : lengths[i]])
            FreeWord(k, letters)  # raises unless every letter is valid and reduced
            assert len(word(k, letters)) == lengths[i]


def test_sampler_stable_matches_its_definition():
    # stable: reached keep + margin and never went below keep + 1 afterwards
    keep, margin, n_steps, n_paths = 2, 3, 25, 400
    history = np.array([
        _simulate_chunk(2, t, n_paths, np.random.default_rng(23), keep, margin)[1]
        for t in range(1, n_steps + 1)
    ])
    _, _, stable = _simulate_chunk(2, n_steps, n_paths, np.random.default_rng(23), keep, margin)
    expected = np.zeros(n_paths, dtype=bool)
    for i in range(n_paths):
        hits = np.flatnonzero(history[:, i] >= keep + margin)
        expected[i] = hits.size > 0 and history[hits[0]:, i].min() >= keep + 1
    assert 0 < expected.sum() < n_paths
    assert np.array_equal(stable, expected)


def _exact_length_moments(k: int, n: int) -> tuple[float, float]:
    """Mean and variance of |X_n| from the birth-death chain of the length."""
    p = np.zeros(n + 2)
    p[0] = 1.0
    for _ in range(n):
        nxt = np.zeros_like(p)
        nxt[1] += p[0]
        nxt[:-1] += p[1:] / (2 * k)  # cancel: j -> j - 1
        nxt[2:] += p[1:-1] * (2 * k - 1) / (2 * k)  # push: j -> j + 1
        p = nxt
    j = np.arange(n + 2)
    mean = float(p @ j)
    return mean, float(p @ j**2) - mean**2


@pytest.mark.parametrize("k", [2, 3])
def test_mean_endpoint_length_matches_exact_chain(k):
    n_steps, n_paths = 40, 20_000
    mean, var = _exact_length_moments(k, n_steps)
    estimate = mean_endpoint_length(k, n_steps, n_paths, seed=24)
    assert abs(estimate - mean) < 4 * np.sqrt(var / n_paths), (estimate, mean)


def test_empirical_cylinder_frequencies_all_short_words():
    # one batch of 10^5 paths; every |w| <= 3 frequency within 3 binomial sigma
    n_paths, n_steps, margin = 100_000, 100, 10
    prefix_len = 3
    # a prefix of m letters in {-2, -1, 1, 2} packs into one base-5 code,
    # offset by m so that prefixes of different lengths never share a code
    place = 5 ** np.arange(prefix_len)

    def pack(letters, m):
        return m * 5**prefix_len + (letters[..., :m] + 2) @ place[:m]

    codes = []
    conclusive = 0
    for child, size in _chunk_seeds(77, n_paths):
        rng = np.random.default_rng(child)
        words_arr, _, ok = _simulate_chunk(2, n_steps, size, rng, keep=prefix_len, margin=margin)
        conclusive += int(ok.sum())
        prefixes = words_arr[ok].astype(np.int64)
        codes.extend(pack(prefixes, m) for m in (1, 2, 3))
    counts = dict(zip(*np.unique(np.concatenate(codes), return_counts=True)))
    assert n_paths - conclusive < 50
    for r in (1, 2, 3):
        for w in free_ball(2, r):
            if len(w) != r:
                continue
            p = harmonic_measure_cylinder(2, w)
            sigma = np.sqrt(p * (1 - p) / conclusive)
            freq = counts.get(pack(np.array(w.letters), r), 0) / conclusive
            assert abs(freq - p) < 3.2 * sigma, (str(w), freq, p)


def test_martingale_convergence_report():
    report = martingale_convergence_check(2, W_A, 100, 5000, seed=11)
    assert report.conclusive_fraction >= 0.999
    assert report.agreement_fraction >= 0.99
    again = martingale_convergence_check(2, W_A, 100, 5000, seed=11)
    assert report == again


def test_martingale_horizon_zero():
    report = martingale_convergence_check(2, W_A, 0, 100, seed=12)
    assert report.conclusive_fraction == 0.0
    assert report.agreement_fraction == 0.0
    assert report.inconclusive_count == 100


def test_martingale_rejects_empty_word():
    # the empty word indexes no cylinder, as in the other two samplers
    for sampler in (martingale_convergence_check, empirical_cylinder_measure):
        with pytest.raises(ValueError, match="nonempty reduced words"):
            sampler(2, empty_word(2), 50, 1000, seed=1)


def test_martingale_one_step_mean_property():
    # E[h(X_{n+1}) | X_n] = h(X_n): regress one extra step over sampled paths
    n_paths = 100_000
    rng = np.random.default_rng(13)
    words_arr, lengths, _ = _simulate_chunk(2, 20, n_paths, rng, keep=20)
    w_arr = np.array(W_A.letters, dtype=np.int16)
    h_before = _poisson_values(2, w_arr, words_arr, lengths)
    gens = _gens_array(2)
    step = gens[rng.integers(0, 4, size=n_paths)]
    rows = np.arange(n_paths)
    top = np.zeros(n_paths, dtype=np.int16)
    has = lengths > 0
    top[has] = words_arr[rows[has], lengths[has] - 1]
    cancel = top == -step
    lengths2 = lengths.copy()
    words2 = np.hstack([words_arr, np.zeros((n_paths, 1), dtype=np.int16)])
    lengths2[cancel] -= 1
    push = ~cancel
    words2[rows[push], lengths2[push]] = step[push]
    lengths2[push] += 1
    h_after = _poisson_values(2, w_arr, words2, lengths2)
    diff = h_after - h_before
    stderr = diff.std(ddof=1) / np.sqrt(n_paths)
    assert abs(diff.mean()) < 3 * stderr + 1e-12


def test_diamond_mc_reports():
    report = diamond_vs_pointwise_mc(2, W_A, 60, 20_000, seed=14)
    assert abs(report.estimate - 0.25) < 0.02
    assert report.distance_to_pointwise > 0.15
    at_zero = diamond_vs_pointwise_mc(2, W_A, 0, 100, seed=15)
    assert at_zero.estimate == 0.0625


def test_empirical_cylinder_report_fields():
    import json

    est = empirical_cylinder_measure(2, W_A, 60, 5000, seed=16)
    payload = json.loads(est.to_json())
    assert set(payload) == {"estimate", "stderr", "n_paths", "seed", "inconclusive_count"}
    assert payload["n_paths"] == 5000


def test_stationary_examples():
    import itertools

    s3 = symmetric_group(3)
    perms = list(itertools.permutations(range(3)))
    action = GSpaceAction(s3, 3, np.array([list(p) for p in perms]))
    mu = uniform_on(s3, [s3.labels.index("(1 2)"), s3.labels.index("(1 3)")])
    report = stationary_measure(action, mu)
    assert report.fixed_dim == 1
    assert np.abs(report.measure.weights.real - 1 / 3).max() < 1e-12
    assert np.abs(report.eigen_measure.weights.real - 1 / 3).max() < 1e-12
    assert report.residual_power < 1e-12

    triv = trivial_action(s3, 4)
    rep_triv = stationary_measure(triv, mu)
    assert rep_triv.fixed_dim == 4
    assert np.abs(rep_triv.measure.weights.real - 0.25).max() < 1e-15

    z3 = cyclic_group(3)
    rep_z3 = stationary_measure(translation_action(z3), point_mass(z3, 1))
    assert np.abs(rep_z3.measure.weights.real - 1 / 3).max() < 1e-15


def test_walk_path_csv(tmp_path):
    import csv

    from muharmonic import walk_path_to_csv

    z4 = cyclic_group(4)
    path = sample_path(z4, point_mass(z4, 1), 0, 5, seed=3)
    file = tmp_path / "path.csv"
    walk_path_to_csv(path, file)
    rows = list(csv.reader(file.open()))
    assert rows[0] == ["step", "increment", "position"]
    assert len(rows) == 7
    assert [r[2] for r in rows[1:]] == ["0", "1", "2", "3", "0", "1"]


def test_subharmonic_free_max():
    # ball(7) holds ball(6) and all its neighbours: one array pass per extension
    ball, letters, lengths = _packed_ball(7)
    h1 = dict(zip(ball, _poisson_values(2, W_A.letters, letters, lengths)))
    h2 = dict(zip(ball, _poisson_values(2, (-2,), letters, lengths)))
    for g in (ball[0], ball[-1], word(2, (1, 2, -1))):
        assert h1[g] == poisson_extension(2, W_A, g)
    inner = [g for g in ball if len(g) <= 6]
    report = subharmonic_check_free(lambda g: max(h1[g], h2[g]), 2, inner)
    assert report.max_violation <= 1e-12
    harmonic_report = subharmonic_check_free(h1.__getitem__, 2, inner)
    assert abs(harmonic_report.max_violation) <= 1e-12
