import numpy as np
import pytest

from muharmonic import (
    GSpaceAction,
    boundary_reports,
    catalog,
    coset_action,
    cyclic_group,
    empty_word,
    free_ball,
    from_pairs,
    generated_subgroup,
    gspace_markov_matrix,
    harmonic_measure_cylinder,
    kernel,
    neighbors,
    orbit_labels,
    point_mass,
    poisson_extension,
    sample_path,
    simple_random_walk_z,
    stationary_measure,
    symmetric_group,
    trivial_action,
    uniform_on,
    word,
)
from muharmonic.freegroup import FreeWord, _packed_ball, _packed_neighbors
from muharmonic.walks import (
    DEFAULT_MARGIN,
    _check_rank,
    _chunk_seeds,
    _draw_steps,
    _gens_array,
    _poisson_values,
    _simulate_chunk,
)

W_A = word(2, (1,))
W_AB = word(2, (1, 2))


def _mean_endpoint_length(k, n_steps, n_paths, seed):
    """Monte Carlo mean of |X_n| over the chunked sampler's paths."""
    total = 0
    for child, size in _chunk_seeds(seed, n_paths):
        lengths = _simulate_chunk(k, n_steps, size, np.random.default_rng(child), 0)[1]
        total += int(lengths.sum())
    return total / n_paths


def test_sample_path_deterministic_walk():
    z4 = cyclic_group(4)
    path = sample_path(z4, point_mass(z4, 1), 0, 5, seed=3)
    assert path.positions == (0, 1, 2, 3, 0, 1)
    with pytest.raises(ValueError, match="carrier group"):
        sample_path(None, simple_random_walk_z(), 0, 5, seed=3)


@pytest.mark.parametrize("start", [9, 4, -1])
def test_sample_path_refuses_a_start_outside_the_group(start):
    # numpy indexing would take -1 as the last element of the group
    z4 = cyclic_group(4)
    with pytest.raises(ValueError, match=rf"^start: element index {start} outside 0\.\.3$"):
        sample_path(z4, point_mass(z4, 1), start, 3, seed=1)


@pytest.mark.parametrize("start", [1.5, True, 1.0, "1"])
def test_sample_path_refuses_a_start_that_is_not_an_integer(start):
    # int() would truncate 1.5 and True to 1 and walk from there
    z4 = cyclic_group(4)
    with pytest.raises(TypeError):
        sample_path(z4, point_mass(z4, 1), start, 3, seed=1)
    assert sample_path(z4, point_mass(z4, 1), np.int64(1), 3, seed=1).positions == (1, 2, 3, 0)


def test_sample_path_seed_reproducibility():
    s3 = symmetric_group(3)
    mu = uniform_on(s3, [1, 2, 3])
    p1 = sample_path(s3, mu, 0, 50, seed=9)
    p2 = sample_path(s3, mu, 0, 50, seed=9)
    assert p1.positions == p2.positions
    assert p1.increments == p2.increments
    p3 = sample_path(s3, mu, 0, 50, seed=10)
    assert p3.positions != p1.positions


def test_free_walk_drift():
    # mean |X_100| concentrates near n/2 for the rank-2 simple walk
    mean_len = _mean_endpoint_length(2, 100, 10_000, seed=5)
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
    words_arr, lengths, _, _ = _simulate_chunk(2, 40, 200, rng, keep=40)
    w_arr = np.array(W_AB.letters, dtype=np.int16)
    h_vec = _poisson_values(2, w_arr, words_arr, lengths)
    for i in range(200):
        g = word(2, [int(s) for s in words_arr[i, : lengths[i]]])
        assert abs(h_vec[i] - poisson_extension(2, W_AB, g)) < 1e-13


def _poisson_values_by_cumprod(k, w_letters, words, lengths):
    """Oracle: the closed form with the common prefix taken by a row cumprod."""
    m = len(w_letters)
    width = min(m, words.shape[1])
    match = words[:, :width] == np.asarray(w_letters[:width])
    match &= np.arange(width) < lengths[:, None]
    lcp = match.cumprod(axis=1).sum(axis=1)
    q = float(2 * k - 1)
    q_d = q ** (2 * lcp - lengths - m)
    return np.where(lcp == m, 1.0 - q_d / (2 * k), (q / (2 * k)) * q_d)


def test_poisson_values_are_bitwise_the_cumprod_form():
    words_arr, lengths, _, (snap_words, snap_lengths) = _simulate_chunk(
        2, 30, 2000, np.random.default_rng(33), 3, snapshot=4)
    ball, ball_lengths = _packed_ball(2, 5)
    cases = [(words_arr, lengths), (snap_words, snap_lengths), (ball, ball_lengths),
             (words_arr[:, :1], lengths)]
    for w in ((1,), (1, 2), (-2, 1, 1), (2, -1, -1, 2, 2)):
        for letters in (w, np.array(w, dtype=np.int16)):
            for words, lens in cases:
                got = _poisson_values(2, letters, words, lens)
                assert got.tobytes() == _poisson_values_by_cumprod(2, letters, words,
                                                                   lens).tobytes()


def test_sampler_prefix_matches_full_words():
    # the draws do not depend on keep: a short prefix is the start of the full word
    for k, keep in ((2, 1), (2, 3), (3, 2)):
        short = _simulate_chunk(k, 50, 500, np.random.default_rng(21), keep=keep)
        full = _simulate_chunk(k, 50, 500, np.random.default_rng(21), keep=50)
        assert short[0].shape == (500, keep)
        assert np.array_equal(short[0], full[0][:, :keep])
        assert np.array_equal(short[1], full[1])


class _Rounds:
    """A bit-generator stand-in: the 256 byte values in order on the first call,
    zero bytes on the second, 0xFF bytes after that."""

    def __init__(self):
        self.sizes = []

    def random_raw(self, size):
        self.sizes.append(size)
        if len(self.sizes) == 1:
            return np.arange(8 * size, dtype=np.uint8).view("<u8").astype(np.uint64)
        return np.full(size, 0 if len(self.sizes) == 2 else 2**64 - 1, dtype=np.uint64)


def test_accepted_bytes_cover_each_value_equally():
    # byte 0 is rejected whenever any byte is, and byte 255 never is (it maps
    # to s - 1): the rejected positions are redrawn twice, and each value
    # below s - 1 counts accepted bytes of the first round only
    for s in range(1, 257):
        source = _Rounds()
        r = _draw_steps(source, s, 256)
        assert r.dtype == np.int16
        counts = np.bincount(r, minlength=s)
        assert counts.size == s
        assert (counts[:-1] == 256 // s).all(), s
        assert counts[-1] == 256 // s + 256 % s, s
        redraw = (256 % s + 7) // 8
        assert source.sizes == ([32, redraw, redraw] if redraw else [32]), s


def test_draws_read_the_words_little_endian():
    words = np.random.default_rng(40).bit_generator.random_raw(3)
    expected = [b * 4 >> 8 for w in words for b in int(w).to_bytes(8, "little")][:20]
    r = _draw_steps(np.random.default_rng(40).bit_generator, 4, 20)
    assert r.tolist() == expected


def test_rejected_bytes_redraw_the_same_way_for_a_seed():
    # 2k = 6 rejects 4 of the 256 bytes: redraws read further words, and the
    # same seed gives the same draws and the same paths
    n = 20_000
    bitgen = np.random.default_rng(41).bit_generator
    r = _draw_steps(bitgen, 6, n)
    again = np.random.default_rng(41).bit_generator
    assert np.array_equal(r, _draw_steps(again, 6, n))
    nxt = bitgen.random_raw()
    assert nxt == again.random_raw()
    # the redraws read words past the first ceil(n / 8), at least one per 8
    # bytes rejected on the first pass
    words = np.random.default_rng(41).bit_generator.random_raw((n + 7) // 8 + 100)
    first = words[:(n + 7) // 8].astype("<u8").view(np.uint8)[:n].astype(int) * 6
    rejected = int(((first & 255) < 4).sum())
    assert rejected > 0
    assert words.tolist().index(nxt) >= (n + 7) // 8 + (rejected + 7) // 8
    counts = np.bincount(r, minlength=6)
    assert counts.size == 6
    assert np.abs(counts - n / 6).max() < 4 * np.sqrt(n * (1 / 6) * (5 / 6))
    a = _simulate_chunk(3, 40, 500, np.random.default_rng(42), keep=3)
    b = _simulate_chunk(3, 40, 500, np.random.default_rng(42), keep=3)
    for x, y in zip(a[:3], b[:3]):
        assert np.array_equal(x, y)


def test_sampler_refuses_a_rank_above_128():
    with pytest.raises(ValueError, match="k=129"):
        _simulate_chunk(129, 5, 10, np.random.default_rng(43), keep=1)
    with pytest.raises(ValueError, match="k=129"):
        boundary_reports(129, (word(129, (1,)),), 5, 10, seed=1, snapshot=5)
    assert _simulate_chunk(128, 5, 10, np.random.default_rng(43), keep=1)[1].shape == (10,)


def test_sampler_full_words_are_reduced():
    for k in (1, 2, 3):
        words_arr, lengths, _, _ = _simulate_chunk(k, 30, 300, np.random.default_rng(22),
                                                   keep=30)
        assert np.all((lengths >= 0) & (lengths <= 30) & (lengths % 2 == 0))
        for i in range(300):
            letters = tuple(int(s) for s in words_arr[i, : lengths[i]])
            FreeWord(k, letters)  # raises unless every letter is valid and reduced
            assert len(word(k, letters)) == lengths[i]


def _reference_chunk(k, n_steps, n_paths, rng, keep, margin=DEFAULT_MARGIN, depths=None,
                     snapshot=None):
    """Oracle: the sampler step by step, with a per-depth flag pair and a
    letter gather on every path below `keep`, on the same draws."""
    _check_rank(k)
    two_k = 2 * k
    bitgen = rng.bit_generator
    gens = _gens_array(k)
    depths = (keep,) if depths is None else depths
    prefix = np.zeros((n_paths, keep), dtype=np.int16)
    lengths = np.zeros(n_paths, dtype=np.int32)
    flags = [(d, np.zeros(n_paths, dtype=bool), np.zeros(n_paths, dtype=bool)) for d in depths]
    snap = None
    for step in range(n_steps):
        if step == snapshot:
            snap = (gens[prefix], lengths.copy())
        r = _draw_steps(bitgen, two_k, n_paths)
        low = np.flatnonzero(lengths < keep)
        if low.size:
            depth = lengths[low]
            r_low = r[low]
            push = (r_low != 0) | (depth == 0)
            low, depth, r_low = low[push], depth[push], r_low[push]
            top = prefix[low, np.maximum(depth - 1, 0)]
            prefix[low, depth] = np.where(depth == 0, r_low, (top + k + r_low) % two_k)
        cancel = (r == 0) & (lengths > 0)
        lengths += 1
        lengths -= cancel
        lengths -= cancel
        for d, hit, fell in flags:
            hit |= lengths >= d + margin
            fell |= hit & (lengths <= d)
    if snapshot == n_steps:
        snap = (gens[prefix], lengths.copy())
    stable = np.array([hit & ~fell for _, hit, fell in flags])
    return gens[prefix], lengths, stable, snap


def _same_arrays(got, expected):
    assert got.dtype == expected.dtype and got.shape == expected.shape
    assert got.tobytes() == expected.tobytes()


# (k, n_steps, n_paths, keep, margin, depths, snapshot): both step forms, ranks
# up to 128, snapshots at the start, the middle and the end, and no step at all
_CHUNK_CASES = [
    (2, 100, 25_000, 2, 10, (1, 2), 60),
    (2, 100, 25_000, 2, 10, None, 0),
    (1, 40, 77, 1, 10, None, 40),
    (3, 60, 999, 3, 10, (1, 3), 30),
    (5, 50, 999, 4, 10, (2, 4), 50),
    (128, 30, 999, 6, 10, None, 15),
    (2, 80, 999, 30, 10, (1, 3, 30), 40),
    (3, 40, 77, 40, 3, None, None),
    (2, 0, 77, 2, 10, (1, 2), 0),
    (2, 120, 999, 8, 3, (8,), 60),
    (2, 50, 1, 2, 10, (1, 2), 25),
]


@pytest.mark.parametrize("case", _CHUNK_CASES, ids=lambda c: "-".join(map(str, c)))
@pytest.mark.parametrize("seed", [50, 51, 52])
def test_sampler_is_bitwise_the_reference_chunk(case, seed):
    k, n_steps, n_paths, keep, margin, depths, snapshot = case
    got = _simulate_chunk(k, n_steps, n_paths, np.random.default_rng(seed), keep, margin,
                          depths, snapshot)
    expected = _reference_chunk(k, n_steps, n_paths, np.random.default_rng(seed), keep,
                                margin, depths, snapshot)
    for a, b in zip(got[:3], expected[:3]):
        _same_arrays(a, b)
    if snapshot is None:
        assert got[3] is None and expected[3] is None
    else:
        for a, b in zip(got[3], expected[3]):
            _same_arrays(a, b)


def test_sampler_keeps_long_runs_bitwise():
    # from 2^15 steps on the sampler steps in int32: at k = 128 the drift is
    # 254/256, and every length ends past the int16 range
    n_steps = 2**15 + 500
    got = _simulate_chunk(128, n_steps, 3, np.random.default_rng(53), 1, depths=(1,),
                          snapshot=n_steps - 1)
    expected = _reference_chunk(128, n_steps, 3, np.random.default_rng(53), 1, depths=(1,),
                                snapshot=n_steps - 1)
    assert got[1].min() > np.iinfo(np.int16).max
    for a, b in zip((*got[:3], *got[3]), (*expected[:3], *expected[3])):
        _same_arrays(a, b)


def test_sampler_stable_matches_its_definition():
    # stable: reached keep + margin and never went below keep + 1 afterwards
    keep, margin, n_steps, n_paths = 2, 3, 25, 400
    history = np.array([
        _simulate_chunk(2, t, n_paths, np.random.default_rng(23), keep, margin)[1]
        for t in range(1, n_steps + 1)
    ])
    stable = _simulate_chunk(2, n_steps, n_paths, np.random.default_rng(23), keep, margin)[2][0]
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
    estimate = _mean_endpoint_length(k, n_steps, n_paths, seed=24)
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
        words_arr, _, ok, _ = _simulate_chunk(2, n_steps, size, rng, keep=prefix_len,
                                              margin=margin)
        ok = ok[0]
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
    (report,) = boundary_reports(2, (W_A,), 100, 5000, seed=11)
    assert report.martingale.conclusive_fraction >= 0.999
    assert report.martingale.agreement_fraction >= 0.99
    assert report.martingale.n_paths == 5000
    again = boundary_reports(2, (W_A,), 100, 5000, seed=11)
    assert again == (report,)  # all three reports, bit for bit


def test_martingale_horizon_zero():
    (report,) = boundary_reports(2, (W_A,), 0, 100, seed=12, snapshot=0)
    assert report.martingale.conclusive_fraction == 0.0
    assert report.martingale.agreement_fraction == 0.0
    assert report.martingale.inconclusive_count == 100
    assert report.cylinder.inconclusive_count == 100


def test_martingale_rejects_empty_word():
    # the empty word indexes no cylinder
    with pytest.raises(ValueError, match="nonempty reduced words"):
        boundary_reports(2, (empty_word(2),), 50, 1000, seed=1)
    with pytest.raises(ValueError, match="nonempty reduced words"):
        boundary_reports(2, (W_A, empty_word(2)), 50, 1000, seed=1)


def test_boundary_reports_reject_a_cylinder_of_another_rank():
    # a word of F_2 indexes no cylinder of F_3's boundary
    with pytest.raises(ValueError, match="cylinder rank 2 != 3"):
        boundary_reports(3, (W_A,), 50, 2000, seed=1, snapshot=50)
    with pytest.raises(ValueError, match="cylinder rank 2 != 3"):
        boundary_reports(3, (word(3, (1,)), W_A), 50, 2000, seed=1, snapshot=50)


def test_boundary_reports_reject_bad_sizes():
    with pytest.raises(ValueError, match="snapshot"):
        boundary_reports(2, (W_A,), 50, 2000, seed=1)  # the default snapshot 60 > 50
    with pytest.raises(ValueError, match="at least one"):
        boundary_reports(2, (), 50, 2000, seed=1, snapshot=50)


def test_one_pass_reproduces_the_single_depth_sampler():
    # stability at each |w| and the letters match a run that keeps |w| letters;
    # the snapshot matches a run stopped at `snapshot` steps
    for k, n_paths in ((2, 1000), (3, 999)):
        prefix, lengths, stable, (snap_prefix, snap_lengths) = _simulate_chunk(
            k, 80, n_paths, np.random.default_rng(31), 2, 10, (1, 2), 50)
        for row, keep in enumerate((1, 2)):
            ref = _simulate_chunk(k, 80, n_paths, np.random.default_rng(31), keep)
            assert np.array_equal(prefix[:, :keep], ref[0])
            assert np.array_equal(lengths, ref[1])
            assert np.array_equal(stable[row], ref[2][0])
        short = _simulate_chunk(k, 50, n_paths, np.random.default_rng(31), 2, snapshot=50)
        assert np.array_equal(snap_prefix, short[0])
        assert np.array_equal(snap_lengths, short[1])
        # a snapshot at the last step is the final state
        assert np.array_equal(short[3][0], short[0])
        assert np.array_equal(short[3][1], short[1])


def test_one_pass_for_two_words_equals_one_pass_each():
    both = boundary_reports(2, (W_A, W_AB), 100, 12_000, seed=32, snapshot=40)
    alone = [boundary_reports(2, (w,), 100, 12_000, seed=32, snapshot=40)[0]
             for w in (W_A, W_AB)]
    assert list(both) == alone


def test_martingale_one_step_mean_property():
    # E[h(X_{n+1}) | X_n] = h(X_n): regress one extra step over sampled paths
    n_paths = 100_000
    rng = np.random.default_rng(13)
    words_arr, lengths, _, _ = _simulate_chunk(2, 20, n_paths, rng, keep=20)
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
    report = boundary_reports(2, (W_A,), 60, 20_000, seed=14)[0].diamond
    assert abs(report.estimate - 0.25) < 0.02
    assert report.distance_to_pointwise > 0.15
    at_zero = boundary_reports(2, (W_A,), 0, 100, seed=15, snapshot=0)[0].diamond
    assert at_zero.estimate == 0.0625
    assert at_zero.stderr == 0.0 and at_zero.n_steps == 0


def test_empirical_cylinder_report_fields():
    est = boundary_reports(2, (W_A,), 60, 5000, seed=16)[0].cylinder
    payload = est.to_json()
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
    assert report.labels.tolist() == [0, 0, 0]
    assert np.abs(report.measures[0].weights - 1 / 3).max() < 1e-15
    assert report.to_json() == {"orbit_labels": [0, 0, 0], "fixed_dim": 1}

    # every point is its own orbit: the point masses are the extreme measures
    rep_triv = stationary_measure(trivial_action(s3, 4), mu)
    assert rep_triv.fixed_dim == 4
    assert np.array_equal(np.array([m.weights for m in rep_triv.measures]), np.eye(4))

    z3 = cyclic_group(3)
    rep_z3 = stationary_measure(GSpaceAction(z3, 3, z3.cayley.copy()), point_mass(z3, 1))
    assert rep_z3.fixed_dim == 1
    assert np.abs(rep_z3.measures[0].weights - 1 / 3).max() < 1e-15


@pytest.mark.parametrize("support, fixed_dim", [("(1 2 3)", 4), ("(3 4)", 7)])
def test_stationary_s4_on_the_cosets_of_a_transposition(support, fixed_dim):
    # S4 on the 12 cosets of K = <(1 2)>: the H-orbits are the double cosets
    # K x H, and the kernel of P^T - I has one dimension per orbit
    s4 = symmetric_group(4)
    action = coset_action(s4, generated_subgroup(s4, [s4.labels.index("(1 2)")]))
    mu = point_mass(s4, s4.labels.index(support))
    report = stationary_measure(action, mu)
    assert action.points == 12 and report.fixed_dim == fixed_dim
    p = gspace_markov_matrix(action, mu).real
    assert kernel(p.T - np.eye(12)).rank == fixed_dim
    for sigma in report.measures:
        w = sigma.weights.real
        assert abs(w.sum() - 1.0) < 1e-15 and np.abs(w @ p - w).sum() < 1e-15
        on_orbit = report.labels[w > 0]
        assert np.all(on_orbit == on_orbit[0])


def _orbit_labels_by_definition(table, members):
    """Reference: label each unlabelled point's orbit {s.x : s in H}, in point order."""
    labels = np.full(table.shape[1], -1)
    for x in range(table.shape[1]):
        if labels[x] < 0:
            labels[[table[s, x] for s in members]] = labels.max() + 1
    return labels


def test_stationary_labels_number_the_orbits_by_their_least_points():
    # G on itself by a.x = x a^{-1} has the left cosets xH as its H-orbits,
    # which orbit_labels numbers; coset actions G on G/K check the general case
    rng = np.random.default_rng(20)
    groups = [e.group for e in catalog()] + [symmetric_group(5)]
    for g in groups:
        right = GSpaceAction(g, g.order, g.cayley[:, g.inverses].T)
        for _ in range(3):
            support = [int(x) for x in rng.choice(g.order, size=min(2, g.order), replace=False)]
            mu, h = uniform_on(g, support), generated_subgroup(g, support)
            labels = stationary_measure(right, mu).labels
            assert np.array_equal(labels, orbit_labels(g, h))
            assert np.array_equal(labels, _orbit_labels_by_definition(right.table, h.members))
            action = coset_action(g, generated_subgroup(g, [int(rng.integers(g.order))]))
            assert np.array_equal(stationary_measure(action, mu).labels,
                                  _orbit_labels_by_definition(action.table, h.members))


def test_stationary_measure_refuses_a_law_it_cannot_take():
    s3, z3 = symmetric_group(3), cyclic_group(3)
    action = trivial_action(s3, 2)
    with pytest.raises(ValueError, match="acting group"):
        stationary_measure(action, point_mass(z3, 1))
    with pytest.raises(ValueError, match="probability"):
        stationary_measure(action, from_pairs(s3, [(1, 1.5), (2, -0.5)]))


def test_subharmonic_free_max():
    # ball(7) holds ball(6) and all its neighbours: one array pass per extension
    letters, lengths = _packed_ball(2, 7)
    ball = free_ball(2, 7)
    h1 = dict(zip(ball, _poisson_values(2, W_A.letters, letters, lengths)))
    for g in (ball[0], ball[-1], word(2, (1, 2, -1))):
        assert h1[g] == poisson_extension(2, W_A, g)
    # on ball(6): the max of two extensions is subharmonic, an extension harmonic
    letters, lengths = _packed_ball(2, 6)
    nbrs = _packed_neighbors(2, letters, lengths)

    def violation(h):
        return (h(letters, lengths) - sum(h(*nb) for nb in nbrs) / 4).max()

    def h_a(words, lens):
        return _poisson_values(2, W_A.letters, words, lens)

    def h_max(words, lens):
        return np.maximum(h_a(words, lens), _poisson_values(2, (-2,), words, lens))

    assert violation(h_max) <= 1e-12
    assert abs(violation(h_a)) <= 1e-12
