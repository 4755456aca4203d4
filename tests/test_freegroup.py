import numpy as np
import pytest

from muharmonic import (
    FreeWord,
    empty_word,
    free_ball,
    free_inverse,
    free_mul,
    neighbors,
    word,
)
from muharmonic.freegroup import _packed_ball, _packed_neighbors


def test_cancellation_examples():
    a = word(2, (1,))
    assert free_mul(a, free_inverse(a)) == empty_word(2)
    ab = word(2, (1, 2))
    binva = word(2, (-2, 1))
    assert free_mul(ab, binva) == word(2, (1, 1))


def test_constructor_rejects_unreduced():
    with pytest.raises(ValueError):
        FreeWord(2, (1, -1))
    with pytest.raises(ValueError):
        FreeWord(2, (3,))
    assert word(2, (1, -1)) == empty_word(2)


def test_rank_mismatch():
    with pytest.raises(ValueError):
        free_mul(word(2, (1,)), word(3, (1,)))


def test_ball_counts():
    # |ball(k, r)| = 1 + 2k((2k-1)^r - 1)/(2k-2)
    assert len(free_ball(2, 0)) == 1
    assert len(free_ball(2, 1)) == 5
    assert len(free_ball(2, 2)) == 17
    assert len(free_ball(2, 3)) == 53
    assert len(free_ball(3, 2)) == 1 + 6 * (5**2 - 1) // 4
    ball = free_ball(2, 2)
    assert len(set(w.letters for w in ball)) == len(ball)
    assert all(len(w) <= 2 for w in ball)


def test_mul_associative_and_inverse_involutive_random():
    rng = np.random.default_rng(42)
    for _ in range(1000):
        k = int(rng.integers(1, 4))
        ws = []
        for _ in range(3):
            letters = [int(s) for s in rng.integers(1, k + 1, size=rng.integers(0, 21))]
            signs = rng.choice([-1, 1], size=len(letters))
            ws.append(word(k, [s * l for s, l in zip(signs, letters)]))
        a, b, c = ws
        assert free_mul(free_mul(a, b), c) == free_mul(a, free_mul(b, c))
        assert free_inverse(free_inverse(a)) == a
        assert free_mul(a, free_inverse(a)) == empty_word(k)


def test_str_rendering():
    assert str(empty_word(2)) == "e"
    assert str(word(2, (1, -2))) == "ab'"


def _tuple_ball(k, r):
    """The breadth-first ball as letter tuples, one word at a time: the reference."""
    ball, sphere = [()], [()]
    gens = list(range(1, k + 1)) + [-i for i in range(1, k + 1)]
    for _ in range(r):
        sphere = [w + (s,) for w in sphere for s in gens if not (w and w[-1] == -s)]
        ball.extend(sphere)
    return ball


@pytest.mark.parametrize("k", [2, 3])
@pytest.mark.parametrize("r", range(6))
def test_packed_ball_is_the_tuple_bfs(k, r):
    letters, lengths = _packed_ball(k, r)
    expected = _tuple_ball(k, r)
    count = 1 + 2 * k * ((2 * k - 1) ** r - 1) // (2 * k - 2)
    assert len(expected) == len(lengths) == count
    assert letters.shape == (count, r + 1)
    assert [tuple(row[:n]) for row, n in zip(letters.tolist(), lengths.tolist())] == expected
    assert not np.any(letters[np.arange(r + 1) >= lengths[:, None]])  # zero padding
    assert [w.letters for w in free_ball(k, r)] == expected


def test_packed_ball_rejects_negative_radius():
    with pytest.raises(ValueError):
        _packed_ball(2, -1)
    with pytest.raises(ValueError):
        free_ball(2, -1)


def test_neighbors_are_the_products_with_each_generator():
    gens = [word(3, (s,)) for s in (1, 2, 3, -1, -2, -3)]
    for g in free_ball(3, 3):
        assert neighbors(g) == [free_mul(g, s) for s in gens]


@pytest.mark.parametrize("k", [2, 3])
def test_packed_neighbors_are_neighbors(k):
    letters, lengths = _packed_ball(k, 3)
    before = letters.copy()
    nbrs = _packed_neighbors(k, letters, lengths)
    assert np.array_equal(letters, before)
    packed = [[tuple(nb[i, :nb_len[i]].tolist()) for nb, nb_len in nbrs]
              for i in range(len(lengths))]
    assert packed == [[h.letters for h in neighbors(g)] for g in free_ball(k, 3)]
