"""Reduced words in the free group F_k and the regular-tree geometry they span.

Letters are nonzero signed integers in ``{-k..-1, 1..k}``; the word is stored
fully reduced (no adjacent s, -s).  Generator ``i`` prints as the i-th
lowercase letter, its inverse with a trailing apostrophe.
"""

from __future__ import annotations

from dataclasses import dataclass

import numpy as np

from ._ops import operation
from .groups import _positive_integer

_ALPHABET = "abcdefghijklmnopqrstuvwxyz"


def reduce_letters(letters) -> tuple[int, ...]:
    """Fully reduce a letter sequence by cancelling adjacent inverse pairs."""
    out: list[int] = []
    for s in letters:
        if out and out[-1] == -s:
            out.pop()
        else:
            out.append(int(s))
    return tuple(out)


@dataclass(frozen=True)
class FreeWord:
    """A reduced word in F_k."""

    rank: int
    letters: tuple[int, ...]

    def __post_init__(self):
        _positive_integer(self.rank, "rank")
        for s in self.letters:
            if s == 0 or abs(s) > self.rank:
                raise ValueError(f"letter {s} out of range for rank {self.rank}")
        for a, b in zip(self.letters, self.letters[1:]):
            if a == -b:
                raise ValueError(f"word {self.letters} is not reduced")

    def __len__(self):
        return len(self.letters)

    def __str__(self):
        if not self.letters:
            return "e"
        return "".join(_ALPHABET[abs(s) - 1] + ("'" if s < 0 else "") for s in self.letters)

    def __repr__(self):
        return f"FreeWord(F{self.rank}, {self})"


def word(k: int, letters=()) -> FreeWord:
    """Build a word from any letter sequence, reducing eagerly."""
    return FreeWord(k, reduce_letters(letters))


def empty_word(k: int) -> FreeWord:
    return FreeWord(k, ())


def generator(k: int, i: int) -> FreeWord:
    """The i-th generator (1-based); negative i gives its inverse."""
    return FreeWord(k, (i,))


@operation
def free_mul(a: FreeWord, b: FreeWord) -> FreeWord:
    if a.rank != b.rank:
        raise ValueError(f"rank mismatch: {a.rank} vs {b.rank}")
    return FreeWord(a.rank, reduce_letters(a.letters + b.letters))


@operation
def free_inverse(a: FreeWord) -> FreeWord:
    return FreeWord(a.rank, tuple(-s for s in reversed(a.letters)))


def _packed_ball(k: int, r: int) -> tuple[np.ndarray, np.ndarray]:
    """The words of free_ball(k, r) as letter rows and lengths, in its order.

    Row i holds the letters of word i in its first lengths[i] columns and
    zeros after them; rows have r + 1 columns, room for one more letter.
    One breadth-first pass over arrays: each sphere row is repeated 2k
    times, the generators are appended, and the cancelling rows dropped.
    """
    k = _positive_integer(k, "k")
    r = _positive_integer(r, "r", 0)
    gens = np.array(list(range(1, k + 1)) + list(range(-1, -k - 1, -1)), dtype=np.int32)
    sphere = np.zeros((1, r + 1), dtype=np.int32)
    spheres = [sphere]
    for length in range(r):
        grown = np.repeat(sphere, 2 * k, axis=0)
        grown[:, length] = np.tile(gens, len(sphere))
        if length:
            grown = grown[grown[:, length - 1] != -grown[:, length]]
        spheres.append(grown)
        sphere = grown
    lengths = np.repeat(np.arange(r + 1), [len(x) for x in spheres])
    return np.concatenate(spheres), lengths


def _packed_neighbors(k: int, letters: np.ndarray,
                      lengths: np.ndarray) -> list[tuple[np.ndarray, np.ndarray]]:
    """The neighbours g s of packed words g, as (letters, lengths) for each s.

    s runs over the generators and then their inverses, the order of
    `neighbors`: g s pops the last letter of g when it is s^{-1} and pushes
    s otherwise (a popped letter stays in its row, past the new length).
    Each row needs a free column after its word, as `_packed_ball` leaves.
    """
    rows = np.arange(len(lengths))
    last = letters[rows, np.maximum(lengths - 1, 0)]
    out = []
    for s in [*range(1, k + 1), *range(-1, -k - 1, -1)]:
        cancel = (lengths > 0) & (last == -s)
        nb = letters.copy()
        nb[rows[~cancel], lengths[~cancel]] = s
        out.append((nb, lengths + np.where(cancel, -1, 1)))
    return out


@operation
def free_ball(k: int, r: int) -> list[FreeWord]:
    """All reduced words of length <= r, in breadth-first order.

    The count is 1 + 2k((2k-1)^r - 1)/(2k-2).
    """
    letters, lengths = _packed_ball(k, r)
    return [FreeWord(k, tuple(row[:n])) for row, n in zip(letters.tolist(), lengths.tolist())]


def neighbors(g: FreeWord) -> list[FreeWord]:
    """The 2k adjacent vertices gs, s a generator or inverse generator.

    gs pops the last letter of g when it is s^{-1} and pushes s otherwise.
    """
    k, letters = g.rank, g.letters
    out = []
    for s in [i for i in range(1, k + 1)] + [-i for i in range(1, k + 1)]:
        if letters and letters[-1] == -s:
            out.append(FreeWord(k, letters[:-1]))
        else:
            out.append(FreeWord(k, letters + (s,)))
    return out
