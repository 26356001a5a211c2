"""Cyclic words over an integer alphabet, their windows, and their symmetries.

A cycle word is a finite sequence of letters drawn from ``1..alphabet_size``.
It is read cyclically: length-t windows wrap past the end, one window per
position.  Windows are compared as multisets and encoded as sorted tuples,
read off shifted copies of the word with ``zip``.

A universal cycle for a family of t-multisets is a cycle word whose cyclic
windows enumerate the family exactly once; this module supplies the raw
material for building and comparing such words, while :mod:`ucycles.verify`
holds the actual coverage checks.

Each word is checked once.  Outside input goes through the public
constructor, which checks, letter by letter, that ``alphabet_size`` is an
int of at least 1 and that every letter is an int in ``1..alphabet_size``.
It is written by hand rather than generated, so a word is built in one
call: the checks, then both fields straight into the instance dict.  A word
a construction route or the search builds is checked by ``verify._emitted``,
which tests its letters' range, verifies it and makes it with the private
``CycleWord._trusted``, which checks nothing.  So are the words the library
derives from a word it holds (a reflection, a canonical representative,
pair doubling's words) and the words of the ``.ucy`` reader's name table
and of the counting search: their letters lie in range by construction.
"""

from __future__ import annotations

from collections.abc import Iterable
from dataclasses import dataclass

Letter = int
MultisetKey = tuple[Letter, ...]
Pair = tuple[Letter, Letter]
PairSet = frozenset[Pair]


@dataclass(frozen=True, init=False)
class CycleWord:
    """Immutable word whose letters lie in ``1..alphabet_size``."""

    alphabet_size: int
    letters: tuple[Letter, ...]

    def __init__(self, alphabet_size: int, letters: Iterable[Letter]) -> None:
        # an int subclass (a bool) is accepted, as it is for a letter
        if not isinstance(alphabet_size, int):
            raise ValueError(f"alphabet_size {alphabet_size!r} is not an int")
        if alphabet_size < 1:
            raise ValueError("alphabet_size must be positive")
        ls = letters if isinstance(letters, tuple) else tuple(letters)
        if len(ls) < 1:
            raise ValueError("word must contain at least one letter")
        n = alphabet_size
        for x in ls:
            if not (isinstance(x, int) and 1 <= x <= n):
                raise ValueError(f"letter {x!r} out of range 1..{n}")
        # straight into the instance dict, as the frozen __setattr__ forbids
        fields = self.__dict__
        fields["alphabet_size"] = alphabet_size
        fields["letters"] = ls

    @classmethod
    def _trusted(cls, alphabet_size: int, letters: tuple[Letter, ...]) -> "CycleWord":
        """A word whose letters, a non-empty tuple, lie in ``1..alphabet_size``
        by construction: the constructor's last step without its checks."""
        word = object.__new__(cls)
        word.__dict__.update(alphabet_size=alphabet_size, letters=letters)
        return word

    def __len__(self) -> int:
        return len(self.letters)


def cyclic_windows(word: CycleWord, t: int) -> list[MultisetKey]:
    """All length-t windows read cyclically: one per starting position."""
    if t < 1:
        raise ValueError("window size must be positive")
    ls = word.letters
    if len(ls) < t:
        raise ValueError("word shorter than window")
    seq = ls + ls[: t - 1]
    return [tuple(sorted(w)) for w in zip(*(seq[i:] for i in range(t)))]


@dataclass(frozen=True)
class CanonicalClass:
    """Least representative of a cycle word's rotation + relabeling class.

    Two cycle words compare equal here exactly when one can be turned into the
    other by rotating and bijectively renaming letters.  Reflection is a
    separate, coarser folding handled by the counting code.
    """

    representative: CycleWord


def _least_form(seq: tuple[Letter, ...]) -> tuple[Letter, ...]:
    # First-occurrence renaming: maps the first distinct letter to 1, the
    # second to 2, and so on.  For a fixed sequence this is the
    # lexicographically least relabeling.
    mapping: dict[Letter, Letter] = {}
    out = []
    for x in seq:
        if x not in mapping:
            mapping[x] = len(mapping) + 1
        out.append(mapping[x])
    return tuple(out)


def _longest_run_starts(ls: tuple[Letter, ...]) -> list[int]:
    """Positions that start a longest cyclic run of equal letters."""
    k = len(ls)
    starts = [r for r in range(k) if ls[r] != ls[r - 1]]
    if not starts:
        return [0]  # one letter throughout: every rotation is the same word
    lengths = [b - a for a, b in zip(starts, starts[1:] + [starts[0] + k])]
    longest = max(lengths)
    return [a for a, length in zip(starts, lengths) if length == longest]


def canonicalize(word: CycleWord) -> CanonicalClass:
    """Lexicographically least word over all rotations and relabelings.

    The form of a rotation starts with a run of 1s exactly as long as the run
    of equal letters at that rotation, and a longer leading run gives a
    smaller form.  So only the rotations that start a longest cyclic run can
    give the least form; for a universal cycle on t-multisets of [n] these
    are the n runs of t equal letters, not all of its positions.
    """
    ls = word.letters
    best: tuple[Letter, ...] | None = None
    for r in _longest_run_starts(ls):
        form = _least_form(ls[r:] + ls[:r])
        if best is None or form < best:
            best = form
    assert best is not None
    # first-occurrence names run 1..(distinct letters), all within the alphabet
    return CanonicalClass(CycleWord._trusted(word.alphabet_size, best))
