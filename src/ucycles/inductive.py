"""Inductive construction of 3-multiset universal cycles for n = 3k + 1.

The construction grows a cycle word in alphabet steps of three.  A state
holds two pieces: ``base``, a cycle word over [n-3], and ``extension``, a word
over [n] such that their concatenation is a universal cycle on the
3-multisets of [n].  One growth step to alphabet m = n + 3 appends three
stitched segments to the current cycle:

* a relabeled copy of the previous extension, with the old top trio
  m-5, m-4, m-3 renamed onto the three new letters m-2, m-1, m.  Its windows
  reproduce, over the new letters, exactly the window classes the old
  extension contributed;
* a fixed 29-letter connector over the six highest letters, covering the
  3-multisets that mix the old and new top trios;
* an interleaved filler that runs a descending counter m-6..1 against
  alternating two-letter prefixes, covering every 3-multiset with one letter
  from each of: the counter range, the old trio, the new trio.

Lead-in and lead-out letters of every segment are arranged so the seams and
the final wraparound contribute precisely the window classes unreachable
inside the segments.  Two connectors are frozen, one per parity of m - 6:
when it is odd the filler's block boundaries land on different window
classes, and the second connector (the one a slot search once found at every
odd step, recorded as ``path=repaired``) closes the books instead.  The
construction searches nothing; the finished cycle is verified once before it
is returned.
"""

from __future__ import annotations

from collections.abc import Sequence
from dataclasses import dataclass
from itertools import combinations_with_replacement

from .core import CycleWord, Letter, MultisetKey
from .verify import InadmissibleError, verify_multiset_ucycle

PATH_PATTERN = "pattern"
PATH_REPAIRED = "repaired"

# Base pair: a universal cycle on the 3-multisets of [4], and the extension
# that grows it to one over [7].  Both are fixed seeds of the induction.
BASE_CYCLE_4: tuple[Letter, ...] = (
    1, 1, 1, 4, 4, 4, 2, 2, 2, 3, 3, 3, 1, 2, 1, 2, 4, 3, 4, 3,
)
BASE_EXTENSION_7: tuple[Letter, ...] = (
    1, 1, 5, 2, 2, 6, 3, 3, 7, 4, 4, 5, 1, 6, 6, 2, 7, 7, 3, 2,
    5, 7, 3, 6, 6, 7, 7, 1, 3, 5, 3, 4, 6, 4, 1, 7, 1, 5, 5, 5,
    3, 6, 1, 2, 7, 2, 4, 5, 5, 6, 6, 6, 4, 7, 7, 7, 5, 5, 2, 6,
    4, 5, 7, 6,
)

# The connector words over the six highest letters, written band-relative:
# 1..3 stand for the old trio n-5, n-4, n-3 and 4..6 for the new trio
# n-2, n-1, n.  The first serves every step with n - 6 even, the second
# every step with n - 6 odd.
_CONNECTOR_PATTERN: tuple[int, ...] = (
    1, 1, 6, 6, 3,
    1, 5, 5, 2, 2,
    4, 5, 3, 5, 3,
    2, 4, 4, 3, 3,
    6, 2, 1, 4, 1,
    4, 6, 2, 6,
)
_ODD_CONNECTOR_PATTERN: tuple[int, ...] = (
    1, 1, 4, 3, 2,
    6, 1, 3, 5, 3,
    4, 6, 2, 2, 4,
    5, 1, 5, 2, 5,
    2, 6, 6, 3, 3,
    4, 4, 1, 6,
)


def _require_step_alphabet(n: int) -> None:
    if n < 10 or n % 3 != 1:
        raise ValueError(f"step alphabet must satisfy n >= 10 and n = 3k+1, got {n}")


@dataclass(frozen=True)
class ExtensionLetters:
    """The six highest letters of [n], split into the two working trios."""

    n: int

    def __post_init__(self) -> None:
        if self.n < 10:
            raise ValueError("extension letters need n >= 10")

    @property
    def mid(self) -> tuple[Letter, Letter, Letter]:
        """Old top trio n-5, n-4, n-3: survives the step, gets mirrored."""
        return (self.n - 5, self.n - 4, self.n - 3)

    @property
    def top(self) -> tuple[Letter, Letter, Letter]:
        """New trio n-2, n-1, n added by the step."""
        return (self.n - 2, self.n - 1, self.n)


@dataclass(frozen=True)
class TriplePartition:
    """Partition of the 3-multisets of [n] by which segment must supply them."""

    carried: frozenset[MultisetKey]  # no letter above n-3: the old cycle's job
    lifted: frozenset[MultisetKey]  # >=1 new-trio letter, no mid-trio letter
    bridge: frozenset[MultisetKey]  # mid and new trios only, >=1 of each
    cross: frozenset[MultisetKey]  # one letter from counter range, mid, new


def partition_triples(n: int) -> TriplePartition:
    _require_step_alphabet(n)
    letters = ExtensionLetters(n)
    mid = set(letters.mid)
    top = set(letters.top)
    carried, lifted, bridge, cross = set(), set(), set(), set()
    for key in combinations_with_replacement(range(1, n + 1), 3):
        ks = set(key)
        n_mid = sum(1 for x in key if x in mid)
        n_top = sum(1 for x in key if x in top)
        if n_top == 0:
            carried.add(key)
        elif n_mid == 0:
            lifted.add(key)
        elif ks <= mid | top:
            bridge.add(key)
        else:
            cross.add(key)
    return TriplePartition(
        frozenset(carried), frozenset(lifted), frozenset(bridge), frozenset(cross)
    )


def _step_path(n: int) -> str:
    """Which frozen connector closes the step reaching alphabet ``n``."""
    return PATH_REPAIRED if (n - 6) % 2 else PATH_PATTERN


def _connector_letters(n: int) -> tuple[Letter, ...]:
    pattern = _ODD_CONNECTOR_PATTERN if _step_path(n) == PATH_REPAIRED else _CONNECTOR_PATTERN
    return tuple(n - 6 + i for i in pattern)


def build_connector(n: int) -> CycleWord:
    """The 29-letter connector for the step to [n], on its six highest letters.

    Steps with n - 6 even take ``_CONNECTOR_PATTERN``, steps with n - 6 odd
    take ``_ODD_CONNECTOR_PATTERN``.
    """
    _require_step_alphabet(n)
    return CycleWord(n, _connector_letters(n))


def _pair_block(p: tuple[Letter, Letter], q: tuple[Letter, Letter], hi: int) -> list[Letter]:
    # p k, q k-1, p k-2, ... down to 1, then the next pair in the alternation.
    out: list[Letter] = []
    pairs = (p, q)
    i = 0
    for k in range(hi, 0, -1):
        out.extend(pairs[i % 2])
        out.append(k)
        i += 1
    out.extend(pairs[i % 2])
    return out


def _filler_letters(n: int) -> list[Letter]:
    letters = ExtensionLetters(n)
    m1, m2, m3 = letters.mid
    h1, h2, h3 = letters.top
    blocks = [((m2, h2), (m1, h3)), ((m1, h1), (m3, h2)), ((m3, h3), (m2, h1))]
    hi = n - 6
    out: list[Letter] = []
    for p, q in blocks:
        if hi % 2:
            p, q = q, p
        out.extend(_pair_block(p, q, hi))
    out.append(h2)
    return out


def build_filler(n: int) -> CycleWord:
    """Interleaved filler: three blocks of counter-against-pair alternation.

    Each block walks the counter n-6..1 while alternating two fixed prefix
    pairs, so every sliding window pairs the counter value with two adjacent
    prefix letters; across the three blocks each counter value meets all nine
    mid/new letter combinations exactly once.  When the counter range has odd
    length the alternation is started on the opposite pair of each block,
    which keeps the final block's tail on the same two letters and thereby
    preserves the lead-out the wraparound needs.  Length is always 9n - 47.
    """
    _require_step_alphabet(n)
    return CycleWord(n, tuple(_filler_letters(n)))


def _next_extension(extension: Sequence[Letter], m: int) -> list[Letter]:
    """The extension for the step to [m], built from the previous one over [m-3].

    The previous extension's top trio m-5, m-4, m-3 moves onto the new letters
    m-2, m-1, m (none of which occur in it), then the connector and the
    filler follow.
    """
    lift = {m - 5: m - 2, m - 4: m - 1, m - 3: m}
    out = [lift.get(x, x) for x in extension]
    out.extend(_connector_letters(m))
    out.extend(_filler_letters(m))
    return out


@dataclass(frozen=True)
class ExtensionRecord:
    """How the step reaching alphabet ``n`` was closed."""

    n: int
    path: str


@dataclass(frozen=True)
class InductionState:
    """A cycle over [alphabet_size], kept split for the next step.

    ``base.concat(extension)`` is the cycle itself.  ``base`` lives on the
    previous alphabet [n-3] and opens with 1,1,1; ``extension`` lives on [n],
    opens with 1,1 and closes with n, n-1 (the lead-out every subsequent seam
    relies on).
    """

    alphabet_size: int
    base: CycleWord
    extension: CycleWord
    provenance: tuple[ExtensionRecord, ...] = ()

    def __post_init__(self) -> None:
        n = self.alphabet_size
        if n % 3 != 1 or n < 7:
            raise ValueError("state alphabet must satisfy n >= 7 and n = 3k+1")
        if self.base.alphabet_size != n - 3 or self.extension.alphabet_size != n:
            raise ValueError("base/extension alphabets do not match the state")
        if self.base.letters[:3] != (1, 1, 1):
            raise ValueError("base must open with 1,1,1")
        if self.extension.letters[:2] != (1, 1):
            raise ValueError("extension must open with 1,1")
        if self.extension.letters[-2:] != (n, n - 1):
            raise ValueError("extension must close with n, n-1")

    def cycle(self) -> CycleWord:
        return self.base.concat(self.extension)


def base_case() -> InductionState:
    """The seed state: a cycle over [7] split as base + extension."""
    return InductionState(
        alphabet_size=7,
        base=CycleWord(4, BASE_CYCLE_4),
        extension=CycleWord(7, BASE_EXTENSION_7),
    )


def _verified(word: CycleWord) -> CycleWord:
    if not verify_multiset_ucycle(word, 3).ok:
        raise AssertionError("internal error: emitted word failed verification")
    return word


def extend(state: InductionState) -> InductionState:
    """One growth step: n -> n + 3, on a verified state; the result is verified."""
    n = state.alphabet_size
    m = n + 3
    current = state.cycle()
    if not verify_multiset_ucycle(current, 3).ok:
        raise ValueError("induction state does not hold a verified cycle")
    extension = CycleWord(m, tuple(_next_extension(state.extension.letters, m)))
    _verified(current.concat(extension))
    return InductionState(
        alphabet_size=m,
        base=current,
        extension=extension,
        provenance=state.provenance + (ExtensionRecord(m, _step_path(m)),),
    )


def run_induction(n: int) -> InductionState:
    """Drive the induction from the seed up to alphabet ``n`` (n = 3k+1 >= 7).

    The steps work on plain letter lists; the cycle is verified once, at the
    end.
    """
    if n < 7 or n % 3 != 1:
        raise InadmissibleError(
            f"the inductive path covers n = 3k+1 with n >= 7 only, got {n}"
        )
    letters = list(BASE_CYCLE_4)
    extension = list(BASE_EXTENSION_7)
    provenance: list[ExtensionRecord] = []
    for m in range(10, n + 1, 3):
        letters.extend(extension)
        extension = _next_extension(extension, m)
        provenance.append(ExtensionRecord(m, _step_path(m)))
    state = InductionState(
        alphabet_size=n,
        base=CycleWord(n - 3, tuple(letters)),
        extension=CycleWord(n, tuple(extension)),
        provenance=tuple(provenance),
    )
    _verified(state.cycle())
    return state


def construct_inductive(n: int) -> CycleWord:
    """A verified universal cycle on the 3-multisets of [n], for n = 3k+1 >= 4."""
    if n < 4 or n % 3 != 1:
        raise InadmissibleError(
            f"the inductive path covers n = 3k+1 with n >= 4 only; "
            f"use doubling or search for n={n}"
        )
    if n == 4:
        return _verified(CycleWord(4, BASE_CYCLE_4))
    return run_induction(n).cycle()


def provenance_report(state: InductionState) -> str:
    """One line per growth step: ``n=<n> path=<pattern|repaired>``."""
    return "".join(f"n={rec.n} path={rec.path}\n" for rec in state.provenance)
