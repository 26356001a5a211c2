"""Inductive construction of 3-multiset universal cycles for n = 3k + 1.

The word is grown on plain letter lists in alphabet steps of three, from two
fixed seeds: ``BASE_CYCLE_4``, a universal cycle on the 3-multisets of [4],
and ``BASE_EXTENSION_7``, which appended to it gives one over [7].  Before
each step the list is a cycle over [m - 3] followed by an extension over [m]
that opens with 1, 1 and closes with m, m - 1.  The step to alphabet m + 3
keeps both and appends the next extension, three stitched segments:

* a relabeled copy of the previous extension, with the old top trio
  m-2, m-1, m renamed onto the three new letters m+1, m+2, m+3.  Its windows
  reproduce, over the new letters, exactly the window classes the old
  extension contributed;
* a fixed 29-letter connector over the six highest letters, covering the
  3-multisets that mix the old and new top trios;
* an interleaved filler that runs a descending counter m-3..1 against
  alternating two-letter prefixes, covering every 3-multiset with one letter
  from each of: the counter range, the old trio, the new trio.

Lead-in and lead-out letters of every segment are arranged so the seams and
the final wraparound contribute precisely the window classes unreachable
inside the segments.  Two connectors are frozen, one per parity of the
counter range: when its length is odd the filler's block boundaries land on
different window classes, and the second connector (the one a slot search
once found at every odd step, recorded as ``path=repaired``) closes the
books instead.  The construction searches nothing; the finished list is
verified once, by ``verify._emitted``, which makes it the returned word.
"""

from __future__ import annotations

from collections.abc import Sequence

from .core import CycleWord, Letter
from .verify import _emitted, _require_admissible

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


def _connector_letters(n: int) -> tuple[Letter, ...]:
    """The 29-letter connector for the step to [n], on its six highest letters."""
    pattern = _ODD_CONNECTOR_PATTERN if (n - 6) % 2 else _CONNECTOR_PATTERN
    return tuple(n - 6 + i for i in pattern)


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
    """Interleaved filler: three blocks of counter-against-pair alternation.

    Each block walks the counter n-6..1 while alternating two fixed prefix
    pairs, so every sliding window pairs the counter value with two adjacent
    prefix letters; across the three blocks each counter value meets all nine
    old/new trio letter combinations exactly once.  When the counter range
    has odd length the alternation is started on the opposite pair of each
    block, which keeps the final block's tail on the same two letters and
    thereby preserves the lead-out the wraparound needs.  Length is always
    9n - 47.
    """
    m1, m2, m3 = n - 5, n - 4, n - 3  # old top trio, mirrored by the step
    h1, h2, h3 = n - 2, n - 1, n  # new trio the step adds
    blocks = [((m2, h2), (m1, h3)), ((m1, h1), (m3, h2)), ((m3, h3), (m2, h1))]
    hi = n - 6
    out: list[Letter] = []
    for p, q in blocks:
        if hi % 2:
            p, q = q, p
        out.extend(_pair_block(p, q, hi))
    out.append(h2)
    return out


def _next_extension(extension: Sequence[Letter], m: int) -> list[Letter]:
    """The extension for the step to [m], built from the previous one over [m-3].

    The previous extension's top trio m-5, m-4, m-3 moves onto the new letters
    m-2, m-1, m (none of which occur in it), then the connector and the
    filler follow.
    """
    lift = {m - 5: m - 2, m - 4: m - 1, m - 3: m}
    out = list(map(lift.get, extension, extension))
    out.extend(_connector_letters(m))
    out.extend(_filler_letters(m))
    return out


def construct_inductive(n: int) -> CycleWord:
    """A verified universal cycle on the 3-multisets of [n], for n = 3k+1 >= 4
    (checked after ``verify._require_admissible``, the gate of every front)."""
    _require_admissible(n, 3, False)
    if n < 4 or n % 3 != 1:
        raise ValueError(
            f"the inductive path covers n = 3k+1 with n >= 4 only; "
            f"use doubling or search for n={n}"
        )
    letters = list(BASE_CYCLE_4)
    if n >= 7:
        extension = list(BASE_EXTENSION_7)
        for m in range(10, n + 1, 3):
            letters.extend(extension)
            extension = _next_extension(extension, m)
        letters.extend(extension)
    letters = tuple(letters)  # rebound, so the verifier reads the only copy
    return _emitted(n, letters, 3, False)


def provenance_report(n: int) -> str:
    """One line per growth step up to [n]: ``n=<m> path=<pattern|repaired>``.

    A step's path names the connector that closes it: ``repaired`` when
    m - 6 is odd, ``pattern`` otherwise.  The report is empty below n = 10,
    where the word is a seed.
    """
    return "".join(
        f"n={m} path={'repaired' if (m - 6) % 2 else 'pattern'}\n"
        for m in range(10, n + 1, 3)
    )
