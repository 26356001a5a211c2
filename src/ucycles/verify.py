"""Admissibility tests and exact-coverage verification.

A cycle word is a universal cycle for the t-multisets (resp. t-subsets) of
``[n]`` when its cyclic windows enumerate every member of the family exactly
once.  Such a word exists only if n divides the family size, since every
letter must then occur equally often; the two ``admissible_*`` predicates
capture that divisibility.  The verifiers report the full evidence (missing
keys, duplicated keys, letter frequencies) rather than a bare boolean so that
callers can print actionable diagnostics.

Whether a word passes is decided by counting its distinct windows; the
family is walked, and the missing and duplicated keys collected, only for a
word that fails.
"""

from __future__ import annotations

import math
from collections import Counter
from dataclasses import dataclass
from itertools import combinations, combinations_with_replacement, filterfalse

from .core import CycleWord, MultisetKey, cyclic_windows


class InadmissibleError(ValueError):
    """The requested (n, t) fails the divisibility requirement."""


def admissible_multiset(n: int, t: int) -> bool:
    """True when n divides C(n+t-1, t), the number of t-multisets of [n]."""
    if n < 1 or t < 1:
        raise ValueError("n and t must be positive")
    return math.comb(n + t - 1, t) % n == 0


def admissible_subset(n: int, t: int) -> bool:
    """True when n divides C(n, t), the number of t-subsets of [n]."""
    if n < 1 or t < 1:
        raise ValueError("n and t must be positive")
    if n < t:
        raise ValueError("subsets need n >= t")
    return math.comb(n, t) % n == 0


def _format_key(key: MultisetKey) -> str:
    return "{" + ",".join(map(str, key)) + "}"


@dataclass(frozen=True)
class VerificationReport:
    """Outcome of an exact-coverage check.

    ``ok`` holds exactly when the word has the expected length, nothing is
    missing and nothing is duplicated.  In subset mode, windows containing a
    repeated letter are listed under ``duplicated`` (with whatever
    multiplicity they have, possibly 1) since they can never be legal; their
    presence forces ``ok`` to be false.  ``frequency_table`` counts every
    letter of the alphabet, including absent ones, and sums to
    ``actual_length``.
    """

    ok: bool
    expected_length: int
    actual_length: int
    missing: tuple[MultisetKey, ...]
    duplicated: tuple[tuple[MultisetKey, int], ...]
    frequency_table: dict[int, int]

    def as_text(self, max_items: int | None = None) -> str:
        lines = [
            f"ok: {'true' if self.ok else 'false'}",
            f"expected_length: {self.expected_length}",
            f"actual_length: {self.actual_length}",
            f"missing_count: {len(self.missing)}",
            f"duplicated_count: {len(self.duplicated)}",
        ]
        if self.missing:
            shown = self.missing if max_items is None else self.missing[:max_items]
            tail = "" if len(shown) == len(self.missing) else f" (+{len(self.missing) - len(shown)} more)"
            lines.append("missing: " + " ".join(_format_key(k) for k in shown) + tail)
        if self.duplicated:
            shown_d = self.duplicated if max_items is None else self.duplicated[:max_items]
            tail = "" if len(shown_d) == len(self.duplicated) else f" (+{len(self.duplicated) - len(shown_d)} more)"
            lines.append(
                "duplicated: "
                + " ".join(f"{_format_key(k)}x{c}" for k, c in shown_d)
                + tail
            )
        lines.append(
            "frequency: " + " ".join(f"{letter}={count}" for letter, count in sorted(self.frequency_table.items()))
        )
        return "\n".join(lines)


def _frequency_table(word: CycleWord) -> dict[int, int]:
    counts = Counter(word.letters)
    return {letter: counts.get(letter, 0) for letter in range(1, word.alphabet_size + 1)}


def _report(
    word: CycleWord,
    expected: int,
    missing: tuple[MultisetKey, ...],
    duplicated: tuple[tuple[MultisetKey, int], ...],
) -> VerificationReport:
    return VerificationReport(
        ok=len(word) == expected and not missing and not duplicated,
        expected_length=expected,
        actual_length=len(word),
        missing=missing,
        duplicated=duplicated,
        frequency_table=_frequency_table(word),
    )


def verify_multiset_ucycle(word: CycleWord, t: int) -> VerificationReport:
    """Check that the cyclic windows cover every t-multiset of [n] once.

    Every window of a :class:`CycleWord` is a t-multiset of [n], so a word of
    the expected length with that many distinct windows covers the family
    exactly once; the family itself is walked only to list what a failing
    word misses.
    """
    if t < 1:
        raise ValueError("window size must be positive")
    n = word.alphabet_size
    expected = math.comb(n + t - 1, t)
    family = combinations_with_replacement(range(1, n + 1), t)
    if len(word) < t:
        return _report(word, expected, tuple(family), ())
    counts = Counter(cyclic_windows(word, t))
    if len(word) == expected == len(counts):
        return _report(word, expected, (), ())
    missing = tuple(filterfalse(counts.__contains__, family))
    duplicated = tuple(sorted((k, c) for k, c in counts.items() if c >= 2))
    return _report(word, expected, missing, duplicated)


def verify_subset_ucycle(word: CycleWord, t: int) -> VerificationReport:
    """Check that the cyclic windows cover every t-subset of [n] once.

    Windows must additionally contain t distinct letters; offending windows
    are reported as duplicates of an invalid class.  As for multisets, a word
    of length C(n, t) with that many distinct windows, none repeating a
    letter, passes without a walk of the family.
    """
    if t < 1:
        raise ValueError("window size must be positive")
    n = word.alphabet_size
    expected = math.comb(n, t) if n >= t else 0
    family = combinations(range(1, n + 1), t)
    if len(word) < t:
        return _report(word, expected, tuple(family), ())
    counts = Counter(cyclic_windows(word, t))
    if len(word) == expected == len(counts) and all(len(set(k)) == t for k in counts):
        return _report(word, expected, (), ())
    invalid = {k: c for k, c in counts.items() if len(set(k)) < t}
    valid_dups = {k: c for k, c in counts.items() if len(set(k)) == t and c >= 2}
    missing = tuple(filterfalse(counts.__contains__, family))
    duplicated = tuple(sorted({**invalid, **valid_dups}.items()))
    return _report(word, expected, missing, duplicated)
