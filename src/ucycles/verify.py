"""Admissibility tests and exact-coverage verification.

A cycle word is a universal cycle for the t-multisets (resp. t-subsets) of
``[n]`` when its cyclic windows enumerate every member of the family exactly
once.  Such a word exists only if n divides the family size, since every
letter must then occur equally often; the two ``admissible_*`` predicates
capture that divisibility.  The verifiers report the full evidence (missing
keys, duplicated keys, letter frequencies) rather than a bare boolean so that
callers can print actionable diagnostics.

Whether a word passes is decided in three steps, cheapest first:

1. its length: a word of any other length than the family's size fails;
2. its first letter's count: in a ucycle every letter occurs (family
   size)/n times, because each occurrence lies in t windows and, by
   symmetry, each letter fills t·(family size)/n of the window slots, so a
   word whose first letter occurs another number of times fails (when n
   does not divide the family size no count matches, and indeed no ucycle
   exists); one ``tuple.count`` is a fraction of the cost of the windows,
   and it rejects most random words of the right length;
3. its distinct windows: a word of the family's size with that many
   distinct windows, all members of the family, covers it exactly once.

The first two steps read no window.  The evidence is deferred: a verifier's
report computes ``missing``, ``duplicated`` and ``frequency_table`` from the
word when one is first read and keeps it (a passing word's ``missing`` and
``duplicated`` are empty from the start), so a caller that reads only ``ok``
pays for these steps and nothing more.
"""

from __future__ import annotations

import math
from collections import Counter
from dataclasses import dataclass
from itertools import combinations, combinations_with_replacement, filterfalse, islice

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

    A report built by a verifier decides ``ok`` from the word's length, its
    first letter's count and its distinct windows, and defers ``missing``,
    ``duplicated`` and ``frequency_table``: each is computed from the word
    and ``t`` on first access and then kept, so a second access returns the
    same object.  A passing word's ``missing`` and ``duplicated`` are ``()``
    from the start.  Either kind of report compares equal field by field to
    one constructed from its six values.
    """

    ok: bool
    expected_length: int
    actual_length: int
    missing: tuple[MultisetKey, ...]
    duplicated: tuple[tuple[MultisetKey, int], ...]
    frequency_table: dict[int, int]

    @classmethod
    def _deferred(cls, ok: bool, expected: int, word: CycleWord, t: int, distinct: bool) -> VerificationReport:
        """A verifier's report, its evidence left unset until read (see ``__getattr__``)."""
        report = object.__new__(cls)
        # straight into the instance dict: the frozen __setattr__ is bypassed
        # at a fraction of the cost of object.__setattr__
        fields = report.__dict__
        fields["ok"] = ok
        fields["expected_length"] = expected
        fields["actual_length"] = len(word)
        fields["_source"] = (word, t, distinct)
        if ok:
            fields["missing"] = fields["duplicated"] = ()
        return report

    def __getattr__(self, name: str):
        # Python calls this only for an attribute that is not set, which on a
        # verifier's report is a deferred field not yet read.
        if name == "frequency_table":
            object.__setattr__(self, name, _frequency_table(self._source[0]))
        elif name in ("missing", "duplicated"):
            self._detail(None)
        else:
            raise AttributeError(name)
        return self.__dict__[name]

    def _detail(self, limit: int | None) -> tuple[int, tuple[MultisetKey, ...]]:
        """The missing count and the first ``limit`` missing keys (all when None).

        Keeps ``duplicated``, and ``missing`` too when the keys found are all
        of them.
        """
        word, t, distinct = self._source
        count, missing, duplicated = _coverage_detail(word, t, distinct, self.expected_length, limit)
        kept = self.__dict__
        kept.setdefault("duplicated", duplicated)
        if len(missing) == count:
            kept.setdefault("missing", missing)
        return count, missing

    def as_text(self, max_items: int | None = None) -> str:
        if "missing" not in self.__dict__ and max_items is not None and max_items >= 0:
            # count the missing keys and walk the family only as far as shown
            missing_count, shown = self._detail(max_items)
        else:
            missing_count, shown = len(self.missing), self.missing[:max_items]
        duplicated = self.duplicated
        lines = [
            f"ok: {'true' if self.ok else 'false'}",
            f"expected_length: {self.expected_length}",
            f"actual_length: {self.actual_length}",
            f"missing_count: {missing_count}",
            f"duplicated_count: {len(duplicated)}",
        ]
        if missing_count:
            tail = "" if len(shown) == missing_count else f" (+{missing_count - len(shown)} more)"
            lines.append("missing: " + " ".join(_format_key(k) for k in shown) + tail)
        if duplicated:
            shown_d = duplicated if max_items is None else duplicated[:max_items]
            tail = "" if len(shown_d) == len(duplicated) else f" (+{len(duplicated) - len(shown_d)} more)"
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


def _coverage_detail(
    word: CycleWord, t: int, distinct: bool, expected: int, limit: int | None
) -> tuple[int, tuple[MultisetKey, ...], tuple[tuple[MultisetKey, int], ...]]:
    """Missing count, the first ``limit`` missing keys (all when None), duplicated keys.

    The count is arithmetic: every window is a t-multiset of [n], and in
    subset mode every window without a repeated letter is a t-subset, so the
    family members hit are the distinct windows less the invalid ones.  The
    family is walked in order only until ``limit`` keys are found.
    """
    n = word.alphabet_size
    counts = Counter(cyclic_windows(word, t)) if len(word) >= t else Counter()
    if distinct:
        family = combinations(range(1, n + 1), t)
        invalid = {k for k in counts if len(set(k)) < t}
    else:
        family = combinations_with_replacement(range(1, n + 1), t)
        invalid = set()
    duplicated = tuple(sorted((k, c) for k, c in counts.items() if c >= 2 or k in invalid))
    missing = tuple(islice(filterfalse(counts.__contains__, family), limit))
    return expected - len(counts) + len(invalid), missing, duplicated


def verify_multiset_ucycle(word: CycleWord, t: int) -> VerificationReport:
    """Check that the cyclic windows cover every t-multiset of [n] once.

    The decision runs in three steps, each cheaper than the next.  A word of
    another length than C(n+t-1, t) fails at once.  A word whose first
    letter does not occur C(n+t-1, t)/n times fails next, still without a
    window read: every letter of a ucycle occurs that often.  Otherwise,
    since every window of a :class:`CycleWord` is a t-multiset of [n], the
    word passes when it has that many distinct windows.  The family is
    walked only when a failing report's keys are read.
    """
    if t < 1:
        raise ValueError("window size must be positive")
    n = word.alphabet_size
    expected = math.comb(n + t - 1, t)
    letters = word.letters
    ok = (
        t <= len(letters) == expected
        and letters.count(letters[0]) * n == expected
        and len(dict.fromkeys(cyclic_windows(word, t))) == expected
    )
    return VerificationReport._deferred(ok, expected, word, t, False)


def verify_subset_ucycle(word: CycleWord, t: int) -> VerificationReport:
    """Check that the cyclic windows cover every t-subset of [n] once.

    Windows must additionally contain t distinct letters; offending windows
    are reported as duplicates of an invalid class.  The decision runs in
    the same order as for multisets: the length C(n, t), then the first
    letter's count C(n, t)/n, then a word with that many distinct windows,
    none repeating a letter, passes without a walk of the family.
    """
    if t < 1:
        raise ValueError("window size must be positive")
    n = word.alphabet_size
    expected = math.comb(n, t) if n >= t else 0
    letters = word.letters
    ok = False
    if t <= len(letters) == expected and letters.count(letters[0]) * n == expected:
        keys = dict.fromkeys(cyclic_windows(word, t))
        ok = len(keys) == expected and all(len(set(k)) == t for k in keys)
    return VerificationReport._deferred(ok, expected, word, t, True)
