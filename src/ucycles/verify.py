"""Admissibility tests and exact-coverage verification.

A cycle word is a universal cycle for the t-multisets (resp. t-subsets) of
``[n]`` when its cyclic windows enumerate every member of the family exactly
once.  Such a word exists only if n divides the family size, since every
letter must then occur equally often; the two ``admissible_*`` predicates
capture that divisibility.  The verifiers report the full evidence (missing
keys, duplicated keys, letter frequencies) rather than a bare boolean so that
callers can print actionable diagnostics.

Whether a word passes is decided in four steps, cheapest first:

1. its length: a word of any other length than the family's size fails;
2. its first letter's count: in a ucycle every letter occurs (family
   size)/n times, because each occurrence lies in t windows and, by
   symmetry, each letter fills t·(family size)/n of the window slots, so a
   word whose first letter occurs another number of times fails (when n
   does not divide the family size no count matches, and indeed no ucycle
   exists); one ``tuple.count`` is a fraction of the cost of the windows,
   and it rejects most random words of the right length;
3. its letter sum: since every letter occurs (family size)/n times, the
   letters of a ucycle sum to (family size)/n · n(n+1)/2, so a word whose
   doubled letter sum is not (family size)·(n+1) fails; one ``sum``
   rejects most of the words whose first letter's count happens to match;
4. its distinct windows: a word of the family's size with that many
   distinct windows, all members of the family, covers it exactly once.
   A window is read as an integer code, not a sorted tuple: letter x
   stands for the x-th prime (``_letter_primes``) and a window for the
   product of its letters' primes, so by unique factorization two windows
   share a code exactly when they are the same multiset.  The codes come
   from one table lookup over the word, its first t-1 letters repeated for
   the windows that wrap, then t-1 chained products with that tuple read
   from offsets 1..t-1, all in C and into one list (``_distinct_windows``);
   no rotated copy of the word is made.  The lookup relies on every letter
   lying in 1..n, which the :class:`CycleWord` constructor and ``_emitted`` check.

The first three steps read no window, and the evidence is deferred until it
is read (see :class:`VerificationReport`).  The evidence keeps the sorted
tuples of :func:`ucycles.core.cyclic_windows`.  One family size,
``_family_size``, serves both verifiers, the admissibility predicates and
the witness search, which also reads the prime table; ``_family`` walks the
family's keys only for a failing report's ``missing``.

One size bound, ``_wide``, serves the gate and the verifiers: a family
C(N, t) with min(t, N - t) >= 14 has at least C(28, 14) = 40 116 600
members.  The gate, ``_require_admissible``, refuses such a family before
computing its binomial, and a verifier fails a shorter word on it at the
length step, its report showing that bound until ``expected_length`` is
read.  Every other family is sized exactly, once.
"""

from __future__ import annotations

import math
from collections import Counter
from collections.abc import Iterator
from dataclasses import dataclass
from functools import lru_cache
from itertools import compress, filterfalse, islice
from operator import eq, itemgetter, mul

from .core import CycleWord, MultisetKey, cyclic_windows


class InadmissibleError(ValueError):
    """The requested (n, t) fails the divisibility requirement."""


def _family(n: int, t: int, distinct: bool) -> Iterator[MultisetKey]:
    """The t-subsets (``distinct``) or t-multisets of [n] as sorted keys, in
    ``itertools.combinations`` order but with no pool of n letters built, so
    a failing report can list its first ``missing`` keys on a huge alphabet."""
    step = int(distinct)  # a key's letters rise by at least this much
    key = [1 + i * step for i in range(t)]
    while True:
        # the keys that share key's first t-1 letters; then the rightmost of
        # those below its greatest value steps up, and the rest restart
        yield from map(tuple(key[:-1]).__add__, zip(range(key[-1], n + 1)))
        i = next((i for i in range(t - 2, -1, -1) if key[i] < n - (t - 1 - i) * step), -1)
        if i < 0:
            return
        key[i:] = [key[i] + 1 + j * step for j in range(t - i)]


def _family_size(n: int, t: int, distinct: bool) -> int:
    """C(n, t) t-subsets (``distinct``) or C(n+t-1, t) t-multisets of [n]."""
    return math.comb(n, t) if distinct else math.comb(n + t - 1, t)


@lru_cache(maxsize=16)
def _letter_primes(n: int) -> tuple[int, ...]:
    """Window-code factor of each letter, indexed by letter: 0, then the
    first n primes, so letter x stands for the x-th prime.

    The code of a t-window, the product of its letters' primes, is one-to-one
    on t-multisets of [n] by unique factorization.  Built on first use for
    each n and kept; a letter outside 1..n must never be looked up (0 codes
    as 0, and a negative index reads from the end).
    """
    limit = 16
    while True:
        sieve = bytearray([1]) * limit
        sieve[:2] = b"\0\0"
        for p in range(2, math.isqrt(limit - 1) + 1):
            if sieve[p]:
                sieve[p * p :: p] = bytes(len(range(p * p, limit, p)))
        primes = list(compress(range(limit), sieve))
        if len(primes) >= n:
            return (0, *primes[:n])
        limit *= 2


def _distinct_windows(letters: tuple[int, ...], n: int, t: int) -> int:
    """The number of distinct cyclic t-windows, as multisets, of letters in
    1..n (at least t of them), counted by their prime-product codes."""
    if len(letters) == 1:
        return 1  # and itemgetter of one index returns no tuple
    # the word's codes, then its first t-1 again for the windows that wrap,
    # so the window at i multiplies codes i..i+t-1 and no rotation is copied
    codes = itemgetter(*letters, *letters[: t - 1])(_letter_primes(n))
    windows = codes
    for d in range(1, t):
        windows = map(mul, windows, islice(codes, d, None))
    # each window code is made once, into one list, and the letter codes are
    # freed before the table is built; at n=100, the maps feeding the table
    # straight are slower
    windows = list(windows)
    del codes
    # a dict's table is smaller than a set's for as many keys, no slower
    return len(dict.fromkeys(windows))


def _checked_size(n: int, t: int, distinct: bool) -> int:
    """The family size, once n and t pass the refusals the predicates and the
    gate share: n or t below 1, then n below t for subsets."""
    if n < 1 or t < 1:
        raise ValueError("n and t must be positive")
    if distinct and n < t:
        raise ValueError("subsets need n >= t")
    return _family_size(n, t, distinct)


def admissible_multiset(n: int, t: int) -> bool:
    """True when n divides C(n+t-1, t), the number of t-multisets of [n]."""
    return _checked_size(n, t, False) % n == 0


def admissible_subset(n: int, t: int) -> bool:
    """True when n divides C(n, t), the number of t-subsets of [n]."""
    return _checked_size(n, t, True) % n == 0


# The longest word any front builds or searches over: about 2 GB at 100 bytes
# a letter (gen --n 490 --t 3 peaks at 1 889 MB).  The letter search's set-up
# (traced at t=2, n=1001 and 2001) takes about 106 bytes a letter for subsets,
# which keep their family's codes, and about 40 for multisets, which keep only
# per-position lists, so a search at the limit needs about 2.1 GB for subsets
# and 0.8 GB for multisets.  It admits t=2 n <= 6324, t=3 n <= 492 and
# t=4 n <= 146; a subset search near it still runs out of 1 GB, as
# generate_subset_ucycle(6323, 2) does.
MAX_LETTERS = 20_000_000


# Every C(N, t) with min(t, N - t) >= 14 is at least C(28, 14), above
# MAX_LETTERS: the one size bound, by which the gate refuses such a family
# and a verifier fails a shorter word on it, with no binomial computed.
_WIDE_FLOOR = math.comb(28, 14)


def _wide(n: int, t: int, distinct: bool) -> bool:
    """True when the family is at least ``_WIDE_FLOOR`` long by the bound."""
    return min(t, (n if distinct else n + t - 1) - t) >= 14


def _require_admissible(n: int, t: int, distinct: bool) -> int:
    """The family size when n divides it (else ``InadmissibleError``) and it is
    at most ``MAX_LETTERS`` (else ``ValueError``): every front is refused here.
    A family the one shared bound, ``_wide``, puts at ``_WIDE_FLOOR`` members
    or more is refused before its binomial is computed; any other is sized
    once, and n's divisibility is tested on that size."""
    if _wide(n, t, distinct):
        raise ValueError(
            f"n={n} t={t} asks for a word of at least {_WIDE_FLOOR} letters; the limit is {MAX_LETTERS}"
        )
    k = _checked_size(n, t, distinct)
    if k % n:
        raise InadmissibleError(f"{n} does not divide C({n if distinct else n + t - 1},{t})")
    if k > MAX_LETTERS:
        raise ValueError(f"n={n} t={t} asks for a word of {k} letters; the limit is {MAX_LETTERS}")
    return k


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
    first letter's count, its letter sum and its distinct windows, and
    defers ``missing``, ``duplicated`` and ``frequency_table``: each is
    computed on first access and then kept, so a second access returns the
    same object.  A passing word's ``missing`` and ``duplicated`` are ``()``
    from the start, and its ``frequency_table`` gives every letter (family
    size)/n without reading the word; a failing word's evidence is computed
    from the word and ``t``.  A report on a family the shared bound
    (``_wide``) puts above the word's length defers ``expected_length`` too:
    the word fails its length step unsized, and reading the field computes
    the exact size.
    Either kind of report compares equal field by field to one constructed
    from its six values.

    ``as_text`` is bounded by the word: when n exceeds its length, the
    ``frequency:`` line lists the letters that occur, then ``(+K absent)``;
    when it is shorter than t, no missing key is listed.  An unsized family
    is shown by its bound: ``expected_length: at least 40116600``, and the
    missing count that follows from it, each one ``at least``.
    """

    ok: bool
    expected_length: int
    actual_length: int
    missing: tuple[MultisetKey, ...]
    duplicated: tuple[tuple[MultisetKey, int], ...]
    frequency_table: dict[int, int]

    @classmethod
    def _deferred(cls, ok: bool, expected: int | None, word: CycleWord, t: int, distinct: bool) -> VerificationReport:
        """A verifier's report, its evidence (and ``expected_length`` when
        ``expected`` is None) left unset until read (see ``__getattr__``)."""
        report = object.__new__(cls)
        # straight into the instance dict: the frozen __setattr__ is bypassed
        # at a fraction of the cost of object.__setattr__
        fields = report.__dict__
        fields["ok"] = ok
        if expected is not None:
            fields["expected_length"] = expected
        fields["actual_length"] = len(word.letters)
        fields["_source"] = (word, t, distinct)
        if ok:
            fields["missing"] = fields["duplicated"] = ()
        return report

    def __getattr__(self, name: str):
        # Python calls this only for an attribute that is not set, which on a
        # verifier's report is a deferred field not yet read.
        if name == "frequency_table":
            word = self._source[0]
            if self.ok:
                # every letter of a ucycle occurs (family size)/n times
                n = word.alphabet_size
                table = dict.fromkeys(range(1, n + 1), self.expected_length // n)
            else:
                table = _frequency_table(word)
            object.__setattr__(self, name, table)
        elif name in ("missing", "duplicated"):
            # duplicated keys come from the windows alone: walk no family
            self._detail(None if name == "missing" else 0)
        elif name == "expected_length":
            word, t, distinct = self._source
            object.__setattr__(self, name, _family_size(word.alphabet_size, t, distinct))
        else:
            raise AttributeError(name)
        return self.__dict__[name]

    def _detail(self, limit: int | None) -> tuple[int, tuple[MultisetKey, ...]]:
        """The number of family members hit and the first ``limit`` missing
        keys (all when None).

        Keeps ``duplicated``, and ``missing`` too when the walk of the family
        ends before ``limit`` keys are found.  The count is arithmetic: every
        window is a t-multiset of [n], and in subset mode every window without
        a repeated letter is a t-subset, so the family members hit are the
        distinct windows less the invalid ones.  The family is walked in order
        only until ``limit`` keys are found.
        """
        word, t, distinct = self._source
        counts = Counter(cyclic_windows(word, t)) if len(word) >= t else Counter()
        invalid = {k for k in counts if len(set(k)) < t} if distinct else set()
        kept = self.__dict__
        kept.setdefault("duplicated", tuple(sorted((k, c) for k, c in counts.items() if c >= 2 or k in invalid)))
        family = _family(word.alphabet_size, t, distinct)
        missing = tuple(islice(filterfalse(counts.__contains__, family), limit))
        if limit is None or len(missing) < limit:
            kept.setdefault("missing", missing)
        return len(counts) - len(invalid), missing

    def as_text(self, max_items: int | None = None) -> str:
        source = self.__dict__.get("_source")
        t = source[1] if source else len(self.missing[0]) if self.missing else 0
        # a word shorter than t has no windows: every key is missing, none listed
        short = self.actual_length < t
        limit = 0 if short else max_items
        # an unsized family is shown by its bound, and so is what follows from it
        sized = "expected_length" in self.__dict__
        expected, at_least = (self.expected_length, "") if sized else (_WIDE_FLOOR, "at least ")
        if "missing" not in self.__dict__ and limit is not None and limit >= 0:
            # count the missing keys and walk the family only as far as shown
            hit, shown = self._detail(limit)
            missing_count, bound = expected - hit, at_least
        else:
            missing_count, bound, shown = len(self.missing), "", self.missing[:limit]
        duplicated = self.duplicated
        lines = [
            f"ok: {'true' if self.ok else 'false'}",
            f"expected_length: {at_least}{expected}",
            f"actual_length: {self.actual_length}",
            f"missing_count: {bound}{missing_count}",
            f"duplicated_count: {len(duplicated)}",
        ]
        if missing_count and not short:
            lines.append("missing: " + _listed(map(_format_key, shown), missing_count - len(shown), bound))
        if duplicated:
            shown_d = duplicated if max_items is None else duplicated[:max_items]
            items = (f"{_format_key(k)}x{c}" for k, c in shown_d)
            lines.append("duplicated: " + _listed(items, len(duplicated) - len(shown_d), ""))
        n = source[0].alphabet_size if source else len(self.frequency_table)
        # n above the word's length: list the letters that occur, counted
        # (bools as ints) without a table over [n]
        wide = n > self.actual_length
        table = Counter(map(int, source[0].letters)) if wide and source else self.frequency_table
        counts = sorted((letter, count) for letter, count in table.items() if count or not wide)
        tail = f" (+{n - len(counts)} absent)" if wide else ""
        lines.append("frequency: " + " ".join(f"{letter}={count}" for letter, count in counts) + tail)
        return "\n".join(lines)


def _listed(items: Iterator[str], more: int, bound: str) -> str:
    """The items shown, then ``(+more more)``, ``bound`` before ``more``, when
    some are not, one space apart."""
    return " ".join([*items, f"(+{bound}{more} more)"] if more else items)


def _frequency_table(word: CycleWord) -> dict[int, int]:
    counts = Counter(word.letters)
    return {letter: counts.get(letter, 0) for letter in range(1, word.alphabet_size + 1)}


def _verify(word: CycleWord, t: int, distinct: bool) -> VerificationReport:
    """The four steps both verifiers share, for the family ``_family`` names."""
    if t < 1:
        raise ValueError("window size must be positive")
    n = word.alphabet_size
    letters = word.letters
    # by the gate's bound, a word shorter than _WIDE_FLOOR fails its length
    # step on a wide family, left unsized; t >= 14 is tested first, so a
    # narrower window pays one comparison
    if t >= 14 and _wide(n, t, distinct) and len(letters) < _WIDE_FLOOR:
        return VerificationReport._deferred(False, None, word, t, distinct)
    expected = _family_size(n, t, distinct)
    ok = (
        t <= len(letters) == expected
        and letters.count(letters[0]) * n == expected
        and 2 * sum(letters) == expected * (n + 1)
        and _distinct_windows(letters, n, t) == expected
        # a window repeats a letter exactly when two letters fewer than t
        # apart, cyclically, are equal
        and not (distinct and any(any(map(eq, letters, letters[d:] + letters[:d])) for d in range(1, t)))
    )
    return VerificationReport._deferred(ok, expected, word, t, distinct)


def verify_multiset_ucycle(word: CycleWord, t: int) -> VerificationReport:
    """Check that the cyclic windows cover every t-multiset of [n] once.

    The decision runs in four steps, each cheaper than the next.  A word of
    another length than C(n+t-1, t) fails at once.  A word whose first
    letter does not occur C(n+t-1, t)/n times fails next, still without a
    window read: every letter of a ucycle occurs that often.  So does a
    word whose letters do not sum to C(n+t-1, t)·(n+1)/2, which is what
    letters 1..n, each that often, sum to.  Otherwise,
    since every window of a :class:`CycleWord` is a t-multiset of [n], the
    word passes when it has that many distinct windows, told apart by their
    prime-product codes (letter x stands for the x-th prime, a window for
    the product).  The family is walked only when a failing report's keys
    are read.
    """
    return _verify(word, t, False)


def verify_subset_ucycle(word: CycleWord, t: int) -> VerificationReport:
    """Check that the cyclic windows cover every t-subset of [n] once.

    Windows must additionally contain t distinct letters; offending windows
    are reported as duplicates of an invalid class.  The decision runs in
    the same four steps as for multisets: the length C(n, t), then the
    first letter's count C(n, t)/n, then the letter sum C(n, t)·(n+1)/2,
    then a word with that many distinct windows (by their prime-product
    codes), none repeating a letter, passes without a walk of the family.
    """
    return _verify(word, t, True)


def _emitted(n: int, letters: tuple[int, ...], t: int, distinct: bool) -> CycleWord:
    """The word a construction or the search built from ``letters``, a
    non-empty tuple over [n], once they lie in 1..n and verify on their
    family; else it is the library's bug, an ``AssertionError``.

    The verifier is this module's global, looked up at call time, so a
    wrapper installed on ``ucycles.verify`` sees every route's check.
    """
    if not (min(letters) >= 1 and max(letters) <= n):
        raise AssertionError(f"emitted letter out of range 1..{n}")
    word = CycleWord._trusted(n, letters)
    if not (verify_subset_ucycle if distinct else verify_multiset_ucycle)(word, t).ok:
        raise AssertionError("emitted word failed verification")
    return word
