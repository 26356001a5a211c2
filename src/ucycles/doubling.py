"""Pair doubling: turning subset universal cycles into multiset ones.

The windows of a ucycle on 3-subsets of [n] already cover every 3-multiset
with three distinct letters.  The remaining multisets split into two families:
{a,a,b}-shaped ones (two distinct letters) and {a,a,a}-shaped ones.  Doubling
an adjacent pair a,b in place (a b -> a b a b) adds exactly the windows
{a,a,b} and {a,b,b} and nothing else, so doubling one occurrence of every
unordered pair covers the first family; a suffix of letter triples covers the
second.  The bookkeeping that makes both ends meet is an anchor permutation
x1..xn: pairs consecutive in it (cyclically) are exempted from doubling, and
its triples x1 x1 x1 ... xn xn xn form the suffix, whose seams then contribute
the exempted pairs' multisets instead.  Missing pairs (never adjacent in the
input) must all appear among {x1,x2}, {x3,x4}, ...; they are pairwise
disjoint, since if a letter x had two missing partners y and y', the window
holding {x, y, y'} would put x next to one of them.  So such a permutation
exists whenever the endpoints cooperate.

Everything here works for even n not divisible by 3; odd alphabets have no
known pair-doubling route and are delegated to the search generator.
"""

from __future__ import annotations

from dataclasses import dataclass
from itertools import chain, combinations
from operator import eq

from .core import CycleWord, Letter, Pair, PairSet
from .euler import _euler_block3
from .verify import _emitted, _require_admissible, verify_subset_ucycle


class InfeasiblePermutation(RuntimeError):
    """No anchor permutation satisfies the endpoint constraints."""


@dataclass(frozen=True)
class PairOccurrenceIndex:
    """Adjacency facts about a 3-subset ucycle.

    ``present`` pairs are adjacent somewhere, the wraparound included;
    ``first_occurrence`` maps each pair with a linear adjacency to the
    position of its first one (characters i, i+1, no wrap).  The only pair
    that can be adjacent solely at the wrap is {last, first}, which doubling
    always exempts, so every pair eligible for doubling has a linear home.
    """

    first_occurrence: dict[Pair, int]
    present: PairSet
    missing: PairSet


def pair_index(word: CycleWord) -> PairOccurrenceIndex:
    """Scan adjacencies and check the missing pairs form a partial matching."""
    ls = word.letters
    k = len(ls)
    n = word.alphabet_size
    if any(map(eq, ls, ls[1:] + ls[:1])):
        raise ValueError("input is not a valid 3-subset ucycle: repeated adjacent letter")
    first: dict[Pair, int] = {}
    for i, u, v in zip(range(k - 1), ls, ls[1:]):
        first.setdefault((u, v) if u < v else (v, u), i)
    u, v = ls[-1], ls[0]
    present = frozenset(first) | {(u, v) if u < v else (v, u)}
    missing = frozenset(combinations(range(1, n + 1), 2)) - present
    touched: set[Letter] = set()
    for u, v in sorted(missing):
        if u in touched or v in touched:
            raise ValueError(
                "input is not a valid 3-subset ucycle: missing pairs share a letter"
            )
        touched.update((u, v))
    return PairOccurrenceIndex(first, present, missing)


@dataclass(frozen=True)
class AnchorPermutation:
    """Permutation x1..xn steering which pairs are exempt from doubling."""

    order: tuple[Letter, ...]

    def __post_init__(self) -> None:
        n = len(self.order)
        if sorted(self.order) != list(range(1, n + 1)):
            raise ValueError("anchor order must be a permutation of 1..n")
        if n % 2:
            raise ValueError("anchor permutation needs an even alphabet")

    def chain_pairs(self) -> PairSet:
        """The n exempted pairs: consecutive in the order, wraparound included."""
        x = self.order
        n = len(x)
        out = set()
        for i in range(n):
            u, v = x[i], x[(i + 1) % n]
            out.add((u, v) if u < v else (v, u))
        return frozenset(out)


def choose_permutation(word: CycleWord, idx: PairOccurrenceIndex) -> AnchorPermutation:
    """The lexicographically least anchor permutation for ``word``.

    Constraints: x1 is the word's first character, xn its last, and the
    odd-even pairs cover every missing pair.  Call a letter free when it is
    in no missing pair and is neither end.  x2 is the head's missing partner,
    else the least free letter; x(n-1) is the tail's missing partner, else
    the greatest free letter other than x2.  The middle is the sorted list of
    the missing pairs that touch no end and the other free letters paired
    ascending.  This is the least sequence: x2 is compared first, and once it
    is fixed, the greatest free letter for x(n-1) leaves every remaining pair
    no larger, component by component, than any other choice would.
    """
    n = word.alphabet_size
    if n % 2:
        raise InfeasiblePermutation("anchor permutation needs an even alphabet")
    head, tail = word.letters[0], word.letters[-1]
    partner: dict[Letter, Letter] = {}
    for u, v in idx.missing:
        partner[u] = v
        partner[v] = u
    free = [x for x in range(1, n + 1) if x not in partner and x not in (head, tail)]
    second = partner.get(head, free[0] if free else None)
    penult = partner.get(tail, next((x for x in reversed(free) if x != second), None))
    ends = {head, second, penult, tail}
    if second is None or penult is None or len(ends) != 4:
        raise InfeasiblePermutation(
            f"no anchor permutation fits endpoints {head},{tail} "
            f"with missing pairs {sorted(idx.missing)}"
        )
    rest = [x for x in free if x not in ends]
    middle = [p for p in idx.missing if p[0] not in ends and p[1] not in ends]
    middle += zip(rest[::2], rest[1::2])
    middle.sort()
    return AnchorPermutation((head, second, *chain.from_iterable(middle), penult, tail))


def double_pairs(word: CycleWord, perm: AnchorPermutation, idx: PairOccurrenceIndex) -> CycleWord:
    """Double the first occurrence of every present pair not exempted by ``perm``.

    The pairs exempted are exactly the n chain pairs of the anchor.  One
    forward pass copies the word and writes l[i], l[i+1] again right after
    l[i+1] for each first-occurrence position i of a pair to double.  The
    result is unchecked: its letters are copies of the word's.
    """
    starts = []
    for p in idx.present - perm.chain_pairs():
        if p not in idx.first_occurrence:
            raise ValueError(f"pair {p} is adjacent only at the wrap and cannot be doubled")
        starts.append(idx.first_occurrence[p])
    ls = word.letters
    out: list[Letter] = []
    done = 0
    for i in sorted(starts):
        out += ls[done : i + 2] + ls[i : i + 2]
        done = i + 2
    out += ls[done:]
    return CycleWord._trusted(word.alphabet_size, tuple(out))


def append_triples(doubled: CycleWord, perm: AnchorPermutation) -> CycleWord:
    """Append x1 x1 x1 ... xn xn xn, building the result once and returning
    it through ``verify._emitted``: a result that is no 3-multiset ucycle
    raises ``AssertionError``."""
    triples = (x for x in perm.order for _ in range(3))
    return _emitted(CycleWord(doubled.alphabet_size, (*doubled.letters, *triples)), 3, False)


def construct_doubling(n: int, subset_cycle: CycleWord | None = None) -> CycleWord:
    """A verified ucycle on the 3-multisets of [n] via pair doubling.

    Requires even n >= 8 with n not divisible by 3 (``InadmissibleError``
    from ``verify._require_admissible`` otherwise).  A 3-subset ucycle over
    [n] may be supplied, and is verified before use.  Otherwise the subset
    word is the shift-unrolled Euler block (``euler._euler_block3``), the word
    ``generate_subset_ucycle(n, 3)`` returns; it searches nothing and is
    checked only through the result's single verification, in
    ``append_triples``.  A supplied word that fails raises ``ValueError``; a
    result that fails is the library's bug and raises ``AssertionError``.
    """
    _require_admissible(n, 3, False)
    if n % 2:
        raise ValueError(
            "pair doubling is defined for even alphabets only; "
            "use the search generator for odd n"
        )
    if n < 8:
        raise ValueError("pair doubling needs n >= 8")
    if subset_cycle is None:
        letters = _euler_block3(n, True)
        if letters is None:
            raise AssertionError(f"no Euler block for 3-subsets of [{n}]")
        # in range by construction; the result's checked constructor and its
        # verification cover these letters
        subset_cycle = CycleWord._trusted(n, letters)
    elif subset_cycle.alphabet_size != n:
        raise ValueError(
            f"supplied word is over [{subset_cycle.alphabet_size}], not [{n}]"
        )
    elif not verify_subset_ucycle(subset_cycle, 3).ok:
        raise ValueError("supplied word does not verify as a ucycle on 3-subsets")
    idx = pair_index(subset_cycle)
    perm = choose_permutation(subset_cycle, idx)
    return append_triples(double_pairs(subset_cycle, perm, idx), perm)
