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
input) must all appear among {x1,x2}, {x3,x4}, ...; a counting argument shows
they are pairwise disjoint, so such a permutation exists whenever the
endpoints cooperate.

Everything here works for even n not divisible by 3; odd alphabets have no
known pair-doubling route and are delegated to the search generator.
"""

from __future__ import annotations

from dataclasses import dataclass
from itertools import combinations

from .core import CycleWord, Letter, Pair, PairSet
from .searchgen import (
    DEFAULT_WITNESS_BUDGET,
    SearchConstraints,
    generate_subset_ucycle,
)
from .verify import (
    InadmissibleError,
    VerificationReport,
    verify_multiset_ucycle,
    verify_subset_ucycle,
)


class InfeasiblePermutation(RuntimeError):
    """No anchor permutation satisfies the endpoint constraints."""


class DoublingError(RuntimeError):
    """The assembled word failed verification (upstream constraint broke)."""

    def __init__(self, message: str, report: VerificationReport):
        super().__init__(message)
        self.report = report

    def __reduce__(self):
        return type(self), (self.args[0], self.report)


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
    first: dict[Pair, int] = {}
    present: set[Pair] = set()
    for i in range(k):
        u, v = ls[i], ls[(i + 1) % k]
        if u == v:
            raise ValueError("input is not a valid 3-subset ucycle: repeated adjacent letter")
        p = (u, v) if u < v else (v, u)
        present.add(p)
        if i < k - 1 and p not in first:
            first[p] = i
    missing = {p for p in combinations(range(1, n + 1), 2)} - present
    touched: set[Letter] = set()
    for u, v in sorted(missing):
        if u in touched or v in touched:
            raise ValueError(
                "input is not a valid 3-subset ucycle: missing pairs share a letter"
            )
        touched.update((u, v))
    return PairOccurrenceIndex(first, frozenset(present), frozenset(missing))


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

    def anchor_pairs(self) -> PairSet:
        """The odd-even pairs {x1,x2}, {x3,x4}, ... that must carry the missing pairs."""
        x = self.order
        return frozenset(
            (min(x[i], x[i + 1]), max(x[i], x[i + 1])) for i in range(0, len(x), 2)
        )


def choose_permutation(word: CycleWord, idx: PairOccurrenceIndex) -> AnchorPermutation:
    """Deterministic anchor permutation for ``word``.

    Constraints: x1 is the word's first character, xn its last, and the
    odd-even pairs cover every missing pair.  Missing pairs are kept intact;
    unmatched letters are paired ascending.  Among all feasible endpoint
    partner choices the lexicographically least sequence wins.
    """
    n = word.alphabet_size
    if n % 2:
        raise InfeasiblePermutation("anchor permutation needs an even alphabet")
    head, tail = word.letters[0], word.letters[-1]
    partner: dict[Letter, Letter] = {}
    for u, v in idx.missing:
        partner[u] = v
        partner[v] = u
    leftovers = [x for x in range(1, n + 1) if x not in partner]

    def assemble(head_mate: Letter | None, tail_mate: Letter | None) -> tuple[Letter, ...] | None:
        first_other = partner.get(head, head_mate)
        last_other = partner.get(tail, tail_mate)
        if first_other is None or last_other is None:
            return None
        ends = (head, first_other, tail, last_other)
        if len(set(ends)) != 4:
            return None
        consumed = set(ends)
        middle = [p for p in idx.missing if not (set(p) & consumed)]
        rest = [x for x in leftovers if x not in consumed]
        middle += [(rest[i], rest[i + 1]) for i in range(0, len(rest), 2)]
        middle.sort()
        seq = [head, first_other]
        for u, v in middle:
            seq.extend((u, v))
        seq.extend((last_other, tail))
        return tuple(seq)

    head_options: list[Letter | None]
    tail_options: list[Letter | None]
    head_options = [None] if head in partner else [x for x in leftovers if x not in (head, tail)]
    tail_options = [None] if tail in partner else [x for x in leftovers if x not in (head, tail)]
    candidates = []
    for hm in head_options:
        for tm in tail_options:
            if hm is not None and hm == tm:
                continue
            seq = assemble(hm, tm)
            if seq is not None:
                candidates.append(seq)
    if not candidates:
        raise InfeasiblePermutation(
            f"no anchor permutation fits endpoints {head},{tail} "
            f"with missing pairs {sorted(idx.missing)}"
        )
    return AnchorPermutation(min(candidates))


def double_pairs(word: CycleWord, perm: AnchorPermutation, idx: PairOccurrenceIndex) -> CycleWord:
    """Double the first occurrence of every present pair not exempted by ``perm``.

    Insertions run right to left so earlier first-occurrence positions stay
    valid; the pairs exempted are exactly the n chain pairs of the anchor.
    """
    chain = perm.chain_pairs()
    to_double = [p for p in idx.present if p not in chain]
    for p in to_double:
        if p not in idx.first_occurrence:
            raise ValueError(f"pair {p} is adjacent only at the wrap and cannot be doubled")
    out = list(word.letters)
    for p in sorted(to_double, key=lambda q: idx.first_occurrence[q], reverse=True):
        i = idx.first_occurrence[p]
        out[i + 2 : i + 2] = [word.letters[i], word.letters[i + 1]]
    return CycleWord(word.alphabet_size, tuple(out))


def append_triples(doubled: CycleWord, perm: AnchorPermutation) -> CycleWord:
    """Append x1 x1 x1 ... xn xn xn and verify the result as a 3-multiset ucycle."""
    suffix = tuple(x for x in perm.order for _ in range(3))
    result = CycleWord(doubled.alphabet_size, doubled.letters + suffix)
    report = verify_multiset_ucycle(result, 3)
    if not report.ok:
        raise DoublingError(
            "doubled word does not close into a 3-multiset ucycle", report
        )
    return result


def construct_doubling(
    n: int,
    subset_cycle: CycleWord | None = None,
    node_budget: int = DEFAULT_WITNESS_BUDGET,
) -> CycleWord:
    """A verified ucycle on the 3-multisets of [n] via pair doubling.

    Requires even n >= 8 with n not divisible by 3.  A 3-subset ucycle over
    [n] may be supplied; otherwise one is generated by search.  Either way the
    input is verified before use.
    """
    if n % 3 == 0:
        raise InadmissibleError(
            f"n={n} is divisible by 3, so n divides neither C({n},3) nor C({n}+2,3)"
        )
    if n % 2:
        raise ValueError(
            "pair doubling is defined for even alphabets only; "
            "use the search generator for odd n"
        )
    if n < 8:
        raise ValueError("pair doubling needs n >= 8")
    if subset_cycle is None:
        subset_cycle = generate_subset_ucycle(
            n, 3, SearchConstraints(node_budget=node_budget)
        )
    elif subset_cycle.alphabet_size != n:
        raise ValueError(
            f"supplied word is over [{subset_cycle.alphabet_size}], not [{n}]"
        )
    elif not verify_subset_ucycle(subset_cycle, 3).ok:
        raise ValueError("supplied word does not verify as a ucycle on 3-subsets")
    idx = pair_index(subset_cycle)
    perm = choose_permutation(subset_cycle, idx)
    return append_triples(double_pairs(subset_cycle, perm, idx), perm)
