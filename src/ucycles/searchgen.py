"""Witness search and counting.

The backtracking engine solves one kind of exact-cover problem: place letters
so that every window lands on a distinct member of the t-subsets or
t-multisets of [n] (the families ``verify`` defines) and the whole family is
consumed, wrap windows included.  Unconstrained t=3 requests first try the
Euler construction of ``euler`` (see ``_find_ucycle``).

The witness search is one depth-first pass that tries letters in ascending
order.  It prunes only by the pinned positions, by each letter's count
((family size)/n, forced by the family) and, when the only pins are an
anchor at the front (unpinned requests and counting branches), by
first-occurrence order of the letters.  For t=2 a ucycle is an Euler circuit
of the complete graph on [n] (with loops for multisets), and the ascending
pass finds one at once.  Windows are held as integer codes, not sorted
tuples (see ``_CoverSearch``).

Counting can spread its branches over a process pool.  The pool is imported
on the first call that asks for workers, not with this module, so importing
the package or the CLI loads neither ``concurrent.futures`` nor
``multiprocessing``.

Everything is deterministic: identical inputs always yield identical outputs
and node counts.  A node is one attempted letter placement; searches stop
with an error when the node budget runs out.
"""

from __future__ import annotations

import math
from dataclasses import dataclass
from typing import Iterator

from .core import CycleWord, Letter, canonicalize
from .euler import _euler_block3
from .verify import (
    InadmissibleError,
    _emitted,
    _family,
    _family_size,
    _letter_primes,
    admissible_multiset,
    admissible_subset,
)

DEFAULT_WITNESS_BUDGET = 10_000_000
DEFAULT_COUNT_BUDGET = 100_000_000


class SearchBudgetExceeded(RuntimeError):
    """The node budget ran out before the search finished."""

    def __init__(self, message: str, nodes: int):
        super().__init__(message)
        self.nodes = nodes

    def __reduce__(self):
        return type(self), (self.args[0], self.nodes)


class SearchInfeasible(RuntimeError):
    """The search space was exhausted without finding a word."""


@dataclass(frozen=True)
class SearchConstraints:
    """Optional constraints for witness searches."""

    required_prefix: tuple[Letter, ...] = ()
    required_suffix: tuple[Letter, ...] = ()
    node_budget: int = DEFAULT_WITNESS_BUDGET


class _CoverSearch:
    """DFS over words whose cyclic t-windows cover ``verify._family(n, t, distinct)``.

    Every letter occurs (family size)/n times, so when n does not divide
    the family size there is no word.

    ``fixed`` pins letters at given positions (prefixes, suffixes, anchors).
    ``solutions()`` yields complete words in lexicographic order of the free
    positions; ``self.nodes`` counts attempted placements and is up to date
    at each yield and once the generator ends, runs out of budget or is
    closed.

    The family and the windows already used are sets of integer codes, the
    verifier's: letter x stands for the x-th prime (``verify._letter_primes``)
    and a window's code is the product of its letters' primes (read from a
    per-position list kept next to the word), one-to-one on t-multisets by
    unique factorization.  A window that repeats a letter has no code among
    the subsets and is refused like any other window off the family.
    """

    def __init__(
        self,
        n: int,
        t: int,
        distinct: bool,
        fixed: dict[int, Letter],
        node_budget: int | None,
        relabel_symmetric: bool = False,
    ):
        self.n = n
        self.t = t
        self.distinct = distinct
        self.k = _family_size(n, t, distinct)
        self.fixed = dict(fixed)
        self.node_budget = node_budget
        # The family is closed under letter permutation, so this is valid
        # when pinning does not break first-occurrence order: the pins must
        # be a leading prefix (possibly empty) whose letters already appear
        # in first-occurrence order, such as a rotation anchor 1..1 or
        # 1..1 2 x.
        # Then some witness introduces letters in first-occurrence order, so
        # children above max_used+1 can be skipped, where max_used starts at
        # the prefix's largest letter.
        prefix = [self.fixed.get(i) for i in range(len(self.fixed))]
        ordered = None not in prefix and all(
            v <= max(prefix[:i], default=0) + 1 for i, v in enumerate(prefix)
        )
        self.relabel_symmetric = relabel_symmetric and ordered
        self.prefix_max = max(prefix, default=0) if ordered else 0
        self.nodes = 0

    def solutions(self) -> Iterator[tuple[Letter, ...]]:
        n, t, k = self.n, self.t, self.k
        word: list[Letter] = [0] * k
        for p, v in self.fixed.items():
            word[p] = v
        free = [p for p in range(k) if p not in self.fixed]
        free_set = set(free)

        # By symmetry every letter fills t·k/n window slots, and each of its
        # positions feeds exactly t windows: it occurs k/n times.
        if k % n:
            return
        bound = k // n
        counts = [0] * (n + 1)
        for v in self.fixed.values():
            counts[v] += 1
        if max(counts) > bound:
            return

        # a window's code is the product of its letters' primes; pr[p] is
        # the prime of the letter at position p (0 while p is free)
        prime = _letter_primes(n)
        prod = math.prod
        pr = [prime[v] for v in word]
        target = {prod(map(prime.__getitem__, key)) for key in _family(n, t, self.distinct)}

        # Window j covers positions j..j+t-1 (mod k).  It is checked at the
        # moment its last free position (in ascending fill order) is placed;
        # fully pinned windows are checked up front.
        trigger: list[list[tuple[int, ...]]] = [[] for _ in range(k)]
        used: set[int] = set()
        for j in range(k):
            poss = tuple((j + i) % k for i in range(t))
            fr = [p for p in poss if p in free_set]
            if fr:
                trigger[max(fr)].append(poss)
            else:
                code = prod(map(pr.__getitem__, poss))
                if code not in target or code in used:
                    return
                used.add(code)

        if not free:
            yield tuple(word)
            return

        m = len(free)
        nxt = [1] * m  # next letter to try at each depth
        added: list[list[int]] = [[] for _ in range(m)]
        maxu = [0] * m
        symmetric = self.relabel_symmetric
        budget = self.node_budget
        # the pinned prefix already introduced letters 1..prefix_max before
        # any free position, so first-occurrence order starts above them
        base_prev = self.prefix_max
        # counted in a local and written back before each yield and on the
        # way out (exhausted, out of budget or closed), where callers read it
        nodes = self.nodes
        d = 0
        try:
            while d >= 0:
                p = free[d]
                if symmetric:
                    prev = maxu[d - 1] if d else base_prev
                    cap = prev + 1 if prev < n else n
                else:
                    prev = 0
                    cap = n
                windows = trigger[p]
                for letter in range(nxt[d], cap + 1):
                    nodes += 1
                    if budget is not None and nodes > budget:
                        raise SearchBudgetExceeded(
                            f"node budget {budget} exhausted", nodes
                        )
                    if counts[letter] < bound:
                        word[p] = letter
                        pr[p] = prime[letter]
                        codes_new: list[int] = []
                        for poss in windows:
                            code = prod(map(pr.__getitem__, poss))
                            if code in used or code not in target:
                                break
                            used.add(code)
                            codes_new.append(code)
                        else:
                            counts[letter] += 1
                            nxt[d] = letter + 1
                            added[d] = codes_new
                            if symmetric:
                                maxu[d] = letter if letter > prev else prev
                            break
                        if codes_new:
                            used.difference_update(codes_new)
                else:
                    # no letter fits here: undo the placement one depth up
                    nxt[d] = 1
                    d -= 1
                    if d >= 0:
                        counts[word[free[d]]] -= 1
                        used.difference_update(added[d])
                    continue
                if d == m - 1:
                    self.nodes = nodes
                    yield tuple(word)
                    counts[word[p]] -= 1
                    used.difference_update(added[d])
                    continue
                d += 1
        finally:
            self.nodes = nodes


def _fixed_from_constraints(c: SearchConstraints, n: int, k: int) -> dict[int, Letter]:
    if len(c.required_prefix) + len(c.required_suffix) > k:
        raise ValueError("prefix and suffix longer than the word itself")
    for v in (*c.required_prefix, *c.required_suffix):
        # checked like a CycleWord letter: an int (bools included) in 1..n
        if not (isinstance(v, int) and 1 <= v <= n):
            raise ValueError(f"fixed letter {v!r} out of range 1..{n}")
    # no overlap: the two fit in the word side by side
    fixed = dict(enumerate(c.required_prefix))
    fixed.update(enumerate(c.required_suffix, k - len(c.required_suffix)))
    return fixed


def _find_ucycle(
    n: int, t: int, distinct: bool, c: SearchConstraints
) -> CycleWord:
    """The word both generators return, verified once as it is.

    An n that does not divide the family size raises ``InadmissibleError``
    before anything is built.  Unconstrained t=3 requests take the Euler
    fast path (``_euler_block3``; at t=3 an admissible n is prime to 3),
    which spends no nodes; everything else, and the tiniest alphabets, run
    the witness search with the whole budget.  The search raises
    ``SearchInfeasible`` when it is exhausted and ``SearchBudgetExceeded``
    when the budget runs out.  The word leaves through ``verify._emitted``.
    """
    kind = "subset" if distinct else "multiset"
    if not (admissible_subset if distinct else admissible_multiset)(n, t):
        size = f"C({n},{t})" if distinct else f"C({n + t - 1},{t})"
        raise InadmissibleError(f"n={n} does not divide {size}; no {kind} ucycle exists")
    k = _family_size(n, t, distinct)
    if k < t:
        # only multisets over n=1 land here: the would-be cycle is shorter
        # than the window, so nothing can verify even though n divides the
        # count
        raise SearchInfeasible(f"a cycle of length {k} has no windows of size {t}")
    fixed = _fixed_from_constraints(c, n, k)
    symmetric = not c.required_prefix and not c.required_suffix
    if symmetric and not distinct:
        # full coverage includes the all-ones window; rotating it to the
        # front and relabeling costs nothing, so pin the leading run
        fixed = {i: 1 for i in range(t)}
    # Fast path: a shift-symmetric word built from an Euler circuit of the
    # gap digraph; the witness search runs when the construction finds no
    # pick.
    letters = _euler_block3(n, distinct) if symmetric and t == 3 else None
    if letters is None:
        search = _CoverSearch(
            n, t, distinct, fixed, c.node_budget, relabel_symmetric=symmetric
        )
        letters = next(search.solutions(), None)
        if letters is None:
            raise SearchInfeasible(
                f"no {t}-{kind} ucycle over [{n}] satisfies the constraints"
            )
    return _emitted(CycleWord(n, letters), t, distinct)


def generate_subset_ucycle(
    n: int, t: int, constraints: SearchConstraints | None = None
) -> CycleWord:
    """A ucycle on the t-subsets of [n] (see ``_find_ucycle``)."""
    if t not in (2, 3):
        raise ValueError("subset generation supports t in {2, 3}")
    return _find_ucycle(n, t, True, constraints or SearchConstraints())


def find_multiset_ucycle(
    n: int, t: int, constraints: SearchConstraints | None = None
) -> CycleWord:
    """A ucycle on the t-multisets of [n] (see ``_find_ucycle``)."""
    return _find_ucycle(n, t, False, constraints or SearchConstraints())


@dataclass(frozen=True)
class CountResult:
    """Distinct-ucycle counts for one (n, t).

    ``count_rot_relabel`` counts classes under rotation + relabeling;
    ``count_also_reflect`` additionally folds reflection and is never larger.
    ``exhausted`` is false when some branch hit the node budget, in which case
    the counts are lower bounds.  ``representatives`` holds the letters of
    each class's canonical representative, in ascending order.
    """

    n: int
    t: int
    count_rot_relabel: int
    count_also_reflect: int
    exhausted: bool
    nodes_visited: int
    representatives: tuple[tuple[Letter, ...], ...] = ()

    def as_text(self) -> str:
        return (
            f"{self.n} {self.t} {self.count_rot_relabel} {self.count_also_reflect} "
            f"{'true' if self.exhausted else 'false'} {self.nodes_visited}"
        )


def _count_branch(
    args: tuple[int, int, Letter | None, int | None]
) -> tuple[set[tuple[Letter, ...]], int, bool]:
    # Anchoring: every multiset ucycle contains the window {x,..,x} exactly
    # once for each letter x, so rotating to that run and renaming letters
    # by first occurrence gives a representative of its rotation+relabeling
    # class that begins with t ones and introduces letters in order.  The
    # letter after the run is then 2 (when the word is longer than t + 1),
    # and the one after that is 1, 2 or 3 (``second``).  Enumerating these
    # words reaches every class at least once; canonicalize dedupes.
    n, t, second, budget = args
    fixed = {i: 1 for i in range(t)}
    if second is not None:
        fixed[t] = 2
        fixed[t + 1] = second
    search = _CoverSearch(n, t, False, fixed, budget, relabel_symmetric=True)
    reps: set[tuple[Letter, ...]] = set()
    exhausted = True
    try:
        for letters in search.solutions():
            reps.add(canonicalize(CycleWord._trusted(n, letters)).representative.letters)
    except SearchBudgetExceeded:
        exhausted = False
    return reps, search.nodes, exhausted


def _fold_reflection(n: int, rep: tuple[Letter, ...]) -> tuple[Letter, ...]:
    mirrored = canonicalize(CycleWord._trusted(n, rep[::-1])).representative.letters
    return min(rep, mirrored)


def count_distinct(
    n: int,
    t: int,
    budget: int | None = DEFAULT_COUNT_BUDGET,
    workers: int | None = None,
) -> CountResult:
    """Count distinct multiset ucycles for (n, t) by exhaustive enumeration.

    Only anchored words whose letters appear in first-occurrence order are
    enumerated.  A branch is one choice of the letter two places after the
    anchored run ``1..1 2`` (1, 2 or 3), so there are at most three; for
    n = 2 a single branch pins only the run.  The node budget applies to
    each branch, and a pool of ``workers`` processes starts at most one
    worker per branch; results are identical whether the branches run
    sequentially or in parallel.  The pool's module is imported on the
    first call with ``workers``, so a sequential count loads none of it.
    """
    if not admissible_multiset(n, t):
        return CountResult(n, t, 0, 0, exhausted=True, nodes_visited=0)
    if n == 1:
        # The only cycle over [1] has length C(t, t) = 1: the word "1" is a
        # ucycle for t = 1 and shorter than a window for every larger t.
        words = ((1,),) if t == 1 else ()
        return CountResult(
            n, t, len(words), len(words), exhausted=True, nodes_visited=0,
            representatives=words,
        )
    # n = 2 words have t + 1 letters, so only the run itself can be pinned
    seconds = [None] if n == 2 else [1, 2, 3]
    branch_args = [(n, t, second, budget) for second in seconds]
    if workers:
        from concurrent.futures import ProcessPoolExecutor

        # the fork start method starts every worker up front: no more than
        # there are branches to run
        with ProcessPoolExecutor(max_workers=min(workers, len(branch_args))) as pool:
            results = list(pool.map(_count_branch, branch_args))
    else:
        results = [_count_branch(a) for a in branch_args]
    reps: set[tuple[Letter, ...]] = set()
    nodes = 0
    exhausted = True
    for branch_reps, branch_nodes, branch_done in results:
        reps |= branch_reps
        nodes += branch_nodes
        exhausted = exhausted and branch_done
    folded = {_fold_reflection(n, rep) for rep in reps}
    return CountResult(
        n, t, len(reps), len(folded), exhausted, nodes, tuple(sorted(reps))
    )

