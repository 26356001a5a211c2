"""Witness search and counting.

The backtracking engine solves one kind of exact-cover problem: place letters
so that every window lands on a distinct member of the t-subsets or
t-multisets of [n] (the families ``verify`` defines) and the whole family is
consumed, wrap windows included.  Unconstrained t=3 requests first try the
Euler construction of ``euler`` (see ``_find_ucycle``).

The witness search is one depth-first pass that tries letters in ascending
order after a pinned prefix; a required suffix is met by searching the
rotation that starts with it.  It prunes only by the pins, by each letter's
count ((family size)/n, forced by the family) and, when the only pins are an
anchor at the front (unpinned requests and counting branches), by
first-occurrence order of the letters.  For t=2 a ucycle is an Euler circuit
of the complete graph on [n] (with loops for multisets); the pass finds a
multiset one for n = 51, 101, 201 in 0.007, 0.04, 0.35 s (2-core Xeon,
CPython 3.11) but runs out of the default budget at n = 401 (1.9 s).
Windows are integer codes.

Counting can spread its (at most three) branches over processes: the caller
runs one share itself and forks one child per other share with ``os.fork``
(POSIX only), so a count forks at most two children and imports no process
pool module.

Everything is deterministic: identical inputs always yield identical outputs
and node counts.  A node is one attempted letter placement; searches stop
with an error when the node budget runs out.
"""

from __future__ import annotations

import marshal
import math
import os
from collections.abc import Iterator
from dataclasses import dataclass
from itertools import combinations

from .core import CycleWord, Letter, canonicalize
from .euler import _euler_block3
from .verify import (
    InadmissibleError,
    _emitted,
    _family_size,
    _letter_primes,
    _require_admissible,
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
    """DFS over words whose cyclic t-windows cover the t-subsets or t-multisets of [n].

    Every letter occurs (family size)/n times, so when n does not divide
    the family size there is no word.

    ``prefix`` pins the first letters (an anchor, or a request's suffix then
    prefix).  ``solutions()`` yields complete words in lexicographic order of
    the free positions after it; ``self.nodes`` counts attempted placements
    and is up to date at each yield and once the generator ends, runs out of
    budget or is closed.  Free position p checks the window that ends at it
    (none while p < t-1), the last one also the t-1 windows that wrap, and
    the set-up the windows inside the prefix.

    The windows already used are a set of integer codes, the verifier's:
    letter x stands for the x-th prime (``verify._letter_primes``) and a
    window's code is the product of its letters' primes (read from a
    per-position list kept next to the word), one-to-one on t-multisets by
    unique factorization.  Every window of a word over [n] is a t-multiset
    of [n], so only a window of a subset search can leave its family, by
    repeating a letter: that search alone keeps its family's codes, the
    products of t distinct primes taken from the prime table, and refuses a
    window without a code among them.  A multiset search holds no family
    codes and refuses only a window already used.
    """

    def __init__(
        self,
        n: int,
        t: int,
        distinct: bool,
        prefix: tuple[Letter, ...],
        node_budget: int | None,
        relabel_symmetric: bool = False,
    ):
        self.n = n
        self.t = t
        self.distinct = distinct
        self.k = _family_size(n, t, distinct)
        self.prefix = tuple(prefix)
        self.node_budget = node_budget
        # The family is closed under letter permutation, so this is valid
        # when the prefix (possibly empty) already introduces its letters in
        # first-occurrence order, such as a rotation anchor 1..1 or 1..1 2 x.
        # Then some witness introduces letters in first-occurrence order, so
        # children above max_used+1 can be skipped, where max_used starts at
        # the prefix's largest letter.
        ordered = all(v <= max(prefix[:i], default=0) + 1 for i, v in enumerate(prefix))
        self.relabel_symmetric = relabel_symmetric and ordered
        self.nodes = 0

    def solutions(self) -> Iterator[tuple[Letter, ...]]:
        n, t, k, prefix, distinct = self.n, self.t, self.k, self.prefix, self.distinct
        a = len(prefix)
        m = k - a  # free positions a..k-1

        # By symmetry every letter fills t·k/n window slots, and each of its
        # positions feeds exactly t windows: it occurs k/n times.
        if k % n:
            return
        bound = k // n
        counts = [0] * (n + 1)
        for v in prefix:
            counts[v] += 1
        if max(counts) > bound:
            return

        # a window's code is the product of its letters' primes; pr[p] is
        # the prime of the letter at position p (0 while p is free), and t-1
        # slots after the word repeat its first t-1 for the wrapping windows
        prime = _letter_primes(n)
        prod = math.prod
        word = list(prefix) + [0] * m
        pr = [prime[v] for v in word]
        pr += pr[: t - 1]
        # only a subset window can leave its family, by repeating a letter
        if distinct:
            target = set(map(prod, combinations(prime[1:], t)))

        # the window starting at j covers pr[j : j+t]; those inside the
        # prefix are checked up front, the wrapping ones too when the prefix
        # is the whole word
        used: set[int] = set()
        for j in range(a - t + 1 if m else k):
            code = prod(pr[j : j + t])
            if code in used or distinct and code not in target:
                return
            used.add(code)

        if not m:
            yield tuple(word)
            return

        nxt = [1] * m  # next letter to try at each depth
        added: list[list[int]] = [[]] * m  # each slot replaced as its depth is filled
        maxu = [0] * m
        symmetric = self.relabel_symmetric
        budget = self.node_budget
        # the pinned prefix already introduced letters 1..max(prefix) before
        # any free position, so first-occurrence order starts above them
        base_prev = max(prefix, default=0)
        last = k - 1
        # counted in a local and written back before each yield and on the
        # way out (exhausted, out of budget or closed), where callers read it
        nodes = self.nodes
        d = 0
        try:
            while d >= 0:
                p = a + d
                if symmetric:
                    prev = maxu[d - 1] if d else base_prev
                    cap = prev + 1 if prev < n else n
                else:
                    prev = 0
                    cap = n
                # the starts of the windows this position completes
                if p == last:
                    pr[k:] = pr[: t - 1]
                    starts = range(k - t, k)
                else:
                    starts = (p - t + 1,) if p >= t - 1 else ()
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
                        for j in starts:
                            code = prod(pr[j : j + t])
                            if code in used or distinct and code not in target:
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
                        counts[word[a + d]] -= 1
                        used.difference_update(added[d])
                    continue
                if p == last:
                    self.nodes = nodes
                    yield tuple(word)
                    counts[word[p]] -= 1
                    used.difference_update(added[d])
                    continue
                d += 1
        finally:
            self.nodes = nodes


def _prefix_from_constraints(c: SearchConstraints, n: int, k: int) -> tuple[Letter, ...]:
    """The pins of the rotation that starts with the required suffix."""
    if len(c.required_prefix) + len(c.required_suffix) > k:
        raise ValueError("prefix and suffix longer than the word itself")
    for v in (*c.required_prefix, *c.required_suffix):
        # checked like a CycleWord letter: an int (bools included) in 1..n
        if not (isinstance(v, int) and 1 <= v <= n):
            raise ValueError(f"fixed letter {v!r} out of range 1..{n}")
    return (*c.required_suffix, *c.required_prefix)


def _find_ucycle(
    n: int, t: int, distinct: bool, c: SearchConstraints
) -> CycleWord:
    """The word both generators return, verified once as it is.

    An (n, t) that ``verify._require_admissible`` refuses (an n that does
    not divide the family size, or a family above ``verify.MAX_LETTERS``)
    raises before anything is built.  Unconstrained t=3 requests take the Euler fast path
    (``_euler_block3``; at t=3 an admissible n is prime to 3), which spends
    no nodes; everything else, and the tiniest alphabets, run the witness
    search with the whole budget.  The search raises
    ``SearchInfeasible`` when it is exhausted and ``SearchBudgetExceeded``
    when the budget runs out.  The word leaves through ``verify._emitted``.
    """
    k = _require_admissible(n, t, distinct)
    if k < t:
        # only multisets over n=1 land here: the would-be cycle is shorter
        # than the window, so nothing can verify even though n divides the
        # count
        raise SearchInfeasible(f"a cycle of length {k} has no windows of size {t}")
    prefix = _prefix_from_constraints(c, n, k)
    symmetric = not prefix
    if symmetric and not distinct:
        # full coverage includes the all-ones window; rotating it to the
        # front and relabeling costs nothing, so pin the leading run
        prefix = (1,) * t
    # Fast path: a shift-symmetric word built from an Euler circuit of the
    # gap digraph; the witness search runs when the construction finds no
    # pick.
    letters = _euler_block3(n, distinct) if symmetric and t == 3 else None
    if letters is None:
        search = _CoverSearch(
            n, t, distinct, prefix, c.node_budget, relabel_symmetric=symmetric
        )
        letters = next(search.solutions(), None)
        if letters is None:
            kind = "subset" if distinct else "multiset"
            raise SearchInfeasible(
                f"no {t}-{kind} ucycle over [{n}] satisfies the constraints"
            )
        # the search ran on the rotation that starts with the suffix
        b = len(c.required_suffix)
        letters = letters[b:] + letters[:b]
    return _emitted(n, letters, t, distinct)


def generate_subset_ucycle(
    n: int, t: int, constraints: SearchConstraints | None = None
) -> CycleWord:
    """A ucycle on the t-subsets of [n] (see ``_find_ucycle``)."""
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
    n: int, t: int, second: Letter | None, budget: int | None
) -> tuple[set[tuple[Letter, ...]], int, bool]:
    # Anchoring: every multiset ucycle contains the window {x,..,x} exactly
    # once for each letter x, so rotating to that run and renaming letters
    # by first occurrence gives a representative of its rotation+relabeling
    # class that begins with t ones and introduces letters in order.  The
    # letter after the run is then 2 (when the word is longer than t + 1),
    # and the one after that is 1, 2 or 3 (``second``).  Enumerating these
    # words reaches every class at least once; canonicalize dedupes.
    prefix = (1,) * t if second is None else (1,) * t + (2, second)
    search = _CoverSearch(n, t, False, prefix, budget, relabel_symmetric=True)
    reps: set[tuple[Letter, ...]] = set()
    exhausted = True
    try:
        for letters in search.solutions():
            reps.add(canonicalize(CycleWord._trusted(n, letters)).representative.letters)
    except SearchBudgetExceeded:
        exhausted = False
    return reps, search.nodes, exhausted


def _count_branches(
    n: int, t: int, seconds: list[Letter | None], budget: int | None, workers: int | None
) -> list[tuple[set[tuple[Letter, ...]], int, bool]]:
    """``_count_branch`` of every branch, over w = min(workers or 1, branches)
    processes: the caller runs branches 0, w, 2w, ... and each of w - 1 forked
    children runs its own share and sends the results back marshalled.

    A child leaves only through ``os._exit``; one that exits non-zero or
    sends truncated data raises ``RuntimeError``.  However the call ends,
    every child it forked has been reaped, killed first if still running.
    """
    w = min(workers or 1, len(seconds))
    pids: list[int] = []
    pipes = []
    try:
        for i in range(1, w):
            r, wr = os.pipe()
            pipes.append(open(r, "rb"))
            with open(wr, "wb") as sink:
                pid = os.fork()
                if pid == 0:
                    status = 1
                    try:
                        share = [_count_branch(n, t, s, budget) for s in seconds[i::w]]
                        sink.write(marshal.dumps(share))
                        sink.flush()
                        status = 0
                    finally:
                        os._exit(status)
            pids.append(pid)
        results = [_count_branch(n, t, s, budget) for s in seconds[::w]]
        for pipe in pipes:
            data = pipe.read()
            pid, status = os.waitpid(pids[0], 0)
            pids.pop(0)
            if status:
                raise RuntimeError(f"count worker {pid} failed (wait status {status})")
            try:
                results += marshal.loads(data)
            except (EOFError, ValueError, TypeError) as exc:
                raise RuntimeError(f"count worker {pid} sent truncated results") from exc
        return results
    finally:
        for pipe in pipes:
            pipe.close()
        if pids:
            # imported on this failure path only: a count's cold start skips it
            import signal

            for pid in pids:
                os.kill(pid, signal.SIGKILL)
                os.waitpid(pid, 0)


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
    each branch.  With ``workers`` above 1 the caller runs one share of
    the branches itself and forks (POSIX ``os.fork``) one child per other
    share, at most one process per branch, so at most two children; no
    pool module is imported.  ``workers`` None, 0 or 1 forks nothing.
    Results, node counts and representatives are identical either way.
    A negative ``workers``, then what ``verify._require_admissible`` refuses,
    raise ``ValueError`` before any search, but an inadmissible n has no class.
    """
    if workers is not None and workers < 0:
        raise ValueError(f"workers must not be negative, got {workers}")
    try:
        _require_admissible(n, t, False)
    except InadmissibleError:
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
    reps: set[tuple[Letter, ...]] = set()
    nodes = 0
    exhausted = True
    for branch_reps, branch_nodes, branch_done in _count_branches(n, t, seconds, budget, workers):
        reps |= branch_reps
        nodes += branch_nodes
        exhausted = exhausted and branch_done
    folded = {_fold_reflection(n, rep) for rep in reps}
    return CountResult(
        n, t, len(reps), len(folded), exhausted, nodes, tuple(sorted(reps))
    )

