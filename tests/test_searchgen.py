"""Backtracking generation, the Euler construction (``ucycles.euler``) and counting."""

import hashlib
import math
import os
import pickle
import subprocess
import sys
from functools import cache
from itertools import combinations_with_replacement, product

import pytest

import ucycles.doubling
import ucycles.euler
import ucycles.inductive
import ucycles.searchgen
import ucycles.verify
from ucycles.cli import main as cli_main
from ucycles.core import CycleWord, canonicalize
from ucycles.doubling import construct_doubling
from ucycles.euler import _euler_block3, _gap_classes, _unroll_circuit
from ucycles.searchgen import (
    SearchBudgetExceeded,
    SearchConstraints,
    SearchInfeasible,
    _CoverSearch,
    count_distinct,
    find_multiset_ucycle,
    generate_subset_ucycle,
)
from ucycles.ucyfile import format_ucy
from ucycles.verify import (
    InadmissibleError,
    _letter_primes,
    verify_multiset_ucycle,
    verify_subset_ucycle,
)

from goldens import (
    BUDGET_STOPS,
    BUDGETED_COUNT_AS_TEXT,
    COUNT_AS_TEXT,
    COUNT_NODES,
    DISTINCT_CLASSES_3_2,
    DISTINCT_CLASSES_4_3,
    EULER_SHA256,
    FIRST_SOLUTION_NODES,
    UNSYMMETRIC_COUNT_NODES,
    WITNESS_SHA256,
)


def ucy_sha256(text):
    return hashlib.sha256(text.encode()).hexdigest()


@cache
def unsymmetric_count(n, t):
    """Reference count: every anchored word, no relabeling pruning.

    Pins the run of ones and each letter after it in turn, enumerates all
    completions, then canonicalizes and folds reflections.
    """
    reps = set()
    nodes = 0
    for first in range(1, n + 1):
        fixed = {i: 1 for i in range(t)}
        fixed[t] = first
        search = _CoverSearch(n, t, False, fixed, None, relabel_symmetric=False)
        for letters in search.solutions():
            reps.add(canonicalize(CycleWord(n, letters)).representative.letters)
        nodes += search.nodes
    folded = {
        min(rep, canonicalize(CycleWord(n, rep[::-1])).representative.letters)
        for rep in reps
    }
    return len(reps), len(folded), nodes


def first_occurrence_ordered(letters):
    top = 0
    for x in letters:
        if x > top + 1:
            return False
        top = max(top, x)
    return True


class TestSubsetGeneration:
    @pytest.mark.parametrize("n", [4, 7, 8, 10])
    def test_output_verifies(self, n):
        word = generate_subset_ucycle(n, 3)
        assert len(word) == math.comb(n, 3)
        assert verify_subset_ucycle(word, 3).ok

    @pytest.mark.parametrize("n", range(5, 26, 2))
    def test_pair_windows(self, n):
        word = generate_subset_ucycle(n, 2, SearchConstraints(node_budget=20_000))
        assert verify_subset_ucycle(word, 2).ok

    def test_deterministic(self):
        a = generate_subset_ucycle(8, 3)
        b = generate_subset_ucycle(8, 3)
        assert a.letters == b.letters

    def test_required_prefix_honored(self):
        word = generate_subset_ucycle(7, 3, SearchConstraints(required_prefix=(2, 4)))
        assert word.letters[:2] == (2, 4)
        assert verify_subset_ucycle(word, 3).ok
        digest = WITNESS_SHA256["subset", 7, 3, (2, 4)]
        assert ucy_sha256(format_ucy(word, 3)) == digest

    def test_required_suffix_honored(self):
        word = generate_subset_ucycle(7, 3, SearchConstraints(required_suffix=(4, 3)))
        assert word.letters[-2:] == (4, 3)
        assert verify_subset_ucycle(word, 3).ok

    def test_inadmissible_rejected(self):
        with pytest.raises(InadmissibleError):
            generate_subset_ucycle(6, 3)

    def test_admissible_but_unrealizable(self):
        # 5 divides C(5,3) = 10, yet no word over [5] covers all ten
        # 3-subsets: exhaustive search proves the family empty.
        with pytest.raises(SearchInfeasible):
            generate_subset_ucycle(5, 3)

    def test_unsupported_window_size(self):
        with pytest.raises(ValueError):
            generate_subset_ucycle(8, 4)

    def test_budget_exception_carries_node_count(self):
        with pytest.raises(SearchBudgetExceeded) as info:
            generate_subset_ucycle(
                7, 3, SearchConstraints(required_prefix=(1, 2), node_budget=10)
            )
        assert info.value.nodes >= 10

    def test_budget_exception_pickles(self):
        error = pickle.loads(pickle.dumps(SearchBudgetExceeded("node budget 5 exhausted", 6)))
        assert type(error) is SearchBudgetExceeded
        assert (str(error), error.nodes) == ("node budget 5 exhausted", 6)


class TestMultisetGeneration:
    @pytest.mark.parametrize(
        "n, t", [(4, 3), (3, 2), (5, 2), (5, 3), (7, 2), (7, 3), (13, 3), (25, 2)]
    )
    def test_output_verifies(self, n, t):
        word = find_multiset_ucycle(n, t)
        assert len(word) == math.comb(n + t - 1, t)
        assert verify_multiset_ucycle(word, t).ok
        digest = WITNESS_SHA256.get(("multiset", n, t, ()))
        if digest is not None:
            assert ucy_sha256(format_ucy(word, t)) == digest

    def test_inadmissible_rejected(self):
        # 4 does not divide C(5,2) = 10
        with pytest.raises(InadmissibleError):
            find_multiset_ucycle(4, 2)

    @pytest.mark.parametrize("pin", [1.5, "1", None])
    def test_pinned_letter_that_is_not_an_int(self, pin):
        with pytest.raises(ValueError, match=f"^fixed letter {pin!r} out of range 1..4$"):
            find_multiset_ucycle(4, 3, SearchConstraints(required_prefix=(pin,)))

    def test_prefix_and_suffix_longer_than_the_word(self):
        # the word over [4] has C(6, 3) = 20 letters
        c = SearchConstraints(required_prefix=(1,) * 11, required_suffix=(2,) * 10)
        with pytest.raises(ValueError, match="^prefix and suffix longer than the word itself$"):
            find_multiset_ucycle(4, 3, c)

    def test_window_size_must_be_positive(self):
        with pytest.raises(ValueError):
            find_multiset_ucycle(4, 0)

    def test_pinned_bool_letter_is_accepted(self):
        word = find_multiset_ucycle(4, 3, SearchConstraints(required_prefix=(True, True)))
        assert word.letters[:2] == (1, 1)
        assert verify_multiset_ucycle(word, 3).ok

    def test_single_letter_alphabet_has_no_windows(self):
        # the only admissible word would be shorter than the window itself
        with pytest.raises(SearchInfeasible):
            find_multiset_ucycle(1, 3)

    def test_deterministic(self):
        assert find_multiset_ucycle(4, 3) == find_multiset_ucycle(4, 3)

    def test_prefix_constraint(self):
        word = find_multiset_ucycle(4, 3, SearchConstraints(required_prefix=(2, 2)))
        assert word.letters[:2] == (2, 2)
        assert verify_multiset_ucycle(word, 3).ok


class TestEulerFastPath:
    @pytest.mark.parametrize("n", [23, 29, 77, 98])
    def test_multiset_verifies(self, n):
        word = find_multiset_ucycle(n, 3)
        assert len(word) == math.comb(n + 2, 3)
        assert verify_multiset_ucycle(word, 3).ok
        assert ucy_sha256(format_ucy(word, 3)) == EULER_SHA256["multiset", n]

    @pytest.mark.parametrize("n", [8, 26, 50])
    def test_subset_word_feeds_doubling(self, n):
        word = generate_subset_ucycle(n, 3)
        assert len(word) == math.comb(n, 3)
        assert verify_subset_ucycle(word, 3).ok
        assert ucy_sha256(format_ucy(word, 3)) == EULER_SHA256["subset", n]
        assert verify_multiset_ucycle(construct_doubling(n, word), 3).ok

    def test_cli_gen_77(self, tmp_path):
        # the recursive block search it replaces hit the recursion limit here
        out = tmp_path / "w77.ucy"
        assert cli_main(["gen", "--n", "77", "--t", "3", "--out", str(out)]) == 0
        assert ucy_sha256(out.read_text()) == EULER_SHA256["multiset", 77]

    @pytest.mark.parametrize("distinct, smallest", [(True, 8), (False, 5)])
    def test_every_admissible_alphabet_is_built(self, distinct, smallest):
        # a class that is its own mirror can take only a loop, and it always
        # holds one; the odd subset words are verified here because no `gen`
        # route asks for them
        for n in range(smallest, 102):
            if n % 3 == 0:
                continue
            classes, home = _gap_classes(n, distinct)
            for c, edges in enumerate(classes):
                if home[edges[0][::-1]] == c:
                    assert any(a == b for a, b in edges), (n, edges)
            letters = _euler_block3(n, distinct)
            assert letters is not None, n
            if distinct and n % 2:
                assert verify_subset_ucycle(CycleWord(n, letters), 3).ok, n

    def test_circuit_must_use_every_edge(self):
        # both picks are balanced; the first splits into two components
        assert _unroll_circuit(5, [(1, 2), (2, 1), (3, 4), (4, 3)], 1) is None
        # block (0, 1), unrolled as five copies shifted by 3 (mod 5)
        assert _unroll_circuit(5, [(1, 2), (2, 1)], 3) == (
            1, 2, 4, 5, 2, 3, 5, 1, 3, 4,
        )
        # a loop is a one-letter block: one letter per copy
        assert _unroll_circuit(5, [(2, 2)], 2) == (1, 3, 5, 2, 4)

    def test_the_construction_has_one_home(self):
        # both routes take the block builder from euler, and the search
        # module keeps no copy of it or of its helpers
        assert (
            ucycles.searchgen._euler_block3
            is ucycles.doubling._euler_block3
            is ucycles.euler._euler_block3
        )
        for name in ("_gap_classes", "_unroll_circuit", "_root", "_pick_shape"):
            assert not hasattr(ucycles.searchgen, name), name

    def test_built_words_are_verified_in_one_place(self):
        # the search and the inductive route hold no verifier of their own:
        # their words are checked by verify._emitted
        for module in (ucycles.searchgen, ucycles.inductive):
            for name in ("verify_multiset_ucycle", "verify_subset_ucycle"):
                assert not hasattr(module, name), (module.__name__, name)
        assert ucycles.searchgen._emitted is ucycles.inductive._emitted is ucycles.verify._emitted

    @pytest.mark.parametrize("distinct, n", [(True, 7), (False, 4)])
    def test_tiny_alphabets_fall_back(self, distinct, n):
        # the generation tests above check that the fallback answers these
        assert _euler_block3(n, distinct) is None

    @pytest.mark.parametrize("distinct, n", [(True, 7), (False, 4)])
    def test_fallback_gets_the_whole_budget(self, distinct, n):
        # the construction that fails first spends none of it
        generate = generate_subset_ucycle if distinct else find_multiset_ucycle
        nodes = FIRST_SOLUTION_NODES["subset" if distinct else "multiset", n, 3]
        word = generate(n, 3, SearchConstraints(node_budget=nodes))
        assert word == generate(n, 3)
        with pytest.raises(
            SearchBudgetExceeded, match=f"^node budget {nodes - 1} exhausted$"
        ) as info:
            generate(n, 3, SearchConstraints(node_budget=nodes - 1))
        assert info.value.nodes == nodes

    @pytest.mark.parametrize("distinct, n", [(True, 26), (False, 29)])
    def test_tiny_budget_is_not_spent(self, distinct, n):
        # the Euler construction searches nothing, so no budget stops it
        c = SearchConstraints(node_budget=1)
        word = generate_subset_ucycle(n, 3, c) if distinct else find_multiset_ucycle(n, 3, c)
        kind = "subset" if distinct else "multiset"
        assert ucy_sha256(format_ucy(word, 3)) == EULER_SHA256[kind, n]

    def test_same_word_in_fresh_interpreters(self):
        code = (
            "from ucycles.searchgen import generate_subset_ucycle;"
            "print(generate_subset_ucycle(26, 3).letters)"
        )
        outs = []
        for hash_seed in ("1", "2"):
            env = dict(os.environ, PYTHONHASHSEED=hash_seed)
            r = subprocess.run(
                [sys.executable, "-c", code],
                capture_output=True, text=True, env=env, timeout=120,
            )
            assert r.returncode == 0, r.stderr
            outs.append(r.stdout)
        assert outs[0] == outs[1] == f"{generate_subset_ucycle(26, 3).letters}\n"


class TestCounting:
    def test_frozen_counts(self):
        r43 = count_distinct(4, 3)
        r32 = count_distinct(3, 2)
        assert r43.count_rot_relabel == DISTINCT_CLASSES_4_3
        assert r32.count_rot_relabel == DISTINCT_CLASSES_3_2
        assert r43.exhausted and r32.exhausted

    def test_parallel_equals_sequential(self):
        seq = count_distinct(4, 3)
        par = count_distinct(4, 3, workers=2)
        assert (seq.count_rot_relabel, seq.count_also_reflect, seq.nodes_visited) == (
            par.count_rot_relabel,
            par.count_also_reflect,
            par.nodes_visited,
        )

    def test_workers_bounded_by_branches(self, monkeypatch):
        # fork starts every worker of the pool up front, so the pool must not
        # be larger than the (at most three) branches; the stand-in runs
        # them inline
        class InlinePool:
            def __init__(self, max_workers):
                assert 1 <= max_workers <= 3
                sizes.append(max_workers)

            def __enter__(self):
                return self

            def __exit__(self, *exc):
                return False

            def map(self, fn, args):
                return map(fn, args)

        sizes: list[int] = []
        # count_distinct imports the pool from its module when it needs one
        monkeypatch.setattr("concurrent.futures.ProcessPoolExecutor", InlinePool)
        seq = count_distinct(4, 3)
        for workers in (3, 64):
            r = count_distinct(4, 3, workers=workers)
            assert (r.count_rot_relabel, r.nodes_visited) == (seq.count_rot_relabel, seq.nodes_visited)
        assert cli_main(["count", "--n", "4", "--t", "3", "--workers", "1000"]) == 0
        assert sizes == [3, 3, 3]

    @pytest.mark.parametrize(
        "n, t",
        [(2, 1), (3, 1), (4, 1), (5, 1), (6, 1), (3, 2), (5, 2), (4, 3),
         (3, 4), (3, 5), (3, 7), (2, 3)],
    )
    @pytest.mark.parametrize("workers", [None, 2])
    def test_agrees_with_unsymmetric_enumeration(self, n, t, workers):
        rot, refl, _ = unsymmetric_count(n, t)
        r = count_distinct(n, t, workers=workers)
        assert (r.count_rot_relabel, r.count_also_reflect, r.exhausted) == (rot, refl, True)

    @pytest.mark.parametrize("n, t", sorted(COUNT_NODES))
    def test_symmetry_breaking_saves_nodes(self, n, t):
        assert unsymmetric_count(n, t)[2] == UNSYMMETRIC_COUNT_NODES[n, t]
        nodes = count_distinct(n, t).nodes_visited
        assert nodes == COUNT_NODES[n, t]
        assert 5 * nodes <= UNSYMMETRIC_COUNT_NODES[n, t]

    def test_small_budget_stays_cheap(self, monkeypatch):
        # the per-branch set-up walks the whole target, so a tiny budget
        # must not be paid for once per letter of a large alphabet
        made = []

        class CountingSearch(_CoverSearch):
            def __init__(self, *args, **kwargs):
                super().__init__(*args, **kwargs)
                made.append(self)

        monkeypatch.setattr("ucycles.searchgen._CoverSearch", CountingSearch)
        r = count_distinct(30, 4, budget=661)
        assert not r.exhausted
        assert 1 <= len(made) <= 3

    def test_list_reuses_the_count(self, monkeypatch, capsys):
        # --list prints the classes the count found instead of walking the
        # anchored search again: one search per counting branch, no more
        made = []

        class CountingSearch(_CoverSearch):
            def __init__(self, *args, **kwargs):
                super().__init__(*args, **kwargs)
                made.append(self)

        monkeypatch.setattr("ucycles.searchgen._CoverSearch", CountingSearch)
        assert cli_main(["count", "--n", "4", "--t", "3", "--list"]) == 0
        lines = capsys.readouterr().out.splitlines()
        assert len(lines) == 1 + DISTINCT_CLASSES_4_3
        assert len(made) <= 3

    @pytest.mark.parametrize("n,t", [(1, 1), (1, 3), (3, 2), (4, 3), (5, 2)])
    def test_representatives_verify_and_are_canonical(self, n, t):
        r = count_distinct(n, t)
        assert len(r.representatives) == r.count_rot_relabel
        for letters in r.representatives:
            word = CycleWord(n, letters)
            assert verify_multiset_ucycle(word, t).ok
            assert canonicalize(word).representative.letters == letters

    def test_inadmissible_counts_zero(self):
        r = count_distinct(4, 2)
        assert r.count_rot_relabel == 0 and r.exhausted

    def test_budget_starvation_reported(self):
        r = count_distinct(5, 3, budget=1000)
        assert not r.exhausted

    def test_single_letter_alphabet(self):
        # "1" is shorter than a 3-window, so no ucycle exists (as the
        # verifier and find_multiset_ucycle agree)
        r = count_distinct(1, 3)
        assert r.count_rot_relabel == 0 and r.exhausted

    def test_empty_alphabet_rejected(self):
        with pytest.raises(ValueError):
            count_distinct(0, 3)

    def test_as_text_format(self):
        assert count_distinct(3, 2).as_text().startswith("3 2 1 1 true ")

    def test_reflection_never_increases(self):
        r = count_distinct(4, 3)
        assert r.count_also_reflect <= r.count_rot_relabel


class TestRelabelSymmetryGuard:
    @pytest.mark.parametrize(
        "fixed",
        [{0: 1, 1: 3}, {0: 2}, {5: 1}, {4: 2, 5: 1}, {1: 1}],
        ids=["out-of-order", "starts-above-1", "suffix", "suffix-pair", "not-prefix"],
    )
    def test_broken_order_switches_symmetry_off(self, fixed):
        on = _CoverSearch(3, 2, False, fixed, None, relabel_symmetric=True)
        off = _CoverSearch(3, 2, False, fixed, None, relabel_symmetric=False)
        assert not on.relabel_symmetric
        assert set(on.solutions()) == set(off.solutions())

    @pytest.mark.parametrize("second", [1, 2, 3])
    def test_ordered_prefix_keeps_first_occurrence_words(self, second):
        # the pins of a counting branch: the run of ones, 2, then 1, 2 or 3
        fixed = {0: 1, 1: 1, 2: 1, 3: 2, 4: second}
        on = _CoverSearch(4, 3, False, fixed, None, relabel_symmetric=True)
        off = _CoverSearch(4, 3, False, fixed, None, relabel_symmetric=False)
        assert on.relabel_symmetric
        everything = set(off.solutions())
        kept = set(on.solutions())
        assert kept == {w for w in everything if first_occurrence_ordered(w)}
        assert on.nodes <= off.nodes


class TestNodePins:
    """Frozen node counts: whole counts, budget stops and first solutions."""

    @pytest.mark.parametrize("n, t", sorted(COUNT_AS_TEXT))
    def test_count_as_text(self, n, t):
        assert count_distinct(n, t).as_text() == COUNT_AS_TEXT[n, t]

    @pytest.mark.parametrize("kind, n, t, prefix, budget", BUDGET_STOPS)
    def test_budget_stops_one_node_past(self, kind, n, t, prefix, budget):
        generate = generate_subset_ucycle if kind == "subset" else find_multiset_ucycle
        c = SearchConstraints(required_prefix=prefix, node_budget=budget)
        with pytest.raises(SearchBudgetExceeded, match=f"^node budget {budget} exhausted$") as info:
            generate(n, t, c)
        assert info.value.nodes == budget + 1

    @pytest.mark.parametrize("kind, n, t", sorted(FIRST_SOLUTION_NODES))
    def test_nodes_after_first_solution(self, monkeypatch, kind, n, t):
        made = []

        class RecordingSearch(_CoverSearch):
            def __init__(self, *args, **kwargs):
                super().__init__(*args, **kwargs)
                made.append(self)

        monkeypatch.setattr("ucycles.searchgen._CoverSearch", RecordingSearch)
        generate = generate_subset_ucycle if kind == "subset" else find_multiset_ucycle
        generate(n, t)
        assert [search.nodes for search in made] == [FIRST_SOLUTION_NODES[kind, n, t]]

    @pytest.mark.parametrize("n, t, budget", sorted(BUDGETED_COUNT_AS_TEXT))
    def test_budgeted_count_as_text(self, n, t, budget):
        # a branch reads its search's nodes after the budget error
        assert count_distinct(n, t, budget=budget).as_text() == BUDGETED_COUNT_AS_TEXT[n, t, budget]

    def test_no_word_when_n_does_not_divide_the_family(self):
        # 4 does not divide C(5, 2) = 10: no letter count fits, no node is spent
        search = _CoverSearch(4, 2, False, {}, None)
        assert list(search.solutions()) == []
        assert search.nodes == 0

    def test_nodes_kept_when_the_generator_is_closed(self):
        search = _CoverSearch(3, 2, False, {0: 1, 1: 1}, None)
        words = search.solutions()
        next(words)
        first = search.nodes
        words.close()
        assert search.nodes == first > 0


class TestWindowCodes:
    """A window's code, the product of its letters' primes (the table the
    verifier shares), tells t-multisets apart."""

    @pytest.mark.parametrize("n", range(1, 9))
    @pytest.mark.parametrize("t", range(1, 7))
    def test_injective_on_small_alphabets(self, n, t):
        prime = _letter_primes(n)
        keys = list(combinations_with_replacement(range(1, n + 1), t))
        assert len({math.prod(prime[x] for x in key) for key in keys}) == len(keys)

    def test_injective_at_100(self):
        prime = _letter_primes(100)
        codes = {prime[a] * prime[b] * prime[c] for a, b, c in combinations_with_replacement(range(1, 101), 3)}
        assert len(codes) == math.comb(102, 3)
        # every code fits in one 30-bit digit of a CPython int
        assert max(codes) < 2**30

    @pytest.mark.parametrize("n", [1, 2, 6, 7, 100, 1000])
    def test_table_is_zero_then_the_first_n_primes(self, n):
        prime = _letter_primes(n)
        assert len(prime) == n + 1 and prime[0] == 0
        assert prime[1:4] == (2, 3, 5)[: min(n, 3)]
        assert all(b > a for a, b in zip(prime[1:], prime[2:]))
        assert all(all(p % q for q in range(2, math.isqrt(p) + 1)) for p in prime[1:])
        # no prime is skipped: every number between two of them is composite
        assert all(
            any(m % q == 0 for q in range(2, math.isqrt(m) + 1))
            for a, b in zip(prime[1:], prime[2:])
            for m in range(a + 1, b)
        )


class TestEnumeration:
    def test_matches_count(self):
        reps = count_distinct(4, 3).representatives
        assert len(set(reps)) == len(reps) == DISTINCT_CLASSES_4_3
        for letters in reps:
            assert verify_multiset_ucycle(CycleWord(4, letters), 3).ok

    def test_unanchored_brute_force_agrees(self):
        # independent route: all 3^6 words, filtered and folded
        found = set()
        for letters in product((1, 2, 3), repeat=6):
            w = CycleWord(3, letters)
            if verify_multiset_ucycle(w, 2).ok:
                found.add(canonicalize(w).representative.letters)
        assert len(found) == DISTINCT_CLASSES_3_2
        anchored = set(count_distinct(3, 2).representatives)
        assert found == anchored
