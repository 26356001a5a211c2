"""Pair doubling: 3-subset ucycles to 3-multiset ucycles."""

import hashlib
from collections import Counter
from itertools import permutations
from types import SimpleNamespace

import pytest

import ucycles.doubling
import ucycles.searchgen
import ucycles.verify
from ucycles.cli import main as cli_main
from ucycles.core import CycleWord, cyclic_windows
from ucycles.doubling import (
    AnchorPermutation,
    InfeasiblePermutation,
    PairOccurrenceIndex,
    append_triples,
    choose_permutation,
    construct_doubling,
    double_pairs,
    pair_index,
)
from ucycles.ucyfile import format_ucy
from ucycles.verify import (
    InadmissibleError,
    verify_multiset_ucycle,
    verify_subset_ucycle,
)

from goldens import (
    ANCHOR_ORDER_8,
    DOUBLED_WORD_8,
    DOUBLING_SHA256,
    MISSING_PAIRS_8,
    MULTISET3_WORD_8,
    SUBSET2_WORD_5,
    SUBSET3_WORD_8,
)


def _least_by_enumeration(word, idx):
    """Reference anchor permutation: assemble every endpoint-mate choice, keep the least."""
    n = word.alphabet_size
    if n % 2:
        raise InfeasiblePermutation("anchor permutation needs an even alphabet")
    head, tail = word.letters[0], word.letters[-1]
    partner = {}
    for u, v in idx.missing:
        partner[u] = v
        partner[v] = u
    leftovers = [x for x in range(1, n + 1) if x not in partner]

    def assemble(head_mate, tail_mate):
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
    return min(candidates)


def _doubled_by_splicing(word, perm, idx):
    """Reference doubling: splice each pair in after its first occurrence, right to left."""
    chain = perm.chain_pairs()
    to_double = [p for p in idx.present if p not in chain]
    for p in to_double:
        if p not in idx.first_occurrence:
            raise ValueError(f"pair {p} is adjacent only at the wrap and cannot be doubled")
    out = list(word.letters)
    for p in sorted(to_double, key=lambda q: idx.first_occurrence[q], reverse=True):
        i = idx.first_occurrence[p]
        out[i + 2 : i + 2] = [word.letters[i], word.letters[i + 1]]
    return tuple(out)


def _partial_matchings(letters):
    """Every set of disjoint pairs over ``letters`` (ascending), as sorted tuples."""
    if not letters:
        yield ()
        return
    first, rest = letters[0], letters[1:]
    yield from _partial_matchings(rest)
    for j, mate in enumerate(rest):
        for m in _partial_matchings(rest[:j] + rest[j + 1 :]):
            yield ((first, mate),) + m


def _outcome(fn, *args):
    try:
        return fn(*args)
    except (InfeasiblePermutation, ValueError) as exc:
        return type(exc), str(exc)


@pytest.fixture(scope="module")
def x8():
    return CycleWord(8, SUBSET3_WORD_8)


@pytest.fixture(scope="module")
def idx8(x8):
    return pair_index(x8)


class TestPairIndex:
    def test_missing_pairs(self, idx8):
        assert idx8.missing == MISSING_PAIRS_8

    def test_present_and_missing_partition_all_pairs(self, idx8):
        assert len(idx8.present) + len(idx8.missing) == 28
        assert not idx8.present & idx8.missing

    def test_first_occurrence_points_at_the_pair(self, x8, idx8):
        for (a, b), i in idx8.first_occurrence.items():
            assert {x8.letters[i], x8.letters[i + 1]} == {a, b}

    def test_wrap_adjacency_counts_as_present(self, x8, idx8):
        wrap = tuple(sorted((x8.letters[-1], x8.letters[0])))
        assert wrap in idx8.present

    def test_rejects_repeated_adjacent_letter(self):
        with pytest.raises(ValueError):
            pair_index(CycleWord(3, (1, 1, 2, 3)))

    def test_rejects_missing_pairs_sharing_a_letter(self):
        # letter 1 is adjacent to 4 only, so {1,2},{1,3},{1,5} are all missing
        w = CycleWord(5, (4, 1, 4, 2, 4, 3, 4, 5, 2, 3, 5, 2, 5, 3))
        with pytest.raises(ValueError, match="missing pairs share a letter"):
            pair_index(w)


class TestAnchorPermutation:
    def test_chain_and_anchor_pairs(self):
        perm = AnchorPermutation(ANCHOR_ORDER_8)
        x = perm.order
        assert {tuple(sorted(p)) for p in zip(x[::2], x[1::2])} == MISSING_PAIRS_8
        assert perm.chain_pairs() == frozenset(
            {(1, 5), (3, 5), (3, 7), (4, 7), (4, 8), (2, 8), (2, 6), (1, 6)}
        )

    def test_rejects_non_permutation(self):
        with pytest.raises(ValueError):
            AnchorPermutation((1, 2, 2, 4))

    def test_rejects_odd_alphabet(self):
        with pytest.raises(ValueError):
            AnchorPermutation((1, 2, 3))

    def test_choose_permutation_frozen_answer(self, x8, idx8):
        assert choose_permutation(x8, idx8).order == ANCHOR_ORDER_8

    def test_choose_permutation_constraints(self, x8, idx8):
        perm = choose_permutation(x8, idx8)
        assert perm.order[0] == x8.letters[0]
        assert perm.order[-1] == x8.letters[-1]
        x = perm.order
        assert idx8.missing <= {tuple(sorted(p)) for p in zip(x[::2], x[1::2])}

    def test_odd_alphabet_is_infeasible(self):
        w5 = CycleWord(5, SUBSET2_WORD_5)
        with pytest.raises(InfeasiblePermutation):
            choose_permutation(w5, pair_index(w5))

    def test_matches_enumeration(self):
        # every partial matching as the missing pairs, every pair of distinct
        # ends: the built order is the least assembled one, and an infeasible
        # case raises the same message
        cases = 0
        for n in (4, 5, 6, 7, 8):
            for matching in _partial_matchings(tuple(range(1, n + 1))):
                idx = PairOccurrenceIndex({}, frozenset(), frozenset(matching))
                for head, tail in permutations(range(1, n + 1), 2):
                    word = SimpleNamespace(alphabet_size=n, letters=(head, tail))
                    built = _outcome(lambda: choose_permutation(word, idx).order)
                    assert built == _outcome(_least_by_enumeration, word, idx)
                    cases += n % 2 == 0
        assert cases == 45184


class TestDoublePairs:
    def test_frozen_intermediate(self, x8, idx8):
        perm = AnchorPermutation(ANCHOR_ORDER_8)
        assert double_pairs(x8, perm, idx8).letters == DOUBLED_WORD_8

    def test_length_accounting(self, x8, idx8):
        perm = AnchorPermutation(ANCHOR_ORDER_8)
        doubled_count = len(idx8.present - perm.chain_pairs())
        out = double_pairs(x8, perm, idx8)
        assert len(out) == len(x8) + 2 * doubled_count == 96

    def test_window_diff_adds_only_pair_multisets(self, x8, idx8):
        perm = AnchorPermutation(ANCHOR_ORDER_8)
        out = double_pairs(x8, perm, idx8)
        before = Counter(cyclic_windows(x8, 3))
        after = Counter(cyclic_windows(out, 3))
        assert not before - after  # nothing removed
        added = after - before
        expected = Counter()
        for a, b in idx8.present - perm.chain_pairs():
            expected[tuple(sorted((a, a, b)))] += 1
            expected[tuple(sorted((a, b, b)))] += 1
        assert added == expected


    @pytest.mark.parametrize("n", [8, 10, 14])
    def test_matches_splicing_on_every_rotation(self, subset_sweep, n):
        word = CycleWord(8, SUBSET3_WORD_8) if n == 8 else subset_sweep.value[n]
        for offset in range(len(word)):
            rotated = word.rotate(offset)
            idx = pair_index(rotated)
            perm = choose_permutation(rotated, idx)
            assert double_pairs(rotated, perm, idx).letters == _doubled_by_splicing(
                rotated, perm, idx
            )

    def test_pair_adjacent_only_at_the_wrap_is_refused(self):
        # {4,1} is adjacent only at the wrap, and 1, 4 are not consecutive
        # in the anchor, so that pair would have to be doubled
        word = CycleWord(4, (1, 2, 3, 4))
        idx = pair_index(word)
        perm = AnchorPermutation((1, 2, 4, 3))
        expected = (ValueError, "pair (1, 4) is adjacent only at the wrap and cannot be doubled")
        assert _outcome(_doubled_by_splicing, word, perm, idx) == expected
        assert _outcome(double_pairs, word, perm, idx) == expected


class TestAppendTriples:
    def test_frozen_result(self, x8, idx8):
        perm = AnchorPermutation(ANCHOR_ORDER_8)
        final = append_triples(double_pairs(x8, perm, idx8), perm)
        assert final.letters == MULTISET3_WORD_8
        assert verify_multiset_ucycle(final, 3).ok

    def test_detects_inconsistent_input(self, x8):
        perm = AnchorPermutation(ANCHOR_ORDER_8)
        with pytest.raises(AssertionError, match="^emitted word failed verification$"):
            append_triples(x8, perm)  # x8 was never pair-doubled


class TestConstructDoubling:
    def test_end_to_end_with_supplied_input(self, x8):
        word = construct_doubling(8, x8)
        assert word.letters == MULTISET3_WORD_8

    def test_sweep_outputs_verify(self, subset_sweep, doubling_sweep):
        for n, word in doubling_sweep.value.items():
            assert word.alphabet_size == n
            assert verify_multiset_ucycle(word, 3).ok

    @pytest.mark.parametrize("n", sorted(DOUBLING_SHA256))
    def test_pinned_word_digests(self, n):
        payload = format_ucy(construct_doubling(n), 3).encode()
        assert hashlib.sha256(payload).hexdigest() == DOUBLING_SHA256[n]

    def test_final_word_is_built_once(self, x8, monkeypatch):
        # the supplied word is already a CycleWord; only the result is built
        built = []
        init = CycleWord.__init__

        def counted(word, alphabet_size, letters):
            init(word, alphabet_size, letters)
            built.append(len(word.letters))

        monkeypatch.setattr(CycleWord, "__init__", counted)
        assert construct_doubling(8, x8).letters == MULTISET3_WORD_8
        assert built == [len(MULTISET3_WORD_8)]

    @staticmethod
    def _count_verifications(monkeypatch):
        """Wrap each verifier in ``ucycles.verify``, where every built word is
        checked, and in doubling, which checks a supplied word itself."""
        calls = Counter()
        for module, kind in (
            (ucycles.verify, "subset"),
            (ucycles.verify, "multiset"),
            (ucycles.doubling, "subset"),
        ):
            name = f"verify_{kind}_ucycle"
            original = getattr(module, name)

            def counted(word, t, _original=original, _kind=kind):
                calls[_kind] += 1
                return _original(word, t)

            monkeypatch.setattr(module, name, counted)
        return calls

    def test_a_built_subset_word_is_verified_only_through_the_result(self, monkeypatch):
        calls = self._count_verifications(monkeypatch)
        construct_doubling(26)
        assert calls == {"multiset": 1}

    def test_a_supplied_subset_word_is_verified_before_use(self, x8, monkeypatch):
        calls = self._count_verifications(monkeypatch)
        assert construct_doubling(8, x8).letters == MULTISET3_WORD_8
        assert calls == {"subset": 1, "multiset": 1}

    def test_budget_does_not_reach_the_construction(self, monkeypatch, tmp_path):
        # the subset word over [22] is the Euler block: the route searches
        # nothing, so no letter search runs and --budget 1 changes no letter
        def no_search(*args, **kwargs):
            raise AssertionError("the doubling route ran the letter search")

        monkeypatch.setattr(ucycles.searchgen, "_CoverSearch", no_search)
        payload = format_ucy(construct_doubling(22), 3).encode()
        assert hashlib.sha256(payload).hexdigest() == DOUBLING_SHA256[22]
        out = tmp_path / "d22.ucy"
        argv = ["gen", "--n", "22", "--t", "3", "--method", "doubling", "--budget", "1"]
        assert cli_main([*argv, "--out", str(out)]) == 0
        assert hashlib.sha256(out.read_bytes()).hexdigest() == DOUBLING_SHA256[22]

    def test_rejects_multiple_of_three(self):
        with pytest.raises(InadmissibleError):
            construct_doubling(12)

    def test_rejects_odd_alphabet(self):
        with pytest.raises(ValueError):
            construct_doubling(11)

    def test_rejects_small_alphabet(self):
        with pytest.raises(ValueError):
            construct_doubling(4)

    def test_rejects_subset_cycle_over_another_alphabet(self, x8):
        with pytest.raises(ValueError, match=r"over \[8\], not \[10\]"):
            construct_doubling(10, x8)

    def test_rejects_bogus_subset_cycle(self):
        with pytest.raises(ValueError):
            construct_doubling(8, CycleWord(8, tuple(range(1, 9))))
