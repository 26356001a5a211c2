"""Pair doubling: 3-subset ucycles to 3-multiset ucycles."""

from collections import Counter

import pytest

from ucycles.core import CycleWord, cyclic_windows
from ucycles.doubling import (
    AnchorPermutation,
    DoublingError,
    InfeasiblePermutation,
    append_triples,
    choose_permutation,
    construct_doubling,
    double_pairs,
    pair_index,
)
from ucycles.verify import (
    InadmissibleError,
    verify_multiset_ucycle,
    verify_subset_ucycle,
)

from goldens import (
    ANCHOR_ORDER_8,
    DOUBLED_WORD_8,
    MISSING_PAIRS_8,
    MULTISET3_WORD_8,
    SUBSET2_WORD_5,
    SUBSET3_WORD_8,
)


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
        assert perm.anchor_pairs() == MISSING_PAIRS_8
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
        assert idx8.missing <= perm.anchor_pairs()

    def test_odd_alphabet_is_infeasible(self):
        w5 = CycleWord(5, SUBSET2_WORD_5)
        with pytest.raises(InfeasiblePermutation):
            choose_permutation(w5, pair_index(w5))


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


class TestAppendTriples:
    def test_frozen_result(self, x8, idx8):
        perm = AnchorPermutation(ANCHOR_ORDER_8)
        final = append_triples(double_pairs(x8, perm, idx8), perm)
        assert final.letters == MULTISET3_WORD_8
        assert verify_multiset_ucycle(final, 3).ok

    def test_detects_inconsistent_input(self, x8):
        perm = AnchorPermutation(ANCHOR_ORDER_8)
        with pytest.raises(DoublingError):
            append_triples(x8, perm)  # x8 was never pair-doubled


class TestConstructDoubling:
    def test_end_to_end_with_supplied_input(self, x8):
        word = construct_doubling(8, x8)
        assert word.letters == MULTISET3_WORD_8

    def test_sweep_outputs_verify(self, subset_sweep, doubling_sweep):
        for n, word in doubling_sweep.value.items():
            assert word.alphabet_size == n
            assert verify_multiset_ucycle(word, 3).ok

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
