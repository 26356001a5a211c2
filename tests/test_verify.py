"""Admissibility predicates and exact-coverage verification."""

import math
from collections import Counter
from itertools import combinations, combinations_with_replacement

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from ucycles.core import CycleWord, relabel
from ucycles.verify import (
    VerificationReport,
    admissible_multiset,
    admissible_subset,
    verify_multiset_ucycle,
    verify_subset_ucycle,
)

from goldens import (
    ASSEMBLY_10,
    BASE_WORD_4,
    MULTISET2_WORD_5,
    SUBSET2_WORD_5,
    SUBSET3_WORD_8,
)


# Reference verifiers: sorted slices for the windows, the whole family walked
# for every word.  The library decides ``ok`` by counting distinct windows and
# must report exactly what these do.


def _ref_windows(word, t):
    ls = word.letters
    doubled = ls + ls[: t - 1]
    return [tuple(sorted(doubled[i : i + t])) for i in range(len(ls))]


def _ref_frequency_table(word):
    counts = Counter(word.letters)
    return {letter: counts.get(letter, 0) for letter in range(1, word.alphabet_size + 1)}


def ref_verify_multiset(word, t):
    n = word.alphabet_size
    expected = math.comb(n + t - 1, t)
    universe = list(combinations_with_replacement(range(1, n + 1), t))
    if len(word) < t:
        return VerificationReport(False, expected, len(word), tuple(universe), (), _ref_frequency_table(word))
    counts = Counter(_ref_windows(word, t))
    missing = tuple(k for k in universe if k not in counts)
    duplicated = tuple(sorted((k, c) for k, c in counts.items() if c >= 2))
    ok = len(word) == expected and not missing and not duplicated
    return VerificationReport(ok, expected, len(word), missing, duplicated, _ref_frequency_table(word))


def ref_verify_subset(word, t):
    n = word.alphabet_size
    expected = math.comb(n, t) if n >= t else 0
    universe = list(combinations(range(1, n + 1), t))
    if len(word) < t:
        return VerificationReport(False, expected, len(word), tuple(universe), (), _ref_frequency_table(word))
    counts = Counter(_ref_windows(word, t))
    invalid = {k: c for k, c in counts.items() if len(set(k)) < t}
    valid_dups = {k: c for k, c in counts.items() if len(set(k)) == t and c >= 2}
    missing = tuple(k for k in universe if k not in counts)
    duplicated = tuple(sorted({**invalid, **valid_dups}.items()))
    ok = len(word) == expected and not missing and not invalid and not valid_dups
    return VerificationReport(ok, expected, len(word), missing, duplicated, _ref_frequency_table(word))


def assert_same_reports(word, t):
    for got, want in (
        (verify_multiset_ucycle(word, t), ref_verify_multiset(word, t)),
        (verify_subset_ucycle(word, t), ref_verify_subset(word, t)),
    ):
        assert got == want
        assert got.as_text() == want.as_text()
        assert got.as_text(max_items=3) == want.as_text(max_items=3)


class TestMatchesReference:
    @settings(max_examples=200, deadline=None)
    @given(
        st.integers(min_value=1, max_value=6).flatmap(
            lambda n: st.tuples(
                st.just(n),
                st.lists(st.integers(min_value=1, max_value=n), min_size=1, max_size=16),
            )
        ),
        st.integers(min_value=1, max_value=4),
    )
    def test_small_words(self, nw, t):
        n, letters = nw
        assert_same_reports(CycleWord(n, tuple(letters)), t)

    @pytest.mark.parametrize("t", [1, 2, 3, 4])
    def test_known_ucycles_and_their_breakages(self, known_ucycles, t):
        for w in known_ucycles:
            ls = list(w.letters)
            swapped = ls[:]
            swapped[0], swapped[7] = swapped[7], swapped[0]
            for letters in (ls, ls[:-1], ls + ls[:1], swapped, ls[: t - 1] or ls[:1]):
                assert_same_reports(CycleWord(w.alphabet_size, tuple(letters)), t)

    def test_bool_letters(self):
        assert_same_reports(CycleWord(4, (True,) + BASE_WORD_4[1:]), 3)
        assert_same_reports(CycleWord(3, (True, 1, 2, True, 3)), 2)


class TestAdmissibility:
    @pytest.mark.parametrize(
        "n, t, expected",
        [
            (4, 3, True),    # 4 | 20
            (7, 3, True),    # 7 | 84
            (10, 3, True),   # 10 | 220
            (5, 2, True),    # 5 | 15
            (9, 3, False),   # 9 does not divide 165
            (3, 3, False),   # 3 does not divide 10
            (4, 2, False),   # 4 does not divide 10
        ],
    )
    def test_multiset(self, n, t, expected):
        assert admissible_multiset(n, t) is expected

    @pytest.mark.parametrize(
        "n, t, expected",
        [
            (8, 3, True),    # 8 | 56
            (5, 2, True),    # 5 | 10
            (4, 3, True),    # 4 | 4
            (6, 3, False),   # 6 does not divide 20
            (3, 3, False),   # 3 does not divide 1
            (9, 3, False),
        ],
    )
    def test_subset(self, n, t, expected):
        assert admissible_subset(n, t) is expected

    def test_bad_parameters(self):
        with pytest.raises(ValueError):
            admissible_multiset(0, 3)
        with pytest.raises(ValueError):
            admissible_subset(2, 3)  # needs n >= t


class TestMultisetVerification:
    def test_accepts_base_word(self):
        report = verify_multiset_ucycle(CycleWord(4, BASE_WORD_4), 3)
        assert report.ok
        assert report.expected_length == 20
        assert report.frequency_table == {1: 5, 2: 5, 3: 5, 4: 5}

    def test_accepts_assembly(self):
        assert verify_multiset_ucycle(CycleWord(10, ASSEMBLY_10), 3).ok

    def test_accepts_doubled_pair_word(self):
        assert verify_multiset_ucycle(CycleWord(5, MULTISET2_WORD_5), 2).ok

    def test_truncation_reports_missing(self):
        report = verify_multiset_ucycle(CycleWord(4, BASE_WORD_4[:-1]), 3)
        assert not report.ok
        assert report.actual_length == 19
        assert len(report.missing) >= 1

    def test_duplicate_detection(self):
        # swapping two letters keeps length and frequencies but breaks coverage
        broken = list(BASE_WORD_4)
        broken[0], broken[5] = broken[5], broken[0]
        report = verify_multiset_ucycle(CycleWord(4, tuple(broken)), 3)
        assert not report.ok
        assert report.duplicated and report.missing

    def test_word_shorter_than_window(self):
        report = verify_multiset_ucycle(CycleWord(4, (1, 2)), 3)
        assert not report.ok
        assert len(report.missing) == 20

    def test_rejects_nonpositive_t(self):
        with pytest.raises(ValueError):
            verify_multiset_ucycle(CycleWord(2, (1, 2)), 0)


class TestSubsetVerification:
    def test_accepts_pair_word(self):
        report = verify_subset_ucycle(CycleWord(5, SUBSET2_WORD_5), 2)
        assert report.ok
        assert report.expected_length == 10

    def test_accepts_triple_word(self):
        report = verify_subset_ucycle(CycleWord(8, SUBSET3_WORD_8), 3)
        assert report.ok
        assert report.frequency_table == {x: 7 for x in range(1, 9)}

    def test_repeated_letter_window_is_invalid(self):
        # 4 distinct subsets would be covered by 1234; 1224 repeats a letter
        report = verify_subset_ucycle(CycleWord(4, (1, 2, 2, 4)), 3)
        assert not report.ok
        assert any(len(set(k)) < 3 for k, _ in report.duplicated)

    def test_distinct_windows_that_repeat_a_letter(self):
        # six distinct windows for the six 2-subsets of [4], three of them not subsets
        report = verify_subset_ucycle(CycleWord(4, (1, 1, 2, 2, 3, 3)), 2)
        assert not report.ok
        assert report.duplicated == (((1, 1), 1), ((2, 2), 1), ((3, 3), 1))
        assert report.missing == ((1, 4), (2, 4), (3, 4))

    def test_multiset_word_fails_subset_check(self):
        assert not verify_subset_ucycle(CycleWord(4, BASE_WORD_4), 3).ok


class TestReportText:
    def test_truncates_item_lists(self):
        # the word's three windows all sort to {1,2,3}: 219 keys missing
        report = verify_multiset_ucycle(CycleWord(10, (1, 2, 3)), 3)
        text = report.as_text(max_items=5)
        assert "missing_count: 219" in text
        assert "(+214 more)" in text
        assert "duplicated: {1,2,3}x3" in text

    def test_full_text_round_trip_fields(self):
        report = verify_multiset_ucycle(CycleWord(4, BASE_WORD_4), 3)
        text = report.as_text()
        assert "ok: true" in text
        assert "expected_length: 20" in text
        assert "frequency: 1=5 2=5 3=5 4=5" in text


@settings(max_examples=40, deadline=None)
@given(st.integers(min_value=0, max_value=19), st.randoms())
def test_ok_invariant_under_rotation_and_relabeling(off, rnd):
    perm = list(range(1, 5))
    rnd.shuffle(perm)
    w = relabel(CycleWord(4, BASE_WORD_4).rotate(off), dict(zip(range(1, 5), perm)))
    report = verify_multiset_ucycle(w, 3)
    assert report.ok
    assert sorted(report.frequency_table.values()) == [5, 5, 5, 5]
