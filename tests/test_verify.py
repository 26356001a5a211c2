"""Admissibility predicates and exact-coverage verification."""

import dataclasses
import math
import pickle
from collections import Counter
from itertools import combinations, combinations_with_replacement
from unittest import mock

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from ucycles.core import CycleWord, cyclic_windows, relabel
from ucycles.doubling import DoublingError
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
# for every word.  The library decides ``ok`` from the length, the first
# letter's count and the distinct windows, and must report exactly what these
# do.


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


FIELDS = ("ok", "expected_length", "actual_length", "missing", "duplicated", "frequency_table")

# a passing word, a failing word of the right length, a word shorter than t=3
VALUE_CASES = [
    pytest.param(BASE_WORD_4, id="passing"),
    pytest.param((BASE_WORD_4[5],) + BASE_WORD_4[1:5] + (BASE_WORD_4[0],) + BASE_WORD_4[6:], id="failing"),
    pytest.param((1, 2), id="too-short"),
]

VERIFIERS = [
    pytest.param(verify_multiset_ucycle, ref_verify_multiset, id="multiset"),
    pytest.param(verify_subset_ucycle, ref_verify_subset, id="subset"),
]


class TestValueSemantics:
    """A verifier's report defers its evidence but behaves as a plain value."""

    @pytest.mark.parametrize("verify, reference", VERIFIERS)
    @pytest.mark.parametrize("letters", VALUE_CASES)
    def test_equals_a_constructed_report_both_ways(self, verify, reference, letters):
        word = CycleWord(4, letters)
        constructed = reference(word, 3)
        assert verify(word, 3) == constructed
        assert constructed == verify(word, 3)
        assert not verify(word, 3) != constructed
        assert not constructed != verify(word, 3)

    def test_passing_and_failing_words(self):
        passing = verify_multiset_ucycle(CycleWord(4, BASE_WORD_4), 3)
        assert passing == VerificationReport(True, 20, 20, (), (), {1: 5, 2: 5, 3: 5, 4: 5})
        short = verify_multiset_ucycle(CycleWord(4, (1, 2)), 3)
        assert VerificationReport(
            ok=False,
            expected_length=20,
            actual_length=2,
            missing=tuple(combinations_with_replacement(range(1, 5), 3)),
            duplicated=(),
            frequency_table={1: 1, 2: 1, 3: 0, 4: 0},
        ) == short
        assert short != passing
        assert passing == mock.ANY and passing != object()

    @pytest.mark.parametrize("field", FIELDS)
    @pytest.mark.parametrize("letters", VALUE_CASES)
    def test_fields_are_immutable(self, field, letters):
        word = CycleWord(4, letters)
        for report in (verify_multiset_ucycle(word, 3), ref_verify_multiset(word, 3)):
            before = getattr(report, field)
            with pytest.raises(dataclasses.FrozenInstanceError):
                setattr(report, field, before)
            with pytest.raises(dataclasses.FrozenInstanceError):
                delattr(report, field)
            assert getattr(report, field) is before

    @pytest.mark.parametrize("verify, reference", VERIFIERS)
    @pytest.mark.parametrize("letters", VALUE_CASES)
    def test_pickle_round_trip(self, verify, reference, letters):
        word = CycleWord(4, letters)
        assert pickle.loads(pickle.dumps(verify(word, 3))) == reference(word, 3)
        error = pickle.loads(pickle.dumps(DoublingError("does not close", verify(word, 3))))
        assert isinstance(error, DoublingError)
        assert str(error) == "does not close"
        assert error.report == reference(word, 3)

    @pytest.mark.parametrize("field", ["missing", "duplicated", "frequency_table"])
    @pytest.mark.parametrize("letters", VALUE_CASES)
    def test_deferred_field_is_kept(self, field, letters):
        report = verify_multiset_ucycle(CycleWord(4, letters), 3)
        assert getattr(report, field) is getattr(report, field)

    @settings(max_examples=200, deadline=None)
    @given(
        st.integers(min_value=1, max_value=6).flatmap(
            lambda n: st.tuples(
                st.just(n),
                st.lists(st.integers(min_value=1, max_value=n), min_size=1, max_size=16),
            )
        ),
        st.integers(min_value=1, max_value=4),
        st.permutations(["missing", "duplicated", "frequency_table", "text", "short text"]),
    )
    def test_any_order_of_reads(self, nw, t, order):
        # text first walks the family only as far as it shows; duplicated
        # first does not walk it at all
        n, letters = nw
        word = CycleWord(n, tuple(letters))
        for verify, reference in ((verify_multiset_ucycle, ref_verify_multiset), (verify_subset_ucycle, ref_verify_subset)):
            got, want = verify(word, t), reference(word, t)
            for read in order:
                if read == "text":
                    assert got.as_text() == want.as_text()
                elif read == "short text":
                    assert got.as_text(max_items=3) == want.as_text(max_items=3)
                else:
                    assert getattr(got, read) == getattr(want, read)
            assert got == want

    @pytest.mark.parametrize("letters", VALUE_CASES)
    def test_dataclass_helpers_see_every_field(self, letters):
        word = CycleWord(4, letters)
        report, want = verify_multiset_ucycle(word, 3), ref_verify_multiset(word, 3)
        assert [f.name for f in dataclasses.fields(report)] == list(FIELDS)
        assert dataclasses.asdict(report) == dataclasses.asdict(want)
        assert dataclasses.replace(report) == want

    def test_repr_names_every_field(self):
        report = verify_multiset_ucycle(CycleWord(4, BASE_WORD_4), 3)
        assert repr(report) == (
            "VerificationReport(ok=True, expected_length=20, actual_length=20, "
            "missing=(), duplicated=(), frequency_table={1: 5, 2: 5, 3: 5, 4: 5})"
        )


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


def _own_verifier(word, t):
    """The verifier whose family has as many members as the word has letters."""
    if word.alphabet_size >= t and len(word) == math.comb(word.alphabet_size, t):
        return verify_subset_ucycle
    return verify_multiset_ucycle


def _reads_windows(verify, word, t):
    """Whether deciding ``ok`` read the word's windows."""
    with mock.patch("ucycles.verify.cyclic_windows", wraps=cyclic_windows) as spy:
        verify(word, t)
    return spy.called


class TestLetterCountStep:
    """After the length and before the windows, the first letter's count decides.

    Every letter of a ucycle occurs (family size)/n times, so a word of the
    family's length whose first letter occurs any other number of times
    fails without a window read.  The reports match the reference anyway.
    """

    @settings(max_examples=40, deadline=None)
    @given(index=st.integers(min_value=0, max_value=3), rnd=st.randoms(use_true_random=False))
    def test_shuffled_ucycles_reach_the_windows(self, known_ucycles, index, rnd):
        # a shuffle keeps the length and every letter's count
        known = known_ucycles[index]
        letters = list(known.letters)
        rnd.shuffle(letters)
        word = CycleWord(known.alphabet_size, tuple(letters))
        assert_same_reports(word, 3)
        assert _reads_windows(_own_verifier(known, 3), word, 3)

    @settings(max_examples=40, deadline=None)
    @given(index=st.integers(min_value=0, max_value=3), rnd=st.randoms(use_true_random=False))
    def test_first_letter_off_by_one_reads_no_window(self, known_ucycles, index, rnd):
        known = known_ucycles[index]
        n = known.alphabet_size
        letters = list(known.letters)
        rnd.shuffle(letters)
        # change one letter so that the (new) first letter gains or loses one
        i = rnd.randrange(len(letters))
        old = letters[i]
        if i == 0 or old == letters[0]:
            letters[i] = rnd.choice([x for x in range(1, n + 1) if x != old])
        else:
            letters[i] = letters[0]
        assert abs(letters.count(letters[0]) - len(letters) // n) == 1
        word = CycleWord(n, tuple(letters))
        assert_same_reports(word, 3)
        verify = _own_verifier(known, 3)
        assert not verify(word, 3).ok
        assert not _reads_windows(verify, word, 3)

    @pytest.mark.parametrize("index", range(4))
    def test_another_letter_miscounted_reaches_the_windows(self, known_ucycles, index):
        known = known_ucycles[index]
        letters = list(known.letters)
        first = letters[0]
        # turn one occurrence of a second letter into a third: the first
        # letter's count stays right, those two are off by one
        i = next(i for i, x in enumerate(letters) if x != first)
        letters[i] = next(x for x in range(1, known.alphabet_size + 1) if x not in (first, letters[i]))
        word = CycleWord(known.alphabet_size, tuple(letters))
        assert_same_reports(word, 3)
        verify = _own_verifier(known, 3)
        assert not verify(word, 3).ok
        assert _reads_windows(verify, word, 3)

    @settings(max_examples=60, deadline=None)
    @given(
        st.sampled_from([(3, 10, verify_multiset_ucycle), (6, 20, verify_subset_ucycle)]).flatmap(
            lambda case: st.tuples(
                st.just(case),
                st.lists(st.integers(min_value=1, max_value=case[0]), min_size=case[1], max_size=case[1]),
            )
        )
    )
    def test_inadmissible_family_length(self, case_letters):
        # C(5, 3) = 10 multisets of [3] and C(6, 3) = 20 subsets of [6]:
        # n divides neither, so no letter count matches and no ucycle exists
        (n, length, verify), letters = case_letters
        word = CycleWord(n, tuple(letters))
        assert len(word) == verify(word, 3).expected_length == length
        assert_same_reports(word, 3)
        assert not verify(word, 3).ok
        assert not _reads_windows(verify, word, 3)


class TestReportText:
    def test_truncates_item_lists(self):
        # the word's three windows all sort to {1,2,3}: 219 keys missing
        report = verify_multiset_ucycle(CycleWord(10, (1, 2, 3)), 3)
        text = report.as_text(max_items=5)
        assert "missing_count: 219" in text
        assert "(+214 more)" in text
        assert "duplicated: {1,2,3}x3" in text

    @pytest.mark.parametrize("verify, kind_size", [(verify_multiset_ucycle, math.comb(20002, 3)), (verify_subset_ucycle, math.comb(20000, 3))])
    def test_huge_family_is_counted_not_walked(self, verify, kind_size):
        # one distinct window {1,2,3} against a family of about 1.3e12 keys
        report = verify(CycleWord(20000, (1, 2, 3)), 3)
        text = report.as_text(max_items=5)
        assert f"missing_count: {kind_size - 1}" in text
        assert f"(+{kind_size - 6} more)" in text
        assert "duplicated: {1,2,3}x3" in text
        assert report.duplicated == (((1, 2, 3), 3),)

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
