"""Admissibility predicates and exact-coverage verification."""

import dataclasses
import math
import pickle
from collections import Counter
from itertools import combinations, combinations_with_replacement, islice
from unittest import mock

import pytest
from hypothesis import assume, given, settings
from hypothesis import strategies as st

from ucycles.core import CycleWord
from ucycles.verify import (
    VerificationReport,
    _distinct_windows,
    _family,
    _family_size,
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
# letter's count, the letter sum and the distinct windows, and must report
# exactly what these do.


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


class TestFamily:
    def test_keys_and_sizes_match_itertools(self):
        for n in range(1, 8):
            for t in range(1, 7):
                for distinct, reference in ((False, combinations_with_replacement), (True, combinations)):
                    keys = list(_family(n, t, distinct))
                    assert keys == list(reference(range(1, n + 1), t))
                    assert len(keys) == _family_size(n, t, distinct)

    def test_first_keys_of_a_huge_alphabet(self):
        # no pool of 10**9 letters is built before the first key
        assert list(islice(_family(10**9, 3, True), 2)) == [(1, 2, 3), (1, 2, 4)]
        assert list(islice(_family(10**9, 3, False), 2)) == [(1, 1, 1), (1, 1, 2)]


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


@settings(max_examples=200, deadline=None)
@given(
    st.integers(min_value=1, max_value=8).flatmap(
        lambda n: st.tuples(
            st.just(n),
            st.lists(st.integers(min_value=1, max_value=n), min_size=6, max_size=24),
        )
    ),
    st.integers(min_value=1, max_value=6),
)
def test_window_codes_count_the_distinct_windows(nw, t):
    # the prime-product codes against the sorted-slice windows
    n, letters = nw
    word = CycleWord(n, tuple(letters))
    assert _distinct_windows(word.letters, n, t) == len(set(_ref_windows(word, t)))


def _own_verifier(word, t):
    """The verifier whose family has as many members as the word has letters."""
    if word.alphabet_size >= t and len(word) == math.comb(word.alphabet_size, t):
        return verify_subset_ucycle
    return verify_multiset_ucycle


def _reads_windows(verify, word, t):
    """Whether deciding ``ok`` read the word's windows."""
    with mock.patch("ucycles.verify._distinct_windows", wraps=_distinct_windows) as spy:
        verify(word, t)
    return spy.called


class TestLetterCountStep:
    """After the length and before the windows, the first letter's count and
    the letter sum decide.

    Every letter of a ucycle occurs (family size)/n times, so a word of the
    family's length whose first letter occurs any other number of times, or
    whose letters do not sum to (family size)·(n+1)/2, fails without a window
    read.  The reports match the reference anyway.
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
        # raise one b to b+1 and lower one c to c-1: the first letter's count
        # and the letter sum stay right while other letters are miscounted
        # (b+1 != c, so the two edits are not a swap)
        others = set(range(1, known.alphabet_size + 1)) - {first}
        b, c = next(
            (b, c)
            for b in sorted(others)
            for c in sorted(others)
            if {b + 1, c - 1} <= others and b + 1 != c
        )
        i = letters.index(b)
        j = next(j for j, x in enumerate(letters) if x == c and j != i)
        letters[i], letters[j] = b + 1, c - 1
        assert letters.count(first) == known.letters.count(first)
        assert sum(letters) == sum(known.letters)
        word = CycleWord(known.alphabet_size, tuple(letters))
        assert_same_reports(word, 3)
        verify = _own_verifier(known, 3)
        assert not verify(word, 3).ok
        assert _reads_windows(verify, word, 3)

    @settings(max_examples=60, deadline=None)
    @given(
        case=st.sampled_from(
            [
                (4, 3, math.comb(6, 3), verify_multiset_ucycle),
                (5, 2, math.comb(6, 2), verify_multiset_ucycle),
                (8, 3, math.comb(8, 3), verify_subset_ucycle),
                (7, 3, math.comb(7, 3), verify_subset_ucycle),
            ]
        ),
        data=st.data(),
    )
    def test_wrong_letter_sum_reads_no_window(self, case, data):
        # the first letter occurs (family size)/n times, the others anyhow
        n, t, expected, verify = case
        per = expected // n
        first = data.draw(st.integers(min_value=1, max_value=n))
        rest = data.draw(
            st.lists(
                st.integers(min_value=1, max_value=n).filter(lambda x: x != first),
                min_size=expected - per,
                max_size=expected - per,
            )
        )
        tail = [first] * (per - 1) + rest
        data.draw(st.randoms(use_true_random=False)).shuffle(tail)
        letters = (first, *tail)
        assume(2 * sum(letters) != expected * (n + 1))
        word = CycleWord(n, letters)
        assert len(word) == verify(word, t).expected_length
        assert letters.count(first) * n == expected
        assert_same_reports(word, t)
        assert not verify(word, t).ok
        assert not _reads_windows(verify, word, t)

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


def _no_letter_pass(word):
    raise AssertionError("a passing report counted its letters")


class TestArithmeticFrequency:
    """A passing report's letter counts come from the family size, not the word.

    Every letter of a ucycle occurs (family size)/n times, so a passing
    report gives each letter that count without a pass over the letters; a
    failing report still counts them.
    """

    @pytest.mark.parametrize("index", range(4))
    def test_passing_report_reads_no_letter(self, known_ucycles, index, monkeypatch):
        # multisets of [4], [13] (inductive), [16] (doubling); 3-subsets of [8]
        word = known_ucycles[index]
        monkeypatch.setattr("ucycles.verify._frequency_table", _no_letter_pass)
        report = _own_verifier(word, 3)(word, 3)
        assert report.ok
        assert report.frequency_table == _ref_frequency_table(word)
        counted = sorted(Counter(word.letters).items())
        assert report.as_text().endswith("\nfrequency: " + " ".join(f"{a}={c}" for a, c in counted))

    @pytest.mark.parametrize("verify", [verify_multiset_ucycle, verify_subset_ucycle])
    def test_failing_report_counts_its_letters(self, verify):
        letters = list(BASE_WORD_4)
        letters[3] = 4 if letters[3] != 4 else 3
        word = CycleWord(4, tuple(letters))
        with mock.patch("ucycles.verify._frequency_table", wraps=_ref_frequency_table) as spy:
            report = verify(word, 3)
            assert not report.ok
            assert report.frequency_table == _ref_frequency_table(word)
        assert spy.call_count == 1
        assert sum(report.frequency_table.values()) == len(word)


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

    @pytest.mark.parametrize("verify", [verify_multiset_ucycle, verify_subset_ucycle])
    def test_frequency_line_lists_the_letters_that_occur(self, verify):
        # n above the word's length: the letters that occur, then the count
        # of the absent ones, with no table over [n] built
        report = verify(CycleWord(10**6, (1, 2, 2, 5)), 3)
        with mock.patch("ucycles.verify._frequency_table") as table:
            text = report.as_text(max_items=5)
        table.assert_not_called()
        assert text.splitlines()[-1] == "frequency: 1=1 2=2 5=1 (+999997 absent)"
        assert len(text) < 1000

    @pytest.mark.parametrize("verify", [verify_multiset_ucycle, verify_subset_ucycle])
    @pytest.mark.parametrize("max_items", [None, 50])
    def test_word_shorter_than_t_lists_no_key(self, verify, max_items):
        # every key is missing and longer than the word: only their count
        # is printed, and no key is built
        word = CycleWord(3, (1, 2, 3))
        report = verify(word, 30)
        text = report.as_text(max_items=max_items)
        assert f"missing_count: {report.expected_length}" in text
        assert "missing:" not in text
        assert "duplicated_count: 0" in text
        assert not report.__dict__.get("missing")
        assert len(text) < 1000
        # the constructed form of a short report gives the same text
        short = verify(word, 5)
        assert short.as_text(max_items) == dataclasses.replace(short).as_text(max_items)

    def test_duplicated_walks_no_family(self):
        # the duplicated keys of a huge family's report are read off the
        # word's windows, without a walk of about 1.3e12 keys
        def walked(*args):
            raise AssertionError("the family was walked")
            yield

        report = verify_multiset_ucycle(CycleWord(20000, (1, 2, 3)), 3)
        with mock.patch("ucycles.verify._family", walked):
            assert report.duplicated == (((1, 2, 3), 3),)
        assert "missing" not in report.__dict__

    @pytest.mark.parametrize("constructed", [False, True])
    def test_no_items_shown_leaves_only_the_tail(self, constructed):
        # one space after the colon, then the count of what is not shown
        report = verify_multiset_ucycle(CycleWord(10, (1, 2, 3)), 3)
        if constructed:
            report = dataclasses.replace(report)
        lines = report.as_text(max_items=0).splitlines()
        assert "missing: (+219 more)" in lines
        assert "duplicated: (+1 more)" in lines

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
    w = CycleWord(4, tuple(perm[x - 1] for x in CycleWord(4, BASE_WORD_4).rotate(off).letters))
    report = verify_multiset_ucycle(w, 3)
    assert report.ok
    assert sorted(report.frequency_table.values()) == [5, 5, 5, 5]
