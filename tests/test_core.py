"""Cycle-word primitives: construction, windows, canonical forms."""

import pytest
from hypothesis import assume, given, settings
from hypothesis import strategies as st

from ucycles.core import CycleWord, canonicalize, cyclic_windows

from goldens import BASE_WORD_4


small_words = st.integers(min_value=2, max_value=5).flatmap(
    lambda n: st.tuples(
        st.just(n),
        st.lists(st.integers(min_value=1, max_value=n), min_size=1, max_size=12),
    )
)


def ref_cyclic_windows(letters, t):
    """The definition: every cyclic slice of length t, sorted."""
    doubled = letters + letters[: t - 1]
    return [tuple(sorted(doubled[i : i + t])) for i in range(len(letters))]


def ref_canonical(letters):
    """The definition: least first-occurrence relabeling over every rotation."""
    forms = []
    for r in range(len(letters)):
        mapping = {}
        forms.append(tuple(mapping.setdefault(x, len(mapping) + 1) for x in letters[r:] + letters[:r]))
    return min(forms)


class TestCycleWord:
    def test_letters_coerced_to_tuple(self):
        w = CycleWord(3, [1, 2, 3])
        assert w.letters == (1, 2, 3)

    def test_len(self):
        assert len(CycleWord(4, BASE_WORD_4)) == 20

    @pytest.mark.parametrize(
        "n, letters",
        [
            (3, (1, 2, 4)), (3, (0, 1)), (3, (1, "2")), (0, (1,)), (2, ()),
            # the alphabet size is an int too, checked where the word is made
            (3.0, (1, 2, 3)), ("3", (1, 2, 3)),
        ],
    )
    def test_rejects_bad_input(self, n, letters):
        with pytest.raises(ValueError):
            CycleWord(n, letters)

    @pytest.mark.parametrize("length", [10, 300])
    @pytest.mark.parametrize("bad", [1.0, 3.0, "2", 0, 4, -1])
    def test_rejects_bad_letter_anywhere(self, bad, length):
        for pos in (0, length // 2, length - 1):
            letters = [1 + i % 3 for i in range(length)]
            letters[pos] = bad
            with pytest.raises(ValueError, match="out of range 1..3"):
                CycleWord(3, letters)

    @pytest.mark.parametrize("length", [10, 300])
    def test_accepts_bools_as_ints(self, length):
        letters = [True] + [1 + i % 3 for i in range(1, length)]
        assert CycleWord(3, letters).letters == tuple(letters)


class TestTrustedWords:
    """Canonical representatives skip the letter check; each equals the word
    the checked constructor builds."""

    @settings(max_examples=100, deadline=None)
    @given(small_words)
    def test_canonical_representative(self, nw):
        n, letters = nw
        rep = canonicalize(CycleWord(n, letters)).representative
        assert rep == CycleWord(n, ref_canonical(letters))
        assert hash(rep) == hash(CycleWord(n, rep.letters))


class TestWindows:
    def test_cyclic_windows_wrap(self):
        w = CycleWord(3, (1, 2, 3))
        assert cyclic_windows(w, 2) == [(1, 2), (2, 3), (1, 3)]

    def test_cyclic_windows_sorted_as_multisets(self):
        w = CycleWord(4, (3, 1, 3, 2))
        assert cyclic_windows(w, 3) == [(1, 3, 3), (1, 2, 3), (2, 3, 3), (1, 2, 3)]

    def test_window_count_matches_length(self):
        w = CycleWord(4, BASE_WORD_4)
        assert len(cyclic_windows(w, 3)) == len(w)

    @pytest.mark.parametrize("t", [0, -1])
    def test_rejects_nonpositive_window(self, t):
        with pytest.raises(ValueError):
            cyclic_windows(CycleWord(2, (1, 2)), t)

    def test_rejects_word_shorter_than_window(self):
        with pytest.raises(ValueError):
            cyclic_windows(CycleWord(2, (1, 2)), 3)


    @settings(max_examples=150, deadline=None)
    @given(small_words, st.integers(min_value=1, max_value=5))
    def test_match_the_sorted_slice_definition(self, nw, t):
        n, letters = nw
        letters = tuple(letters)
        assume(t <= len(letters))
        w = CycleWord(n, letters)
        assert cyclic_windows(w, t) == ref_cyclic_windows(letters, t)

    @pytest.mark.parametrize("t", [1, 2, 3, 4, 5])
    def test_known_ucycles_match_the_definition(self, known_ucycles, t):
        for w in known_ucycles:
            assert cyclic_windows(w, t) == ref_cyclic_windows(w.letters, t)

    @pytest.mark.parametrize("t", [2, 3])
    def test_equal_letters_keep_their_order(self, t):
        # True == 1: the keys hold the same objects in the same places as sorted()
        letters = (True, 1, 2, 1, True, 3, True)
        for got, want in zip(cyclic_windows(CycleWord(3, letters), t), ref_cyclic_windows(letters, t)):
            assert [type(x) for x in got] == [type(x) for x in want]


class TestCanonicalize:
    def test_representative_starts_at_one(self):
        rep = canonicalize(CycleWord(4, (3, 4, 3, 2))).representative
        assert rep.letters[0] == 1

    def test_fixed_point(self):
        rep = canonicalize(CycleWord(3, (1, 1, 2, 2, 3, 3))).representative
        assert canonicalize(rep).representative.letters == rep.letters

    @settings(max_examples=60, deadline=None)
    @given(small_words, st.integers(min_value=0, max_value=11), st.randoms())
    def test_invariant_under_rotation_and_relabeling(self, nw, off, rnd):
        n, letters = nw
        w = CycleWord(n, tuple(letters))
        perm = list(range(1, n + 1))
        rnd.shuffle(perm)
        k = off % len(letters)
        other = CycleWord(n, tuple(perm[x - 1] for x in w.letters[k:] + w.letters[:k]))
        assert (
            canonicalize(w).representative.letters
            == canonicalize(other).representative.letters
        )

    @settings(max_examples=60, deadline=None)
    @given(small_words)
    def test_representative_is_least(self, nw):
        n, letters = nw
        w = CycleWord(n, tuple(letters))
        rep = canonicalize(w).representative.letters
        assert all(
            rep <= canonicalize(CycleWord(n, w.letters[r:] + w.letters[:r])).representative.letters
            for r in range(len(letters))
        )

    @settings(max_examples=150, deadline=None)
    @given(small_words)
    def test_equals_least_form_over_all_rotations(self, nw):
        n, letters = nw
        assert canonicalize(CycleWord(n, tuple(letters))).representative.letters == ref_canonical(
            tuple(letters)
        )

    def test_known_ucycles(self, known_ucycles):
        for w in known_ucycles:
            rep = canonicalize(w).representative
            assert rep.alphabet_size == w.alphabet_size
            assert rep.letters == ref_canonical(w.letters)

    def test_constant_word(self):
        assert canonicalize(CycleWord(3, (2, 2, 2))).representative.letters == (1, 1, 1)
