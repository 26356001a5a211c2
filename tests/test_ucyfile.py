"""The .ucy two-line text format."""

import pickle
import subprocess
import sys
import textwrap
from itertools import product

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from ucycles.core import CycleWord
from ucycles.ucyfile import (
    UcyFormatError,
    format_ucy,
    load_ucy,
    parse_ucy,
    save_ucy,
)

from goldens import BASE_WORD_4


def test_format_shape():
    text = format_ucy(CycleWord(4, (1, 2, 3, 4)), 3)
    assert text == "4 3\n1 2 3 4\n"


def test_format_rejects_a_window_size_below_one():
    with pytest.raises(ValueError):
        format_ucy(CycleWord(4, (1, 2, 3, 4)), 0)


def test_parse_round_trip():
    word = CycleWord(4, BASE_WORD_4)
    parsed, t = parse_ucy(format_ucy(word, 3))
    assert parsed == word
    assert t == 3


def test_save_load(tmp_path):
    p = tmp_path / "w.ucy"
    save_ucy(p, CycleWord(4, BASE_WORD_4), 3)
    word, t = load_ucy(p)
    assert word.letters == BASE_WORD_4
    assert t == 3


def test_load_rejects_bytes_that_are_not_utf8(tmp_path):
    p = tmp_path / "binary.ucy"
    p.write_bytes(b"\xff\xfe 3\n1 2\n")
    with pytest.raises(UcyFormatError, match="not UTF-8"):
        load_ucy(p)


def test_word_line_whitespace_insensitive():
    word, t = parse_ucy("4 2\n 1   2\t3 4 \n")
    assert word.letters == (1, 2, 3, 4)
    assert t == 2


@pytest.mark.parametrize(
    "text",
    [
        "",                            # empty
        "4 3",                         # no word line
        "4\n1 2 3\n",                  # header arity
        "4 3 9\n1 2 3\n",
        "four 3\n1 2 3\n",             # header not integers
        "4 0\n1 2 3\n",                # t must be positive
        "4 3\n1 x 3\n",                # word not integers
        "4 3\n1 2 3\nextra\n",         # trailing data
        "4 3\n1 2 5\n",                # letter out of range
        "4 3\n\n",                     # empty word
    ],
)
def test_malformed_rejected(text):
    with pytest.raises(UcyFormatError):
        parse_ucy(text)


def test_blank_trailing_lines_allowed():
    word, _ = parse_ucy("3 2\n1 2 3\n\n  \n")
    assert word.letters == (1, 2, 3)


@settings(max_examples=40, deadline=None)
@given(
    st.integers(min_value=1, max_value=9).flatmap(
        lambda n: st.tuples(
            st.just(n),
            st.lists(st.integers(min_value=1, max_value=n), min_size=1, max_size=30),
        )
    ),
    st.integers(min_value=1, max_value=5),
)
def test_round_trip_any_word(nw, t):
    n, letters = nw
    word = CycleWord(n, tuple(letters))
    parsed, t_back = parse_ucy(format_ucy(word, t))
    assert parsed == word and t_back == t


def _ref_parse_ucy(text):
    """The word reader before the name table: one ``int`` call per token."""
    lines = text.splitlines()
    if len(lines) < 2:
        raise UcyFormatError("expected a header line and a word line")
    head = lines[0].split()
    if len(head) != 2:
        raise UcyFormatError("header must hold exactly two integers: n t")
    try:
        n, t = int(head[0]), int(head[1])
    except ValueError as exc:
        raise UcyFormatError("header must hold exactly two integers: n t") from exc
    if t < 1:
        raise UcyFormatError("window size t must be positive")
    try:
        letters = tuple(map(int, lines[1].split()))
    except ValueError as exc:
        raise UcyFormatError("word line must hold integers only") from exc
    for extra in lines[2:]:
        if extra.strip():
            raise UcyFormatError("trailing data after the word line")
    try:
        word = CycleWord(n, letters)
    except ValueError as exc:
        raise UcyFormatError(str(exc)) from exc
    return word, t


def _outcome(parse, text):
    try:
        word, t = parse(text)
    except UcyFormatError as exc:
        return "error", str(exc)
    # exact types too: a table hit must give the int that int() gives
    return word.alphabet_size, tuple(map(type, word.letters)), word.letters, t


ODD_TOKENS = ["+3", "03", "٣", "0", "n+1", "-1", "1.0", "x", "3", "4", "5", "1_0", " 2", "²"]


class TestNameTables:
    """Letters go through tables of names, with ``int`` as the fallback."""

    @pytest.mark.parametrize("token", ODD_TOKENS)
    def test_odd_token_agrees_with_int(self, token):
        # among three or twelve other letters: the table is built when n is
        # at most the word's length, and skipped otherwise
        for n, others, at in product([1, 3, 4, 12], [["1", "2", "1"], ["1", "2"] * 6], [0, -1]):
            words = [*others, token] if at else [token, *others]
            text = f"{n} 3\n{' '.join(words)}\n"
            assert _outcome(parse_ucy, text) == _outcome(_ref_parse_ucy, text)

    @settings(max_examples=200, deadline=None)
    @given(
        st.integers(min_value=-1, max_value=12),
        st.lists(
            st.one_of(
                st.integers(min_value=-2, max_value=14).map(str),
                st.sampled_from(ODD_TOKENS),
                st.text(alphabet="0123456789+-_x.٣", min_size=1, max_size=3),
            ),
            min_size=1,
            max_size=20,
        ),
    )
    def test_mixed_tokens_agree_with_int(self, n, tokens):
        text = f"{n} 2\n{' '.join(tokens)}\n"
        assert _outcome(parse_ucy, text) == _outcome(_ref_parse_ucy, text)

    @settings(max_examples=60, deadline=None)
    @given(
        st.integers(min_value=1, max_value=12).flatmap(
            lambda n: st.tuples(
                st.just(n),
                st.lists(st.sampled_from([*range(1, n + 1), True]), min_size=1, max_size=30),
            )
        )
    )
    def test_format_agrees_with_str(self, nw):
        # a bool letter is a letter 1, written as its int
        n, letters = nw
        word = CycleWord(n, tuple(letters))
        assert format_ucy(word, 3) == f"{n} 3\n{' '.join(str(int(x)) for x in letters)}\n"

    @pytest.mark.parametrize("n", [3, 8])
    def test_bool_letter_round_trips(self, n):
        # n = 3 is at most the word's length (the name table), n = 8 above it
        word = CycleWord(n, (True, 2, 2, 1, 3))
        assert parse_ucy(format_ucy(word, 3))[0].letters == tuple(map(int, word.letters))

    def test_bool_header_round_trips(self):
        # an alphabet size or window size of True is written as 1
        word = CycleWord(True, (1,))
        text = format_ucy(word, True)
        assert text == "1 1\n1\n"
        back, t = parse_ucy(text)
        assert (back.alphabet_size, back.letters, t) == (1, (1,), 1)

    @settings(max_examples=100, deadline=None)
    @given(
        st.integers(min_value=1, max_value=12).flatmap(
            lambda n: st.tuples(
                st.just(n),
                st.lists(st.integers(min_value=1, max_value=n), min_size=n, max_size=30),
            )
        )
    )
    def test_table_word_equals_a_checked_word(self, nw):
        # n at most the word's length: every token is looked up in the table
        n, letters = nw
        word, t = parse_ucy(f"{n} 3\n{' '.join(map(str, letters))}\n")
        assert word == CycleWord(n, letters)
        assert hash(word) == hash(CycleWord(n, letters))
        assert pickle.loads(pickle.dumps(word)) == word
        assert type(word.letters) is tuple and {type(x) for x in word.letters} == {int}

    @pytest.mark.parametrize(
        "token, message",
        [
            ("0", "letter 0 out of range 1..2"),
            ("+3", "letter 3 out of range 1..2"),
            ("03", "letter 3 out of range 1..2"),
            ("3", "letter 3 out of range 1..2"),  # n + 1
            ("1.0", "word line must hold integers only"),
        ],
    )
    def test_odd_token_still_checked(self, token, message):
        # a token off the name table goes to int() and the checked
        # constructor, with the constructor's own message
        for at in (0, 2, 4):
            tokens = ["1", "2", "1", "2"]
            tokens.insert(at, token)
            with pytest.raises(UcyFormatError) as err:
                parse_ucy(f"2 3\n{' '.join(tokens)}\n")
            assert str(err.value) == message

    def test_huge_header_allocates_no_table(self):
        # in a child process whose address space is capped, so that a table
        # of 10**9 names fails with MemoryError instead of filling the machine
        child = textwrap.dedent(
            """
            import resource, tracemalloc
            resource.setrlimit(resource.RLIMIT_AS, (1 << 30, 1 << 30))
            from ucycles.ucyfile import format_ucy, parse_ucy
            text = "1000000000 3\\n1 2 3\\n"
            tracemalloc.start()
            word, t = parse_ucy(text)
            back = format_ucy(word, t)
            peak = tracemalloc.get_traced_memory()[1]
            print(word.alphabet_size, word.letters, t, back == text, peak < 1_000_000)
            """
        )
        done = subprocess.run([sys.executable, "-c", child], capture_output=True, text=True, timeout=60)
        assert done.returncode == 0, done.stderr
        assert done.stdout == "1000000000 (1, 2, 3) 3 True True\n"
