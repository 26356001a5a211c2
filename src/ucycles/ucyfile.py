"""The two-line ``.ucy`` text format.

Line 1 holds ``n t`` (alphabet size and window size); line 2 holds the word as
whitespace-separated integers in ``1..n``.  Nothing may follow the word line.
The format does not record whether the word is meant as a multiset or a subset
cycle; that choice belongs to the consumer.

Both directions look letters up in a table of their names, ``str(x)`` for
x in ``1..n``, instead of calling ``str`` or ``int`` once per letter.  A
table is built only when n is at most the word's length, so a huge header
over a short word allocates nothing of size n.  A word read through the
table has every letter in ``1..n``, so it is built without a second check
(``CycleWord._trusted``).  A word line holding any other token (``+3``,
``03``, ``0``, ``x``, a letter above n) is read by ``int`` and checked by
the public constructor, so it parses, or fails, exactly as it would
without the table.
A letter, alphabet size or window size of an int subclass (a bool, which
``CycleWord`` accepts) is written as its int, so every word the library
accepts reads back.
Files are read and written as UTF-8; a file whose bytes do not decode is a
``UcyFormatError``, like any other text that does not parse.
"""

from __future__ import annotations

from pathlib import Path

from .core import CycleWord


class UcyFormatError(ValueError):
    """Raised when text does not parse as a .ucy document."""


def format_ucy(word: CycleWord, t: int) -> str:
    if t < 1:
        raise ValueError("window size must be positive")
    n, letters = word.alphabet_size, word.letters
    if n <= len(letters):
        names = [str(x) for x in range(n + 1)]
        body = " ".join(map(names.__getitem__, letters))
    else:
        body = " ".join(map(str, map(int, letters)))
    return f"{int(n)} {int(t)}\n{body}\n"


def parse_ucy(text: str) -> tuple[CycleWord, int]:
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
    tokens = lines[1].split()
    named = _named_letters(tokens, n)
    letters = named if named is not None else _int_letters(tokens)
    for extra in lines[2:]:
        if extra.strip():
            raise UcyFormatError("trailing data after the word line")
    if named is not None:
        return CycleWord._trusted(n, named), t
    try:
        word = CycleWord(n, letters)
    except ValueError as exc:
        raise UcyFormatError(str(exc)) from exc
    return word, t


def _named_letters(tokens: list[str], n: int) -> tuple[int, ...] | None:
    """The letters when every token names one of 1..n (so there is at least
    one), else None."""
    if 1 <= n <= len(tokens):
        try:
            return tuple(map({str(x): x for x in range(1, n + 1)}.__getitem__, tokens))
        except KeyError:
            pass  # not every token is the name of a letter: read them by int
    return None


def _int_letters(tokens: list[str]) -> tuple[int, ...]:
    try:
        return tuple(map(int, tokens))
    except ValueError as exc:
        raise UcyFormatError("word line must hold integers only") from exc


def load_ucy(path: str | Path) -> tuple[CycleWord, int]:
    try:
        text = Path(path).read_text(encoding="utf-8")
    except UnicodeDecodeError as exc:
        raise UcyFormatError(f"{path}: not UTF-8 text, byte {exc.start} does not decode") from exc
    return parse_ucy(text)


def save_ucy(path: str | Path, word: CycleWord, t: int) -> None:
    Path(path).write_text(format_ucy(word, t), encoding="utf-8")
