"""The two-line ``.ucy`` text format.

Line 1 holds ``n t`` (alphabet size and window size); line 2 holds the word as
whitespace-separated integers in ``1..n``.  Nothing may follow the word line.
The format does not record whether the word is meant as a multiset or a subset
cycle; that choice belongs to the consumer.
"""

from __future__ import annotations

from pathlib import Path

from .core import CycleWord


class UcyFormatError(ValueError):
    """Raised when text does not parse as a .ucy document."""


def format_ucy(word: CycleWord, t: int) -> str:
    if t < 1:
        raise ValueError("window size must be positive")
    return f"{word.alphabet_size} {t}\n{' '.join(map(str, word.letters))}\n"


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


def load_ucy(path: str | Path) -> tuple[CycleWord, int]:
    return parse_ucy(Path(path).read_text())


def save_ucy(path: str | Path, word: CycleWord, t: int) -> None:
    Path(path).write_text(format_ucy(word, t))
