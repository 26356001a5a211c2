"""The benchmark's independent checker rejects wrong answers.

Run with ``python3 -m pytest perfbench/tests`` from the repository root.
"""

from __future__ import annotations

import hashlib
import random
import sys
from collections import Counter
from pathlib import Path

sys.path.insert(0, str(Path(__file__).resolve().parents[1]))

import checker  # noqa: E402

GOOD_43 = checker.class_representatives(4, 3)[0]
GOOD_52 = checker.class_representatives(5, 2)[0]


def _windows(word, t):
    doubled = word + word[: t - 1]
    return Counter(tuple(sorted(doubled[i : i + t])) for i in range(len(word)))


def test_accepts_pinned_representatives():
    for n, t in ((4, 3), (5, 2)):
        for rep in checker.class_representatives(n, t):
            assert checker.is_multiset_ucycle(rep, n, t)


def test_rejects_two_letters_swapped():
    word = list(GOOD_43)
    i = next(i for i in range(len(word) - 1) if word[i] != word[i + 5])
    word[i], word[i + 5] = word[i + 5], word[i]
    assert sorted(word) == sorted(GOOD_43)
    assert not checker.is_multiset_ucycle(tuple(word), 4, 3)


def test_rejects_word_one_letter_short():
    assert not checker.is_multiset_ucycle(GOOD_43[:-1], 4, 3)
    assert not checker.is_multiset_ucycle(GOOD_52[1:], 5, 2)


def test_rejects_repeated_window():
    # 1 1 1 opens the word; turning its last letter into a 1 makes the
    # wraparound read 1 1 1 as well, at the right length.
    word = GOOD_43[:-1] + (1,)
    counts = _windows(word, 3)
    assert len(word) == len(GOOD_43) and counts[(1, 1, 1)] >= 2
    assert not checker.is_multiset_ucycle(word, 4, 3)


def test_rejects_letter_outside_alphabet():
    assert not checker.is_multiset_ucycle(GOOD_43[:-1] + (5,), 4, 3)


def test_ucy_file_checks(tmp_path):
    text = "4 3\n" + " ".join(map(str, GOOD_43)) + "\n"
    path = tmp_path / "w.ucy"
    path.write_text(text)
    digest = hashlib.sha256(text.encode()).hexdigest()
    assert checker.check_ucy_file(path, 4, 3, digest) is None
    assert "pinned" in checker.check_ucy_file(path, 4, 3, "0" * 64)
    assert "header" in checker.check_ucy_file(path, 5, 3)
    path.write_text(text + "1\n")
    assert "unreadable" in checker.check_ucy_file(path, 4, 3)
    assert "unreadable" in checker.check_ucy_file(tmp_path / "missing.ucy", 4, 3)


def test_count_checks():
    assert checker.check_count(5, 2, (72, 36, True)) is None
    assert checker.check_count(3, 7, (0, 0, True)) is None
    assert checker.check_count(5, 2, (71, 36, True))
    assert checker.check_count(4, 3, (2, 2, False))


def test_oracle_checks():
    bad = (1,) * len(GOOD_52)
    rotated = GOOD_52[3:] + GOOD_52[:3]
    words = [bad, rotated]
    assert checker.check_oracle(5, 2, words, [False, True], {1: GOOD_52}) is None
    assert "wrong verdicts" in checker.check_oracle(5, 2, words, [True, True], {0: bad, 1: GOOD_52})
    assert "exactly the passing" in checker.check_oracle(5, 2, words, [False, True], {})
    assert "canonicalized" in checker.check_oracle(5, 2, words, [False, True], {1: rotated})


def test_canonical_form_ignores_rotation_and_relabeling():
    relabeled = tuple({1: 3, 2: 1, 3: 4, 4: 2}[x] for x in GOOD_43[7:] + GOOD_43[:7])
    assert checker.canonical_form(relabeled) == GOOD_43


def test_canonical_form_matches_every_rotation_tried():
    def every_rotation(word):
        forms = []
        for r in range(len(word)):
            mapping = {}
            forms.append(tuple(mapping.setdefault(x, len(mapping) + 1) for x in word[r:] + word[:r]))
        return min(forms)

    rng = random.Random(3)
    words = [(2, 2, 2), (1, 2, 1, 2), (3, 3, 1, 1, 2, 2)]
    words += [tuple(rng.choices(range(1, 4), k=rng.randint(1, 10))) for _ in range(500)]
    for word in words:
        assert checker.canonical_form(word) == every_rotation(word), word
