"""Independent correctness checks for the benchmark's outputs.

Standard library only, and deliberately free of any ``ucycles`` import: the
benchmark must be able to reject a wrong answer even when the package's own
verifier is the code under test.  Nothing here runs inside a timed region.
"""

from __future__ import annotations

import hashlib
import json
import math
from pathlib import Path

PINNED = json.loads((Path(__file__).resolve().parent / "pinned.json").read_text())

# (n, t) -> (classes up to rotation + relabeling, also folding reflection)
EXPECTED_COUNTS = {
    tuple(map(int, key.split(","))): tuple(value)
    for key, value in PINNED["counts"].items()
}


def class_representatives(n: int, t: int) -> list[tuple[int, ...]]:
    """The canonical class representatives pinned for (n, t)."""
    return [tuple(map(int, rep)) for rep in PINNED["class_representatives"][f"{n},{t}"]]


def is_multiset_ucycle(letters: tuple[int, ...], n: int, t: int) -> bool:
    """True when the cyclic t-windows of ``letters`` are C(n+t-1, t) distinct t-multisets of [n].

    With every letter in 1..n each window is some t-multiset of [n], so that
    many distinct windows means each one occurs exactly once.
    """
    size = math.comb(n + t - 1, t)
    if len(letters) != size or size < t:
        return False
    if any(not (isinstance(x, int) and 1 <= x <= n) for x in set(letters)):
        return False
    doubled = letters + letters[: t - 1]
    seen: set[tuple[int, ...]] = set()
    for i in range(size):
        window = tuple(sorted(doubled[i : i + t]))
        if window in seen:  # random words repeat a window early; stop there
            return False
        seen.add(window)
    return True


def parse_ucy(data: bytes) -> tuple[int, int, tuple[int, ...]]:
    """Strict reader of the two-line ``n t`` / word format; raises ValueError."""
    lines = data.decode("ascii").split("\n")
    if len(lines) != 3 or lines[2] != "":
        raise ValueError("expected exactly two newline-terminated lines")
    n, t = map(int, lines[0].split(" "))
    return n, t, tuple(map(int, lines[1].split(" ")))


def check_ucy_file(path: Path, n: int, t: int, sha256: str | None = None) -> str | None:
    """None when the file holds a 3-multiset ucycle over [n]; else the reason it does not."""
    try:
        data = path.read_bytes()
        got_n, got_t, letters = parse_ucy(data)
    except (OSError, ValueError) as exc:
        return f"unreadable output: {exc}"
    if (got_n, got_t) != (n, t):
        return f"header says n={got_n} t={got_t}, expected n={n} t={t}"
    if not is_multiset_ucycle(letters, n, t):
        return f"word is not a ucycle on the {t}-multisets of [{n}]"
    if sha256 is not None and hashlib.sha256(data).hexdigest() != sha256:
        return "word verifies but differs from the pinned output"
    return None


def canonical_form(letters: tuple[int, ...]) -> tuple[int, ...]:
    """Least first-occurrence relabeling over all rotations.

    Every form starts with a run of 1s as long as the run of equal letters at
    its rotation, and a longer leading run makes a smaller form, so only the
    rotations that start a longest run can give the least one.
    """
    size = len(letters)
    doubled = letters + letters
    runs = []
    for r in range(size):
        k = 1
        while k < size and doubled[r + k] == letters[r]:
            k += 1
        runs.append(k)
    longest = max(runs, default=0)
    best = None
    for r in (r for r in range(size) if runs[r] == longest):
        mapping: dict[int, int] = {}
        form = tuple(mapping.setdefault(x, len(mapping) + 1) for x in letters[r:] + letters[:r])
        if best is None or form < best:
            best = form
    return best


def check_count(n: int, t: int, result: tuple[int, int, bool]) -> str | None:
    """``result`` is (count_rot_relabel, count_also_reflect, exhausted)."""
    want = EXPECTED_COUNTS[(n, t)]
    if result != (*want, True):
        return f"count({n},{t}) gave {result}, expected {(*want, True)}"
    return None


def check_oracle(
    n: int,
    t: int,
    words: list[tuple[int, ...]],
    verdicts: list[bool],
    reps: dict[int, tuple[int, ...]],
) -> str | None:
    """Every verdict must match the independent window check; every word that
    verifies must carry its own canonical form, which must be a pinned class."""
    if len(verdicts) != len(words):
        return f"{len(verdicts)} verdicts for {len(words)} words"
    classes = set(class_representatives(n, t))
    wrong = [i for i, w in enumerate(words) if verdicts[i] != is_multiset_ucycle(w, n, t)]
    if wrong:
        return f"{len(wrong)} wrong verdicts, first at word {wrong[0]}"
    passing = [i for i, ok in enumerate(verdicts) if ok]
    if sorted(reps) != passing:
        return "canonical forms were not reported for exactly the passing words"
    for i in passing:
        form = canonical_form(words[i])
        if reps[i] != form or form not in classes:
            return f"word {i} canonicalized to {reps[i]}, expected {form} among the pinned classes"
    return None
