"""Acceptance suite: one test per release criterion, at the stated tolerance.

Each test prints a single ``criterion N: PASS`` line on success (visible with
``pytest -v -rA`` or ``-s``); a failing criterion fails its test.  Timing
bounds use wall-clock seconds on the machine running the suite.
"""

import math
import random
import subprocess
import sys
import time
from collections import Counter
from itertools import combinations, product

import pytest

from ucycles.core import CycleWord, canonicalize, cyclic_windows
from ucycles.doubling import AnchorPermutation, append_triples, double_pairs, pair_index
from ucycles.inductive import construct_inductive
from ucycles.searchgen import count_distinct
from ucycles.verify import (
    admissible_multiset,
    admissible_subset,
    verify_multiset_ucycle,
    verify_subset_ucycle,
)

from goldens import (
    ANCHOR_ORDER_8,
    ASSEMBLY_10,
    BASE_WORD_4,
    DISTINCT_CLASSES_3_2,
    DISTINCT_CLASSES_4_3,
    DOUBLED_WORD_8,
    EXTENSION_7,
    MULTISET2_WORD_5,
    MULTISET3_WORD_8,
    SUBSET3_WORD_8,
)

from conftest import DOUBLING_NS, INDUCTIVE_NS


def _report(num, detail):
    print(f"criterion {num}: PASS ({detail})")


def test_criterion_01_frozen_words_verify():
    t0 = time.perf_counter()
    assert verify_multiset_ucycle(CycleWord(4, BASE_WORD_4), 3).ok
    seven = CycleWord(7, BASE_WORD_4 + EXTENSION_7)
    assert len(seven) == math.comb(9, 3) == 84
    assert verify_multiset_ucycle(seven, 3).ok
    eight = CycleWord(8, SUBSET3_WORD_8)
    assert len(eight) == math.comb(8, 3) == 56
    assert verify_subset_ucycle(eight, 3).ok
    assert verify_multiset_ucycle(CycleWord(5, MULTISET2_WORD_5), 2).ok
    dt = time.perf_counter() - t0
    assert dt < 1.0
    _report(1, f"4 words verified in {dt:.3f}s")


def test_criterion_02_inductive_reproduction():
    t0 = time.perf_counter()
    word = construct_inductive(10)
    dt = time.perf_counter() - t0
    assert word.letters == ASSEMBLY_10
    assert len(word) == math.comb(12, 3) == 220
    assert verify_multiset_ucycle(word, 3).ok
    assert dt < 1.0
    _report(2, f"220 letters reproduced in {dt:.3f}s")


def test_criterion_03_doubling_reproduction():
    t0 = time.perf_counter()
    x = CycleWord(8, SUBSET3_WORD_8)
    idx = pair_index(x)
    perm = AnchorPermutation(ANCHOR_ORDER_8)
    doubled = double_pairs(x, perm, idx)
    final = append_triples(doubled, perm)
    dt = time.perf_counter() - t0
    assert doubled.letters == DOUBLED_WORD_8 and len(doubled) == 96
    assert final.letters == MULTISET3_WORD_8 and len(final) == 120
    assert verify_multiset_ucycle(final, 3).ok
    assert dt < 1.0
    _report(3, f"96+120 letters reproduced in {dt:.3f}s")


def test_criterion_04_inductive_sweep(inductive_sweep):
    words = inductive_sweep.value
    assert set(words) == set(INDUCTIVE_NS)
    for n in INDUCTIVE_NS:
        word, provenance = words[n]
        assert word.alphabet_size == n
        assert len(word) == math.comb(n + 2, 3)
        assert verify_multiset_ucycle(word, 3).ok
        steps = [line.split(" ") for line in provenance.splitlines()]
        assert [step for step, _ in steps] == [f"n={m}" for m in range(10, n + 1, 3)]
        assert all(path in ("path=pattern", "path=repaired") for _, path in steps)
    assert inductive_sweep.seconds < 60.0
    _report(4, f"{len(INDUCTIVE_NS)} alphabets in {inductive_sweep.seconds:.2f}s")


def test_criterion_05_doubling_sweep(subset_sweep, doubling_sweep):
    for n in DOUBLING_NS:
        assert n % 2 == 0 and n % 3 != 0
        assert verify_subset_ucycle(subset_sweep.value[n], 3).ok
        word = doubling_sweep.value[n]
        assert len(word) == math.comb(n + 2, 3)
        assert verify_multiset_ucycle(word, 3).ok
    total = subset_sweep.seconds + doubling_sweep.seconds
    assert total < 300.0
    _report(5, f"{len(DOUBLING_NS)} alphabets in {total:.2f}s")


def _missing_pairs(word):
    ls, n, k = word.letters, word.alphabet_size, len(word.letters)
    present = {
        (min(ls[i], ls[(i + 1) % k]), max(ls[i], ls[(i + 1) % k])) for i in range(k)
    }
    return set(combinations(range(1, n + 1), 2)) - present


def test_criterion_06_missing_pair_matching(subset_sweep, extra_subset_samples):
    pool = [(f"sweep n={n}", w) for n, w in subset_sweep.value.items()]
    pool += list(extra_subset_samples.value)
    assert len(pool) >= len(DOUBLING_NS) + 20
    violations = []
    for label, word in pool:
        missing = _missing_pairs(word)
        touched = [x for p in missing for x in p]
        if len(touched) != len(set(touched)):
            violations.append((label, "shared letter", sorted(missing)))
        if len(missing) > word.alphabet_size // 2:
            violations.append((label, "too many", sorted(missing)))
    assert not violations, violations
    _report(6, f"{len(pool)} words, 0 violations")


def test_criterion_07_length_and_frequency(inductive_sweep, doubling_sweep):
    words = [w for w, _ in inductive_sweep.value.values()]
    words += list(doubling_sweep.value.values())
    words += [CycleWord(10, ASSEMBLY_10), CycleWord(5, MULTISET2_WORD_5)]
    for word in words:
        t = 2 if word.alphabet_size == 5 and len(word) == 15 else 3
        n = word.alphabet_size
        size = math.comb(n + t - 1, t)
        assert len(word) == size
        per_letter = size // n
        counts = Counter(word.letters)
        assert all(counts[x] == per_letter for x in range(1, n + 1))
    _report(7, f"{len(words)} words, uniform frequencies")


def test_criterion_08_window_diff_of_single_edits(subset_sweep, extra_subset_samples):
    rng = random.Random(20260815)
    pool = list(subset_sweep.value.values())
    pool += [w for _, w in extra_subset_samples.value]
    checked = 0
    for _ in range(200):
        word = pool[rng.randrange(len(pool))]
        ls, k = word.letters, len(word)
        i = rng.randrange(k - 1)
        a, b = ls[i], ls[i + 1]
        edited = CycleWord(word.alphabet_size, ls[: i + 2] + (a, b) + ls[i + 2 :])
        before = Counter(cyclic_windows(word, 3))
        after = Counter(cyclic_windows(edited, 3))
        assert not before - after, "an edit removed a window"
        want = Counter(
            {tuple(sorted((a, a, b))): 1, tuple(sorted((a, b, b))): 1}
        )
        assert after - before == want, f"edit at {i} added {dict(after - before)}"
        checked += 1
    assert checked == 200
    _report(8, "200 randomized edits, exact window diffs")


def test_criterion_09_counting_oracle():
    t0 = time.perf_counter()
    r43 = count_distinct(4, 3)
    dt43 = time.perf_counter() - t0
    t0 = time.perf_counter()
    r32 = count_distinct(3, 2)
    dt32 = time.perf_counter() - t0
    assert dt43 < 300.0 and dt32 < 300.0
    assert r43.exhausted and r32.exhausted
    assert r43.count_rot_relabel == DISTINCT_CLASSES_4_3
    assert r32.count_rot_relabel == DISTINCT_CLASSES_3_2

    # stable across runs and across sequential/parallel execution
    again = count_distinct(4, 3)
    parallel = count_distinct(4, 3, workers=2)
    for other in (again, parallel):
        assert other.count_rot_relabel == r43.count_rot_relabel
        assert other.count_also_reflect == r43.count_also_reflect
        assert other.nodes_visited == r43.nodes_visited

    # the anchored count's classes vs. plain unanchored filtering
    for n, t, k in ((3, 2, 6), (4, 2, 10)):
        found = set()
        for letters in product(range(1, n + 1), repeat=k):
            w = CycleWord(n, letters)
            if verify_multiset_ucycle(w, t).ok:
                found.add(canonicalize(w).representative.letters)
        anchored = set(count_distinct(n, t).representatives)
        assert found == anchored
    _report(9, f"counts frozen at {r43.count_rot_relabel}/{r32.count_rot_relabel}, "
               f"{dt43:.2f}s and {dt32:.2f}s")


def test_criterion_10_negative_cases(tmp_path):
    assert not admissible_multiset(3, 3)
    assert not admissible_subset(3, 3)
    assert not admissible_subset(6, 3)
    assert not admissible_multiset(9, 3)

    def cli(*args):
        return subprocess.run(
            [sys.executable, "-m", "ucycles", *args],
            capture_output=True, text=True, timeout=240,
        ).returncode

    word_file = tmp_path / "w.ucy"
    assert cli("gen", "--n", "4", "--t", "3", "--out", str(word_file)) == 0
    assert cli("verify", "--input", str(word_file), "--kind", "multiset") == 0
    short = tmp_path / "short.ucy"
    lines = word_file.read_text().splitlines()
    short.write_text(lines[0] + "\n" + " ".join(lines[1].split()[:-1]) + "\n")
    assert cli("verify", "--input", str(short), "--kind", "multiset") == 1
    bad = tmp_path / "bad.ucy"
    bad.write_text("not a header\n")
    assert cli("verify", "--input", str(bad), "--kind", "multiset") == 2
    assert cli("gen", "--n", "9", "--t", "3") == 2
    assert cli("gen", "--n", "5", "--t", "4", "--budget", "50") == 3
    assert cli("count", "--n", "3", "--t", "3") == 2
    assert cli("count", "--n", "5", "--t", "3", "--budget", "1000") == 3
    assert cli("pairs", "--input", str(word_file)) == 1
    _report(10, "admissibility rejections and exit codes exact")
