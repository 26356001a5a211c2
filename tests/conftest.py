"""Shared fixtures.

The expensive artifacts (search sweeps, the induction chain) are built once
per session and handed to both the unit tests and the acceptance suite.  Each
fixture carries its own wall-clock cost so the acceptance tests can assert
runtime bounds without redoing the work.
"""

from __future__ import annotations

import time
from typing import NamedTuple

import pytest

from ucycles.core import CycleWord
from ucycles.doubling import construct_doubling
from ucycles.inductive import construct_inductive, provenance_report
from ucycles.searchgen import SearchConstraints, generate_subset_ucycle

from goldens import BASE_WORD_4, SUBSET3_WORD_8

DOUBLING_NS = (8, 10, 14, 16, 20, 22)
INDUCTIVE_NS = (4, 7, 10, 13, 16, 19, 22, 25, 28, 31)

# extra search samples: unconstrained runs over fresh alphabets plus
# prefix-pinned runs that force different words on alphabets the sweep
# already visits. n=5 is deliberately absent (no 3-subset ucycle exists).
EXTRA_UNCONSTRAINED_NS = (4, 7, 11, 13, 17, 19, 23, 25)
EXTRA_PREFIXED = (
    (4, (1, 2)), (4, (1, 3)), (4, (1, 4)), (4, (2, 3)),
    (7, (1, 2)), (7, (1, 3)), (7, (2, 3)), (7, (2, 4)),
    (7, (3, 4)), (7, (1, 4)), (7, (4, 5)), (7, (2, 5)),
)


class Timed(NamedTuple):
    value: object
    seconds: float


@pytest.fixture(scope="session")
def subset_sweep() -> Timed:
    """3-subset ucycles feeding the doubling sweep, keyed by n."""
    t0 = time.perf_counter()
    words = {n: generate_subset_ucycle(n, 3) for n in DOUBLING_NS}
    return Timed(words, time.perf_counter() - t0)


@pytest.fixture(scope="session")
def doubling_sweep(subset_sweep) -> Timed:
    t0 = time.perf_counter()
    words = {
        n: construct_doubling(n, subset_sweep.value[n]) for n in DOUBLING_NS
    }
    return Timed(words, time.perf_counter() - t0)


@pytest.fixture(scope="session")
def inductive_sweep() -> Timed:
    """Words and provenance for every alphabet the induction reaches."""
    t0 = time.perf_counter()
    out = {n: (construct_inductive(n), provenance_report(n)) for n in INDUCTIVE_NS}
    return Timed(out, time.perf_counter() - t0)


@pytest.fixture(scope="session")
def extra_subset_samples() -> Timed:
    t0 = time.perf_counter()
    words = [
        (f"n={n}", generate_subset_ucycle(n, 3)) for n in EXTRA_UNCONSTRAINED_NS
    ]
    words += [
        (
            f"n={n} prefix={pref}",
            generate_subset_ucycle(n, 3, SearchConstraints(required_prefix=pref)),
        )
        for n, pref in EXTRA_PREFIXED
    ]
    return Timed(words, time.perf_counter() - t0)


@pytest.fixture(scope="session")
def known_ucycles():
    """Verified words: multisets of [4], [13], [16] (t=3) and 3-subsets of [8]."""
    return [
        CycleWord(4, BASE_WORD_4),
        construct_inductive(13),
        construct_doubling(16),
        CycleWord(8, SUBSET3_WORD_8),
    ]
