"""Frozen reference constants shared across the test suite.

Fixed input/output words for the constructions plus frozen counting
results.  Byte drift against these tuples is a regression even when the
drifted word still verifies, so regenerate them only on purpose.
"""

# 3-multiset ucycle over [4]; the seed of the inductive chain.
BASE_WORD_4 = (
    1, 1, 1, 4, 4, 4, 2, 2, 2, 3, 3, 3, 1, 2, 1, 2, 4, 3, 4, 3,
)

# extension block over [7]: BASE_WORD_4 + EXTENSION_7 is the 84-letter
# 3-multiset ucycle over [7].
EXTENSION_7 = (
    1, 1, 5, 2, 2, 6, 3, 3, 7, 4, 4, 5, 1, 6, 6, 2, 7, 7, 3, 2,
    5, 7, 3, 6, 6, 7, 7, 1, 3, 5, 3, 4, 6, 4, 1, 7, 1, 5, 5, 5,
    3, 6, 1, 2, 7, 2, 4, 5, 5, 6, 6, 6, 4, 7, 7, 7, 5, 5, 2, 6,
    4, 5, 7, 6,
)

# the same block relabeled for the step to [10].
EXTENSION_10 = (
    1, 1, 8, 2, 2, 9, 3, 3, 10, 4, 4, 8, 1, 9, 9, 2, 10, 10, 3, 2,
    8, 10, 3, 9, 9, 10, 10, 1, 3, 8, 3, 4, 9, 4, 1, 10, 1, 8, 8, 8,
    3, 9, 1, 2, 10, 2, 4, 8, 8, 9, 9, 9, 4, 10, 10, 10, 8, 8, 2, 9,
    4, 8, 10, 9,
)

# connector (29 letters) and filler (43) completing the n=10 assembly.
CONNECTOR_10 = (
    5, 5, 10, 10, 7, 5, 9, 9, 6, 6, 8, 9, 7, 9, 7, 6, 8, 8, 7, 7,
    10, 6, 5, 8, 5, 8, 10, 6, 10,
)

FILLER_10 = (
    6, 9, 4, 5, 10, 3, 6, 9, 2, 5, 10, 1, 6, 9, 5, 8, 4, 7, 9, 3,
    5, 8, 2, 7, 9, 1, 5, 8, 7, 10, 4, 6, 8, 3, 7, 10, 2, 6, 8, 1,
    7, 10, 9,
)

ASSEMBLY_10 = BASE_WORD_4 + EXTENSION_7 + EXTENSION_10 + CONNECTOR_10 + FILLER_10

# the other frozen connector, serving the odd steps (n - 6 odd), on the six
# highest letters 8..13 of the step to [13].
CONNECTOR_13 = (
    8, 8, 11, 10, 9, 13, 8, 10, 12, 10, 11, 13, 9, 9, 11, 12, 8, 12, 9, 12,
    9, 13, 13, 10, 10, 11, 11, 8, 13,
)

# SHA-256 of the .ucy text (format_ucy(word, 3)) of the inductive words over
# [40], [70] and [100].
INDUCTIVE_SHA256 = {
    40: "51ba1cec220efea1bac1e6e991e4d71a4870b5efa17dc9ab6966871a5fbe808f",
    70: "711820142c40b67cf377d35c465163499897e0d58c37b598721516784e9a7587",
    100: "83ee8d57c4899c94e78160086a34329cec9c448e913dd5d424cbc284c72b1e2e",
}

# SHA-256 of the .ucy text (format_ucy(word, 3)) of the Euler fast path's
# words: 3-multisets of [23], [29], [77], [98] and 3-subsets of [8], [26],
# [50].
EULER_SHA256 = {
    ("multiset", 23): "c640cd2f4880ea423ca2dd535a37076ffff17e8bb8174428ea6c3ea8a1d3a30a",
    ("multiset", 29): "0f1a6da7b1d119ed134f30239705b79e49708f5bd7d01a861864d4c674b29d3f",
    ("multiset", 77): "898d70e6ec45bbdfcb8cce211911450426dc3fdd5dd9963ff149c23911fd0369",
    ("multiset", 98): "3e9f4b30c34b4ea8ac6f2c6b133f5ada400095d46aa37c229f758d76522fb313",
    ("subset", 8): "77bd1abab177f47b881dcad8a93ea96550ad8977653c4ab51b52909809d075c1",
    ("subset", 26): "1f65a09c510d97533295d3a7d6484ec9c9ef59be5a69a301b2c492dd03f846e5",
    ("subset", 50): "daaf5561ecf9a92a60cb1c803b476a54a6aaf3f0191a5176624861b864908674",
}

# SHA-256 of the .ucy text (format_ucy(word, t)) of words the witness search
# finds, keyed by (kind, n, t, required prefix): 2-multisets of [25],
# 3-multisets of [4] and 3-subsets of [7] that begin with 2 4.
WITNESS_SHA256 = {
    ("multiset", 25, 2, ()): "964613d4b7acfc59b230c523c04894836fda1bda7d4270483f7ffa7dbf0b8a0e",
    ("multiset", 4, 3, ()): "e6fa6bb203b6d6a414ad794deb8cfe88e954ba394462856332e6d972795b4dfe",
    ("subset", 7, 3, (2, 4)): "2b9310330079b6b4d5baacfb79ff8dc5b187aa4c3348478be19ca02a7169ebe0",
}

# SHA-256 of the .ucy text (format_ucy(word, 3)) of construct_doubling(n), the
# 3-multiset words pair doubling builds from generate_subset_ucycle(n, 3).
DOUBLING_SHA256 = {
    16: "f13005106db98578c9b9799cebc94a3b9c9dfa9a72011a90a138f7deaa31f539",
    22: "010b0597c1ce90d7f3bd2cabca96d7f0e9fd2ee3238ba718fdb9048b01e90369",
    86: "c99c454c18ad8e1b2eaeaa91efaa878f1befe9763bec839385dd9505bfcf2bc9",
    98: "1e79689010ba7676fcf65599a03336b758acfa160b54eb408fdb349cfe4587c3",
}

# 3-subset ucycle over [8]; input of the pair-doubling walkthrough.
SUBSET3_WORD_8 = (
    1, 2, 3, 5, 7, 8, 3, 6, 7, 8, 2, 4, 5, 8, 3, 4, 5, 7, 1, 2,
    5, 8, 1, 2, 4, 6, 7, 2, 5, 6, 7, 1, 3, 4, 7, 2, 3, 4, 6, 8,
    1, 4, 7, 8, 1, 3, 5, 6, 1, 4, 5, 6, 8, 2, 3, 6,
)

MISSING_PAIRS_8 = frozenset({(1, 5), (2, 6), (3, 7), (4, 8)})
ANCHOR_ORDER_8 = (1, 5, 3, 7, 4, 8, 2, 6)

# pair-doubled intermediate (96) and finished 3-multiset ucycle (120).
DOUBLED_WORD_8 = (
    1, 2, 1, 2, 3, 2, 3, 5, 7, 5, 7, 8, 7, 8, 3, 8, 3, 6, 3, 6,
    7, 6, 7, 8, 2, 4, 2, 4, 5, 4, 5, 8, 5, 8, 3, 4, 3, 4, 5, 7,
    1, 7, 1, 2, 5, 2, 5, 8, 1, 8, 1, 2, 4, 6, 4, 6, 7, 2, 7, 2,
    5, 6, 5, 6, 7, 1, 3, 1, 3, 4, 7, 2, 3, 4, 6, 8, 6, 8, 1, 4,
    1, 4, 7, 8, 1, 3, 5, 6, 1, 4, 5, 6, 8, 2, 3, 6,
)

MULTISET3_WORD_8 = (
    1, 2, 1, 2, 3, 2, 3, 5, 7, 5, 7, 8, 7, 8, 3, 8, 3, 6, 3, 6,
    7, 6, 7, 8, 2, 4, 2, 4, 5, 4, 5, 8, 5, 8, 3, 4, 3, 4, 5, 7,
    1, 7, 1, 2, 5, 2, 5, 8, 1, 8, 1, 2, 4, 6, 4, 6, 7, 2, 7, 2,
    5, 6, 5, 6, 7, 1, 3, 1, 3, 4, 7, 2, 3, 4, 6, 8, 6, 8, 1, 4,
    1, 4, 7, 8, 1, 3, 5, 6, 1, 4, 5, 6, 8, 2, 3, 6, 1, 1, 1, 5,
    5, 5, 3, 3, 3, 7, 7, 7, 4, 4, 4, 8, 8, 8, 2, 2, 2, 6, 6, 6,
)

# 2-subset warm-up over [5] and its letter-doubled 2-multiset companion.
SUBSET2_WORD_5 = (1, 2, 3, 4, 5, 1, 3, 5, 2, 4)
MULTISET2_WORD_5 = (1, 1, 2, 2, 3, 3, 4, 4, 5, 5, 1, 3, 5, 2, 4)

# distinct-class counts, frozen from exhaustive runs (an independently
# written backtracker reproduces both).
DISTINCT_CLASSES_4_3 = 2
DISTINCT_CLASSES_3_2 = 1

# nodes visited by count_distinct, which enumerates only anchored words in
# first-occurrence order, and by the unsymmetric anchored enumeration it
# replaced (every letter after the run of ones, no relabeling pruning).
COUNT_NODES = {(4, 3): 24302, (5, 2): 19565}
UNSYMMETRIC_COUNT_NODES = {(4, 3): 145812, (5, 2): 469240}

# count_distinct(n, t).as_text(): the class counts, exhaustion and nodes.
COUNT_AS_TEXT = {(4, 3): "4 3 2 2 true 24302", (3, 7): "3 7 0 0 true 35577"}

# the same under a per-branch node budget, keyed by (n, t, budget): a branch
# that runs out adds budget + 1 nodes.
BUDGETED_COUNT_AS_TEXT = {
    (4, 3, 5000): "4 3 2 2 false 10002",
    (5, 3, 1000): "5 3 0 0 false 2002",
}

# witness searches that run out of budget: (kind, n, t, required prefix,
# budget).  Each stops at the first node past its budget, so the error's
# ``nodes`` is budget + 1.
BUDGET_STOPS = (
    ("multiset", 5, 4, (), 100_000),
    ("subset", 7, 3, (4, 5), 5_000),
)

# _CoverSearch.nodes after the first solution of an unconstrained request
# that the letter search answers: every t=2 request, and the t=3 alphabets
# where the Euler fast path finds no word.  (kind, n, t) -> nodes.
FIRST_SOLUTION_NODES = {
    ("multiset", 4, 3): 575,
    ("subset", 7, 3): 17789,
    ("multiset", 51, 2): 34474,
    ("multiset", 101, 2): 262699,
}

# suffix-pinned requests, which the letter search answers on the rotation
# that starts with the suffix: _CoverSearch.nodes after the first solution and
# the SHA-256 of the word's .ucy text (format_ucy(word, t)), keyed by (kind,
# n, t, required prefix, required suffix).
SUFFIX_FIRST_SOLUTIONS = {
    ("subset", 7, 3, (), (4, 3)): (
        12061, "648831a58602fa7fde58f2adc236782c6bf85513fa212ae034e09a06585a5806"
    ),
    ("subset", 7, 3, (2,), (4, 3)): (
        12059, "10c6ce55b97e37fffd84f0c1bd9f509dca9ebd07f623459293db0d5d75b135e7"
    ),
    ("multiset", 4, 3, (1,), (4,)): (
        101, "e6fa6bb203b6d6a414ad794deb8cfe88e954ba394462856332e6d972795b4dfe"
    ),
    ("multiset", 5, 2, (), (3, 1)): (
        41, "1cb7196ce26a47f791996b0086414f3314c7a2c623c530330871766b255f5aa0"
    ),
    ("subset", 9, 2, (3,), (8, 1)): (
        168, "a16b6257e0ddcfd211714a39d54b0b9e555057673a0ef88dc378758de30e328f"
    ),
}

# suffix-pinned searches that run out of budget, like BUDGET_STOPS: (kind,
# n, t, required suffix, budget).
SUFFIX_BUDGET_STOPS = (("subset", 8, 3, (5, 1), 300_000),)

# exit codes of in-process `gen --method M --n N --t T --budget 20000`, keyed
# by (M, T); the i-th character is the code for n = i + 1, n = 1..20.
GEN_EXIT_CODES = {
    ("inductive", 1): "22222222222222222222",
    ("inductive", 2): "22222222222222222222",
    ("inductive", 3): "22202202202202202202",
    ("inductive", 4): "22222222222222222222",
    ("doubling", 1): "22222222222222222222",
    ("doubling", 2): "22222222222222222222",
    ("doubling", 3): "22222220202220202220",
    ("doubling", 4): "22222222222222222222",
    ("search", 1): "00000000000000000000",
    ("search", 2): "12020202020202020202",
    ("search", 3): "11200200200200200200",
    ("search", 4): "12123332323233323232",
    ("auto", 1): "00000000000000000000",
    ("auto", 2): "12020202020202020202",
    ("auto", 3): "11200200200200200200",
    ("auto", 4): "12123332323233323232",
}
