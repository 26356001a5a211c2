"""Universal cycles on t-multisets and t-subsets of [n].

Construction (inductive growth and pair doubling), verification, backtracking
search, exhaustive enumeration and distinct-class counting, plus a small CLI
(``python -m ucycles`` or the ``ucycles`` script).
"""

from .core import (
    CanonicalClass,
    CycleWord,
    canonicalize,
    cyclic_windows,
    linear_windows,
    relabel,
)
from .doubling import (
    AnchorPermutation,
    DoublingError,
    InfeasiblePermutation,
    PairOccurrenceIndex,
    append_triples,
    choose_permutation,
    construct_doubling,
    double_letters_2,
    double_pairs,
    pair_index,
)
from .inductive import (
    InductionState,
    base_case,
    build_connector,
    build_filler,
    construct_inductive,
    extend,
    partition_triples,
    provenance_report,
    run_induction,
)
from .searchgen import (
    CountResult,
    SearchBudgetExceeded,
    SearchConstraints,
    SearchInfeasible,
    count_distinct,
    enumerate_ucycles,
    find_multiset_ucycle,
    generate_subset_ucycle,
)
from .ucyfile import UcyFormatError, format_ucy, load_ucy, parse_ucy, save_ucy
from .verify import (
    InadmissibleError,
    VerificationReport,
    admissible_multiset,
    admissible_subset,
    verify_multiset_ucycle,
    verify_subset_ucycle,
)

__all__ = [
    "AnchorPermutation",
    "CanonicalClass",
    "CountResult",
    "CycleWord",
    "DoublingError",
    "InadmissibleError",
    "InductionState",
    "InfeasiblePermutation",
    "PairOccurrenceIndex",
    "SearchBudgetExceeded",
    "SearchConstraints",
    "SearchInfeasible",
    "UcyFormatError",
    "VerificationReport",
    "admissible_multiset",
    "admissible_subset",
    "append_triples",
    "base_case",
    "build_connector",
    "build_filler",
    "canonicalize",
    "choose_permutation",
    "construct_doubling",
    "construct_inductive",
    "count_distinct",
    "cyclic_windows",
    "double_letters_2",
    "double_pairs",
    "enumerate_ucycles",
    "extend",
    "find_multiset_ucycle",
    "format_ucy",
    "generate_subset_ucycle",
    "linear_windows",
    "load_ucy",
    "pair_index",
    "parse_ucy",
    "partition_triples",
    "provenance_report",
    "relabel",
    "run_induction",
    "save_ucy",
    "verify_multiset_ucycle",
    "verify_subset_ucycle",
]

__version__ = "0.1.0"
