"""Universal cycles on t-multisets and t-subsets of [n].

Construction (inductive growth and pair doubling), verification, backtracking
search and distinct-class counting, plus a small CLI
(``python -m ucycles`` or the ``ucycles`` script).
"""

from .core import CanonicalClass, CycleWord, canonicalize, cyclic_windows
from .doubling import (
    AnchorPermutation,
    DoublingError,
    InfeasiblePermutation,
    PairOccurrenceIndex,
    append_triples,
    choose_permutation,
    construct_doubling,
    double_pairs,
    pair_index,
)
from .inductive import construct_inductive, provenance_report
from .searchgen import (
    CountResult,
    SearchBudgetExceeded,
    SearchConstraints,
    SearchInfeasible,
    count_distinct,
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
    "canonicalize",
    "choose_permutation",
    "construct_doubling",
    "construct_inductive",
    "count_distinct",
    "cyclic_windows",
    "double_pairs",
    "find_multiset_ucycle",
    "format_ucy",
    "generate_subset_ucycle",
    "load_ucy",
    "pair_index",
    "parse_ucy",
    "provenance_report",
    "save_ucy",
    "verify_multiset_ucycle",
    "verify_subset_ucycle",
]

__version__ = "0.1.0"
