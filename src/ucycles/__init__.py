"""Universal cycles on t-multisets and t-subsets of [n].

Construction (inductive growth, pair doubling and the gap-digraph Euler
block of ``euler``), verification, backtracking search and distinct-class
counting, plus a small CLI (``python -m ucycles`` or the ``ucycles`` script).
Names are imported from their modules (``from ucycles.core import
CycleWord``); the package itself exports none.
"""

# the library loads with the package, so no later call pays for an import
from . import core, doubling, euler, inductive, searchgen, ucyfile, verify
