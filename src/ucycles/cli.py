"""Command line interface.

Subcommands: ``gen`` (construct a verified word), ``verify`` (check a .ucy
file), ``pairs`` (adjacency report for a 3-subset ucycle), ``count``
(distinct-class counting; ``--list`` also prints one representative per
class).  Machine-readable payloads go to stdout, diagnostics to stderr.

Exit codes: 0 success; 1 verification failed or search infeasible, or the
reader of stdout closed it before the output was written (the command then
stops without a traceback); 2 usage error or inadmissible parameters; 3 node
budget exhausted.  ``--budget`` is the one way to change a node budget, and it
bounds only the letter search (and ``count``); the inductive, Euler and
doubling constructions search nothing and ignore it.

The commands raise on failure, and ``_FAILURES`` is the one place that turns
an exception into an exit code and its one stderr line: ``main`` walks it
and re-raises an exception of any other family.  So a route refusing an n
outside its preconditions, an ``--out`` file that cannot be written and a
``--subset-input`` given to any route but doubling all end as ``error: …``
and exit 2.  Before reading or allocating, ``gen`` and ``count`` pass (n, t)
through ``verify._require_admissible``, the gate every library front shares:
an n or t below 1 or a word longer than ``verify.MAX_LETTERS`` ends as
``error: …``, an n that does not divide the family size as ``inadmissible: …``,
both exit 2.
Every word ``gen`` builds, by any route, is verified once in
``verify._emitted`` before it is returned; a word that fails there is the
library's bug, an ``AssertionError``, and ends as ``internal error: …`` and
exit 1.
"""

from __future__ import annotations

import argparse
import functools
import os
import sys
from pathlib import Path

from .core import CycleWord
from .doubling import InfeasiblePermutation, construct_doubling, pair_index
from .inductive import construct_inductive, provenance_report
from .searchgen import (
    DEFAULT_COUNT_BUDGET,
    DEFAULT_WITNESS_BUDGET,
    SearchBudgetExceeded,
    SearchConstraints,
    SearchInfeasible,
    count_distinct,
    find_multiset_ucycle,
)
from .ucyfile import format_ucy, load_ucy
from .verify import InadmissibleError, _require_admissible, admissible_multiset
from .verify import verify_multiset_ucycle, verify_subset_ucycle

EXIT_OK = 0
EXIT_FAILED = 1
EXIT_USAGE = 2
EXIT_BUDGET = 3

MAX_REPORT_ITEMS = 50

# Each family of failure, tried in order: the exit code and the label of the
# one stderr line it ends with.  A closed stdout pipe, although an OSError, is
# handled before this table is read.
_FAILURES = (
    ((SearchBudgetExceeded,), EXIT_BUDGET, "budget exhausted"),
    ((SearchInfeasible, InfeasiblePermutation), EXIT_FAILED, "infeasible"),
    # every route returns its word through verify._emitted, which raises
    # AssertionError when the word fails: a bug of the library's own
    ((AssertionError,), EXIT_FAILED, "internal error"),
    # InadmissibleError, like UcyFormatError, is a ValueError: its row must come first
    ((InadmissibleError,), EXIT_USAGE, "inadmissible"),
    ((OSError, ValueError), EXIT_USAGE, "error"),
)


def _pick_budget(flag_value: int | None, default: int) -> int:
    if flag_value is None:
        return default
    if flag_value < 1:
        raise ValueError(f"--budget must be a positive integer, got {flag_value}")
    return flag_value


def _auto_method(n: int, t: int) -> str:
    """The construction whose preconditions (n, t) meets, else the search; an
    n or t below 1 raises ``ValueError`` here, before the choice is printed."""
    if n < 1 or t < 1:
        raise ValueError("n and t must be positive")
    if t == 3 and admissible_multiset(n, t):  # so n is prime to 3
        if n % 3 == 1 and n >= 4:
            return "inductive"
        if n % 2 == 0 and n >= 8:
            return "doubling"
    return "search"


def _emit_word(word: CycleWord, t: int, out: str | None, provenance: str | None) -> int:
    """Print the verified word, or write it to ``out``; a file that cannot be
    written raises OSError (a sidecar that cannot be written takes the word
    file back out), and an ``out`` that is its own sidecar's path raises
    ValueError."""
    if out and provenance is not None and Path(out).suffix == ".provenance":
        # the sidecar would overwrite the word: refuse before writing either
        raise ValueError(f"--out {out} is the path of its own .provenance sidecar")
    payload = format_ucy(word, t)
    verified = f"verified: n={word.alphabet_size} t={t} length={len(word)}"
    if out:
        Path(out).write_text(payload, encoding="utf-8")
        if provenance is not None:
            try:
                Path(out).with_suffix(".provenance").write_text(provenance, encoding="utf-8")
            except OSError:
                Path(out).unlink()
                raise
        print(verified, file=sys.stderr)
        print(f"wrote {out}", file=sys.stderr)
    else:
        print(verified, file=sys.stderr)
        sys.stdout.write(payload)
        if provenance is not None:
            sys.stderr.write(provenance)
    return EXIT_OK


def cmd_gen(args: argparse.Namespace) -> int:
    n, t = args.n, args.t
    budget = _pick_budget(args.budget, DEFAULT_WITNESS_BUDGET)
    method = _auto_method(n, t) if args.method == "auto" else args.method
    if args.subset_input and method != "doubling":
        raise ValueError(f"--subset-input is read only by the doubling method, not {method}")
    if args.method == "auto":
        print(f"auto-selected method: {method}", file=sys.stderr)
    _require_admissible(n, t, False)
    if method != "search" and t != 3:
        raise ValueError(f"the {method} method builds words for t=3 only")
    provenance: str | None = None
    if method == "inductive":
        word = construct_inductive(n)
        provenance = provenance_report(n)
    elif method == "doubling":
        subset_cycle = None
        if args.subset_input:
            subset_cycle, subset_t = load_ucy(args.subset_input)
            if subset_t != 3:
                raise ValueError("subset input must carry t=3")
        word = construct_doubling(n, subset_cycle)
    else:
        word = find_multiset_ucycle(n, t, SearchConstraints(node_budget=budget))
    return _emit_word(word, t, args.out, provenance)


def cmd_verify(args: argparse.Namespace) -> int:
    word, t = load_ucy(args.input)
    report = (verify_subset_ucycle if args.kind == "subset" else verify_multiset_ucycle)(word, t)
    print(f"kind: {args.kind}")
    print(f"n: {word.alphabet_size}")
    print(f"t: {t}")
    print(report.as_text(max_items=MAX_REPORT_ITEMS))
    return EXIT_OK if report.ok else EXIT_FAILED


def cmd_pairs(args: argparse.Namespace) -> int:
    word, t = load_ucy(args.input)
    if t != 3 or not verify_subset_ucycle(word, 3).ok:
        print("input does not verify as a ucycle on 3-subsets", file=sys.stderr)
        return EXIT_FAILED
    # a verified 3-subset ucycle always passes pair_index's checks
    idx = pair_index(word)
    missing = sorted(idx.missing)
    print(f"present_count: {len(idx.present)}")
    print(f"missing_count: {len(missing)}")
    print("missing_pairs: " + " ".join("{%d,%d}" % p for p in missing))
    print("matching_ok: true")
    return EXIT_OK


def cmd_count(args: argparse.Namespace) -> int:
    n, t = args.n, args.t
    budget = _pick_budget(args.budget, DEFAULT_COUNT_BUDGET)
    _require_admissible(n, t, False)
    result = count_distinct(n, t, budget=budget, workers=args.workers)
    print(result.as_text())
    if not result.exhausted:
        print("budget exhausted before full enumeration", file=sys.stderr)
        return EXIT_BUDGET
    if args.list:
        for letters in result.representatives:
            print(" ".join(map(str, letters)))
    return EXIT_OK


def build_parser() -> argparse.ArgumentParser:
    parser = argparse.ArgumentParser(
        prog="ucycles",
        description="construct, verify and count universal cycles",
    )
    sub = parser.add_subparsers(dest="command", required=True)

    p_gen = sub.add_parser("gen", help="generate a verified multiset ucycle")
    p_gen.add_argument("--n", type=int, required=True)
    p_gen.add_argument("--t", type=int, required=True)
    p_gen.add_argument(
        "--method",
        choices=["inductive", "doubling", "search", "auto"],
        default="auto",
    )
    p_gen.add_argument("--out", help="write the .ucy here instead of stdout")
    p_gen.add_argument(
        "--subset-input", help=".ucy file with a 3-subset ucycle for the doubling method"
    )
    p_gen.add_argument("--budget", type=int, help="search node budget")

    p_verify = sub.add_parser("verify", help="verify a .ucy file")
    p_verify.add_argument("--input", required=True)
    p_verify.add_argument("--kind", choices=["multiset", "subset"], required=True)

    p_pairs = sub.add_parser("pairs", help="adjacency report for a 3-subset ucycle")
    p_pairs.add_argument("--input", required=True)

    p_count = sub.add_parser("count", help="count distinct multiset ucycles")
    p_count.add_argument("--n", type=int, required=True)
    p_count.add_argument("--t", type=int, required=True)
    p_count.add_argument("--budget", type=int, help="per-branch node budget")
    p_count.add_argument(
        "--workers", type=int,
        help="run the (at most three) branches over this many processes: this one and "
        "at most two os.fork children (POSIX), no process pool",
    )
    p_count.add_argument(
        "--list",
        action="store_true",
        help="after a full count, print one representative per class",
    )
    return parser


@functools.cache
def _parser() -> argparse.ArgumentParser:
    """The parser ``main`` reuses: built on the first call, not at import."""
    return build_parser()


def main(argv: list[str] | None = None) -> int:
    args = _parser().parse_args(argv)
    try:
        # looked up at call time, so a wrapper installed on the module after
        # the parser was built is seen
        code = globals()[f"cmd_{args.command}"](args)
        # output shorter than the buffer meets a closed pipe here, not at exit
        sys.stdout.flush()
        return code
    except BrokenPipeError:
        # the reader closed stdout before the output was written; point the
        # descriptor at the null device so the flush at shutdown is silent
        devnull = os.open(os.devnull, os.O_WRONLY)
        os.dup2(devnull, sys.stdout.fileno())
        os.close(devnull)
        return EXIT_FAILED
    except Exception as exc:
        for families, code, label in _FAILURES:
            if isinstance(exc, families):
                print(f"{label}: {exc}", file=sys.stderr)
                return code
        raise
