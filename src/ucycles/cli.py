"""Command line interface.

Subcommands: ``gen`` (construct a verified word), ``verify`` (check a .ucy
file), ``pairs`` (adjacency report for a 3-subset ucycle), ``count``
(distinct-class counting; ``--list`` also prints one representative per
class).  Machine-readable payloads go to stdout, diagnostics to stderr.

Exit codes: 0 success; 1 verification failed or search infeasible, or the
reader of stdout closed it before the output was written (the command then
stops without a traceback); 2 usage error or inadmissible parameters; 3 node
budget exhausted.  The environment variable ``UCYCLE_BUDGET`` overrides the
default node budget when ``--budget`` is absent.  A budget bounds only the
search-backed routes; the inductive construction searches nothing.
"""

from __future__ import annotations

import argparse
import os
import sys
from pathlib import Path

from .core import CycleWord
from .doubling import DoublingError, InfeasiblePermutation, construct_doubling, pair_index
from .inductive import construct_inductive, provenance_report, run_induction
from .searchgen import (
    DEFAULT_COUNT_BUDGET,
    DEFAULT_WITNESS_BUDGET,
    SearchBudgetExceeded,
    SearchConstraints,
    SearchInfeasible,
    count_distinct,
    enumerate_ucycles,
    find_multiset_ucycle,
)
from .ucyfile import UcyFormatError, format_ucy, load_ucy
from .verify import (
    InadmissibleError,
    admissible_multiset,
    verify_multiset_ucycle,
    verify_subset_ucycle,
)

EXIT_OK = 0
EXIT_FAILED = 1
EXIT_USAGE = 2
EXIT_BUDGET = 3

MAX_REPORT_ITEMS = 50


def _env_budget() -> int | None:
    raw = os.environ.get("UCYCLE_BUDGET")
    if raw is None:
        return None
    try:
        value = int(raw)
        if value < 1:
            raise ValueError
    except ValueError:
        raise InadmissibleError(f"UCYCLE_BUDGET must be a positive integer, got {raw!r}")
    return value


def _pick_budget(flag_value: int | None, default: int) -> int:
    if flag_value is not None:
        if flag_value < 1:
            raise InadmissibleError(f"--budget must be a positive integer, got {flag_value}")
        return flag_value
    env = _env_budget()
    return env if env is not None else default


def _auto_method(n: int, t: int) -> str:
    """The construction whose preconditions (n, t) meets, else the search."""
    if t == 3:
        if n % 3 == 1 and n >= 4:
            return "inductive"
        if n % 2 == 0 and n % 3 != 0 and n >= 8:
            return "doubling"
    return "search"


def _emit_word(word: CycleWord, t: int, out: str | None, provenance: str | None) -> None:
    payload = format_ucy(word, t)
    if out:
        Path(out).write_text(payload)
        if provenance is not None:
            Path(out).with_suffix(".provenance").write_text(provenance)
        print(f"wrote {out}", file=sys.stderr)
    else:
        sys.stdout.write(payload)
        if provenance is not None:
            sys.stderr.write(provenance)


def _usage_error(message: str) -> int:
    print(f"error: {message}", file=sys.stderr)
    return EXIT_USAGE


def cmd_gen(args: argparse.Namespace) -> int:
    n, t = args.n, args.t
    if n < 1 or t < 1:
        return _usage_error("--n and --t must be positive")
    budget = _pick_budget(args.budget, DEFAULT_WITNESS_BUDGET)
    method = args.method
    if method == "auto":
        method = _auto_method(n, t)
        print(f"auto-selected method: {method}", file=sys.stderr)
    if not admissible_multiset(n, t):
        print(f"inadmissible: {n} does not divide C({n + t - 1},{t})", file=sys.stderr)
        return EXIT_USAGE
    provenance: str | None = None
    try:
        if method == "inductive":
            if t != 3 or n % 3 != 1 or n < 4:
                print("the inductive method needs t=3 and n = 3k+1 >= 4", file=sys.stderr)
                return EXIT_USAGE
            if n >= 7:
                state = run_induction(n)
                word = state.cycle()
                provenance = provenance_report(state)
            else:
                word = construct_inductive(n)
                provenance = ""
        elif method == "doubling":
            if t != 3 or n % 2 or n % 3 == 0 or n < 8:
                print(
                    "the doubling method needs t=3 and even n >= 8 not divisible by 3",
                    file=sys.stderr,
                )
                return EXIT_USAGE
            subset_cycle = None
            if args.subset_input:
                try:
                    subset_word, subset_t = load_ucy(args.subset_input)
                except OSError as exc:
                    return _usage_error(str(exc))
                if subset_t != 3:
                    print("subset input must carry t=3", file=sys.stderr)
                    return EXIT_USAGE
                subset_cycle = subset_word
            word = construct_doubling(n, subset_cycle, budget)
        elif method == "search":
            word = find_multiset_ucycle(n, t, SearchConstraints(node_budget=budget))
        else:  # pragma: no cover - argparse restricts choices
            return EXIT_USAGE
    except SearchBudgetExceeded as exc:
        print(f"budget exhausted: {exc}", file=sys.stderr)
        return EXIT_BUDGET
    except (SearchInfeasible, InfeasiblePermutation) as exc:
        print(f"infeasible: {exc}", file=sys.stderr)
        return EXIT_FAILED
    except (InadmissibleError, UcyFormatError, ValueError) as exc:
        return _usage_error(str(exc))
    except (AssertionError, DoublingError) as exc:
        # every route verifies its word before returning it; these are the
        # library's own verification failures
        print(f"internal error: {exc}", file=sys.stderr)
        return EXIT_FAILED

    print(
        f"verified: n={word.alphabet_size} t={t} length={len(word)}",
        file=sys.stderr,
    )
    _emit_word(word, t, args.out, provenance)
    return EXIT_OK


def cmd_verify(args: argparse.Namespace) -> int:
    try:
        word, t = load_ucy(args.input)
    except (OSError, UcyFormatError) as exc:
        return _usage_error(str(exc))
    if args.kind == "multiset":
        report = verify_multiset_ucycle(word, t)
    else:
        report = verify_subset_ucycle(word, t)
    print(f"kind: {args.kind}")
    print(f"n: {word.alphabet_size}")
    print(f"t: {t}")
    print(report.as_text(max_items=MAX_REPORT_ITEMS))
    return EXIT_OK if report.ok else EXIT_FAILED


def cmd_pairs(args: argparse.Namespace) -> int:
    try:
        word, t = load_ucy(args.input)
    except (OSError, UcyFormatError) as exc:
        return _usage_error(str(exc))
    if t != 3 or not verify_subset_ucycle(word, 3).ok:
        print("input does not verify as a ucycle on 3-subsets", file=sys.stderr)
        return EXIT_FAILED
    try:
        idx = pair_index(word)
    except ValueError as exc:
        print(f"error: {exc}", file=sys.stderr)
        return EXIT_FAILED
    missing = sorted(idx.missing)
    print(f"present_count: {len(idx.present)}")
    print(f"missing_count: {len(missing)}")
    print("missing_pairs: " + " ".join("{%d,%d}" % p for p in missing))
    print("matching_ok: true")
    return EXIT_OK


def cmd_count(args: argparse.Namespace) -> int:
    n, t = args.n, args.t
    if n < 1 or t < 1:
        return _usage_error("--n and --t must be positive")
    if args.workers is not None and args.workers < 0:
        return _usage_error("--workers must not be negative")
    budget = _pick_budget(args.budget, DEFAULT_COUNT_BUDGET)
    if not admissible_multiset(n, t):
        print(f"inadmissible: {n} does not divide C({n + t - 1},{t})", file=sys.stderr)
        return EXIT_USAGE
    result = count_distinct(n, t, budget=budget, workers=args.workers)
    print(result.as_text())
    if args.reflect:
        print(
            f"{result.count_rot_relabel} classes up to rotation+relabeling; "
            f"{result.count_also_reflect} when reflections are folded",
            file=sys.stderr,
        )
    if not result.exhausted:
        print("budget exhausted before full enumeration", file=sys.stderr)
        return EXIT_BUDGET
    if args.list:
        for cls in enumerate_ucycles(n, t):
            print(" ".join(map(str, cls.representative.letters)))
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
    p_gen.set_defaults(func=cmd_gen)

    p_verify = sub.add_parser("verify", help="verify a .ucy file")
    p_verify.add_argument("--input", required=True)
    p_verify.add_argument("--kind", choices=["multiset", "subset"], required=True)
    p_verify.set_defaults(func=cmd_verify)

    p_pairs = sub.add_parser("pairs", help="adjacency report for a 3-subset ucycle")
    p_pairs.add_argument("--input", required=True)
    p_pairs.set_defaults(func=cmd_pairs)

    p_count = sub.add_parser("count", help="count distinct multiset ucycles")
    p_count.add_argument("--n", type=int, required=True)
    p_count.add_argument("--t", type=int, required=True)
    p_count.add_argument("--budget", type=int, help="per-branch node budget")
    p_count.add_argument(
        "--reflect",
        action="store_true",
        help="also summarize the reflection-folded count on stderr",
    )
    p_count.add_argument("--workers", type=int, help="parallelize over this many processes")
    p_count.add_argument(
        "--list",
        action="store_true",
        help="after a full count, print one representative per class",
    )
    p_count.set_defaults(func=cmd_count)
    return parser


def main(argv: list[str] | None = None) -> int:
    parser = build_parser()
    args = parser.parse_args(argv)
    try:
        code = args.func(args)
        # output shorter than the buffer meets a closed pipe here, not at exit
        sys.stdout.flush()
        return code
    except InadmissibleError as exc:
        return _usage_error(str(exc))
    except BrokenPipeError:
        # the reader closed stdout before the output was written; point the
        # descriptor at the null device so the flush at shutdown is silent
        devnull = os.open(os.devnull, os.O_WRONLY)
        os.dup2(devnull, sys.stdout.fileno())
        os.close(devnull)
        return EXIT_FAILED


if __name__ == "__main__":
    sys.exit(main())
