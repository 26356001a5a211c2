"""The benchmark's workloads: fixed lists of operations on the ``ucycles`` package.

Each operation has a ``run`` step, which is the only timed code, and a
``check`` step that judges its output with :mod:`checker` afterwards.  A run
step never raises: a crash is recorded and then fails the check, so one bad
operation never aborts the pass.

Every call into the package is looked up through the calling module at call
time (``ucycles.cli.main``, ``ucycles.verify.verify_multiset_ucycle``, ...), so
the tracer's wrappers see it when a traced pass installs them.
"""

from __future__ import annotations

import contextlib
import io
import random
from dataclasses import dataclass
from pathlib import Path
from time import perf_counter

import checker

OK, BUDGET, FAILED = "ok", "budget", "failed"

WORKLOADS = ("inductive-large", "shift-search", "count-oracle")

# (n, t, word length, words per batch) for the brute-force oracle
ORACLE_BATCHES = ((4, 3, 20, 50_000), (5, 2, 15, 50_000))
ORACLE_PASSING_SHARE = 0.1


def _cli(argv: list[str]) -> tuple[object, float, str]:
    """Run ``ucycles.cli.main`` in-process: (exit code or crash, seconds, stdout)."""
    import ucycles.cli

    out = io.StringIO()
    with contextlib.redirect_stdout(out), contextlib.redirect_stderr(io.StringIO()):
        start = perf_counter()
        try:
            rc = ucycles.cli.main(argv)
        except SystemExit as exc:
            rc = exc.code
        except Exception as exc:  # recorded and failed by the check, never fatal
            rc = f"crash: {type(exc).__name__}: {exc}"
        seconds = perf_counter() - start
    return rc, seconds, out.getvalue()


@dataclass
class GenOp:
    """``ucycles gen --t 3 --out FILE``; with ``verify_file``, then ``ucycles verify --input FILE``.

    ``budget_capped`` marks an operation whose ``--budget`` may run out: exit
    code 3 is then the documented answer and counts as unsolved, not failed.
    """

    n: int
    extra: tuple[str, ...] = ()
    sha256: str | None = None
    budget_capped: bool = False
    verify_file: bool = False

    @property
    def name(self) -> str:
        return " ".join(("gen", f"n={self.n}", *self.extra))

    def run(self, tmp: Path) -> dict:
        out = tmp / f"w{self.n}.ucy"
        rc, seconds, _ = _cli(["gen", "--n", str(self.n), "--t", "3", "--out", str(out), *self.extra])
        rec = {"rc": rc, "seconds": seconds, "file": str(out)}
        if rc == 0 and self.verify_file:
            rec["verify_rc"], verify_s, rec["verify_out"] = _cli(
                ["verify", "--input", str(out), "--kind", "multiset"]
            )
            rec["seconds"] += verify_s
        return rec

    def check(self, rec: dict) -> tuple[str, str]:
        if rec["rc"] == 3 and self.budget_capped:
            return BUDGET, "node budget exhausted (exit 3)"
        if rec["rc"] != 0:
            return FAILED, f"gen exit {rec['rc']}"
        problem = checker.check_ucy_file(Path(rec["file"]), self.n, 3, self.sha256)
        if problem:
            return FAILED, problem
        if self.verify_file and (rec["verify_rc"] != 0 or "ok: true" not in rec["verify_out"].splitlines()):
            return FAILED, f"verify --input exit {rec['verify_rc']} on a valid word"
        return OK, ""


@dataclass
class CountOp:
    """``count_distinct(n, t, workers=...)`` with the default node budget."""

    n: int
    t: int
    workers: int | None = None

    @property
    def name(self) -> str:
        return f"count n={self.n} t={self.t}" + (f" workers={self.workers}" if self.workers else "")

    def run(self, tmp: Path) -> dict:
        import ucycles.searchgen

        start = perf_counter()
        try:
            r = ucycles.searchgen.count_distinct(self.n, self.t, workers=self.workers)
        except Exception as exc:  # recorded and failed by the check, never fatal
            return {"seconds": perf_counter() - start, "crash": repr(exc)}
        return {
            "seconds": perf_counter() - start,
            "result": (r.count_rot_relabel, r.count_also_reflect, r.exhausted),
        }

    def check(self, rec: dict) -> tuple[str, str]:
        if "crash" in rec:
            return FAILED, rec["crash"]
        problem = checker.check_count(self.n, self.t, rec["result"])
        return (FAILED, problem) if problem else (OK, "")


@dataclass
class OracleOp:
    """Brute-force oracle: build each word, verify it, canonicalize the ones that pass."""

    batches: list[tuple[int, int, list[tuple[int, ...]]]]

    name = "oracle"

    @classmethod
    def from_seed(cls, seed: int) -> "OracleOp":
        """Seeded random words (nearly all fail) mixed with seeded relabeled,
        rotated and possibly reflected class representatives (all pass)."""
        rng = random.Random(seed)
        batches = []
        for n, t, length, size in ORACLE_BATCHES:
            reps = checker.class_representatives(n, t)
            alphabet = range(1, n + 1)
            words = []
            for _ in range(size):
                if rng.random() >= ORACLE_PASSING_SHARE:
                    words.append(tuple(rng.choices(alphabet, k=length)))
                    continue
                rep = rng.choice(reps)
                perm = rng.sample(alphabet, n)
                r = rng.randrange(length)
                word = tuple(perm[x - 1] for x in rep[r:] + rep[:r])
                words.append(word[::-1] if rng.random() < 0.5 else word)
            batches.append((n, t, words))
        return cls(batches)

    def run(self, tmp: Path) -> dict:
        import ucycles.core
        import ucycles.verify

        core, verify = ucycles.core, ucycles.verify
        results = []
        start = perf_counter()
        try:
            for n, t, words in self.batches:
                verdicts: list[bool] = []
                reps: dict[int, tuple[int, ...]] = {}
                for i, letters in enumerate(words):
                    word = core.CycleWord(n, letters)
                    ok = verify.verify_multiset_ucycle(word, t).ok
                    verdicts.append(ok)
                    if ok:
                        reps[i] = core.canonicalize(word).representative.letters
                results.append((verdicts, reps))
        except Exception as exc:  # recorded and failed by the check, never fatal
            return {"seconds": perf_counter() - start, "crash": repr(exc)}
        return {"seconds": perf_counter() - start, "results": results}

    def check(self, rec: dict) -> tuple[str, str]:
        if "crash" in rec:
            return FAILED, rec["crash"]
        for (n, t, words), (verdicts, reps) in zip(self.batches, rec["results"]):
            problem = checker.check_oracle(n, t, words, verdicts, reps)
            if problem:
                return FAILED, f"oracle ({n},{t}): {problem}"
        return OK, ""


def build_ops(workload: str, seed: int) -> list:
    """The operation list of one pass; only ``count-oracle`` draws from ``seed``."""
    if workload == "inductive-large":
        sha = checker.PINNED["inductive_sha256"]
        return [GenOp(n, sha256=sha[str(n)], verify_file=True) for n in (40, 70, 100)]
    if workload == "shift-search":
        return [
            GenOp(14),
            # a full n=20 search takes 8-15 s on two shared cores, too long to
            # repeat within a run; capped, it is a fixed 250k nodes of the same tree
            GenOp(20, ("--budget", "250000"), budget_capped=True),
            GenOp(16, ("--method", "doubling")),
            GenOp(22, ("--method", "doubling")),
            GenOp(17),
            GenOp(19, ("--method", "search")),
            GenOp(26, ("--budget", "500000"), budget_capped=True),
        ]
    if workload == "count-oracle":
        return [
            CountOp(4, 3),
            CountOp(5, 2),
            CountOp(3, 7),
            CountOp(5, 2, workers=2),
            OracleOp.from_seed(seed),
        ]
    raise ValueError(f"unknown workload {workload!r}")
