"""Benchmark entry point for the ucycles package.

    python3 perfbench/run.py --workload NAME --seed N --seconds S --trace 0|1

Run from the root of a checkout: the package is imported from ``src/``.  The
run repeats passes of the workload's operation list, each in a fresh
interpreter, while the next pass still fits in ``--seconds``, and times
``setup_s`` over a few fresh interpreters before each pass and after the last.  Every output is checked.  The last
line of standard output is one JSON object with ``correct``, ``attempted``,
``failed`` and ``metrics``: the end-to-end metrics with ``--trace 0``, the
per-layer metrics with ``--trace 1``, named and with units as listed in
``BENCHMARK.json``.  Timings are medians over the passes.
"""

from __future__ import annotations

import argparse
import json
import os
import statistics
import subprocess
import sys
import threading
from pathlib import Path
from time import perf_counter

from workloads import WORKLOADS

ROOT = Path(__file__).resolve().parent.parent
HERE = Path(__file__).resolve().parent

# setup_s samples taken before every pass and after the last one, so that
# they are spread over the whole run rather than one moment of it
SETUP_SPAWNS_PER_GAP = 2
SETUP_CODE = "import ucycles.cli; ucycles.cli.build_parser()"
# a run must end within 180 s; a pass that would overrun this is an error
RUN_LIMIT_S = 170


class BenchError(RuntimeError):
    """The benchmark itself could not run; no result is printed."""


def _child_env() -> dict[str, str]:
    env = dict(os.environ)
    env["PYTHONPATH"] = os.pathsep.join(filter(None, [str(ROOT / "src"), env.get("PYTHONPATH")]))
    # the gen budget must be the CLI default, whatever the caller's shell sets
    env.pop("UCYCLE_BUDGET", None)
    return env


def _spawn_seconds(cmd: list[str], env: dict[str, str]) -> float:
    """Spawn-to-exit time of ``cmd``.

    ``subprocess.run(timeout=...)`` polls with sleeps of up to 50 ms, which
    rounds the measured time up to the polling schedule; a blocking wait with
    a watchdog thread measures the exit itself and still bounds a hang.
    """
    start = perf_counter()
    proc = subprocess.Popen(cmd, cwd=ROOT, env=env)
    watchdog = threading.Timer(60, proc.kill)
    watchdog.start()
    try:
        rc = proc.wait()
    finally:
        watchdog.cancel()
    seconds = perf_counter() - start
    if rc != 0:
        raise BenchError(f"{' '.join(cmd)} exited {rc}")
    return seconds


def setup_sampler(env: dict[str, str], samples: list[float]):
    """A callable that appends set-up timings to ``samples``: a fresh
    interpreter importing ucycles.cli and building its parser, spawn to exit."""
    cmd = [sys.executable, "-c", SETUP_CODE]
    _spawn_seconds(cmd, env)  # writes the bytecode caches

    def sample() -> None:
        samples.extend(_spawn_seconds(cmd, env) for _ in range(SETUP_SPAWNS_PER_GAP))

    return sample


def run_pass(workload: str, seed: int, trace: bool, env: dict[str, str], timeout: float) -> dict:
    cmd = [sys.executable, str(HERE / "passrun.py"), "--workload", workload,
           "--seed", str(seed), "--trace", str(int(trace))]
    try:
        proc = subprocess.run(cmd, cwd=ROOT, env=env, capture_output=True, text=True,
                              timeout=max(timeout, 1.0))
    except subprocess.TimeoutExpired as exc:
        raise BenchError(f"a {workload} pass did not finish within {timeout:.0f} s") from exc
    lines = proc.stdout.strip().splitlines()
    if proc.returncode != 0 or not lines:
        raise BenchError(f"a {workload} pass exited {proc.returncode}:\n{proc.stderr[-2000:]}")
    return json.loads(lines[-1])


def run_passes(workload: str, seed: int, seconds: float, kinds: list[bool],
               env: dict[str, str], started: float, gap) -> list[tuple[bool, dict]]:
    """Passes cycling through ``kinds`` (traced or not): one full cycle, then
    more while the next pass is expected to end within ``seconds``.  ``gap``
    runs before every pass and after the last one, outside the pass timing."""
    passes: list[tuple[bool, dict]] = []
    loop_start = perf_counter()
    last = 0.0
    while len(passes) < len(kinds) or perf_counter() - loop_start + last <= seconds:
        gap()
        trace = kinds[len(passes) % len(kinds)]
        t0 = perf_counter()
        passes.append((trace, run_pass(workload, seed, trace, env,
                                       RUN_LIMIT_S - (t0 - started))))
        last = perf_counter() - t0
    gap()
    return passes


def end_to_end(passes: list[dict]) -> dict[str, float]:
    ops = [op for p in passes for op in p["ops"]]
    med = statistics.median
    return {
        "ref_wall_s": med(p["ref_wall_s"] for p in passes),
        "ok_frac": sum(op["outcome"] == "ok" for op in ops) / len(ops),
        "peak_rss_mb": med(p["peak_rss_mb"] for p in passes),
    }


def per_layer(untraced: list[dict], traced: list[dict]) -> dict[str, float]:
    out = {name: statistics.median(p["layers"][name] for p in traced) for name in traced[0]["layers"]}
    out["run.wall_s"] = statistics.median(p["wall_s"] for p in untraced)
    out["run.probe_unit_s"] = statistics.median(p["probe_unit_s"] for p in untraced)
    out["trace.overhead_frac"] = (
        statistics.median(p["ref_wall_s"] for p in traced)
        / statistics.median(p["ref_wall_s"] for p in untraced) - 1.0
    )
    return out


def main(argv: list[str] | None = None) -> int:
    parser = argparse.ArgumentParser(description="ucycles benchmark")
    parser.add_argument("--workload", choices=WORKLOADS, required=True)
    parser.add_argument("--seed", type=int, required=True)
    parser.add_argument("--seconds", type=float, required=True)
    parser.add_argument("--trace", type=int, choices=(0, 1), required=True)
    args = parser.parse_args(argv)
    if not (ROOT / "src" / "ucycles" / "__init__.py").is_file():
        print(f"error: no ucycles package under {ROOT / 'src'}; run from a full checkout",
              file=sys.stderr)
        return 2
    started = perf_counter()
    env = _child_env()
    setup_times: list[float] = []
    try:
        gap = (lambda: None) if args.trace else setup_sampler(env, setup_times)
        kinds = [False, True] if args.trace else [False]
        passes = run_passes(args.workload, args.seed, args.seconds, kinds, env, started, gap)
    except (BenchError, OSError, subprocess.SubprocessError) as exc:
        print(f"error: {exc}", file=sys.stderr)
        return 1
    plain = [p for traced, p in passes if not traced]
    traced = [p for is_traced, p in passes if is_traced]
    ops = [op for _, p in passes for op in p["ops"]]
    for op in ops:
        if op["outcome"] == "failed":
            print(f"check failed: {op['name']}: {op['detail']}", file=sys.stderr)
    if args.trace:
        values = per_layer(plain, traced)
    else:
        values = {"setup_s": statistics.median(setup_times), **end_to_end(plain)}
    spec = json.loads((ROOT / "BENCHMARK.json").read_text())["per_layer" if args.trace else "end_to_end"]
    failed = sum(op["outcome"] == "failed" for op in ops)
    print(f"{args.workload}: {len(plain)} untraced and {len(traced)} traced passes, "
          f"{perf_counter() - started:.1f} s", file=sys.stderr)
    print(json.dumps({
        "correct": failed == 0,
        "attempted": len(ops),
        "failed": failed,
        "metrics": {m["name"]: {"value": values[m["name"]], "unit": m["unit"]} for m in spec},
    }))
    return 0


if __name__ == "__main__":
    sys.exit(main())
