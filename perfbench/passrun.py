"""One pass of a workload's operation list, in a fresh interpreter.

    python3 perfbench/passrun.py --workload NAME --seed N --trace 0|1

Builds the inputs, runs every operation once (timed), with the reference
probe of ``probe.py`` before the first and after each one (untimed), reads the
peak RSS, then checks every output (untimed) and prints one JSON object as the
last line of standard output.  With ``--trace 1`` the tracer wraps the package's
functions for the pass, the per-layer numbers are added to the JSON, the
spans are written to ``.perfbench/trace/<workload>.jsonl.gz`` and the same
numbers per operation to ``.perfbench/trace/<workload>.ops.json``.  Operation
outputs go to a temporary directory under ``.perfbench/`` that is removed
when the pass ends.
"""

from __future__ import annotations

import argparse
import contextlib
import json
import resource
import statistics
import sys
import tempfile
from pathlib import Path
from time import perf_counter

ROOT = Path(__file__).resolve().parent.parent
OUT_DIR = ROOT / ".perfbench"
sys.path.insert(0, str(ROOT / "src"))

import probe  # noqa: E402
import tracer as tracing  # noqa: E402
import workloads  # noqa: E402

# after each operation the probe runs for this share of the operation's time
# (at least one unit), so that long operations get a steadier speed estimate
PROBE_SHARE = 0.1
# ref_wall_s is the pass time on a machine where one probe unit takes this
# long, about the reference machine's typical speed
REF_UNIT_S = 0.1


def run_pass(workload: str, seed: int, trace: bool) -> dict:
    import ucycles

    if Path(ucycles.__file__).resolve().parent != ROOT / "src" / "ucycles":
        raise RuntimeError(f"imported ucycles from {ucycles.__file__}, not from this checkout")
    ops = workloads.build_ops(workload, seed)
    tracer = tracing.Tracer() if trace else None
    records = []
    OUT_DIR.mkdir(exist_ok=True)
    with tempfile.TemporaryDirectory(dir=OUT_DIR) as tmp:
        if tracer:
            tracer.install()
        try:
            wall_s = ref_wall_s = 0.0
            with probe.Probe() as pace:
                unit_s = [pace.measure(0.0)]
                for op in ops:
                    start = perf_counter()
                    with tracer.span("op", {"name": op.name}) if tracer else contextlib.nullcontext():
                        records.append(op.run(Path(tmp)))
                    took = perf_counter() - start
                    unit_s.append(pace.measure(PROBE_SHARE * took))
                    wall_s += took
                    # the machine's speed during the operation: the mean of the probes around it
                    ref_wall_s += took * REF_UNIT_S / ((unit_s[-2] + unit_s[-1]) / 2)
        finally:
            if tracer:
                tracer.uninstall()
        peak_rss_mb = resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024
        results = []
        for op, rec in zip(ops, records):
            outcome, detail = op.check(rec)
            results.append({
                "name": op.name,
                "seconds": rec["seconds"],
                "outcome": outcome,
                "detail": detail,
            })
    out = {
        "wall_s": wall_s,
        "ref_wall_s": ref_wall_s,
        "probe_unit_s": statistics.median(unit_s),
        "peak_rss_mb": peak_rss_mb,
        "ops": results,
    }
    if tracer:
        out["layers"] = tracing.layer_metrics(tracer.spans)
        tracer.write(OUT_DIR / "trace" / f"{workload}.jsonl.gz")
        per_op = {name: tracing.layer_metrics(spans)
                  for name, spans in tracing.split_by_op(tracer.spans).items()}
        (OUT_DIR / "trace" / f"{workload}.ops.json").write_text(json.dumps(per_op, indent=1))
    return out


def main() -> int:
    parser = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    parser.add_argument("--workload", choices=workloads.WORKLOADS, required=True)
    parser.add_argument("--seed", type=int, required=True)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    args = parser.parse_args()
    print(json.dumps(run_pass(args.workload, args.seed, bool(args.trace))))
    return 0


if __name__ == "__main__":
    sys.exit(main())
