"""One pass of every workload completes, and the entry point keeps its contract.

Run with ``python3 -m pytest perfbench/tests`` from the repository root; this
file takes about a minute on two cores.
"""

from __future__ import annotations

import json
import shutil
import subprocess
import sys
from pathlib import Path

import pytest

BENCH = Path(__file__).resolve().parents[1]
ROOT = BENCH.parent

# outcome of each operation at the parent commit of the benchmark
EXPECTED = {
    "inductive-large": ["ok"] * 3,
    "shift-search": ["ok", "budget"] + ["ok"] * 4 + ["budget"],
    "count-oracle": ["ok"] * 5,
}


def _last_json(stdout: str) -> dict:
    return json.loads(stdout.strip().splitlines()[-1])


@pytest.mark.parametrize("workload", sorted(EXPECTED))
def test_one_pass_of_each_workload(workload):
    proc = subprocess.run(
        [sys.executable, str(BENCH / "passrun.py"), "--workload", workload, "--seed", "7",
         "--trace", "0"],
        cwd=ROOT, capture_output=True, text=True, timeout=170,
    )
    assert proc.returncode == 0, proc.stderr
    result = _last_json(proc.stdout)
    assert [op["outcome"] for op in result["ops"]] == EXPECTED[workload], result["ops"]
    assert result["wall_s"] > 0 and result["ref_wall_s"] > 0 and result["peak_rss_mb"] > 0


def test_traced_run_reports_every_per_layer_metric():
    spec = json.loads((ROOT / "BENCHMARK.json").read_text())
    proc = subprocess.run(
        [sys.executable, str(BENCH / "run.py"), "--workload", "count-oracle", "--seed", "7",
         "--seconds", "1", "--trace", "1"],
        cwd=ROOT, capture_output=True, text=True, timeout=170,
    )
    assert proc.returncode == 0, proc.stderr
    result = _last_json(proc.stdout)
    assert result["correct"] and result["failed"] == 0 and result["attempted"] == 10
    assert sorted(result["metrics"]) == sorted(m["name"] for m in spec["per_layer"])
    assert result["metrics"]["searchgen.count_nodes"]["value"] > 0


def test_refuses_to_run_without_the_package(tmp_path):
    shutil.copy(ROOT / "BENCHMARK.json", tmp_path)
    shutil.copytree(BENCH, tmp_path / BENCH.name, ignore=shutil.ignore_patterns("__pycache__"))
    proc = subprocess.run(
        [sys.executable, f"{BENCH.name}/run.py", "--workload", "shift-search", "--seed", "1",
         "--seconds", "1", "--trace", "0"],
        cwd=tmp_path, capture_output=True, text=True, timeout=170,
    )
    assert proc.returncode != 0
    assert proc.stdout == ""
