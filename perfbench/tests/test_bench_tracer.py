"""Self-time arithmetic and the wrapping of the package's functions.

Run with ``python3 -m pytest perfbench/tests`` from the repository root.
"""

from __future__ import annotations

import sys
from pathlib import Path

HERE = Path(__file__).resolve().parents[1]
sys.path.insert(0, str(HERE))
sys.path.insert(0, str(HERE.parent / "src"))

import tracer  # noqa: E402


def _span(sid, parent, name, start, end, attrs=None):
    return [sid, parent, name, float(start), float(end), attrs]


def test_self_time_subtracts_child_coverage():
    spans = [
        _span(0, -1, "op", 0, 10, {"name": "a"}),
        _span(1, 0, "x", 1, 3),
        _span(2, 1, "y", 1.5, 2.5),
        _span(3, 0, "x", 2, 5),  # overlaps its sibling: covered time counts once
        _span(4, 0, "z", 9, 12),  # runs past its parent: only the inside counts
        _span(5, -1, "op", 20, 21, {"name": "b"}),
    ]
    assert tracer.self_times(spans) == [10 - 4 - 1, 1.0, 1.0, 3.0, 3.0, 1.0]


def test_layer_metrics_on_a_synthetic_tree():
    spans = [
        _span(0, -1, "op", 0, 10, {"name": "gen"}),
        _span(1, 0, "cli.main", 0, 10),
        _span(2, 1, "inductive.extend", 1, 5, {"path": "repaired"}),
        _span(3, 2, "verify.multiset", 2, 3, {"windows": 20, "ok": True}),
        _span(4, 2, "verify.multiset", 3, 4, {"windows": 20, "ok": False}),
        _span(5, 1, "verify.multiset", 6, 8, {"windows": 60, "ok": True}),
        _span(6, 1, "searchgen.witness", 8, 9, {"error": "SearchBudgetExceeded"}),
    ]
    m = tracer.layer_metrics(spans)
    assert m["cli.self_s"] == 10 - 4 - 2 - 1
    assert m["inductive.extend_self_s"] == 2
    assert m["inductive.extend_verify_calls"] == 2
    assert m["inductive.repaired_steps"] == 1
    assert m["verify.calls"] == 3 and m["verify.windows"] == 100 and m["verify.s"] == 4
    assert m["verify.windows_per_s"] == 25 and m["verify.ok_ratio"] == 2 / 3
    assert m["searchgen.budget_exhausted"] == 1
    assert list(tracer.split_by_op(spans)) == ["gen"]


def test_traced_induction_matches_its_provenance():
    import ucycles.inductive

    original = ucycles.inductive.extend
    t = tracer.Tracer()
    t.install()
    try:
        state = ucycles.inductive.run_induction(100)
    finally:
        t.uninstall()
    assert ucycles.inductive.extend is original
    m = tracer.layer_metrics(t.spans)
    repaired = sum(rec.path == "repaired" for rec in state.provenance)
    assert m["inductive.extend_calls"] == len(state.provenance) == 31
    assert m["inductive.repaired_steps"] == repaired
    # the parent commit verifies twice per step plus once per repaired step
    assert (m["inductive.extend_verify_calls"], m["inductive.repaired_steps"]) == (77, 15)
    assert m["core.cycleword_calls"] > 0 and m["searchgen.fill_slot_calls"] == repaired
