"""Per-layer spans recorded from outside the package.

The tracer replaces each public function of a ``ucycles`` module at the place
where its caller looks it up (``ucycles.inductive.verify_multiset_ucycle``,
``ucycles.cli.run_induction``, ``CycleWord.__post_init__``, ...) with a
wrapper that records a span: name, start, end, parent and a few counts taken
from the arguments or the result.  Spans stay in memory; ``layer_metrics``
folds them into per-layer numbers when the pass ends.

Spans recorded inside worker processes (``count_distinct(..., workers=2)``)
stay in those processes and are not collected: for that operation the count
span's self time includes the wait for the workers, and the canonicalize and
CycleWord work done in the workers is missing from the core counts.
"""

from __future__ import annotations

import gzip
import importlib
import json
from contextlib import contextmanager
from pathlib import Path
from time import perf_counter

# span fields
SID, PARENT, NAME, START, END, ATTRS = range(6)


def _verify_attrs(args, result):
    return {"windows": len(args[0]), "ok": bool(result.ok)}


def _extend_attrs(args, result):
    return {"path": result.provenance[-1].path}


def _count_attrs(args, result):
    return {"nodes": result.nodes_visited}


def _format_attrs(args, result):
    return {"bytes": len(result)}


def _load_attrs(args, result):
    return {"bytes": Path(args[0]).stat().st_size}


def _cycleword_attrs(args, result):
    return {"letters": len(args[0].letters)}


# (module, attribute, span name, attrs recorder).  A module that imports a
# function binds its own name for it, so each caller's binding that the
# workloads reach is wrapped.
BINDINGS: list[tuple[str, str, str, object]] = [
    ("ucycles.cli", "main", "cli.main", None),
    ("ucycles.cli", "run_induction", "inductive.run_induction", None),
    ("ucycles.cli", "construct_doubling", "doubling.construct_doubling", None),
    ("ucycles.cli", "find_multiset_ucycle", "searchgen.witness", None),
    ("ucycles.cli", "format_ucy", "ucyfile.format_ucy", _format_attrs),
    ("ucycles.cli", "load_ucy", "ucyfile.load_ucy", _load_attrs),
    ("ucycles.cli", "verify_multiset_ucycle", "verify.multiset", _verify_attrs),
    ("ucycles.inductive", "extend", "inductive.extend", _extend_attrs),
    ("ucycles.inductive", "relabel", "core.relabel", None),
    ("ucycles.inductive", "linear_windows", "core.linear_windows", None),
    ("ucycles.inductive", "build_connector", "inductive.build_connector", None),
    ("ucycles.inductive", "build_filler", "inductive.build_filler", None),
    ("ucycles.inductive", "fill_linear_slot", "searchgen.fill_linear_slot", None),
    ("ucycles.inductive", "verify_multiset_ucycle", "verify.multiset", _verify_attrs),
    ("ucycles.doubling", "generate_subset_ucycle", "searchgen.witness", None),
    ("ucycles.doubling", "pair_index", "doubling.pair_index", None),
    ("ucycles.doubling", "verify_multiset_ucycle", "verify.multiset", _verify_attrs),
    ("ucycles.searchgen", "canonicalize", "core.canonicalize", None),
    ("ucycles.searchgen", "count_distinct", "searchgen.count", _count_attrs),
    ("ucycles.searchgen", "verify_multiset_ucycle", "verify.multiset", _verify_attrs),
    ("ucycles.searchgen", "verify_subset_ucycle", "verify.subset", _verify_attrs),
    ("ucycles.core", "canonicalize", "core.canonicalize", None),
    ("ucycles.core.CycleWord", "__post_init__", "core.CycleWord", _cycleword_attrs),
    ("ucycles.verify", "verify_multiset_ucycle", "verify.multiset", _verify_attrs),
]


def _resolve(path: str):
    """The module or class at ``path``, or None when the package no longer has it."""
    module, _, attr = path.rpartition(".")
    try:
        return importlib.import_module(path)
    except ModuleNotFoundError:
        try:
            return getattr(importlib.import_module(module), attr, None)
        except ModuleNotFoundError:
            return None


class Tracer:
    """Records spans while installed; one instance per pass, single thread."""

    def __init__(self) -> None:
        self.spans: list[list] = []
        self._stack: list[int] = []
        self._saved: list[tuple[object, str, object]] = []

    def _open(self, name: str) -> list:
        span = [len(self.spans), self._stack[-1] if self._stack else -1, name, 0.0, 0.0, None]
        self.spans.append(span)
        self._stack.append(span[SID])
        span[START] = perf_counter()
        return span

    def _close(self, span: list) -> None:
        span[END] = perf_counter()
        self._stack.pop()

    @contextmanager
    def span(self, name: str, attrs: dict | None = None):
        """A span opened by the benchmark itself, such as one operation."""
        span = self._open(name)
        span[ATTRS] = attrs
        try:
            yield span
        finally:
            self._close(span)

    def _wrap(self, fn, name: str, recorder):
        def traced(*args, **kwargs):
            span = self._open(name)
            try:
                result = fn(*args, **kwargs)
            except BaseException as exc:
                self._close(span)
                span[ATTRS] = {"error": type(exc).__name__}
                raise
            self._close(span)
            if recorder is not None:
                span[ATTRS] = recorder(args, result)
            return result

        traced.__wrapped__ = fn
        return traced

    def install(self) -> None:
        # A binding a later version of the package dropped is skipped: that
        # layer then records no spans instead of breaking the traced run.
        for owner_path, attr, name, recorder in BINDINGS:
            owner = _resolve(owner_path)
            original = vars(owner).get(attr) if owner is not None else None
            if original is None:
                continue
            self._saved.append((owner, attr, original))
            setattr(owner, attr, self._wrap(original, name, recorder))

    def uninstall(self) -> None:
        while self._saved:
            owner, attr, original = self._saved.pop()
            setattr(owner, attr, original)

    def write(self, path: Path) -> None:
        """Write every span as one JSON array per line, gzip-compressed."""
        path.parent.mkdir(parents=True, exist_ok=True)
        with gzip.open(path, "wt", compresslevel=1) as fh:
            for span in self.spans:
                fh.write(json.dumps(span) + "\n")


def self_times(spans: list[list]) -> list[float]:
    """Each span's duration minus the part of its interval its children cover."""
    children: dict[int, list[tuple[float, float]]] = {}
    for span in spans:
        if span[PARENT] >= 0:
            children.setdefault(span[PARENT], []).append((span[START], span[END]))
    out = []
    for span in spans:
        lo, hi = span[START], span[END]
        covered = 0.0
        reach = lo
        for start, end in sorted(children.get(span[SID], ())):
            start, end = max(start, reach), min(end, hi)
            if end > start:
                covered += end - start
                reach = end
        out.append(hi - lo - covered)
    return out


def _descendants_of(spans: list[list], names: set[str]) -> set[int]:
    """Ids of spans with an ancestor named in ``names`` (spans are in open order)."""
    name_of = {span[SID]: span[NAME] for span in spans}
    inside: set[int] = set()
    for span in spans:
        parent = span[PARENT]
        if parent in inside or name_of.get(parent) in names:
            inside.add(span[SID])
    return inside


def split_by_op(spans: list[list]) -> dict[str, list[list]]:
    """The spans under each benchmark operation span ("op"), keyed by its ``name`` attribute."""
    root_of: dict[int, str] = {}
    out: dict[str, list[list]] = {}
    for span in spans:
        if span[NAME] == "op":
            root_of[span[SID]] = span[ATTRS]["name"]
        elif span[PARENT] in root_of:
            root_of[span[SID]] = root_of[span[PARENT]]
        else:
            continue
        out.setdefault(root_of[span[SID]], []).append(span)
    return out


def layer_metrics(spans: list[list]) -> dict[str, float]:
    """Per-layer counts and seconds for one pass (inclusive unless named ``self``)."""
    self_s = self_times(spans)
    calls: dict[str, int] = {}
    dur: dict[str, float] = {}
    own: dict[str, float] = {}
    attr: dict[tuple[str, str], int] = {}
    for span, s in zip(spans, self_s):
        name = span[NAME]
        calls[name] = calls.get(name, 0) + 1
        dur[name] = dur.get(name, 0.0) + span[END] - span[START]
        own[name] = own.get(name, 0.0) + s
        for key, value in (span[ATTRS] or {}).items():
            # string attributes are tallied per value, numbers are summed
            if isinstance(value, str):
                key, value = f"{key}={value}", 1
            attr[name, key] = attr.get((name, key), 0) + int(value)

    def total(table, *names):
        return sum(table.get(n, 0) for n in names)

    verify_names = ("verify.multiset", "verify.subset")
    verify_calls = total(calls, *verify_names)
    verify_windows = sum(attr.get((n, "windows"), 0) for n in verify_names)
    verify_s = float(total(dur, *verify_names))
    count_nodes = attr.get(("searchgen.count", "nodes"), 0)
    count_s = dur.get("searchgen.count", 0.0)
    in_extend = _descendants_of(spans, {"inductive.extend"})
    return {
        "cli.self_s": own.get("cli.main", 0.0),
        "ucyfile.format_s": dur.get("ucyfile.format_ucy", 0.0),
        "ucyfile.parse_s": dur.get("ucyfile.load_ucy", 0.0),
        "ucyfile.bytes": attr.get(("ucyfile.format_ucy", "bytes"), 0)
        + attr.get(("ucyfile.load_ucy", "bytes"), 0),
        "core.cycleword_calls": calls.get("core.CycleWord", 0),
        "core.cycleword_letters": attr.get(("core.CycleWord", "letters"), 0),
        "core.cycleword_s": dur.get("core.CycleWord", 0.0),
        "core.canonicalize_calls": calls.get("core.canonicalize", 0),
        "core.canonicalize_s": dur.get("core.canonicalize", 0.0),
        "core.relabel_s": dur.get("core.relabel", 0.0),
        "verify.calls": verify_calls,
        "verify.windows": verify_windows,
        "verify.s": verify_s,
        "verify.windows_per_s": verify_windows / verify_s if verify_s else 0.0,
        "verify.ok_ratio": (sum(attr.get((n, "ok"), 0) for n in verify_names) / verify_calls
                            if verify_calls else 0.0),
        "inductive.extend_calls": calls.get("inductive.extend", 0),
        "inductive.extend_self_s": own.get("inductive.extend", 0.0),
        "inductive.extend_verify_calls": sum(
            1 for span in spans if span[SID] in in_extend and span[NAME] in verify_names
        ),
        "inductive.repaired_steps": attr.get(("inductive.extend", "path=repaired"), 0),
        "inductive.build_s": float(total(dur, "inductive.build_connector", "inductive.build_filler")),
        "searchgen.witness_calls": calls.get("searchgen.witness", 0),
        "searchgen.witness_self_s": own.get("searchgen.witness", 0.0),
        "searchgen.budget_exhausted": attr.get(("searchgen.witness", "error=SearchBudgetExceeded"), 0),
        "searchgen.fill_slot_calls": calls.get("searchgen.fill_linear_slot", 0),
        "searchgen.fill_slot_s": dur.get("searchgen.fill_linear_slot", 0.0),
        "searchgen.count_nodes": count_nodes,
        "searchgen.count_self_s": own.get("searchgen.count", 0.0),
        "searchgen.count_nodes_per_s": count_nodes / count_s if count_s else 0.0,
        "doubling.calls": calls.get("doubling.construct_doubling", 0),
        "doubling.self_s": own.get("doubling.construct_doubling", 0.0),
        "doubling.pair_index_s": dur.get("doubling.pair_index", 0.0),
    }
