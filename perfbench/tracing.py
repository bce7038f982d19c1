"""In-memory spans for the traced run.

A span is one call into a layer, recorded from the benchmark's side of
the call: name, start, end, parent span and the run id every span of one
run shares, plus the row/block/byte counts seen at that boundary. Spans
stay in memory; ``write`` dumps them as JSON lines when the run ends.
"""

from __future__ import annotations

import json
import time
import uuid
from contextlib import contextmanager


class Tracer:
    def __init__(self, run_id: str | None = None):
        self.run_id = run_id or uuid.uuid4().hex[:12]
        self.spans: list[dict] = []
        self._open: list[int] = []

    @contextmanager
    def span(self, name: str):
        """Record one span; the yielded dict's ``counts`` takes boundary counts."""
        rec = {
            "id": len(self.spans),
            "run_id": self.run_id,
            "name": name,
            "parent": self._open[-1] if self._open else None,
            "start": time.perf_counter(),
            "end": None,
            "counts": {},
        }
        self.spans.append(rec)
        self._open.append(rec["id"])
        try:
            yield rec
        finally:
            self._open.pop()
            rec["end"] = time.perf_counter()

    def seconds(self, name: str) -> float:
        """Duration of the (single) span called ``name``."""
        (rec,) = [s for s in self.spans if s["name"] == name]
        return rec["end"] - rec["start"]

    def write(self, path: str) -> None:
        with open(path, "w") as f:
            for rec in self.spans:
                f.write(json.dumps(rec) + "\n")


def self_times(spans: list[dict]) -> dict[int, float]:
    """Span id -> its duration minus the time its children cover.

    Children of one parent run one after another, so their durations add
    up to the covered part of the parent's interval."""
    covered = {s["id"]: 0.0 for s in spans}
    for s in spans:
        if s["parent"] is not None:
            covered[s["parent"]] += s["end"] - s["start"]
    return {s["id"]: (s["end"] - s["start"]) - covered[s["id"]] for s in spans}


def check_span_tree(spans: list[dict], root: str) -> list[str]:
    """Problems with the tree under the span named ``root`` (empty when it
    is well formed): one run id, every span closed, every child inside
    its parent, and the self times under ``root`` summing to no more
    than ``root``'s own duration."""
    problems = []
    by_id = {s["id"]: s for s in spans}
    if len({s["run_id"] for s in spans}) != 1:
        problems.append("spans carry more than one run id")
    for s in spans:
        if s["end"] is None or s["end"] < s["start"]:
            problems.append(f"span {s['name']} is not closed")
            continue
        p = by_id.get(s["parent"]) if s["parent"] is not None else None
        if s["parent"] is not None and p is None:
            problems.append(f"span {s['name']} has an unknown parent")
        elif p is not None and not (p["start"] <= s["start"] and s["end"] <= p["end"]):
            problems.append(f"span {s['name']} lies outside its parent {p['name']}")
    if problems:
        return problems
    roots = [s for s in spans if s["name"] == root]
    if len(roots) != 1:
        return [f"expected one {root} span, found {len(roots)}"]
    top = roots[0]
    under = {top["id"]}
    for s in spans:  # parents are always recorded before their children
        if s["parent"] in under:
            under.add(s["id"])
    selfs = self_times(spans)
    total = top["end"] - top["start"]
    if sum(selfs[i] for i in under) > total + 1e-9:
        problems.append(f"self times under {root} exceed its duration")
    if any(selfs[i] < -1e-9 for i in under):
        problems.append(f"a span under {root} has negative self time")
    return problems
