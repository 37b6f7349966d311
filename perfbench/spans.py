"""In-memory spans around the benchmark's calls into each layer.

A span carries its name, start, end, parent span, workload and run id.
Spans are kept in a list and handed back when the run ends; a disabled
tracer records nothing.
"""

from __future__ import annotations

import contextlib
import time


class Tracer:
    def __init__(self, enabled: bool, workload: str, run_id: str):
        self.enabled = enabled
        self.workload = workload
        self.run_id = run_id
        self.spans: list[dict] = []
        self._open: list[int] = []

    @contextlib.contextmanager
    def span(self, name: str, **tags):
        if not self.enabled:
            yield
            return
        rec = {
            "id": len(self.spans),
            "name": name,
            "parent": self._open[-1] if self._open else None,
            "workload": self.workload,
            "run": self.run_id,
            "start": time.perf_counter(),
            "end": None,
            **tags,
        }
        self.spans.append(rec)
        self._open.append(rec["id"])
        try:
            yield
        finally:
            rec["end"] = time.perf_counter()
            self._open.pop()


def self_times(spans: list[dict]) -> list[float]:
    """Each span's duration minus the durations of its direct children.

    Spans come from one thread and nest, so the children of one span never
    overlap each other.
    """
    out = [s["end"] - s["start"] for s in spans]
    for s in spans:
        if s["parent"] is not None:
            out[s["parent"]] -= s["end"] - s["start"]
    return out


def self_time_by_name(spans: list[dict]) -> dict[str, float]:
    totals: dict[str, float] = {}
    for s, t in zip(spans, self_times(spans)):
        totals[s["name"]] = totals.get(s["name"], 0.0) + t
    return totals


def covered(spans: list[dict]) -> float:
    """Time covered by top-level spans."""
    return sum(s["end"] - s["start"] for s in spans if s["parent"] is None)
