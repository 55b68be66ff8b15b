"""In-memory span recorder for the benchmark's traced runs.

A span is one call into a layer, timed from the benchmark side:
``(id, name, parent, batch, start, end)`` plus optional counts. Spans stay
in memory and are written once, at the end of a run, with their self time
(duration minus the part of the interval covered by child spans).
"""
from __future__ import annotations

import contextlib
import json
import time
from pathlib import Path


class Tracer:
    """Records nested spans when ``enabled``; a no-op otherwise."""

    def __init__(self, enabled: bool) -> None:
        self.enabled = enabled
        self.batch: int | None = None
        self.spans: list[dict] = []
        self._stack: list[int] = []

    @contextlib.contextmanager
    def span(self, name: str, **counts):
        """Time the enclosed block as span ``name``; yields the span dict
        (or ``None`` when disabled) so callers can attach counts."""
        if not self.enabled:
            yield None
            return
        rec = {
            "id": len(self.spans),
            "name": name,
            "parent": self._stack[-1] if self._stack else None,
            "batch": self.batch,
            **counts,
        }
        self.spans.append(rec)
        self._stack.append(rec["id"])
        rec["start"] = time.perf_counter()
        try:
            yield rec
        finally:
            rec["end"] = time.perf_counter()
            self._stack.pop()

    def durations(self, name: str, batch: int | None = None) -> list[float]:
        return [
            s["end"] - s["start"]
            for s in self.spans
            if s["name"] == name and (batch is None or s["batch"] == batch)
        ]

    def with_self_times(self) -> list[dict]:
        child_time = [0.0] * len(self.spans)
        for s in self.spans:
            if s["parent"] is not None:
                child_time[s["parent"]] += s["end"] - s["start"]
        return [
            {**s, "dur": s["end"] - s["start"], "self": s["end"] - s["start"] - c}
            for s, c in zip(self.spans, child_time)
        ]

    def write(self, path: Path, **header) -> None:
        path.parent.mkdir(parents=True, exist_ok=True)
        path.write_text(json.dumps({**header, "spans": self.with_self_times()}))
