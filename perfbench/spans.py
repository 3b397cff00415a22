"""In-memory spans recorded around the benchmark's calls into each layer.

Every span has a name, a start, an end and the id of the span that was
open when it started (its parent).  Spans stay in memory until the run
ends; :meth:`SpanRecorder.write` then dumps them once, with each span's
self time: its duration minus the part of its interval that its children
cover.
"""

from __future__ import annotations

import json
import time
from contextlib import contextmanager
from dataclasses import asdict, dataclass
from pathlib import Path
from typing import Dict, Iterator, List, Optional, Tuple


@dataclass
class Span:
    id: int
    name: str
    start: float
    end: float
    parent: Optional[int]

    @property
    def duration(self) -> float:
        return self.end - self.start


def covered_length(intervals: List[Tuple[float, float]]) -> float:
    """Length of the union of half-open intervals."""
    total = 0.0
    reach = float("-inf")
    for lo, hi in sorted(intervals):
        lo = max(lo, reach)
        if hi > lo:
            total += hi - lo
            reach = hi
    return total


def self_times(spans: List[Span]) -> Dict[int, float]:
    """Each span's duration minus the union of its children's intervals,
    clipped to the span itself."""
    children: Dict[int, List[Tuple[float, float]]] = {}
    by_id = {span.id: span for span in spans}
    for span in spans:
        if span.parent is not None:
            parent = by_id[span.parent]
            children.setdefault(span.parent, []).append(
                (max(span.start, parent.start), min(span.end, parent.end))
            )
    return {
        span.id: span.duration - covered_length(children.get(span.id, []))
        for span in spans
    }


class SpanRecorder:
    """Records nested spans when enabled; a disabled recorder does nothing."""

    def __init__(self, enabled: bool = True) -> None:
        self.enabled = enabled
        self.spans: List[Span] = []
        self._open: List[int] = []

    @contextmanager
    def span(self, name: str) -> Iterator[None]:
        if not self.enabled:
            yield
            return
        parent = self._open[-1] if self._open else None
        record = Span(len(self.spans), name, time.perf_counter(), 0.0, parent)
        self.spans.append(record)
        self._open.append(record.id)
        try:
            yield
        finally:
            self._open.pop()
            record.end = time.perf_counter()

    def durations(self, name: str) -> List[float]:
        """Durations of every finished span called ``name``, in order."""
        return [span.duration for span in self.spans if span.name == name]

    def self_time_by_name(self) -> Dict[str, float]:
        """Total self time per span name."""
        own = self_times(self.spans)
        totals: Dict[str, float] = {}
        for span in self.spans:
            totals[span.name] = totals.get(span.name, 0.0) + own[span.id]
        return totals

    def write(self, path: Path, extra: Dict[str, object]) -> None:
        """Write every span, its self time and ``extra`` as one JSON file."""
        own = self_times(self.spans)
        payload = dict(extra)
        payload["spans"] = [
            dict(asdict(span), self_s=own[span.id]) for span in self.spans
        ]
        payload["self_s_by_name"] = self.self_time_by_name()
        path.parent.mkdir(parents=True, exist_ok=True)
        path.write_text(json.dumps(payload, indent=1) + "\n")
