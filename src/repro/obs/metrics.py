"""Counters, gauges and histograms for the simulated runtime.

A :class:`MetricsRegistry` is a flat namespace of named instruments the
runtime increments as it executes: entries processed, bytes moved by
traffic kind, prefetch cache hits, kernel-vs-scalar path counts,
sanitizer checks.  Like the tracer, a disabled registry
(:data:`NULL_METRICS`) costs one attribute check per update — instrument
handles it returns are shared no-op objects.

Metric names used by the runtime are listed in ``docs/observability.md``.
"""

from __future__ import annotations

from typing import Any, Dict, Optional

__all__ = [
    "Counter",
    "Gauge",
    "Histogram",
    "MetricsRegistry",
    "NULL_METRICS",
]


class Counter:
    """A monotonically increasing total."""

    __slots__ = ("name", "value")

    def __init__(self, name: str) -> None:
        self.name = name
        self.value = 0.0

    def inc(self, amount: float = 1.0) -> None:
        """Add ``amount`` (must be non-negative) to the total."""
        if amount < 0:
            raise ValueError(f"counter {self.name!r} cannot decrease")
        self.value += amount


class Gauge:
    """A value that can move both ways (last write wins)."""

    __slots__ = ("name", "value")

    def __init__(self, name: str) -> None:
        self.name = name
        self.value = 0.0

    def set(self, value: float) -> None:
        self.value = float(value)


class Histogram:
    """Streaming summary of observed samples (count/sum/min/max)."""

    __slots__ = ("name", "count", "total", "min", "max")

    def __init__(self, name: str) -> None:
        self.name = name
        self.count = 0
        self.total = 0.0
        self.min: Optional[float] = None
        self.max: Optional[float] = None

    def observe(self, value: float) -> None:
        value = float(value)
        self.count += 1
        self.total += value
        self.min = value if self.min is None else min(self.min, value)
        self.max = value if self.max is None else max(self.max, value)

    @property
    def mean(self) -> float:
        return self.total / self.count if self.count else 0.0

    def summary(self) -> Dict[str, float]:
        return {
            "count": float(self.count),
            "sum": self.total,
            "min": self.min if self.min is not None else 0.0,
            "max": self.max if self.max is not None else 0.0,
            "mean": self.mean,
        }


class _NullCounter:
    __slots__ = ()

    def inc(self, amount: float = 1.0) -> None:
        pass


class _NullGauge:
    __slots__ = ()

    def set(self, value: float) -> None:
        pass


class _NullHistogram:
    __slots__ = ()

    def observe(self, value: float) -> None:
        pass


_NULL_COUNTER = _NullCounter()
_NULL_GAUGE = _NullGauge()
_NULL_HISTOGRAM = _NullHistogram()


class MetricsRegistry:
    """Named instruments, created on first use.

    Args:
        enabled: when ``False`` the registry records nothing and every
            instrument accessor returns a shared no-op handle.
    """

    def __init__(self, enabled: bool = True) -> None:
        self.enabled = enabled
        self._counters: Dict[str, Counter] = {}
        self._gauges: Dict[str, Gauge] = {}
        self._histograms: Dict[str, Histogram] = {}

    def __bool__(self) -> bool:
        return self.enabled

    def counter(self, name: str) -> Counter:
        if not self.enabled:
            return _NULL_COUNTER  # type: ignore[return-value]
        counter = self._counters.get(name)
        if counter is None:
            counter = self._counters[name] = Counter(name)
        return counter

    def gauge(self, name: str) -> Gauge:
        if not self.enabled:
            return _NULL_GAUGE  # type: ignore[return-value]
        gauge = self._gauges.get(name)
        if gauge is None:
            gauge = self._gauges[name] = Gauge(name)
        return gauge

    def histogram(self, name: str) -> Histogram:
        if not self.enabled:
            return _NULL_HISTOGRAM  # type: ignore[return-value]
        histogram = self._histograms.get(name)
        if histogram is None:
            histogram = self._histograms[name] = Histogram(name)
        return histogram

    def snapshot(self, prefix: Optional[str] = None) -> Dict[str, Any]:
        """All current values as one JSON-safe dict.

        Counters and gauges map to their value; histograms map to their
        ``summary()`` dict.  Names are sorted for stable output; with
        ``prefix`` only instruments whose name starts with it are
        included (e.g. ``snapshot("sanitize_")``).
        """
        out: Dict[str, Any] = {}
        for name in sorted(self._counters):
            out[name] = self._counters[name].value
        for name in sorted(self._gauges):
            out[name] = self._gauges[name].value
        for name in sorted(self._histograms):
            out[name] = self._histograms[name].summary()
        if prefix is not None:
            out = {
                name: value for name, value in out.items()
                if name.startswith(prefix)
            }
        return out


#: Shared disabled registry: what un-instrumented code paths receive.
NULL_METRICS = MetricsRegistry(enabled=False)
