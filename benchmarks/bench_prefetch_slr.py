"""Sec. 6.3 — bulk prefetching for SLR (single machine, KDD2010 analogue).

Paper result: without prefetching, each data pass takes 7682 s (almost all
of it per-read communication round trips); Orion's synthesized bulk
prefetch reduces it to 9.2 s, and caching the prefetch indices to 6.3 s.
The absolute numbers are testbed-specific; the shape is a ~3-orders-of-
magnitude gap between per-read round trips and bulk fetching, plus a
further measurable win from caching the synthesized function's output.
"""

import pytest

import _workloads as wl
from repro.apps import build_slr
from repro.runtime.options import LoopOptions

PAPER_ROWS = {
    "no prefetch": 7682.0,
    "bulk prefetch": 9.2,
    "bulk prefetch + cached indices": 6.3,
}


def _measure():
    dataset = wl.kdd_bench()
    cluster = wl.slr_cluster()
    times = {}
    for label, options in [
        ("no prefetch", LoopOptions(prefetch="none")),
        ("bulk prefetch", LoopOptions(prefetch="auto", cache_prefetch=False)),
        (
            "bulk prefetch + cached indices",
            LoopOptions(prefetch="auto", cache_prefetch=True),
        ),
    ]:
        program = build_slr(
            dataset, cluster=cluster, hyper=wl.SLR_HYPER, options=options
        )
        history = program.run(3)
        # Skip the first pass: the cached variant pays synthesis once.
        times[label] = history.time_per_iteration(skip_first=1)
    return times


@pytest.mark.benchmark(group="prefetch")
def test_prefetch_slr(benchmark, report):
    times = benchmark.pedantic(_measure, rounds=1, iterations=1)
    rows = [
        (label, f"{seconds:.4f}", f"{PAPER_ROWS[label]:.1f}")
        for label, seconds in times.items()
    ]
    report(
        "Sec 6.3: SLR per-pass time by prefetch configuration",
        wl.fmt_table(["configuration", "s/pass", "paper s/pass"], rows)
        + "\npaper shape: prefetching removes ~3 orders of magnitude of "
        "round-trip latency; caching indices shaves the rest",
    )
    assert times["no prefetch"] > 20 * times["bulk prefetch"]
    assert (
        times["bulk prefetch + cached indices"] < times["bulk prefetch"]
    )
