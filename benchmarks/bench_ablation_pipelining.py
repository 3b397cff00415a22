"""Ablation A1 — pipelined rotation depth (paper Fig. 8 / Sec. 4.4).

Unordered 2D execution assigns each worker multiple time-partition indices
so it can proceed on a locally available partition while the next one is in
flight.  This ablation sweeps the pipeline depth on SGD MF (a pure
rotation workload, no parameter-server traffic): depth 1 — every step
waits for its rotation transfer — is slowest, and depth 2 (the paper's
Fig. 8 configuration) hides most of the latency.
"""

import pytest

import _workloads as wl
from repro.apps import build_sgd_mf
from repro.runtime.options import LoopOptions

EPOCHS = 3
DEPTHS = [1, 2, 4]


def _sweep():
    dataset = wl.netflix_bench()
    cluster = wl.mf_cluster()
    times = {}
    for depth in DEPTHS:
        program = build_sgd_mf(
            dataset,
            cluster=cluster,
            hyper=wl.MF_HYPER,
            options=LoopOptions(pipeline_depth=depth),
        )
        times[depth] = program.run(EPOCHS).time_per_iteration()
    return times


@pytest.mark.benchmark(group="ablation")
def test_ablation_pipelining(benchmark, report):
    times = benchmark.pedantic(_sweep, rounds=1, iterations=1)
    base = times[DEPTHS[0]]
    rows = [
        (depth, f"{seconds:.4f}", f"{base / seconds:.2f}x")
        for depth, seconds in times.items()
    ]
    report(
        "Ablation A1: unordered-2D pipeline depth (SGD MF)",
        wl.fmt_table(["depth", "s/iter", "speedup vs depth 1"], rows)
        + "\nexpected shape: pipelining (depth >= 2) hides rotation "
        "latency (paper Fig. 8 uses 2 indices per worker)",
    )
    assert times[2] < times[1]
    assert times[4] <= times[2] * 1.1  # deeper never meaningfully worse
