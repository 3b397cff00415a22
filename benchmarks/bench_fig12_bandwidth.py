"""Fig. 12 — network bandwidth usage over time, LDA on NYTimes.

Paper result: Bösen's managed communication sustains its full per-machine
bandwidth budget (~2560 Mbps x 12 machines) for the whole run, while Orion
communicates in short rotation/flush bursts at a far lower average rate —
CM pays an order of magnitude more traffic for its staleness reduction.
"""

import numpy as np
import pytest

import _workloads as wl
from repro.apps import LDAApp, build_lda
from repro.baselines import run_managed_comm
from repro.runtime.options import LoopOptions

EPOCHS = 3


def _run_both():
    dataset = wl.nytimes_bench()
    cluster = wl.lda_cluster()
    orion = build_lda(
        dataset,
        cluster=cluster,
        hyper=wl.LDA_HYPER,
        options=LoopOptions(pipeline_depth=wl.BENCH_PIPELINE_DEPTH),
    ).run(EPOCHS)
    cm = run_managed_comm(
        LDAApp(dataset, wl.LDA_HYPER, seed=0),
        cluster,
        EPOCHS,
        bandwidth_budget_mbps=2560,
        cpu_overhead_s_per_mb=5e-3,
    )
    return orion, cm


@pytest.mark.benchmark(group="fig12")
def test_fig12_bandwidth(benchmark, report):
    orion, cm = benchmark.pedantic(_run_both, rounds=1, iterations=1)
    horizon = max(orion.total_time_s, cm.total_time_s)
    bucket = horizon / 20.0
    rows = []
    series_blocks = []
    for label, history in [("Orion", orion), ("Bosen CM", cm)]:
        times, mbps = history.traffic.bandwidth_series(bucket, horizon)
        rows.append(
            (
                label,
                f"{history.traffic.total_bytes / 1e6:.2f}",
                f"{np.mean(mbps):.1f}",
                f"{np.max(mbps):.1f}",
            )
        )
        series_blocks.append(
            wl.fmt_series(
                f"{label} bandwidth (Mbps) over virtual time",
                [(f"{t:.2f}", float(m)) for t, m in zip(times, mbps)][:10],
                "{:.0f}",
            )
        )
    orion_kinds = ", ".join(
        f"{kind}={nbytes / 1e6:.2f}MB"
        for kind, nbytes in sorted(orion.traffic.bytes_by_kind().items())
    )
    report(
        "Fig 12: bandwidth usage over time, LDA (NYTimes-like)",
        wl.fmt_table(
            ["engine", "total MB", "mean Mbps", "peak Mbps"], rows
        )
        + "\n\n"
        + "\n".join(series_blocks)
        + f"\nOrion traffic breakdown: {orion_kinds}"
        + "\npaper shape: CM sustains its full budget; Orion uses far "
        "less bandwidth in bursts",
    )
    # CM moves substantially more data overall...
    assert cm.traffic.total_bytes > 3 * orion.traffic.total_bytes
    # ...and at a higher sustained rate.
    _t_orion, mbps_orion = orion.traffic.bandwidth_series(bucket, horizon)
    _t_cm, mbps_cm = cm.traffic.bandwidth_series(bucket, horizon)
    assert float(np.mean(mbps_cm)) > 2 * float(np.mean(mbps_orion))
