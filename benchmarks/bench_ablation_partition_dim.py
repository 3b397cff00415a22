"""Ablation A3 — the partitioning-dimension heuristic (Sec. 4.3).

Among candidate partitionings, Orion picks the one minimizing the
DistArray volume communicated during the loop (for SGD MF: pin the larger
factor matrix, rotate the smaller — paper Fig. 6 step 4).  The application
can override the heuristic; this ablation forces the opposite orientation
and measures the extra rotation traffic and time.
"""

import pytest

import _workloads as wl
from repro.analysis.strategy import PlacementKind
from repro.apps import build_sgd_mf
from repro.runtime.options import LoopOptions

EPOCHS = 3


def _run(force_dims):
    dataset = wl.netflix_bench()  # 300 rows x 240 cols: W bigger than H
    program = build_sgd_mf(
        dataset,
        cluster=wl.mf_cluster(),
        hyper=wl.MF_HYPER,
        options=LoopOptions(force_dims=force_dims),
    )
    history = program.run(EPOCHS)
    rotated = [
        name
        for name, placement in program.plan.placements.items()
        if placement.kind is PlacementKind.ROTATED
    ]
    bytes_per_epoch = history.records[-1].bytes_sent
    return history.time_per_iteration(), bytes_per_epoch, rotated


@pytest.mark.benchmark(group="ablation")
def test_ablation_partition_dim(benchmark, report):
    heuristic, forced = benchmark.pedantic(
        lambda: (_run(None), _run((1, 0))), rounds=1, iterations=1
    )
    rows = [
        (
            "heuristic (rotate smaller H)",
            f"{heuristic[0]:.4f}",
            f"{heuristic[1] / 1e3:.1f}",
            ",".join(heuristic[2]),
        ),
        (
            "forced worst (rotate larger W)",
            f"{forced[0]:.4f}",
            f"{forced[1] / 1e3:.1f}",
            ",".join(forced[2]),
        ),
    ]
    report(
        "Ablation A3: partitioning-dimension heuristic (SGD MF)",
        wl.fmt_table(
            ["choice", "s/iter", "KB/epoch", "rotated arrays"], rows
        )
        + "\nexpected shape: the heuristic rotates the smaller factor and "
        "moves fewer bytes",
    )
    assert heuristic[2] == ["H"]
    assert forced[2] == ["W"]
    assert heuristic[1] < forced[1]  # fewer bytes per epoch
    assert heuristic[0] <= forced[0] * 1.02  # never meaningfully slower