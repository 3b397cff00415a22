"""Ablation A2 — histogram-balanced vs. equal-width partitioning (Sec. 4.3).

The paper: "partitioning the iteration space into equal-sized [-width]
partitions results in imbalanced workload among workers" for skewed data;
Orion computes per-dimension histograms and cuts balanced ranges.  This
ablation runs SGD MF on a power-law-skewed rating matrix both ways and
compares worker load imbalance and time per iteration.
"""

import numpy as np
import pytest

import _workloads as wl
from repro.apps import build_sgd_mf
from repro.runtime.options import LoopOptions

EPOCHS = 3


def _run(balance: bool, randomize: bool = False):
    dataset = wl.netflix_skewed()
    if randomize:
        # The paper's other skew remedy (Sec. 4.3): permute coordinates so
        # even equal-width ranges are balanced.  Build the program from the
        # permuted iteration space.
        from repro.core.distarray import DistArray
        from repro.data.synthetic import MFDataset

        shuffled = (
            DistArray.from_entries(
                dataset.entries, name="ab2_shuffled", shape=dataset.shape
            )
            .materialize()
            .randomize(seed=7)
        )
        dataset = MFDataset(
            entries=sorted(shuffled.entries()),
            num_rows=dataset.num_rows,
            num_cols=dataset.num_cols,
            rank=dataset.rank,
        )
    program = build_sgd_mf(
        dataset,
        cluster=wl.mf_cluster(),
        hyper=wl.MF_HYPER,
        options=LoopOptions(balance=balance),
    )
    history = program.run(EPOCHS)
    loads = program.train_loop.executor.partitions.size_matrix().sum(axis=1)
    imbalance = float(loads.max() / max(loads.mean(), 1e-9))
    return history.time_per_iteration(), imbalance


@pytest.mark.benchmark(group="ablation")
def test_ablation_partitioning(benchmark, report):
    results = benchmark.pedantic(
        lambda: (_run(True), _run(False), _run(False, randomize=True)),
        rounds=1,
        iterations=1,
    )
    (balanced_t, balanced_imb), (equal_t, equal_imb), (rand_t, rand_imb) = results
    rows = [
        ("histogram-balanced", f"{balanced_t:.4f}", f"{balanced_imb:.2f}x"),
        ("equal-width", f"{equal_t:.4f}", f"{equal_imb:.2f}x"),
        ("equal-width + randomize", f"{rand_t:.4f}", f"{rand_imb:.2f}x"),
    ]
    report(
        "Ablation A2: partitioning of a skewed iteration space (SGD MF)",
        wl.fmt_table(
            ["partitioning", "s/iter", "max/mean worker load"], rows
        )
        + "\nexpected shape: histogram balancing (or coordinate "
        "randomization, the paper's other remedy) cuts both imbalance and "
        "time per iteration on power-law data",
    )
    assert balanced_imb < equal_imb
    assert balanced_t < equal_t
    # Randomize also repairs equal-width partitioning (paper Sec. 4.3).
    assert rand_imb < equal_imb
    assert rand_t < equal_t
