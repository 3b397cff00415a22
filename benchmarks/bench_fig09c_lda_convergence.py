"""Fig. 9c — LDA per-iteration convergence by parallelization scheme.

Paper result (NYTimes, 384 workers): serial and dependence-aware
parallelization (ordered or unordered) converge together; data parallelism
lags.  The loss here is negative per-token predictive log likelihood
(lower is better), mirroring the paper's log-likelihood axis flipped.
"""

import pytest

import _workloads as wl
from repro.apps import LDAApp, build_lda
from repro.baselines import run_bosen, run_serial
from repro.runtime.options import LoopOptions

EPOCHS = 6


def _run_all():
    dataset = wl.nytimes_bench()
    cluster = wl.lda_cluster()
    app = LDAApp(dataset, wl.LDA_HYPER, seed=0)
    runs = {}
    runs["serial"] = run_serial(app, EPOCHS, cost=cluster.cost)
    app_dp = LDAApp(dataset, wl.LDA_HYPER, seed=0)
    runs["data parallel (Bosen)"] = run_bosen(app_dp, cluster, EPOCHS)
    runs["dep-aware (unordered)"] = build_lda(
        dataset,
        cluster=cluster,
        hyper=wl.LDA_HYPER,
        ordered=False,
        options=LoopOptions(pipeline_depth=wl.BENCH_PIPELINE_DEPTH),
    ).run(EPOCHS)
    runs["dep-aware (ordered)"] = build_lda(
        dataset, cluster=cluster, hyper=wl.LDA_HYPER, ordered=True
    ).run(EPOCHS)
    return runs


@pytest.mark.benchmark(group="fig09c")
def test_fig09c_lda_convergence(benchmark, report):
    runs = benchmark.pedantic(_run_all, rounds=1, iterations=1)
    checkpoints = [1, 2, 3, 4, 5, 6]
    rows = []
    for label, history in runs.items():
        rows.append(
            [label]
            + [f"{history.losses[epoch - 1]:.4f}" for epoch in checkpoints]
        )
    table = wl.fmt_table(["scheme"] + [f"iter {e}" for e in checkpoints], rows)
    report(
        "Fig 9c: LDA convergence per iteration (NYTimes-like)",
        table
        + "\npaper shape: serial ~= dep-aware (ordered ~= unordered); "
        "data parallelism converges slower",
    )

    serial = runs["serial"].final_loss
    unordered = runs["dep-aware (unordered)"].final_loss
    ordered = runs["dep-aware (ordered)"].final_loss
    bosen = runs["data parallel (Bosen)"].final_loss
    initial = runs["serial"].meta["initial_loss"]
    progress = initial - serial
    assert abs(unordered - serial) < 0.3 * progress
    assert abs(ordered - serial) < 0.3 * progress
    # Data parallelism makes less per-iteration progress.
    assert (initial - bosen) < (initial - unordered)
