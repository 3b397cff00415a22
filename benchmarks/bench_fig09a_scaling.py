"""Fig. 9a — time per iteration vs. number of workers (SGD MF and LDA).

Paper result: Orion-parallelized programs beat the serial Julia program
from 2 workers on (despite abstraction overhead) and keep speeding up
consistently to 384 workers.  This benchmark sweeps worker counts on the
simulated cluster and prints time/iteration (averaged over iterations 2+,
as the paper averages iterations 2-8) plus the speedup over serial.
"""

import pytest

import _workloads as wl
from repro.apps import LDAApp, SGDMFApp, build_lda, build_sgd_mf
from repro.baselines import run_serial
from repro.runtime.cluster import ClusterSpec
from repro.runtime.options import LoopOptions

WORKER_SWEEP = [1, 2, 4, 8, 12, 24, 48]
EPOCHS = 3


def _sweep_mf():
    dataset = wl.netflix_bench()
    base = wl.mf_cluster()
    serial = run_serial(
        SGDMFApp(dataset, wl.MF_HYPER), EPOCHS, cost=base.cost.with_overhead(1.0)
    )
    rows = [("serial", f"{serial.time_per_iteration():.4f}", "1.00x")]
    for workers in WORKER_SWEEP:
        cluster = ClusterSpec(
            num_machines=max(1, workers // wl.BENCH_WORKERS_PER_MACHINE),
            workers_per_machine=min(workers, wl.BENCH_WORKERS_PER_MACHINE),
            network=wl.BENCH_NETWORK,
            cost=base.cost,
        )
        program = build_sgd_mf(dataset, cluster=cluster, hyper=wl.MF_HYPER)
        history = program.run(EPOCHS)
        t = history.time_per_iteration()
        rows.append(
            (workers, f"{t:.4f}", f"{serial.time_per_iteration() / t:.2f}x")
        )
    return serial, rows


def _sweep_lda():
    dataset = wl.nytimes_bench()
    base = wl.lda_cluster()
    serial = run_serial(
        LDAApp(dataset, wl.LDA_HYPER), EPOCHS, cost=base.cost.with_overhead(1.0)
    )
    rows = [("serial", f"{serial.time_per_iteration():.4f}", "1.00x")]
    for workers in WORKER_SWEEP:
        cluster = ClusterSpec(
            num_machines=max(1, workers // wl.BENCH_WORKERS_PER_MACHINE),
            workers_per_machine=min(workers, wl.BENCH_WORKERS_PER_MACHINE),
            network=wl.BENCH_NETWORK,
            cost=base.cost,
        )
        program = build_lda(
            dataset,
            cluster=cluster,
            hyper=wl.LDA_HYPER,
            options=LoopOptions(pipeline_depth=wl.BENCH_PIPELINE_DEPTH),
        )
        history = program.run(EPOCHS)
        t = history.time_per_iteration()
        rows.append(
            (workers, f"{t:.4f}", f"{serial.time_per_iteration() / t:.2f}x")
        )
    return serial, rows


@pytest.mark.benchmark(group="fig09a")
def test_fig09a_mf_scaling(benchmark, report):
    serial, rows = benchmark.pedantic(_sweep_mf, rounds=1, iterations=1)
    table = wl.fmt_table(["workers", "s/iter", "speedup vs serial"], rows)
    report(
        "Fig 9a (SGD MF): time per iteration vs workers",
        table
        + "\npaper shape: beats serial from 2 workers; consistent speedup "
        "to 384 workers",
    )
    # Shape assertions: serial beaten by 2 workers, monotone-ish scaling.
    speedups = [float(r[2][:-1]) for r in rows[1:]]
    assert speedups[1] > 1.0, "2 workers must beat serial"
    assert speedups[-1] > speedups[1], "speedup keeps growing"
    assert speedups[-1] > 4.0


@pytest.mark.benchmark(group="fig09a")
def test_fig09a_lda_scaling(benchmark, report):
    serial, rows = benchmark.pedantic(_sweep_lda, rounds=1, iterations=1)
    table = wl.fmt_table(["workers", "s/iter", "speedup vs serial"], rows)
    report(
        "Fig 9a (LDA): time per iteration vs workers",
        table
        + "\npaper shape: beats serial from 2 workers; consistent speedup."
        "\n(The scaled-down corpus strong-scales to ~a dozen workers; the"
        "\npaper's 300K-document NYTimes keeps scaling to 384.)",
    )
    speedups = [float(r[2][:-1]) for r in rows[1:]]
    assert speedups[1] > 1.0  # beats serial at 2 workers
    # Keeps speeding up well past 2 workers.  (LDA's ceiling at this scale
    # is per-worker marshalling of the rotated count data — each worker
    # serializes the full rotated array once per pass regardless of the
    # worker count; the paper's far larger corpora stay compute-bound.)
    assert max(speedups) > 2 * speedups[1]
