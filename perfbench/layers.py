"""Per-layer numbers for the traced run.

Every probe calls a layer's public function from here, inside a span, on
the same inputs and with the same parameters the workload's program uses:
the iteration space, the loop body, and the plan dimensions and tiling
that the program's executor chose.  Baseline trials (scalar interpreter,
one worker, simulated oracle) come from :func:`measure.run_trial`.
"""

from __future__ import annotations

from statistics import median
from typing import Any, Dict, List, Optional, Sequence

import numpy as np

from repro.analysis.loop_info import analyze_loop_body
from repro.analysis.strategy import choose_plan
from repro.analysis.synth import synthesize_kernel
from repro.api import OrionContext
from repro.obs.insight import prediction_error
from repro.runtime.cluster import ClusterSpec
from repro.runtime.kernels import conflict_free_groups_nd
from repro.runtime.partition import partition_2d, sort_blocks_by_dim

from measure import Trial
from spans import SpanRecorder
from workloads import WORKERS, Workload

#: Repeats of each set-up probe; the median duration is reported.
PROBE_REPEATS = 3

DISTRIBUTED_METRICS = (
    "distributed.startup_s",
    "distributed.utilization",
    "distributed.token_wait_s",
    "distributed.rotation_tokens_per_epoch",
    "distributed.flush_bytes_per_epoch",
    "distributed.speedup_vs_1proc",
    "distributed.oracle_bitwise",
    "distributed.oracle_loss_gap",
)

#: Epochs of the scalar and one-worker baselines (warm-up included).
BASELINE_EPOCHS = 5


def probe_setup_layers(
    workload: Workload, inputs: Any, seed: int, spans: SpanRecorder
) -> Dict[str, float]:
    """Time materialization, compilation, partitioning and group building.

    The loop comes from a simulated-backend build of the workload's
    program, so probing forks nothing.
    """
    program = workload.build(inputs, seed, backend="simulated")
    try:
        loop = program.train_loop
        executor, plan = loop.executor, loop.plan
        space = loop.info.iteration_space
        entries = list(space.entries())
        shape = space.shape
        for _ in range(PROBE_REPEATS):
            with spans.span("core.materialize"):
                ctx = OrionContext(
                    cluster=ClusterSpec(num_machines=1, workers_per_machine=WORKERS),
                    seed=seed,
                )
                with spans.span("core.from_entries"):
                    array = ctx.from_entries(
                        inputs.entries, name="space", shape=inputs.shape
                    )
                with spans.span("core.materialize_call"):
                    ctx.materialize(array)
            with spans.span("analysis.compile"):
                with spans.span("analysis.analyze_loop_body"):
                    info = analyze_loop_body(
                        loop.body, space, ordered=plan.ordered
                    )
                with spans.span("analysis.choose_plan"):
                    choose_plan(info)
                with spans.span("analysis.synthesize_kernel"):
                    synthesize_kernel(loop.body, info)
            with spans.span("partition.partition"):
                with spans.span("partition.partition_2d"):
                    partitions = partition_2d(
                        entries,
                        plan.space_dim,
                        plan.time_dim,
                        shape[plan.space_dim],
                        shape[plan.time_dim],
                        executor.num_workers,
                        executor.num_time,
                        balance=executor.balance,
                    )
                if not plan.ordered:
                    with spans.span("partition.sort_blocks_by_dim"):
                        sort_blocks_by_dim(partitions, plan.time_dim)
            blocks = [
                partitions.block(task.space_idx, task.time_idx)
                for step in executor.steps
                for task in step
            ]
            seqs = [
                [[key[dim] for key, _value in block] for dim in range(len(shape))]
                for block in blocks
            ]
            sizes: List[int] = []
            with spans.span("kernels.groups"):
                for block_seqs in seqs:
                    with spans.span("kernels.conflict_free_groups_nd"):
                        groups = conflict_free_groups_nd(block_seqs)
                    sizes.extend(hi - lo for lo, hi in groups)
    finally:
        program.close()
    return {
        "core.materialize_s": median(spans.durations("core.materialize")),
        "analysis.compile_s": median(spans.durations("analysis.compile")),
        "partition.partition_s": median(spans.durations("partition.partition")),
        "kernels.groups_s": median(spans.durations("kernels.groups")),
        "kernels.group_count": float(len(sizes)),
        "kernels.batched_share": sum(n for n in sizes if n >= 2) / sum(sizes),
    }


def _counter_per_epoch(trials: Sequence[Trial], name: str) -> float:
    """Median over traced trials of one counter's steady-epoch increase."""
    per_epoch = []
    for trial in trials:
        warm, end = trial.snapshots[0], trial.snapshots[-1]
        per_epoch.append(
            (end.get(name, 0.0) - warm.get(name, 0.0)) / len(trial.steady_walls)
        )
    return median(per_epoch)


def layer_metrics(
    workload: Workload,
    plain: Sequence[Trial],
    traced: Sequence[Trial],
    oracle: Trial,
    scalar: Trial,
    one_worker: Optional[Trial],
) -> Dict[str, float]:
    """Per-layer metrics from the run's trials and baselines.

    ``plain`` trials ran without observability and ``traced`` ones with it;
    ``oracle`` is the workload's program on the simulated backend (the
    kernel path), ``scalar`` the same with ``use_kernel=False`` and
    ``one_worker`` the simulated kernel path on one worker (``None`` on a
    workload that never forks, whose ``distributed.*`` metrics read 0).
    """
    plain_epoch = median([w for t in plain for w in t.steady_walls])
    traced_epoch = median([w for t in traced for w in t.steady_walls])
    oracle_epoch = median(oracle.steady_walls)
    metrics = {
        "kernels.speedup_vs_scalar": median(scalar.steady_walls) / oracle_epoch,
        "executor.epoch_s": oracle_epoch,
        "schedule.virtual_epoch_s": median(oracle.virtual_epochs),
        "obs.prediction_error_pct": prediction_error(
            plain[0].steady_walls, oracle.virtual_epochs
        )["mean_abs_error_pct"],
        "obs.trace_overhead_pct": 100.0 * (traced_epoch / plain_epoch - 1.0),
    }
    if workload.backend != "multiprocess":
        metrics.update({name: 0.0 for name in DISTRIBUTED_METRICS})
        return metrics
    metrics.update({
        "distributed.startup_s": (
            median([t.first_epoch_s for t in plain]) - plain_epoch
        ),
        "distributed.utilization": median(
            [u for t in plain for u in t.utilizations]
        ),
        "distributed.token_wait_s": _counter_per_epoch(
            traced, "token_wait_seconds_total"
        ),
        "distributed.rotation_tokens_per_epoch": _counter_per_epoch(
            traced, "rotation_tokens_total"
        ),
        "distributed.flush_bytes_per_epoch": _counter_per_epoch(
            traced, "real_flush_bytes_total"
        ),
        "distributed.speedup_vs_1proc": (
            median(one_worker.steady_walls) / plain_epoch
        ),
        "distributed.oracle_bitwise": float(all(
            np.array_equal(t.final_state[name], oracle.final_state[name])
            for t in plain
            for name in workload.state_arrays
        )),
        "distributed.oracle_loss_gap": abs(
            plain[0].losses[-1] - oracle.losses[-1]
        ) / abs(oracle.losses[-1]),
    })
    return metrics
