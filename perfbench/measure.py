"""One training trial, its correctness bookkeeping, and run statistics.

A trial builds the workload's program, runs its warm-up epoch (the end of
set-up) and then its remaining epochs back to back: a closed loop of one
job.  Losses are evaluated between epochs, off the clock.  The run repeats
trials until its time is up and reports medians and means over them.
"""

from __future__ import annotations

import gc
import math
import os
import platform
import resource
import sys
import time
import traceback
from dataclasses import dataclass, field
from statistics import fmean, median
from typing import Any, Callable, Dict, List, Optional, Sequence, Set, Tuple

import numpy as np

from spans import SpanRecorder
from workloads import Workload

#: Fewest trials of each variant in a run: set-up is a median over these.
MIN_TRIALS = 3


@dataclass
class Trial:
    """Timings, losses and failures of one trial.

    Epochs are numbered from 0 (the warm-up epoch).  ``losses[0]`` is the
    loss before training, ``losses[k]`` the loss after epoch ``k - 1``.
    """

    build_s: float = math.nan
    setup_s: float = math.nan
    steady_walls: List[float] = field(default_factory=list)
    losses: List[float] = field(default_factory=list)
    utilizations: List[float] = field(default_factory=list)
    virtual_epochs: List[float] = field(default_factory=list)
    #: ``metrics.snapshot()`` after the warm-up epoch and at the end.
    snapshots: List[Dict[str, Any]] = field(default_factory=list)
    final_state: Dict[str, np.ndarray] = field(default_factory=dict)
    attempted: int = 0
    raised: bool = False
    failed: Set[int] = field(default_factory=set)
    reasons: List[str] = field(default_factory=list)

    def fail(self, epoch: int, reason: str) -> None:
        """Mark one epoch failed; an epoch counts once however it failed."""
        self.failed.add(epoch)
        self.reasons.append(f"epoch {epoch}: {reason}")

    @property
    def first_epoch_s(self) -> float:
        return self.setup_s - self.build_s


def fail_rate(trials: Sequence[Trial]) -> float:
    """Failed epochs over attempted epochs, across trials."""
    attempted = sum(trial.attempted for trial in trials)
    failed = sum(len(trial.failed) for trial in trials)
    return failed / attempted if attempted else 1.0


def time_to_target(
    setup_s: float,
    steady_walls: Sequence[float],
    losses: Sequence[float],
    target: float,
) -> Optional[float]:
    """Set-up plus training seconds until the first epoch whose loss is at
    most ``target``; ``None`` when no epoch reaches it.

    ``losses[k]`` is the loss after epoch ``k - 1``: ``losses[1]`` follows
    the warm-up epoch, which ``setup_s`` already covers, and ``losses[k]``
    for ``k >= 2`` follows ``steady_walls[k - 2]``.  The loss before
    training (``losses[0]``) never counts.
    """
    elapsed = setup_s
    for k in range(1, len(losses)):
        if k >= 2:
            elapsed += steady_walls[k - 2]
        if losses[k] <= target:
            return elapsed
    return None


def run_trial(
    workload: Workload,
    inputs: Any,
    seed: int,
    *,
    epochs: Optional[int] = None,
    obs: Any = None,
    spans: Optional[SpanRecorder] = None,
    **build_overrides: Any,
) -> Trial:
    """Build, warm up and train one program; never raises.

    ``epochs`` defaults to the workload's; ``build_overrides`` (backend,
    workers, use_kernel) build a baseline instead of the workload itself.
    An epoch fails when it raises (which ends the trial) or leaves a
    non-finite loss.  The caller adds the checks that need other trials.
    """
    epochs = workload.epochs if epochs is None else epochs
    spans = spans or SpanRecorder(enabled=False)
    trial = Trial()
    program = None
    try:
        with spans.span("trial"):
            trial.attempted = 1
            start = time.perf_counter()
            with spans.span("build"):
                program = workload.build(
                    inputs, seed, obs=obs, **build_overrides
                )
            trial.build_s = time.perf_counter() - start
            with spans.span("loss_eval"):
                trial.losses.append(float(program.loss_fn()))
            start = time.perf_counter()
            with spans.span("epoch"):
                results = program.epoch_fn()
            trial.setup_s = trial.build_s + time.perf_counter() - start
            _after_epoch(trial, program, results, 0, spans)
            if obs is not None:
                trial.snapshots.append(obs.metrics.snapshot())
            for epoch in range(1, epochs):
                trial.attempted += 1
                start = time.perf_counter()
                with spans.span("epoch"):
                    results = program.epoch_fn()
                trial.steady_walls.append(time.perf_counter() - start)
                _after_epoch(trial, program, results, epoch, spans)
            if obs is not None:
                trial.snapshots.append(obs.metrics.snapshot())
            trial.final_state = {
                name: np.array(program.arrays[name].values, copy=True)
                for name in workload.state_arrays
            }
    except Exception:  # noqa: BLE001 - a raising epoch is a counted failure
        traceback.print_exc(file=sys.stderr)
        trial.raised = True
        trial.fail(trial.attempted - 1, "raised")
    finally:
        if program is not None:
            program.close()
        # A program's objects form reference cycles; free them between
        # trials, off the clock, so that every trial starts from the same
        # heap and peak memory does not grow with the number of trials.
        del program
        gc.collect()
    return trial


def _after_epoch(
    trial: Trial,
    program: Any,
    results: Sequence[Any],
    epoch: int,
    spans: SpanRecorder,
) -> None:
    """Record one epoch's loss and results; fail it on a non-finite loss."""
    with spans.span("loss_eval"):
        loss = float(program.loss_fn())
    trial.losses.append(loss)
    if not math.isfinite(loss):
        trial.fail(epoch, f"loss {loss}")
    if epoch > 0:
        trial.utilizations.extend(r.utilization for r in results)
        trial.virtual_epochs.extend(
            r.epoch_time_s for r in results if r.clock == "virtual"
        )


def check_trials(
    workload: Workload,
    trials: Sequence[Trial],
    oracle_state: Optional[Dict[str, np.ndarray]] = None,
) -> None:
    """Correctness checks that follow a trial; each failure fails the
    trial's last attempted epoch.

    * the trial reaches the workload's target;
    * its loss curve is bitwise equal to the first trial's (same seed,
      same inputs, same program);
    * with ``oracle_state`` given, its ``state_arrays`` are bitwise equal
      to the oracle's.
    """
    finished = [trial for trial in trials if not trial.raised]
    for trial in finished:  # a raising epoch already counts as failed
        last = trial.attempted - 1
        target = workload.target_ratio * trial.losses[0]
        if time_to_target(
            trial.setup_s, trial.steady_walls, trial.losses, target
        ) is None:
            trial.fail(last, f"target {target:.6g} not reached")
        if trial.losses != finished[0].losses:
            trial.fail(last, "loss curve differs from the first trial's")
        if oracle_state is not None:
            for name, expected in oracle_state.items():
                if not np.array_equal(trial.final_state.get(name), expected):
                    trial.fail(last, f"{name} differs from the oracle")


def repeat_trials(
    workload: Workload,
    inputs: Any,
    seed: int,
    seconds: float,
    variants: Sequence[Tuple[str, Callable[[], Any]]],
    spans: SpanRecorder,
) -> Tuple[List[List[Trial]], float]:
    """Run each variant's trial in turn until ``seconds`` have passed and
    every variant has ``MIN_TRIALS`` trials.

    Returns one list of trials per variant and the peak resident MiB
    (driver plus largest worker) at the end of the trials.
    """
    runs: List[List[Trial]] = [[] for _ in variants]
    deadline = time.perf_counter() + seconds
    while time.perf_counter() < deadline or len(runs[0]) < MIN_TRIALS:
        for trials, (name, make_obs) in zip(runs, variants):
            with spans.span(name):
                trials.append(
                    run_trial(workload, inputs, seed, obs=make_obs(), spans=spans)
                )
    # Before the oracle and baselines run, so that only the workload counts.
    peak = peak_rss_mb()
    return runs, peak


def end_to_end(
    workload: Workload,
    inputs: Any,
    trials: Sequence[Trial],
    peak_rss: float,
    samples: Dict[str, List[float]],
) -> Dict[str, float]:
    """The end-to-end metrics over the plain trials that finished; the
    timings they summarize go into ``samples``."""
    done = [trial for trial in trials if not trial.raised]
    to_target = []
    for trial in done:
        seconds = time_to_target(
            trial.setup_s,
            trial.steady_walls,
            trial.losses,
            workload.target_ratio * trial.losses[0],
        )
        # A miss (already a failed check) counts the whole trial.
        to_target.append(
            seconds if seconds is not None
            else trial.setup_s + sum(trial.steady_walls)
        )
    steady = [wall for trial in done for wall in trial.steady_walls]
    samples.update(
        setup_s=[trial.setup_s for trial in done],
        time_to_target_s=to_target,
        steady_epoch_s=steady,
    )
    print(
        f"# samples: {len(done)} trials, {len(steady)} steady epochs "
        f"(median {median(steady):.4f} s, max {max(steady):.4f} s)",
        flush=True,
    )
    return {
        "setup_s": median([trial.setup_s for trial in done]),
        "train_entries_per_s": len(inputs.entries) * len(steady) / sum(steady),
        # A mean: the host runs in phases of several seconds, and a mean
        # over the trials averages them out better than a median does.
        "time_to_target_s": fmean(to_target),
        "loss_final": median([trial.losses[-1] for trial in done]),
        "peak_rss_mb": peak_rss,
    }


def peak_rss_mb() -> float:
    """Peak resident MiB of this process plus its largest waited-for
    child (a worker process)."""
    own = resource.getrusage(resource.RUSAGE_SELF).ru_maxrss
    child = resource.getrusage(resource.RUSAGE_CHILDREN).ru_maxrss
    return (own + child) / 1024.0


def host_fingerprint() -> Dict[str, Any]:
    """Host facts and a fixed reference timing, recorded beside every run
    so that host drift can be told apart from a code change."""
    return {
        "nproc": os.cpu_count(),
        "python": platform.python_version(),
        "numpy": np.__version__,
        "machine": platform.machine(),
        "ref_python_s": _reference_seconds(_python_loop),
        "ref_numpy_s": _reference_seconds(_numpy_loop),
    }


def _reference_seconds(work, repeats: int = 3) -> float:
    walls = []
    for _ in range(repeats):
        start = time.perf_counter()
        work()
        walls.append(time.perf_counter() - start)
    return median(walls)


def _python_loop() -> int:
    total = 0
    for i in range(1_000_000):
        total += i * i % 7
    return total


def _numpy_loop() -> float:
    rng = np.random.default_rng(0)
    a = rng.standard_normal((400, 400))
    acc = 0.0
    for _ in range(10):
        acc += float((a @ a).sum())
    return acc
