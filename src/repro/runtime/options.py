"""LoopOptions: the one configuration object of a parallel for-loop.

Every knob of a loop lives here and nowhere else: ``parallel_for``, the
executor, the app builders and the CLI all take one ``LoopOptions`` and
merge nothing::

    loop = ctx.parallel_for(data, options=LoopOptions(ordered=True))(body)

Derive a variant with :func:`dataclasses.replace`.  See ``docs/api.md``
for the API overview and ``docs/tuning.md`` for the auto-tuner the
``tune`` knob enables.
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import TYPE_CHECKING, Any, Callable, Optional, Tuple, Union

from repro.obs.observability import Observability

if TYPE_CHECKING:  # annotation-only: repro.faults imports repro.runtime
    from repro.faults.plan import FaultPlan
    from repro.runtime.checkpoint import CheckpointConfig

__all__ = ["LoopOptions"]


@dataclass
class LoopOptions:
    """Every knob of one parallel for-loop, in one place.

    Scheduling / execution:

    Attributes:
        ordered: enforce lexicographic iteration order.
        force_dims: override the partitioning-dimension heuristic.
        pipeline_depth: time partitions per worker for unordered 2D — an
            ``int``, or ``"auto"`` to take the heuristic default (the
            paper's Fig. 8 depth of 2) while marking the knob tunable.
            The executor's ``run_summary()["resolved"]`` reports the
            value actually used, so ``"auto"`` stays introspectable.
        balance: histogram-balanced partitioning of skewed data.
        prefetch: ``"auto"`` or ``"none"``.
        cache_prefetch: cache prefetch indices across epochs.
        backend: which runtime executes the compiled plan.
            ``"simulated"`` (default) is the deterministic virtual-clock
            linearization; ``"multiprocess"`` runs the plan on forked OS
            processes over shared-memory partitions
            (:class:`~repro.runtime.distributed.MultiprocessRunner`) and
            reports *real* wall-clock epoch times.
        kernel: batched block kernel selection — a callable (a hand
            kernel following the contract in ``runtime/kernels.py``),
            ``"auto"`` (synthesize one from the loop body via
            :mod:`repro.analysis.synth`, falling back to the scalar
            interpreter with a W50x diagnostic when the body is not
            batchable), or ``"off"``/``None`` for the scalar path.
            ``"hand"`` is resolved by the app builders' ``use_kernel``
            flag, not here.
        equivalence_check: run the first kernel-eligible block through
            both paths and fail on any difference.
        sanitize: run the shadow-access race detector
            (:mod:`repro.sanitizer`), the one race check, on either
            backend: record every actual DistArray element access per
            iteration and fail the epoch if the analyzer's dependence
            claims, buffered-write exemptions, prefetch footprint or the
            schedule's same-step disjointness are contradicted.  Forces
            scalar (non-kernel) execution.
        obs: the loop's :class:`~repro.obs.observability.Observability`
            (tracer + metrics); ``None`` uses the context's.
        trace_process: Perfetto process label for this loop's spans.

    Fault tolerance:

    Attributes:
        faults: a :class:`~repro.faults.plan.FaultPlan` of injected
            crashes/drops/stragglers, or ``None`` for today's loss-free
            cluster (bit-identical to pre-fault-subsystem runs).
        checkpoint: a :class:`~repro.runtime.checkpoint.CheckpointConfig`
            making the loop checkpoint its mutated arrays every N epochs
            and recover from the latest complete tag after a crash.

    Run persistence (see :mod:`repro.obs.runstore`):

    Attributes:
        run_store: where to persist one structured record per
            :meth:`~repro.api.ParallelLoop.run` call — a
            :class:`~repro.obs.runstore.RunStore`, a directory path, or
            ``True`` for the default ``.repro_runs/``.  ``None``
            (default) records nothing and leaves run results
            bit-identical to unrecorded runs (the record is pure
            introspection written after the pass completes).
        run_label: label stored in the run records (defaults to
            ``trace_process``).

    Adaptive tuning (see :mod:`repro.tuning` and ``docs/tuning.md``):

    Attributes:
        tune: ``"off"`` (default) — no tuner; the run is bit-identical to
            pre-tuner builds and :mod:`repro.tuning` is not even imported.
            ``"auto"`` — an :class:`~repro.tuning.AdaptiveTuner` consumes
            each traced epoch's attribution and re-chooses the legally
            tunable knobs (pipeline depth, prefetch policy) for the next
            epoch, charging re-partitioning to the virtual clock; winning
            configurations persist to a cross-run cache that seeds future
            runs.  ``"cached"`` — seed from the cache only (read-only, no
            mid-run adaptation, no cache writes).  Mutually exclusive
            with ``faults`` / ``checkpoint``.
    """

    ordered: bool = False
    force_dims: Optional[Tuple[int, ...]] = None
    pipeline_depth: Union[int, str] = 2
    balance: bool = True
    prefetch: str = "auto"
    cache_prefetch: bool = True
    backend: str = "simulated"
    kernel: Optional[Union[Callable[..., Any], str]] = None
    equivalence_check: bool = False
    sanitize: bool = False
    obs: Optional[Observability] = None
    trace_process: str = "orion"
    faults: Optional[FaultPlan] = None
    checkpoint: Optional[CheckpointConfig] = None
    run_store: Optional[Any] = None
    run_label: Optional[str] = None
    tune: str = "off"
