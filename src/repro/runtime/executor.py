"""The Orion distributed executor.

Takes a parallelization :class:`~repro.analysis.strategy.Plan` plus the
analyzed loop and runs epochs over the simulated cluster:

* partitions the iteration space (histogram-balanced) along the plan's
  space/time dimensions, or by transformed coordinates for unimodular
  plans;
* executes the *real* loop body for every iteration, in an order that is a
  linearization of the schedule — so results are serializable by
  construction, and sanitize mode (:mod:`repro.sanitizer`) double-checks
  that blocks the schedule claims concurrent touch disjoint elements;
* charges virtual time per block (compute + prefetch + buffer flush) and
  feeds the schedule's timing model (pipelined rotation, wavefront, or 1D
  barrier) to obtain the epoch makespan;
* records traffic events (rotation, flush, prefetch, broadcast) on the
  virtual timeline for bandwidth accounting.
"""

from __future__ import annotations

from dataclasses import dataclass, field
from typing import Any, Callable, Dict, List, Optional, Set, Tuple

import numpy as np

from repro.analysis.loop_info import LoopInfo
from repro.analysis.prefetch import synthesize_prefetch
from repro.analysis.strategy import PlacementKind, Plan, Strategy
from repro.core import access
from repro.core.distarray import DistArray
from repro.errors import ExecutionError
from repro.obs.observability import Observability
from repro.runtime import partition as parts
from repro.runtime import schedule as sched
from repro.runtime.cluster import ClusterSpec
from repro.runtime.kernels import KernelContext
from repro.runtime.options import LoopOptions
from repro.runtime.pserver import PrefetchManager, index_nbytes
from repro.sanitizer import (
    AccessRecord,
    RecordingBroker,
    SanitizerError,
    check_epoch,
)

__all__ = [
    "EpochResult",
    "OrionExecutor",
    "kernel_batching_legal",
]


# --------------------------------------------------------------------- #
# Access broker: server-traffic accounting                               #
# --------------------------------------------------------------------- #

@dataclass
class _TaskStats:
    entries: int = 0
    server_reads: int = 0
    server_read_bytes: float = 0.0
    flush_bytes: float = 0.0


class _AccountingBroker(access.AccessBroker):
    """Counts server-array traffic.

    One instance is created per task, so tasks never share mutable
    accounting state.
    """

    def __init__(self, server_ids: Set[int]) -> None:
        self.server_ids = server_ids
        self.stats = _TaskStats()

    def read(self, array: DistArray, index: Any) -> Any:
        if id(array) in self.server_ids:
            self.stats.server_reads += 1
            self.stats.server_read_bytes += index_nbytes(array, index)
        return array.direct_get(index)

    # ---- bulk hooks (batched-kernel fast path) ------------------------ #

    def bulk_read(self, array: DistArray, indices: Any) -> Any:
        if id(array) in self.server_ids:
            self.stats.server_reads += len(indices)
            self.stats.server_read_bytes += sum(
                index_nbytes(array, index) for index in indices
            )
        return array.bulk_get(indices)

    def bulk_write(self, array: DistArray, indices: Any, values: Any) -> None:
        array.bulk_set(indices, values)


# --------------------------------------------------------------------- #
# Executor                                                               #
# --------------------------------------------------------------------- #

@dataclass
class EpochResult:
    """Outcome of one executed data pass."""

    epoch_time_s: float
    bytes_sent: float
    #: Traffic events with epoch-relative (t_start, t_end, nbytes, kind).
    events: List[Tuple[float, float, float, str]] = field(default_factory=list)
    #: Number of blocks executed.
    num_tasks: int = 0
    #: Fraction of worker-seconds spent doing block work (1.0 = no worker
    #: ever waits on rotation, barriers or the parameter server).
    utilization: float = 0.0
    #: Whether blocks ran through the batched-kernel fast path.
    kernel_path: bool = False
    #: Epoch-relative barrier intervals the schedule charged — the points
    #: at which a crashed worker becomes detectable.
    barriers: List[Tuple[float, float]] = field(default_factory=list)
    #: Injected-crash record when this pass was aborted (``None`` for a
    #: clean pass): kind/victim/at_s/detected_s/epoch.  An aborted pass's
    #: ``epoch_time_s`` covers start → detection (+ detection timeout);
    #: the driver loop restores a checkpoint and replays.
    fault: Optional[Dict[str, Any]] = None
    #: Which timeline ``epoch_time_s`` lives on: ``"virtual"`` for the
    #: simulated cost model, ``"real"`` for measured wall-clock seconds
    #: (the multiprocess backend).  Real results accumulate on
    #: ``OrionContext.real_now``, never on the virtual clock.
    clock: str = "virtual"


def kernel_batching_legal(info: Any, plan: Any) -> Tuple[bool, str]:
    """Whether a plan permits batched (whole-block) kernel execution.

    A kernel replaces the per-entry body loop with one call per block, so
    it is legal exactly when the schedule already treats the block as one
    sequential unit whose relaxed dependences all flow through buffers:

    * 2D plans (ordered or unordered): each block owns disjoint rotated
      partitions, so intra-block entries are free to batch.
    * 1D / data-parallel plans: legal only when the body's shared writes
      go through DistArray Buffers (otherwise direct writes may carry
      loop-ordered dependences the analysis preserved by other means).
    * Unimodular-transformed plans: blocks follow skewed wavefronts; the
      scalar path keeps the transformed order, so no batching.
    * ``max_delay`` buffers flush mid-block on the scalar path; a batched
      kernel cannot reproduce that timing, so fall back.

    Returns ``(legal, reason)``; ``reason`` explains a ``False`` verdict.
    """
    if any(
        buffer.max_delay is not None for buffer in info.buffers.values()
    ):
        return False, "max_delay buffers flush mid-block on the scalar path"
    if plan.strategy is Strategy.TWO_D:
        return True, ""
    if plan.strategy in (Strategy.ONE_D, Strategy.DATA_PARALLEL):
        if info.buffers:
            return True, ""
        return False, (
            "1D/data-parallel plans only batch bodies whose shared writes "
            "go through buffers"
        )
    return False, f"{plan.strategy.name} blocks are not batchable"


#: The heuristic pipeline depth ``pipeline_depth="auto"`` resolves to —
#: the paper's Fig. 8 configuration (clamped per-plan during setup).
AUTO_PIPELINE_DEPTH = 2


def _resolve_pipeline_depth(value: Any) -> int:
    """Resolve ``LoopOptions.pipeline_depth`` to a concrete int."""
    if value == "auto":
        return AUTO_PIPELINE_DEPTH
    if isinstance(value, str):
        raise ExecutionError(
            f"pipeline_depth must be an int or 'auto'; got {value!r}"
        )
    return max(1, int(value))


class OrionExecutor:
    """Runs one compiled parallel for-loop on the simulated cluster.

    Args:
        body: the loop-body function.
        info: static analysis of the body.
        plan: the chosen parallelization.
        cluster: simulated cluster spec.
        options: the loop's :class:`~repro.runtime.options.LoopOptions`
            (default: ``LoopOptions()``).  The fields the executor reads:

            * ``pipeline_depth`` — time partitions per worker for
              unordered 2D (paper Fig. 8 uses 2).
            * ``balance`` — histogram-balanced partition bounds (vs. equal
              width).
            * ``prefetch`` — ``"auto"`` synthesizes and uses a
              bulk-prefetch function for server arrays, ``"none"`` models
              per-access round trips.
            * ``cache_prefetch`` — cache each block's prefetch indices
              across epochs (the paper's 9.2 s → 6.3 s step; ``False``
              models re-running the synthesized function every pass).
            * ``kernel`` — optional batched kernel
              ``kernel(block_entries, kctx)`` applying one block's updates
              with bulk NumPy operations (see
              :mod:`repro.runtime.kernels`).  Used only when the plan
              proves block-batched execution legal; the scalar body runs
              otherwise.
            * ``equivalence_check`` — execute the first kernel-eligible
              block through *both* paths and raise
              :class:`ExecutionError` unless they produce identical
              array/buffer state and accounting.  The block is executed
              twice, so the check requires a replayable program: no RNG
              draws in the body and no buffer apply UDF that mutates state
              outside the DistArrays (the rewind between runs only
              restores array and buffer contents).
            * ``obs`` — tracer + metrics; spans are emitted on the virtual
              timeline only when the tracer is enabled (default: the
              disabled singletons, zero overhead).
            * ``trace_process`` — Perfetto process label for this
              executor's spans, letting several engines share one trace
              file side by side.
            * ``faults`` — the fault-injection plan, if any.

        Same-step blocks run one after another: a linearization of the
        schedule, fully deterministic.
    """

    def __init__(
        self,
        body: Callable[..., Any],
        info: LoopInfo,
        plan: Plan,
        cluster: ClusterSpec,
        options: Optional[LoopOptions] = None,
    ) -> None:
        opts = options if options is not None else LoopOptions()
        if opts.prefetch not in ("auto", "none"):
            raise ExecutionError(f"unknown prefetch mode {opts.prefetch!r}")
        if opts.tune not in ("off", "auto", "cached"):
            raise ExecutionError(
                f"unknown tune mode {opts.tune!r} "
                "(expected 'off', 'auto' or 'cached')"
            )
        self.options = opts
        self.body = body
        self.info = info
        self.plan = plan
        self.cluster = cluster
        #: What the caller asked for (``"auto"`` or an int) — kept apart
        #: from the resolved :attr:`pipeline_depth` so ``run_summary()``
        #: can report both sides without sentinel ambiguity.
        self.requested_pipeline_depth = opts.pipeline_depth
        self.pipeline_depth = _resolve_pipeline_depth(opts.pipeline_depth)
        self.balance = opts.balance
        self.prefetch_mode = opts.prefetch
        self.cache_prefetch = opts.cache_prefetch
        #: Synthesis outcome when ``kernel="auto"`` resolved the kernel
        #: (``None`` for hand kernels / kernel-less loops).
        self.synth = None
        self.kernel = self._resolve_kernel(opts.kernel)
        self.equivalence_check = opts.equivalence_check
        self.sanitize = opts.sanitize
        #: Shadow-access records accumulated during a sanitized epoch
        #: (extended by tasks on this process and, for the multiprocess
        #: backend, from worker payloads), drained by `_sanitize_check`.
        self._sanitize_records: List[AccessRecord] = []
        self._sanitize_values: Optional[Dict[Any, Any]] = None
        #: Iteration key -> (step, worker) of the block that runs it, for
        #: the sanitizer's same-step disjointness check (S605); rebuilt
        #: lazily after a retune re-tiles the blocks.
        self._sanitize_blocks: Optional[Dict[Any, Tuple[int, int]]] = None
        self.obs = opts.obs if opts.obs is not None else Observability.disabled()
        self.tracer = self.obs.tracer
        self.metrics = self.obs.metrics
        self.trace_process = opts.trace_process
        self.faults = opts.faults
        #: Unreliable link wrapping the network when the plan drops
        #: messages; ``None`` keeps every transfer on the loss-free path.
        #: (Imported lazily: repro.faults imports repro.runtime.network,
        #: so a module-level import here would be circular.)
        self._link = None
        if self.faults is not None and self.faults.drops is not None:
            from repro.faults.link import FaultyLink

            self._link = FaultyLink(
                self.faults, cluster.network, metrics=self.metrics
            )
        self._equivalence_checked = False
        #: Per-block caches handed to kernels (index arrays, dependence
        #: levels, memoized accounting) — persist across epochs.
        self._kernel_caches: Dict[Tuple[int, int], Dict[Any, Any]] = {}
        self._ready = False
        self.partitions: Optional[parts.IterationPartitions] = None
        self.steps: List[List[sched.Task]] = []
        self.num_workers = 0
        self.num_time = 1
        self.epochs_run = 0
        self._setup()
        if self.synth is not None and self.synth.engaged:
            legal, reason = kernel_batching_legal(self.info, self.plan)
            if not legal:
                from repro.analysis.lint import Diagnostic, location_of

                self.info.diagnostics.append(
                    Diagnostic(
                        code="W503",
                        message=f"synthesized kernel is unused: {reason}",
                        location=location_of(
                            self.info.tree, self.info.source_file
                        ),
                    )
                )

    def _resolve_kernel(self, kernel: Any) -> Optional[Callable[..., Any]]:
        """Resolve ``LoopOptions.kernel`` to a callable (or ``None``).

        ``"auto"`` synthesizes a kernel from the analyzed body (appending
        any W50x fallback diagnostics to the loop's diagnostics), ``"off"``
        disables batching, and a callable passes through unchanged.
        """
        if kernel is None or callable(kernel):
            return kernel
        if not isinstance(kernel, str):
            raise ExecutionError(
                f"kernel must be a callable, 'auto', 'off', or None; "
                f"got {kernel!r}"
            )
        mode = kernel.lower()
        if mode == "off":
            return None
        if mode == "hand":
            raise ExecutionError(
                "kernel='hand' is resolved by app builders (their "
                "use_kernel flag); pass the hand kernel callable, 'auto', "
                "or 'off' here"
            )
        if mode != "auto":
            raise ExecutionError(f"unknown kernel mode {kernel!r}")
        from repro.analysis.synth import synthesize_kernel

        self.synth = synthesize_kernel(self.body, self.info)
        self.info.diagnostics.extend(self.synth.diagnostics)
        return self.synth.kernel

    # ---------------- setup: partition + schedule ---------------------- #

    def _setup(self) -> None:
        info, plan = self.info, self.plan
        entries = list(info.iteration_space.entries())
        if not entries:
            raise ExecutionError("iteration space is empty")
        #: Kept for mid-run re-tiling (:meth:`retune`); the iteration
        #: space is immutable across epochs, so this never goes stale.
        self._entries = entries
        shape = info.iteration_space.shape
        requested = self.cluster.num_workers

        if plan.strategy in (Strategy.ONE_D, Strategy.DATA_PARALLEL):
            dim = plan.space_dim
            workers = min(requested, shape[dim])
            self.partitions = parts.partition_1d(
                entries, dim, shape[dim], workers, balance=self.balance
            )
            self.steps = sched.one_d_schedule(workers)
            self.num_workers, self.num_time = workers, 1
        elif plan.strategy is Strategy.TWO_D:
            space_dim, time_dim = plan.space_dim, plan.time_dim
            workers = min(requested, shape[space_dim])
            if plan.ordered:
                num_time = min(
                    shape[time_dim], workers * self.pipeline_depth
                )
                self.steps = sched.ordered_2d_schedule(workers, num_time)
            else:
                workers = min(workers, shape[time_dim])
                depth = max(
                    1, min(self.pipeline_depth, shape[time_dim] // workers)
                )
                # Write the clamp back so run_summary()["resolved"] and
                # the run-store signature report the depth actually used.
                self.pipeline_depth = depth
                num_time = depth * workers
                self.steps = sched.unordered_2d_schedule(workers, num_time)
            self.partitions = parts.partition_2d(
                entries,
                space_dim,
                time_dim,
                shape[space_dim],
                shape[time_dim],
                workers,
                num_time,
                balance=self.balance,
                # Canonical time-sorted block order when unordered: makes
                # a worker's per-epoch entry sequence identical at every
                # pipeline depth, which is what lets the tuner re-tile
                # mid-run without perturbing numerics (docs/tuning.md).
                time_sorted=not plan.ordered,
            )
            self.num_workers, self.num_time = workers, num_time
        elif plan.strategy is Strategy.TWO_D_UNIMODULAR:
            workers = requested
            num_time = max(workers, 2)
            self.partitions = parts.partition_transformed(
                entries, plan.transform, workers, num_time
            )
            self.steps = sched.sequential_outer_schedule(workers, num_time)
            self.num_workers, self.num_time = workers, num_time
        else:  # pragma: no cover - enum is exhaustive
            raise ExecutionError(f"unknown strategy {plan.strategy}")

        # Placement-derived communication quantities.
        self._server_arrays: Dict[str, DistArray] = {}
        self._rotated_bytes = 0.0
        self._replicated_bytes = 0.0
        for name, placement in plan.placements.items():
            if name.startswith("<target:"):
                continue
            array = info.arrays[name]
            if placement.kind is PlacementKind.SERVER:
                self._server_arrays[name] = array
            elif placement.kind is PlacementKind.ROTATED:
                self._rotated_bytes += array.nbytes
            elif placement.kind is PlacementKind.REPLICATED:
                self._replicated_bytes += array.nbytes

        self._build_prefetch()
        self._server_ids = {id(array) for array in self._server_arrays.values()}
        self._kernel_supported = self._kernel_legal()
        if self.sanitize:
            # The sanitizer attributes accesses to iterations, which only
            # the interpreted per-entry path can do.
            self._kernel_supported = False
        self._ready = True

    def _build_prefetch(self) -> None:
        """(Re)build the prefetch manager for the current knob settings.

        Called from :meth:`_setup` and again from :meth:`retune` — a
        re-tiled loop's block keys change, so cached prefetch index sets
        must be rebuilt (the epoch after a retune honestly re-pays the
        prefetch-synthesis CPU, exactly like a fresh first epoch)."""
        prefetch_fn = None
        if self.prefetch_mode == "auto" and self._server_arrays:
            prefetch_fn = synthesize_prefetch(
                self.body, self.info, list(self._server_arrays)
            )
        self.prefetch = PrefetchManager(
            self.cluster,
            self._server_arrays,
            prefetch_fn,
            cache_indices=self.cache_prefetch,
            metrics=self.metrics,
        )

    def _kernel_legal(self) -> bool:
        return kernel_batching_legal(self.info, self.plan)[0]

    # ---------------- epoch execution ---------------------------------- #

    @property
    def rotated_block_bytes(self) -> float:
        """Bytes of one rotated-array time partition."""
        if self.num_time == 0:
            return 0.0
        return self._rotated_bytes / self.num_time

    @property
    def rotated_bytes_total(self) -> float:
        """Total bytes of every rotated array (all time partitions)."""
        return self._rotated_bytes

    # ---------------- mid-run retuning --------------------------------- #

    @property
    def max_pipeline_depth(self) -> int:
        """Largest legal pipeline depth for this plan's unordered 2D
        rotation (1 when the plan cannot pipeline at all)."""
        if self.plan.strategy is not Strategy.TWO_D or self.plan.ordered:
            return 1
        shape = self.info.iteration_space.shape
        return max(1, shape[self.plan.time_dim] // self.num_workers)

    def retunable(self) -> Dict[str, Any]:
        """Which knobs a mid-run retune may legally change, and why the
        rest are refused.

        Returns ``{"knobs": {...}, "refused": {...}}``.  ``knobs`` maps
        each adjustable knob to its legal values — ``pipeline_depth`` to
        an inclusive ``(1, max)`` range, ``prefetch`` to its modes,
        ``cache_prefetch`` to both booleans.  ``refused`` maps every
        knob a tuner must NOT touch to the legality argument: anything
        that changes which worker owns which entries (strategy, the
        partition dimensions, balancing) changes the execution
        linearization and with it the floating-point result, so only the
        plan-preserving knobs are offered.  Re-tiling the *time*
        dimension of an unordered 2D rotation is the exception the plan
        proves legal: balanced time cuts nest across depths and each
        worker still visits its row's entries in the same per-column
        order, so numerics stay bit-identical (see ``docs/tuning.md``).
        """
        knobs: Dict[str, Any] = {}
        refused: Dict[str, str] = {
            "strategy": "the dependence-driven strategy is never retuned",
            "force_dims": "changing partition dimensions reassigns entry "
                          "ownership and breaks bit-identity",
            "balance": "re-balancing moves partition cuts and entry "
                       "ownership with them",
        }
        if self.plan.strategy is Strategy.TWO_D and not self.plan.ordered:
            upper = self.max_pipeline_depth
            if upper > 1:
                knobs["pipeline_depth"] = (1, upper)
            else:
                refused["pipeline_depth"] = (
                    "the time extent admits only one depth"
                )
        else:
            refused["pipeline_depth"] = (
                "only the unordered 2D rotation re-tiles its time "
                "dimension legally; this plan is "
                f"{self.plan.strategy.name}"
                + (" (ordered)" if self.plan.ordered else "")
            )
        if self._server_arrays:
            knobs["prefetch"] = ("auto", "none")
        else:
            refused["prefetch"] = "the loop reads no server arrays"
        knobs["cache_prefetch"] = (False, True)
        return {"knobs": knobs, "refused": refused}

    def retune(
        self,
        pipeline_depth: Optional[int] = None,
        prefetch: Optional[str] = None,
        cache_prefetch: Optional[bool] = None,
    ) -> float:
        """Apply a legal knob change between epochs; returns the virtual
        seconds the change costs.

        Only the knobs :meth:`retunable` offers are accepted — anything
        else raises :class:`ExecutionError`.  A depth change re-tiles the
        time dimension (space bounds are *reused*, not recomputed, so
        worker ownership provably cannot move), rebuilds the schedule and
        prefetch manager, clears the per-block kernel caches, and charges
        one re-binning pass over the entries plus one reshuffle of the
        rotated arrays to the virtual clock.  Prefetch-policy changes are
        free (they only swap the access cost model for future blocks).
        """
        allowed = self.retunable()["knobs"]
        cost = 0.0
        rebuild_prefetch = False
        if (
            pipeline_depth is not None
            and pipeline_depth != self.pipeline_depth
        ):
            bounds = allowed.get("pipeline_depth")
            if bounds is None or not (
                bounds[0] <= pipeline_depth <= bounds[1]
            ):
                raise ExecutionError(
                    f"illegal retune: pipeline_depth={pipeline_depth} "
                    f"({self.retunable()['refused'].get('pipeline_depth', 'outside the legal range ' + repr(bounds))})"
                )
            old_depth = self.pipeline_depth
            self.pipeline_depth = pipeline_depth
            try:
                cost += self._retile_time()
            except Exception:
                self.pipeline_depth = old_depth
                raise
            rebuild_prefetch = True
        if prefetch is not None and prefetch != self.prefetch_mode:
            if "prefetch" not in allowed or prefetch not in allowed["prefetch"]:
                raise ExecutionError(
                    f"illegal retune: prefetch={prefetch!r}"
                )
            self.prefetch_mode = prefetch
            rebuild_prefetch = True
        if (
            cache_prefetch is not None
            and bool(cache_prefetch) != self.cache_prefetch
        ):
            self.cache_prefetch = bool(cache_prefetch)
            rebuild_prefetch = True
        if rebuild_prefetch:
            self._build_prefetch()
        return cost

    def _retile_time(self) -> float:
        """Re-tile the unordered 2D time dimension at the current depth.

        Space bounds are carried over verbatim from the existing
        partitions; only the time cuts are recomputed, so every entry
        stays on its worker and each worker's per-column entry order is
        unchanged — the bit-identity invariant the tuner relies on.
        Returns the modeled cost: one CPU pass over the entries to re-bin
        them plus one transfer of the rotated arrays (their time slices
        must be re-cut across the ring)."""
        plan = self.plan
        shape = self.info.iteration_space.shape
        depth = max(
            1, min(self.pipeline_depth, self.max_pipeline_depth)
        )
        self.pipeline_depth = depth
        num_time = depth * self.num_workers
        assert self.partitions is not None
        retiled = parts.retile_time_2d(
            self._entries,
            plan.space_dim,
            plan.time_dim,
            shape[plan.time_dim],
            self.partitions.space_bounds,
            num_time,
            balance=self.balance,
        )
        self._check_cut_nesting(retiled, depth)
        self.partitions = retiled
        self.steps = sched.unordered_2d_schedule(self.num_workers, num_time)
        self.num_time = num_time
        #: Block keys changed shape — cached kernel index arrays,
        #: dependence levels and the sanitizer's block map are stale.
        self._kernel_caches.clear()
        self._sanitize_blocks = None
        rebin = self.cluster.cost.compute_time(len(self._entries))
        reshuffle = self.cluster.network.transfer_time(self._rotated_bytes)
        return rebin + reshuffle

    def _check_cut_nesting(
        self, retiled: parts.IterationPartitions, depth: int
    ) -> None:
        """Refuse a re-tile whose worker-start time cuts moved.

        Bit-identity across depths only needs the ``W`` cuts where each
        worker's rotation *starts* to coincide (interior cuts just split a
        worker's already time-sorted traversal).  Balanced cuts place the
        ``j·d``-th boundary at the prefix-count target ``total·j/W`` for
        every depth ``d``, so they coincide by construction — except in
        degenerately skewed histograms where the cut clamping fires.
        Rather than silently drift the numerics there, refuse the retune
        (the tuner records the refusal and keeps the current depth).
        """
        old_bounds = self.partitions.time_bounds
        new_bounds = retiled.time_bounds
        if old_bounds is None or new_bounds is None:
            return
        old_depth = max(1, self.num_time // self.num_workers)
        for worker in range(self.num_workers):
            old_start = old_bounds[worker * old_depth][0]
            new_start = new_bounds[worker * depth][0]
            if old_start != new_start:
                raise ExecutionError(
                    "illegal retune: re-tiling to pipeline_depth="
                    f"{depth} moves worker {worker}'s rotation start cut "
                    f"({old_start} -> {new_start}; degenerately skewed "
                    "time histogram), which would change the execution "
                    "order and the floating-point result"
                )

    @property
    def kernel_tier(self) -> str:
        """Which update path blocks take, as a stable label.

        ``"scalar"`` (no kernel, or the plan refuses batching),
        ``"hand"`` (an app-registered kernel), or ``"synth:<tier>"``
        (a synthesized kernel: ``synth:vector`` / ``synth:block-loop``).
        Recorded in run-store records so cross-run comparisons can tell a
        genuine regression from a path change.
        """
        if self.kernel is None or not self._kernel_supported:
            return "scalar"
        if self.synth is not None and self.synth.engaged:
            return f"synth:{self.synth.tier}"
        return "hand"

    def run_summary(self) -> Dict[str, Any]:
        """Plan/schedule facts for one run-store record (JSON-safe).

        The emission hook behind ``LoopOptions.run_store`` — pure
        introspection, no effect on execution."""
        plan = self.plan
        return {
            "strategy": plan.strategy.name,
            "ordered": bool(self.info.ordered),
            "space_dim": plan.space_dim,
            "time_dim": plan.time_dim,
            "transformed": plan.transform is not None,
            "num_workers": self.num_workers,
            "num_time": self.num_time,
            "num_steps": len(self.steps),
            "kernel_tier": self.kernel_tier,
            "uses_buffers": bool(self.info.buffers),
            # Requested vs. resolved values of the tunable knobs, so
            # "auto" requests stay introspectable (no sentinel guessing).
            "requested": {
                "pipeline_depth": self.requested_pipeline_depth,
                "prefetch": self.options.prefetch,
                "cache_prefetch": bool(self.options.cache_prefetch),
            },
            "resolved": {
                "pipeline_depth": int(self.pipeline_depth),
                "prefetch": (
                    self.prefetch_mode
                    if self.prefetch.prefetch_fn is not None
                    or self.prefetch_mode == "none"
                    else "none (no prefetch function)"
                ),
                "cache_prefetch": bool(self.cache_prefetch),
            },
        }

    @property
    def kernel_path(self) -> bool:
        """Whether blocks execute through the batched-kernel fast path."""
        return self.kernel is not None and self._kernel_supported

    def run_epoch(
        self, t0: float = 0.0, epoch: Optional[int] = None
    ) -> EpochResult:
        """Execute one full pass over the iteration space.

        Args:
            t0: absolute virtual time at which this epoch starts — used to
                place trace spans on the global timeline and to resolve
                time-pinned fault events (epoch timing itself is
                epoch-relative).
            epoch: logical 1-based epoch number, used to match
                epoch-pinned fault events (crashes/stragglers).  ``None``
                (direct executor use) leaves epoch-pinned events dormant.

        With a fault plan attached, a crash inside this pass truncates it:
        state mutations of the full pass have already happened (the
        simulation executes numerics up front), but the result reports
        only the work finished before the crash was detected at the next
        barrier, sets :attr:`EpochResult.fault`, and charges start →
        detection + detection timeout.  The driver loop
        (:class:`~repro.api.ParallelLoop`) then restores a checkpoint and
        replays — see :mod:`repro.faults.recovery`.
        """
        if not self._ready:
            raise ExecutionError("executor not set up")
        faults = self.faults
        if self._link is not None:
            self._link.begin_epoch(self.epochs_run)
        work_s = np.zeros((self.num_workers, self.num_time))
        flush_bytes = np.zeros((self.num_workers, self.num_time))
        prefetch_bytes = np.zeros((self.num_workers, self.num_time))
        task_records: List[Tuple[sched.Task, _TaskStats]] = []
        tracing = self.tracer.enabled
        #: block_key -> (prefetch, compute, flush, overhead) seconds, the
        #: phase breakdown behind each block span (only kept when tracing).
        phases: Dict[Tuple[int, int], Tuple[float, float, float, float]] = {}

        for step_tasks in self.steps:
            for task, stats in self._run_step(step_tasks):
                block_key = (task.space_idx, task.time_idx)
                compute = self.cluster.cost.compute_time(stats.entries)
                if self.prefetch.prefetch_fn is not None:
                    block = self.partitions.block(*block_key)
                    cost = self.prefetch.block_read_cost(
                        block_key, block, link=self._link
                    )
                else:
                    cost = self.prefetch.random_access_cost_from_counts(
                        stats.server_reads, stats.server_read_bytes
                    )
                flush_transfer = 0.0
                flush_messages = 0
                if stats.flush_bytes:
                    if self._link is not None:
                        outcome = self._link.transfer(
                            stats.flush_bytes,
                            key=("flush",) + tuple(block_key),
                        )
                        flush_transfer = outcome.seconds
                        flush_messages = outcome.attempts
                    else:
                        flush_transfer = self.cluster.network.transfer_time(
                            stats.flush_bytes
                        )
                        flush_messages = 1
                # Serializing the outgoing rotated partition is CPU work on
                # the worker — pipelining cannot hide it (paper Sec. 6.4).
                marshalling = 0.0
                if self.plan.strategy is Strategy.TWO_D:
                    marshalling = (
                        self.cluster.cost.marshalling_s_per_byte
                        * self.rotated_block_bytes
                    )
                # Per-message CPU (request setup, locking): one prefetch
                # request plus one flush message per block, when present
                # (dropped messages pay per-message CPU per resend).
                messages = cost.num_requests + flush_messages
                message_cpu = self.cluster.cost.per_message_cpu_s * messages
                time_idx = task.time_idx or 0
                work_s[task.space_idx, time_idx] = (
                    compute + cost.seconds + flush_transfer + marshalling
                    + message_cpu
                )
                flush_bytes[task.space_idx, time_idx] = stats.flush_bytes
                prefetch_bytes[task.space_idx, time_idx] = cost.nbytes
                if tracing:
                    phases[(task.space_idx, time_idx)] = (
                        cost.seconds,
                        compute,
                        flush_transfer,
                        marshalling + message_cpu,
                    )
                task_records.append((task, stats))

        if self.sanitize:
            self._sanitize_check()

        straggled = self._apply_stragglers(work_s, phases, epoch, t0, tracing)
        timing = self._timing(work_s)
        crash = (
            faults.claim_crash(epoch, t0, t0 + timing.makespan)
            if faults is not None
            else None
        )

        if crash is None:
            events = self._traffic_events(
                timing, work_s, flush_bytes, prefetch_bytes, t0=t0
            )
            total_bytes = sum(event[2] for event in events)
            busy = float(work_s.sum())
            makespan = timing.makespan
            num_tasks = len(task_records)
            barriers = list(timing.barriers)
            fault_info = None
            cutoff = None
        else:
            # The crash becomes visible at the next barrier; recovery is
            # decided after the detection timeout.  Only work finished
            # before detection counts — the rest is lost and replayed.
            crash_rel = crash.at_s - t0
            detect_rel = timing.makespan
            for b_start, b_end in timing.barriers:
                if b_end >= crash_rel:
                    detect_rel = b_end
                    break
            detect_rel = max(detect_rel, crash_rel)
            makespan = detect_rel + faults.costs.detection_timeout_s
            cutoff = crash_rel
            events = self._traffic_events(
                timing, work_s, flush_bytes, prefetch_bytes, t0=t0,
                cutoff=cutoff,
            )
            total_bytes = sum(event[2] for event in events)
            busy = 0.0
            num_tasks = 0
            for step_tasks in self.steps:
                for task in step_tasks:
                    finish = timing.finish.get((task.worker, task.step))
                    if finish is None or finish > detect_rel:
                        continue
                    busy += float(work_s[task.space_idx, task.time_idx or 0])
                    num_tasks += 1
            barriers = [b for b in timing.barriers if b[1] <= detect_rel]
            fault_info = {
                "kind": (
                    "machine_crash"
                    if crash.crash.machine is not None
                    else "worker_crash"
                ),
                "victim": crash.describe(),
                "worker": crash.crash.worker,
                "machine": crash.crash.machine,
                "at_s": crash.at_s,
                "detected_s": t0 + detect_rel,
                "epoch": epoch,
            }

        capacity = self.num_workers * makespan
        self.epochs_run += 1
        result = EpochResult(
            epoch_time_s=makespan,
            bytes_sent=total_bytes,
            events=events,
            num_tasks=num_tasks,
            utilization=busy / capacity if capacity > 0 else 0.0,
            kernel_path=self.kernel_path,
            barriers=barriers,
            fault=fault_info,
        )
        if tracing:
            self._emit_spans(t0, timing, work_s, phases, result, cutoff=cutoff)
            self._emit_fault_spans(t0, result, straggled)
        if crash is None:
            self._record_metrics(result, work_s)
        elif self.metrics.enabled:
            self.metrics.counter("worker_crashes_total").inc()
            self.metrics.counter("fault_lost_seconds_total").inc(makespan)
        if straggled and self.metrics.enabled:
            self.metrics.counter("straggler_epochs_total").inc()
        return result

    def _apply_stragglers(
        self,
        work_s: np.ndarray,
        phases: Dict[Tuple[int, int], Tuple[float, float, float, float]],
        epoch: Optional[int],
        t0: float,
        tracing: bool,
    ) -> Dict[int, float]:
        """Scale straggling workers' block times in place.

        Time-windowed stragglers need the epoch's extent to compute their
        overlap, so a baseline timing pass estimates it first (only when
        the plan actually has stragglers — the no-fault path never pays
        for it).  ``space_idx == worker`` in every schedule, so scaling
        row ``worker`` of ``work_s`` slows exactly that worker's blocks;
        each phase breakdown is scaled by the same factor so phase spans
        keep partitioning their block.
        """
        if self.faults is None or not self.faults.stragglers:
            return {}
        baseline = self._timing(work_s).makespan
        factors = self.faults.straggle_factors(epoch, t0, t0 + baseline)
        applied: Dict[int, float] = {}
        for worker in sorted(factors):
            if not 0 <= worker < self.num_workers:
                continue
            factor = factors[worker]
            work_s[worker, :] *= factor
            applied[worker] = factor
            if tracing:
                for time_idx in range(self.num_time):
                    breakdown = phases.get((worker, time_idx))
                    if breakdown is not None:
                        phases[(worker, time_idx)] = tuple(
                            value * factor for value in breakdown
                        )
        return applied

    def _emit_fault_spans(
        self, t0: float, result: EpochResult, straggled: Dict[int, float]
    ) -> None:
        """Fault-injection spans on the ``faults`` track (tracing only)."""
        tracer, process = self.tracer, self.trace_process
        end = t0 + result.epoch_time_s
        for worker, factor in straggled.items():
            tracer.add_span(
                f"straggler worker{worker} x{factor:.2f}",
                "straggler",
                t0,
                end,
                track="faults",
                process=process,
                args={"worker": worker, "slowdown": factor},
            )
        if result.fault is not None:
            tracer.add_span(
                f"crash {result.fault['victim']}",
                "fault",
                result.fault["at_s"],
                end,
                track="faults",
                process=process,
                args=dict(result.fault),
            )

    def _record_metrics(self, result: EpochResult, work_s: np.ndarray) -> None:
        metrics = self.metrics
        if not metrics.enabled:
            return
        metrics.counter("epochs_total").inc()
        metrics.counter("blocks_total").inc(result.num_tasks)
        entries = self.partitions.total_entries
        metrics.counter("entries_total").inc(entries)
        path = "kernel_blocks_total" if result.kernel_path \
            else "scalar_blocks_total"
        metrics.counter(path).inc(result.num_tasks)
        metrics.gauge("utilization").set(result.utilization)
        if result.epoch_time_s > 0:
            metrics.gauge("entries_per_virtual_s").set(
                entries / result.epoch_time_s
            )
        block_seconds = metrics.histogram("block_seconds")
        for value in work_s.flat:
            if value > 0.0:
                block_seconds.observe(float(value))

    def _emit_spans(
        self,
        t0: float,
        timing: sched.ScheduleTiming,
        work_s: np.ndarray,
        phases: Dict[Tuple[int, int], Tuple[float, float, float, float]],
        result: EpochResult,
        cutoff: Optional[float] = None,
    ) -> None:
        """Place this epoch's execution on the virtual timeline.

        Taxonomy (see ``docs/observability.md``): one ``epoch`` span on the
        ``epochs`` track with ``barrier`` children; per worker track, one
        ``block`` span per executed block whose duration is exactly that
        block's charged work, with nested phase spans (``prefetch`` /
        ``compute`` / ``flush`` / ``overhead``) partitioning it.  Traffic
        spans are emitted by :meth:`_traffic_events`.

        ``cutoff`` (epoch-relative) truncates an aborted pass at the crash
        point: blocks starting after it are not shown, a block in flight
        is clipped and marked aborted.
        """
        tracer, process = self.tracer, self.trace_process
        aborted = result.fault is not None
        epoch_name = f"epoch {self.epochs_run}"
        if aborted:
            epoch_name += " (aborted)"
        tracer.add_span(
            epoch_name,
            "epoch",
            t0,
            t0 + result.epoch_time_s,
            track="epochs",
            process=process,
            args={
                "utilization": result.utilization,
                "bytes_sent": result.bytes_sent,
                "num_tasks": result.num_tasks,
                "kernel_path": result.kernel_path,
                "strategy": self.plan.strategy.name,
            },
        )
        for t_start, t_end in result.barriers:
            tracer.add_span(
                "barrier",
                "barrier",
                t0 + t_start,
                t0 + t_end,
                track="epochs",
                process=process,
                depth=1,
            )
        phase_names = ("prefetch", "compute", "flush", "overhead")
        for step_tasks in self.steps:
            for task in step_tasks:
                finish = timing.finish.get((task.worker, task.step))
                if finish is None:
                    continue
                time_idx = task.time_idx or 0
                duration = float(work_s[task.space_idx, time_idx])
                start = finish - duration
                if cutoff is not None and start >= cutoff:
                    continue
                clipped = cutoff is not None and finish > cutoff
                end = min(finish, cutoff) if clipped else finish
                track = f"worker{task.worker}"
                breakdown = phases.get((task.space_idx, time_idx))
                args = {"step": task.step, "space": task.space_idx,
                        "time": time_idx}
                if clipped:
                    args["aborted"] = True
                if breakdown is not None:
                    args.update(zip(phase_names, breakdown))
                tracer.add_span(
                    f"block[{task.space_idx},{time_idx}]",
                    "block",
                    t0 + start,
                    t0 + end,
                    track=track,
                    process=process,
                    args=args,
                )
                if breakdown is None or clipped:
                    continue
                cursor = start
                for phase_name, phase_s in zip(phase_names, breakdown):
                    if phase_s <= 0.0:
                        continue
                    tracer.add_span(
                        phase_name,
                        phase_name,
                        t0 + cursor,
                        t0 + cursor + phase_s,
                        track=track,
                        process=process,
                        depth=1,
                    )
                    cursor += phase_s

    def _run_step(
        self, step_tasks: List[sched.Task]
    ) -> List[Tuple[sched.Task, _TaskStats]]:
        """Execute one step's blocks one after another (a linearization;
        a correct plan's same-step blocks touch disjoint elements)."""
        return [(task, self._run_task(task)) for task in step_tasks]

    def _run_task(
        self, task: sched.Task, force_scalar: bool = False
    ) -> _TaskStats:
        block_key = (task.space_idx, task.time_idx or 0)
        block = self.partitions.block(*block_key)
        use_kernel = (
            self.kernel is not None
            and self._kernel_supported
            and not force_scalar
        )
        if (
            use_kernel
            and self.equivalence_check
            and not self._equivalence_checked
            and block
        ):
            self._equivalence_checked = True
            return self._run_task_checked(task, block_key, block)
        broker = _AccountingBroker(self._server_ids)
        # Sanitize mode forces the scalar path, where the recorder logs
        # each access with its iteration before the accounting sees it.
        recorder = RecordingBroker(broker) if self.sanitize else None
        with access.worker_scope(task.worker), \
                access.install_broker(recorder or broker):
            if use_kernel:
                kctx = KernelContext(
                    broker,
                    task.worker,
                    self._kernel_caches.setdefault(block_key, {}),
                )
                self.kernel(block, kctx)
            else:
                self._run_scalar(block, task.worker, broker.stats, recorder)
        if recorder is not None:
            self._sanitize_records.extend(recorder.records)
        stats = broker.stats
        stats.entries = len(block)
        # Flush remaining buffered writes at the block boundary: a worker
        # synchronizes at most once per partition (paper Sec. 4.3).
        for buffer in self.info.buffers.values():
            stats.flush_bytes += buffer.pending_bytes(task.worker)
            buffer.flush_worker(task.worker)
        return stats

    def _run_scalar(
        self,
        block: Any,
        worker: int,
        stats: _TaskStats,
        recorder: Optional[RecordingBroker],
    ) -> None:
        body = self.body
        buffers = list(self.info.buffers.values())
        for key, value in block:
            if recorder is not None:
                recorder.iteration = key
            body(key, value)
            for buffer in buffers:
                if buffer.tick(worker):
                    stats.flush_bytes += buffer.pending_bytes(worker)
                    buffer.flush_worker(worker)

    # ---------------- kernel/scalar equivalence check ------------------- #

    def _run_task_checked(
        self, task: sched.Task, block_key: Tuple[int, int], block: Any
    ) -> _TaskStats:
        """Run one block through both paths and demand identical outcomes.

        Executes the scalar body first, snapshots the resulting state,
        rewinds, executes the kernel, and compares array/buffer contents
        (bitwise) plus every accounting quantity.  The kernel run's state is
        kept, so a passing check leaves execution exactly as if the kernel
        alone had run.
        """
        saved = self._snapshot_state()
        scalar_stats = self._run_task(task, force_scalar=True)
        scalar_state = self._snapshot_state()
        self._restore_state(saved)
        kernel_stats = self._run_task(task)
        kernel_state = self._snapshot_state()
        problems = self._compare_states(scalar_state, kernel_state)
        problems += self._compare_stats(scalar_stats, kernel_stats)
        if problems:
            raise ExecutionError(
                "kernel/scalar equivalence check failed for block "
                f"{block_key}: " + "; ".join(problems)
            )
        return kernel_stats

    def _state_arrays(self) -> Dict[str, Any]:
        """Arrays whose contents the check must compare: everything the
        body references plus every buffer's flush target (a target need
        not appear in the body at all)."""
        arrays = dict(self.info.arrays)
        for buffer in self.info.buffers.values():
            arrays.setdefault(buffer.target.name, buffer.target)
        return arrays

    def _snapshot_state(self) -> Dict[str, Any]:
        arrays: Dict[str, Tuple[str, Any]] = {}
        for name, array in self._state_arrays().items():
            if not array.is_materialized:
                continue
            if array.sparse:
                arrays[name] = (
                    "sparse",
                    {
                        key: (
                            value.copy()
                            if isinstance(value, np.ndarray)
                            else value
                        )
                        for key, value in array._entries.items()
                    },
                )
            else:
                arrays[name] = ("dense", array._dense.copy())
        buffers: Dict[str, Tuple[Dict[int, Dict], Dict[int, int]]] = {}
        for name, buffer in self.info.buffers.items():
            buffers[name] = (
                {w: dict(slot) for w, slot in buffer._pending.items()},
                dict(buffer._age),
            )
        return {"arrays": arrays, "buffers": buffers}

    def _restore_state(self, saved: Dict[str, Any]) -> None:
        state_arrays = self._state_arrays()
        for name, (kind, data) in saved["arrays"].items():
            array = state_arrays[name]
            if kind == "dense":
                array._dense[...] = data
            else:
                array._entries.clear()
                array._entries.update(
                    (
                        key,
                        value.copy()
                        if isinstance(value, np.ndarray)
                        else value,
                    )
                    for key, value in data.items()
                )
        for name, (pending, age) in saved["buffers"].items():
            buffer = self.info.buffers[name]
            buffer._pending.clear()
            buffer._pending.update(
                (worker, dict(slot)) for worker, slot in pending.items()
            )
            buffer._age.clear()
            buffer._age.update(age)

    @staticmethod
    def _compare_states(
        scalar: Dict[str, Any], kernel: Dict[str, Any]
    ) -> List[str]:
        problems: List[str] = []
        for name, (kind, s_data) in scalar["arrays"].items():
            _k_kind, k_data = kernel["arrays"][name]
            if kind == "dense":
                if not np.array_equal(s_data, k_data):
                    problems.append(f"array {name!r} values differ")
            elif s_data.keys() != k_data.keys():
                problems.append(f"array {name!r} sparse key sets differ")
            elif any(
                not np.array_equal(s_data[key], k_data[key])
                for key in s_data
            ):
                problems.append(f"array {name!r} sparse values differ")
        for name, (s_pending, _s_age) in scalar["buffers"].items():
            k_pending, _k_age = kernel["buffers"][name]
            if s_pending.keys() != k_pending.keys():
                problems.append(f"buffer {name!r} worker slots differ")
                continue
            for worker, s_slot in s_pending.items():
                k_slot = k_pending[worker]
                if s_slot.keys() != k_slot.keys():
                    problems.append(
                        f"buffer {name!r} pending keys differ (worker {worker})"
                    )
                elif any(
                    not np.array_equal(s_slot[key], k_slot[key])
                    for key in s_slot
                ):
                    problems.append(
                        f"buffer {name!r} pending values differ (worker {worker})"
                    )
        return problems

    @staticmethod
    def _compare_stats(scalar: _TaskStats, kernel: _TaskStats) -> List[str]:
        problems: List[str] = []
        for field_name in (
            "entries",
            "server_reads",
            "server_read_bytes",
            "flush_bytes",
        ):
            s_value = getattr(scalar, field_name)
            k_value = getattr(kernel, field_name)
            if s_value != k_value:
                problems.append(
                    f"{field_name}: scalar={s_value} kernel={k_value}"
                )
        return problems

    # ---------------- timing + traffic --------------------------------- #

    def _timing(self, work_s: np.ndarray) -> sched.ScheduleTiming:
        plan = self.plan
        transfer = self._link.transfer_time if self._link is not None else None
        if plan.strategy in (Strategy.ONE_D, Strategy.DATA_PARALLEL):
            return sched.time_one_d(work_s, self.cluster)
        if plan.strategy is Strategy.TWO_D:
            if plan.ordered:
                return sched.time_ordered_2d(
                    work_s, self.cluster, self.rotated_block_bytes,
                    transfer_time=transfer,
                )
            return sched.time_unordered_2d(
                work_s, self.cluster, self.rotated_block_bytes,
                transfer_time=transfer,
            )
        return sched.time_sequential_outer(work_s, self.cluster)

    def _traffic_events(
        self,
        timing: sched.ScheduleTiming,
        work_s: np.ndarray,
        flush_bytes: np.ndarray,
        prefetch_bytes: np.ndarray,
        t0: float = 0.0,
        cutoff: Optional[float] = None,
    ) -> List[Tuple[float, float, float, str]]:
        """Epoch-relative traffic events; when tracing, the same transfers
        are also emitted as spans on per-kind network tracks (offset by
        ``t0`` onto the global timeline, with worker/hop attribution).

        With an unreliable link attached, each message's duration and
        bytes come from its memoized drop outcome (resent bytes count);
        the message keys match the ones the timing model and the prefetch
        manager used, so both sides of the accounting agree.  ``cutoff``
        (epoch-relative) suppresses messages an aborted pass never sent.
        """
        tracer, process = self.tracer, self.trace_process
        tracing = tracer.enabled
        metrics = self.metrics
        link = self._link

        events: List[Tuple[float, float, float, str]] = []

        def emit(t_start, t_end, nbytes, kind, worker=None, hop=None):
            if cutoff is not None and t_start >= cutoff:
                return
            events.append((t_start, t_end, nbytes, kind))
            metrics.counter(f"traffic_bytes_{kind}").inc(nbytes)
            if tracing:
                args: Dict[str, Any] = {"nbytes": nbytes}
                if worker is not None:
                    args["worker"] = worker
                if hop is not None:
                    args["hop"] = hop
                tracer.add_span(
                    kind,
                    kind,
                    t0 + t_start,
                    t0 + t_end,
                    track=f"net:{kind}",
                    process=process,
                    args=args,
                )

        if self._replicated_bytes:
            nbytes = self._replicated_bytes * self.cluster.num_machines
            if link is not None:
                outcome = link.transfer(
                    self._replicated_bytes, key=("broadcast",)
                )
                duration = outcome.seconds
                nbytes *= outcome.attempts
            else:
                duration = self.cluster.network.transfer_time(
                    self._replicated_bytes
                )
            emit(0.0, duration, nbytes, "broadcast")
        rotated = self.rotated_block_bytes
        num_workers = self.num_workers
        for step_tasks in self.steps:
            for task in step_tasks:
                finish = timing.finish.get((task.worker, task.step))
                if finish is None:
                    continue
                time_idx = task.time_idx or 0
                start = finish - float(work_s[task.space_idx, time_idx])
                if rotated and self.plan.strategy is Strategy.TWO_D:
                    nbytes = rotated
                    if link is not None:
                        # Same message keys as the timing model: per global
                        # step when ordered, per (sender, step) otherwise.
                        key = (
                            ("rotation", task.step)
                            if self.plan.ordered
                            else ("rotation", task.worker, task.step)
                        )
                        outcome = link.transfer(rotated, key=key)
                        duration = outcome.seconds
                        nbytes = outcome.nbytes_sent
                    else:
                        duration = self.cluster.network.transfer_time(rotated)
                    # The finished rotated partition moves to the worker's
                    # predecessor in rotation order.
                    hop = (
                        f"{task.worker}->"
                        f"{(task.worker - 1) % num_workers}"
                    )
                    emit(finish, finish + duration, nbytes, "rotation",
                         worker=task.worker, hop=hop)
                fb = float(flush_bytes[task.space_idx, time_idx])
                if fb:
                    if link is not None:
                        outcome = link.transfer(
                            fb, key=("flush", task.space_idx, time_idx)
                        )
                        duration = outcome.seconds
                        fb = outcome.nbytes_sent
                    else:
                        duration = self.cluster.network.transfer_time(fb)
                    emit(finish, finish + duration, fb, "flush",
                         worker=task.worker)
                pb = float(prefetch_bytes[task.space_idx, time_idx])
                if pb:
                    if link is not None:
                        outcome = link.transfer(
                            pb, key=("prefetch", task.space_idx, time_idx)
                        )
                        duration = outcome.seconds
                        pb = outcome.nbytes_sent
                    else:
                        duration = self.cluster.network.transfer_time(pb)
                    emit(start, start + duration, pb, "prefetch",
                         worker=task.worker)
        return events

    # ---------------- sanitize mode (shadow-access check) --------------- #

    def _sanitize_check(self) -> None:
        """Cross-check the epoch's shadow-access records against the plan.

        Drains :attr:`_sanitize_records`, runs :func:`repro.sanitizer.
        check_epoch`, bumps the sanitize counters, and raises
        :class:`~repro.sanitizer.SanitizerError` (fail-stop) on any
        violation — a sanitized run that completes is a certificate that
        the analyzer's claims held for every executed iteration.
        """
        records, self._sanitize_records = self._sanitize_records, []
        server_names = frozenset(
            array.name for array in self._server_arrays.values()
        )
        prefetch_fn = self.prefetch.prefetch_fn
        values = None
        if prefetch_fn is not None and server_names:
            if self._sanitize_values is None:
                self._sanitize_values = dict(
                    self.info.iteration_space.entries()
                )
            values = self._sanitize_values
        if self._sanitize_blocks is None:
            self._sanitize_blocks = {
                key: (task.step, task.worker)
                for step_tasks in self.steps
                for task in step_tasks
                for key, _value in self.partitions.block(
                    task.space_idx, task.time_idx or 0
                )
            }
        diagnostics = check_epoch(
            self.info,
            self.plan,
            records,
            server_names=server_names,
            prefetch_fn=prefetch_fn,
            values=values,
            blocks=self._sanitize_blocks,
        )
        self.metrics.counter("sanitize_epochs_total").inc()
        self.metrics.counter("sanitize_records_total").inc(len(records))
        if diagnostics:
            self.metrics.counter("sanitize_violations_total").inc(
                len(diagnostics)
            )
            raise SanitizerError(diagnostics)
