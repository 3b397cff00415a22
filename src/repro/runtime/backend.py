"""Pluggable execution backends for compiled parallel loops.

One compiled plan — analysis, placements, partitions, schedule — can run
on either of two backends, selected with ``LoopOptions(backend=...)`` or
``--backend`` on the CLI (the executor/provider split Parsl popularized,
applied to Orion's plans):

``simulated``
    The deterministic virtual-clock linearization
    (:class:`~repro.runtime.executor.OrionExecutor`).  The oracle: the
    multiprocess backend's dependence-preserving runs are compared bitwise
    against it.
``multiprocess``
    Forked OS processes over shared-memory partitions
    (:class:`~repro.runtime.distributed.MultiprocessRunner`): real
    wall-clock epoch times (``EpochResult.clock == "real"``), worker-side
    kernels, direct token-based rotation.

Each backend exposes the same two methods, so
:class:`~repro.api.ParallelLoop` drives them interchangeably.
"""

from __future__ import annotations

from typing import TYPE_CHECKING, Optional, Tuple

from repro.errors import ExecutionError
from repro.runtime.executor import EpochResult

if TYPE_CHECKING:
    from repro.api import ParallelLoop

__all__ = [
    "BACKENDS",
    "Backend",
    "SimulatedBackend",
    "MultiprocessBackend",
    "create_backend",
]

#: Valid ``LoopOptions.backend`` values, in oracle-to-real order.
BACKENDS: Tuple[str, ...] = ("simulated", "multiprocess")


class Backend:
    """What a loop needs from its execution engine: epochs and shutdown."""

    name = "backend"

    def run_epoch(
        self, t0: float = 0.0, epoch: Optional[int] = None
    ) -> EpochResult:
        """Execute one full data pass."""
        raise NotImplementedError

    def close(self) -> None:
        """Release any resources (processes, shared memory)."""

    def on_retune(self) -> None:
        """The executor's partitions/schedule changed between epochs
        (adaptive tuning).  Backends holding state derived from them must
        invalidate it here; the simulated backend reads the executor
        directly every epoch, so the default is a no-op."""


class SimulatedBackend(Backend):
    """The virtual-clock executor — a thin adapter, zero overhead."""

    name = "simulated"

    def __init__(self, loop: "ParallelLoop") -> None:
        self._executor = loop.executor

    def run_epoch(
        self, t0: float = 0.0, epoch: Optional[int] = None
    ) -> EpochResult:
        return self._executor.run_epoch(t0=t0, epoch=epoch)


class MultiprocessBackend(Backend):
    """Real forked processes; the runner is created on first epoch."""

    name = "multiprocess"

    def __init__(self, loop: "ParallelLoop") -> None:
        self._loop = loop
        self._runner = None

    @property
    def runner(self):
        """The underlying (lazily created) MultiprocessRunner."""
        if self._runner is None:
            from repro.runtime.distributed import MultiprocessRunner

            self._runner = MultiprocessRunner(self._loop)
        return self._runner

    def run_epoch(
        self, t0: float = 0.0, epoch: Optional[int] = None
    ) -> EpochResult:
        # t0 is a virtual-clock anchor; real results carry their own clock.
        return self.runner.run_epoch_result(epoch=epoch)

    def close(self) -> None:
        if self._runner is not None:
            self._runner.close()
            self._runner = None

    def on_retune(self) -> None:
        """Forked workers snapshot the executor's partitions at
        construction, so a retune makes the runner stale: tear it down
        and let the next epoch fork a fresh one from the new tiling."""
        if self._runner is not None:
            self._runner.close()
            self._runner = None


def create_backend(loop: "ParallelLoop") -> Backend:
    """Instantiate the backend the loop's options selected."""
    backend = loop.options.backend
    if backend == "simulated":
        return SimulatedBackend(loop)
    if backend == "multiprocess":
        return MultiprocessBackend(loop)
    raise ExecutionError(f"unknown backend {backend!r}")
