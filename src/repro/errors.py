"""Exception hierarchy for the Orion reproduction.

All library-raised exceptions derive from :class:`ReproError` so callers can
catch everything from this package with a single ``except`` clause.
"""

from __future__ import annotations

from typing import Any, Optional


class ReproError(Exception):
    """Base class for every exception raised by this package.

    Analyzer-facing subclasses may carry a structured
    :class:`repro.analysis.lint.Diagnostic` alongside the human-readable
    message; ``repro lint`` and ``ParallelLoop.diagnostics()`` surface it
    with its stable code and source location instead of the bare string.
    """

    def __init__(self, *args: Any, diagnostic: Optional[Any] = None) -> None:
        super().__init__(*args)
        self.diagnostic = diagnostic


class MaterializationError(ReproError):
    """A DistArray operation required a materialized array but got a lazy one,
    or materialization itself failed (e.g. a parser raised on a text line)."""


class SubscriptError(ReproError):
    """A DistArray point/set query used an invalid subscript (wrong arity,
    out-of-bounds constant index, unsupported index object)."""


class DependenceError(ReproError):
    """Static dependence analysis failed in a way that is a bug rather than a
    conservative fallback (e.g. inconsistent dependence vector arithmetic)."""


class ParallelizationError(ReproError):
    """No dependence-preserving parallelization exists for a loop and the
    program did not opt into a semantic relaxation (buffers / unordered)."""


class AnalysisError(ReproError):
    """The loop body's source could not be analyzed at all (e.g. source is
    unavailable, the body is not a plain function, or the iteration-space
    argument is not a DistArray)."""


class PartitionError(ReproError):
    """Iteration-space or DistArray partitioning was given invalid arguments
    (e.g. zero partitions, a dimension out of range)."""


class ExecutionError(ReproError):
    """The distributed executor hit an inconsistent state at run time (e.g. a
    refused retune, a dead worker, or a kernel that failed its
    equivalence check); sanitize mode's race reports subclass it as
    :class:`~repro.sanitizer.SanitizerError`."""


class CheckpointError(ReproError):
    """Saving or restoring a DistArray checkpoint failed."""


class AccumulatorError(ReproError):
    """An accumulator was used incorrectly (unknown name, non-associative
    aggregation request, reset of an unregistered accumulator)."""


class FaultError(ReproError):
    """A fault plan is malformed (conflicting crash coordinates, invalid
    drop probability, unparsable ``--faults`` spec) or recovery was asked
    to proceed from an impossible state."""
