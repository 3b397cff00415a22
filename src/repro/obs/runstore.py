"""Persistent run records and noise-aware regression detection.

Every :meth:`ParallelLoop.run` call can append one structured record to a
JSONL **run store** (``.repro_runs/runs.jsonl`` by default): the loop's
signature, plan summary, backend, kernel tier, per-epoch timings and the
metrics snapshot.  The store is what ``repro perf`` consumes:

* ``repro perf show`` — table of recorded runs;
* ``repro perf compare`` — two runs side by side, per-epoch deltas;
* ``repro perf check`` — the latest run of every (signature, clock)
  group against the median of its predecessors, with a noise margin
  derived from the baseline spread (real-clock runs jitter; virtual-clock
  runs are deterministic and must match exactly).

The **loop signature** hashes what determines a run's performance shape —
the loop body's AST, iteration-space shape, strategy, backend, kernel
tier, cluster size and the scheduling options — and deliberately excludes
the fault plan, so a fault-slowed run lands in the same group as its
clean baselines and regression detection can flag it.

Recording is opt-in (``LoopOptions.run_store``); with it unset nothing
here is even imported, keeping the disabled path bit-identical.
"""

from __future__ import annotations

import ast
import hashlib
import json
import math
import time
from dataclasses import asdict, dataclass, field
from pathlib import Path
from typing import Any, Dict, List, Optional, Sequence, Union

__all__ = [
    "SCHEMA_VERSION",
    "DEFAULT_ROOT",
    "RunRecord",
    "RunStore",
    "Verdict",
    "loop_signature",
    "record_run",
    "compare_records",
    "check_store",
]

SCHEMA_VERSION = 1

#: Default run-store directory (gitignored; see docs/observability.md).
DEFAULT_ROOT = ".repro_runs"


@dataclass
class RunRecord:
    """One persisted :meth:`ParallelLoop.run` call."""

    label: str
    signature: str
    backend: str
    clock: str
    kernel_tier: str
    plan: Dict[str, Any] = field(default_factory=dict)
    cluster: Dict[str, Any] = field(default_factory=dict)
    options: Dict[str, Any] = field(default_factory=dict)
    #: One entry per executed pass: epoch index, seconds, utilization,
    #: bytes, task count, whether a fault aborted it.
    epochs: List[Dict[str, Any]] = field(default_factory=list)
    metrics: Dict[str, Any] = field(default_factory=dict)
    #: W-code diagnostics of the loop (kernel fallbacks et al.).
    diagnostics: List[str] = field(default_factory=list)
    #: Multiprocess-runner topology, when that backend ran.
    runner: Dict[str, Any] = field(default_factory=dict)
    #: Adaptive-tuner outcome when the run tuned itself (mode, seeded
    #: config, decision records, final resolved config) — empty for
    #: untuned runs, so records written before the tuner existed load
    #: unchanged (``from_json`` filters to known fields either way).
    tuning: Dict[str, Any] = field(default_factory=dict)
    #: Whether any pass in this run was aborted by an injected fault.
    faulted: bool = False
    #: Logical epoch number of the first pass in this run (1 for a fresh
    #: loop).  Virtual-clock epochs are deterministic *given their index*
    #: — epoch 1 pays prefetch synthesis that later epochs have cached —
    #: so regression groups key on it to compare like with like.
    first_epoch: int = 1
    created_at: str = ""
    version: int = SCHEMA_VERSION

    @property
    def total_time_s(self) -> float:
        return math.fsum(e["epoch_time_s"] for e in self.epochs)

    @property
    def epoch_times(self) -> List[float]:
        return [e["epoch_time_s"] for e in self.epochs]

    @property
    def mean_utilization(self) -> float:
        if not self.epochs:
            return 0.0
        return math.fsum(
            e.get("utilization", 0.0) for e in self.epochs
        ) / len(self.epochs)

    def to_json(self) -> Dict[str, Any]:
        return asdict(self)

    @classmethod
    def from_json(cls, payload: Dict[str, Any]) -> "RunRecord":
        known = {f for f in cls.__dataclass_fields__}  # noqa: C416
        return cls(**{k: v for k, v in payload.items() if k in known})


def loop_signature(loop: Any, exclude: Sequence[str] = ()) -> str:
    """Stable hash of what shapes a loop's performance.

    Covers the body AST, iteration-space shape/size, chosen strategy,
    ordering, backend, kernel tier, cluster size and scheduling options.
    Excludes the fault plan on purpose — an artificially slowed run must
    keep its baselines' signature so ``repro perf check`` can flag it.

    ``exclude`` drops named payload keys before hashing; the tuning cache
    uses it to key on the signature *minus* the tunable knobs
    (``pipeline_depth``/``prefetch``/``cache_prefetch``), so a run at any
    depth can seed later runs of the same loop.  With ``exclude`` empty
    the hash is unchanged from earlier schema versions.
    """
    executor = loop.executor
    info, plan = loop.info, loop.plan
    opts = loop.options
    try:
        body_repr = ast.dump(info.tree)
    except Exception:
        body_repr = getattr(loop.body, "__name__", repr(loop.body))
    payload = {
        "body": body_repr,
        "space_shape": list(info.iteration_space.shape or ()),
        "space_len": int(info.iteration_space.num_entries),
        "strategy": plan.strategy.name,
        "ordered": bool(info.ordered),
        "transform": plan.transform is not None,
        "backend": opts.backend,
        "kernel_tier": executor.kernel_tier,
        "machines": executor.cluster.num_machines,
        "workers": executor.cluster.num_workers,
        "pipeline_depth": executor.pipeline_depth,
        "prefetch": executor.prefetch_mode,
        "cache_prefetch": bool(executor.cache_prefetch),
        "balance": bool(executor.balance),
        "sanitize": bool(opts.sanitize),
    }
    for key in exclude:
        payload.pop(key, None)
    blob = json.dumps(payload, sort_keys=True).encode()
    return hashlib.sha256(blob).hexdigest()[:16]


def record_run(
    loop: Any, results: Sequence[Any], label: Optional[str] = None
) -> RunRecord:
    """Build the :class:`RunRecord` for one finished ``run()`` call."""
    executor = loop.executor
    opts = loop.options
    summary = executor.run_summary()
    epochs: List[Dict[str, Any]] = []
    for index, result in enumerate(results, 1):
        epochs.append(
            {
                "epoch": index,
                "epoch_time_s": float(result.epoch_time_s),
                "clock": result.clock,
                "utilization": float(result.utilization),
                "bytes_sent": float(result.bytes_sent),
                "num_tasks": int(result.num_tasks),
                "kernel_path": bool(result.kernel_path),
                "faulted": result.fault is not None,
            }
        )
    runner_meta: Dict[str, Any] = {}
    backend = getattr(loop, "backend", None)
    runner = getattr(backend, "_runner", None)
    if runner is not None:
        runner_meta = runner.runner_meta()
    metrics_snapshot: Dict[str, Any] = {}
    if executor.metrics.enabled:
        metrics_snapshot = executor.metrics.snapshot()
    tuner = getattr(loop, "_tuner", None)
    tuning_meta: Dict[str, Any] = {}
    if tuner is not None:
        tuning_meta = tuner.summary()
    return RunRecord(
        label=label or opts.trace_process,
        signature=loop_signature(loop),
        backend=opts.backend,
        clock=results[0].clock if results else "virtual",
        kernel_tier=executor.kernel_tier,
        plan=summary,
        cluster={
            "machines": executor.cluster.num_machines,
            "workers": executor.cluster.num_workers,
        },
        options={
            "ordered": bool(loop.info.ordered),
            "pipeline_depth": executor.pipeline_depth,
            "prefetch": executor.prefetch_mode,
            "cache_prefetch": bool(executor.cache_prefetch),
            "sanitize": bool(opts.sanitize),
            "tune": getattr(opts, "tune", "off"),
        },
        epochs=epochs,
        metrics=metrics_snapshot,
        diagnostics=[
            f"{d.code}: {d.message}" for d in loop.info.diagnostics
        ],
        runner=runner_meta,
        tuning=tuning_meta,
        faulted=any(r.fault is not None for r in results),
        first_epoch=max(1, getattr(loop, "_epoch", len(results))
                        - len(results) + 1),
        created_at=time.strftime("%Y-%m-%dT%H:%M:%SZ", time.gmtime()),
    )


class RunStore:
    """Append-only JSONL store of :class:`RunRecord` payloads."""

    def __init__(self, root: Union[str, Path] = DEFAULT_ROOT) -> None:
        self.root = Path(root)

    @property
    def path(self) -> Path:
        return self.root / "runs.jsonl"

    @classmethod
    def resolve(cls, value: Any) -> "RunStore":
        """Coerce a ``LoopOptions.run_store`` value into a store.

        Accepts a :class:`RunStore`, a path-like, or ``True`` (meaning
        the default root).
        """
        if isinstance(value, cls):
            return value
        if value is True:
            return cls()
        return cls(value)

    def append(self, record: RunRecord) -> None:
        self.root.mkdir(parents=True, exist_ok=True)
        with self.path.open("a") as handle:
            handle.write(json.dumps(record.to_json()) + "\n")

    def load(self) -> List[RunRecord]:
        """Every recorded run, in append order (oldest first)."""
        if not self.path.exists():
            return []
        records: List[RunRecord] = []
        with self.path.open() as handle:
            for line in handle:
                line = line.strip()
                if line:
                    records.append(RunRecord.from_json(json.loads(line)))
        return records

    def __len__(self) -> int:
        return len(self.load())


# --------------------------------------------------------------------- #
# Regression detection                                                   #
# --------------------------------------------------------------------- #

@dataclass
class Verdict:
    """Outcome of one regression comparison."""

    label: str
    signature: str
    clock: str
    baseline_time_s: float
    candidate_time_s: float
    #: candidate / baseline (1.0 = identical).
    ratio: float
    #: Flagging threshold on the ratio (1 + margin).
    allowed_ratio: float
    regressed: bool
    #: How many baseline runs backed the comparison.
    num_baselines: int = 1
    notes: List[str] = field(default_factory=list)

    @property
    def improved(self) -> bool:
        return self.ratio < 1.0 / self.allowed_ratio

    def describe(self) -> str:
        if self.regressed:
            status = "REGRESSION"
        elif self.improved:
            status = "improved"
        else:
            status = "ok"
        line = (
            f"[{status:10s}] {self.label} ({self.signature[:8]}, "
            f"{self.clock} clock): {self.candidate_time_s * 1e3:.3f} ms vs "
            f"baseline {self.baseline_time_s * 1e3:.3f} ms "
            f"({self.ratio:.3f}x, allowed {self.allowed_ratio:.3f}x, "
            f"{self.num_baselines} baseline"
            f"{'s' if self.num_baselines != 1 else ''})"
        )
        for note in self.notes:
            line += f"\n    note: {note}"
        return line


def _median(values: Sequence[float]) -> float:
    ordered = sorted(values)
    mid = len(ordered) // 2
    if len(ordered) % 2:
        return ordered[mid]
    return 0.5 * (ordered[mid - 1] + ordered[mid])


def _verdict(
    baselines: Sequence[RunRecord],
    candidate: RunRecord,
    threshold: float,
    noise_factor: float,
) -> Verdict:
    """Noise-aware comparison of one candidate against its baselines.

    The allowed slowdown is ``1 + max(threshold, noise_factor * spread)``
    where ``spread`` is the baselines' relative total-time spread — zero
    for deterministic virtual-clock runs (so any threshold-exceeding
    slowdown is flagged), wider for jittery real-clock runs.
    """
    totals = [record.total_time_s for record in baselines]
    baseline = _median(totals)
    spread = 0.0
    if len(totals) > 1 and baseline > 0:
        spread = (max(totals) - min(totals)) / baseline
    margin = max(threshold, noise_factor * spread)
    allowed = 1.0 + margin
    candidate_total = candidate.total_time_s
    ratio = candidate_total / baseline if baseline > 0 else float("inf")
    notes: List[str] = []
    if candidate.faulted:
        notes.append("candidate ran with fault injection")
    if any(record.faulted for record in baselines):
        notes.append("some baselines ran with fault injection")
    if len(candidate.epochs) != len(baselines[-1].epochs):
        notes.append(
            f"epoch counts differ ({len(baselines[-1].epochs)} baseline "
            f"vs {len(candidate.epochs)} candidate)"
        )
    if candidate.kernel_tier != baselines[-1].kernel_tier:
        notes.append(
            f"kernel tier changed: {baselines[-1].kernel_tier} -> "
            f"{candidate.kernel_tier}"
        )
    return Verdict(
        label=candidate.label,
        signature=candidate.signature,
        clock=candidate.clock,
        baseline_time_s=baseline,
        candidate_time_s=candidate_total,
        ratio=ratio,
        allowed_ratio=allowed,
        regressed=ratio > allowed,
        num_baselines=len(baselines),
        notes=notes,
    )


def compare_records(
    baseline: RunRecord,
    candidate: RunRecord,
    threshold: float = 0.2,
    noise_factor: float = 2.0,
) -> Verdict:
    """Compare exactly two recorded runs (``repro perf compare``)."""
    verdict = _verdict([baseline], candidate, threshold, noise_factor)
    if baseline.signature != candidate.signature:
        verdict.notes.append(
            "signatures differ — the two runs executed different loop "
            "configurations"
        )
    if baseline.clock != candidate.clock:
        verdict.notes.append(
            f"clock domains differ ({baseline.clock} vs {candidate.clock})"
            " — times are not directly comparable"
        )
    if _tuning_group_key(baseline) != _tuning_group_key(candidate):
        verdict.notes.append(
            "tuning configurations differ — one run adapted its knobs "
            "mid-run (see the records' 'tuning' field)"
        )
    return verdict


def _tuning_group_key(record: RunRecord) -> str:
    """Stable grouping component for a record's tuning outcome.

    Empty for untuned runs (including every pre-tuner record), so their
    grouping is unchanged; for tuned runs, a canonical JSON of the mode,
    seeded config and knob trajectory.  Without this, a run that adapted
    ``pipeline_depth`` mid-run would alias with its untuned baseline —
    the final knobs hash identically even though the epochs were executed
    under a changing configuration.
    """
    tuning = record.tuning or {}
    if not tuning:
        return ""
    key = {
        "mode": tuning.get("mode"),
        "seeded": tuning.get("seeded"),
        "final": tuning.get("final"),
        "trajectory": [
            [d.get("epoch"), d.get("knob"), d.get("old"), d.get("new")]
            for d in tuning.get("decisions", ())
        ],
    }
    return json.dumps(key, sort_keys=True)


def check_store(
    records: Sequence[RunRecord],
    threshold: float = 0.2,
    noise_factor: float = 2.0,
) -> List[Verdict]:
    """Latest-vs-baselines verdict per (signature, clock, epoch, tuning)
    group.

    Grouping on ``first_epoch`` keeps cold-cache first epochs from being
    compared against warm later epochs (deterministic virtual-clock runs
    then match their baselines *bit for bit*); grouping on the tuning key
    keeps a run that re-chose knobs mid-run from aliasing with its
    untuned baseline (untuned records — including every pre-tuner record
    — carry the empty key, so their groups are unchanged).  Groups with a
    single record have no baseline and are skipped.
    """
    groups: Dict[Any, List[RunRecord]] = {}
    for record in records:
        groups.setdefault(
            (
                record.signature,
                record.clock,
                record.first_epoch,
                _tuning_group_key(record),
            ),
            [],
        ).append(record)
    verdicts: List[Verdict] = []
    for key in groups:
        group = groups[key]
        if len(group) < 2:
            continue
        verdicts.append(
            _verdict(group[:-1], group[-1], threshold, noise_factor)
        )
    return verdicts
