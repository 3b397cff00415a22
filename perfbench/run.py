"""Layered training benchmark: one workload, one seed, one run.

    python3 perfbench/run.py --workload mf-rotate-mp2 --seed 1 --seconds 50 --trace 0

Run from the root of a checkout.  The run makes its inputs from
``--seed``, repeats training trials (build, warm-up epoch, fixed number of
epochs) until ``--seconds`` have passed, checks every trial's outputs and
prints one JSON result as its last line.  ``--trace 0`` reports the
end-to-end metrics of ``BENCHMARK.json``; ``--trace 1`` alternates plain
and observed trials, runs the baselines and layer probes, reports the
per-layer metrics and writes its spans to ``perfbench/out/``.  See
``perfbench/NOTES.md``.
"""

from __future__ import annotations

import argparse
import json
import multiprocessing
import sys
from multiprocessing import resource_tracker
from pathlib import Path
from typing import Any, Dict, List, Optional

HERE = Path(__file__).resolve().parent
ROOT = HERE.parent
OUT = HERE / "out"


def parse_args(argv: Optional[List[str]]) -> argparse.Namespace:
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--workload", required=True)
    parser.add_argument("--seed", type=int, required=True)
    parser.add_argument("--seconds", type=float, required=True)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    return parser.parse_args(argv)


def declared_metrics() -> Dict[str, Dict[str, str]]:
    """``BENCHMARK.json``'s metrics by trace mode: name -> unit."""
    spec = json.loads((ROOT / "BENCHMARK.json").read_text())
    return {
        mode: {metric["name"]: metric["unit"] for metric in spec[key]}
        for mode, key in (("0", "end_to_end"), ("1", "per_layer"))
    }


def stop_child_processes() -> None:
    """Stop every process the run started and wait for each to end.

    Programs close their workers themselves; this joins any that are still
    alive, then stops the resource tracker that the first shared-memory
    segment starts.  Left alone, the tracker outlives the run.
    """
    for child in multiprocessing.active_children():
        child.join(timeout=5.0)
        if child.is_alive():
            child.kill()
            child.join()
    stop = getattr(resource_tracker._resource_tracker, "_stop", None)
    if stop is not None:
        stop()


def main(argv: Optional[List[str]] = None) -> int:
    args = parse_args(argv)
    try:
        return run(args)
    finally:
        stop_child_processes()


def run(args: argparse.Namespace) -> int:
    if not (ROOT / "src" / "repro").is_dir():
        print(f"no program source under {ROOT / 'src'}", file=sys.stderr)
        return 2
    sys.path.insert(0, str(ROOT / "src"))
    from layers import BASELINE_EPOCHS, layer_metrics, probe_setup_layers
    from measure import (
        check_trials,
        end_to_end,
        fail_rate,
        host_fingerprint,
        repeat_trials,
        run_trial,
    )
    from repro.obs.observability import Observability
    from spans import SpanRecorder
    from workloads import WORKLOADS

    if args.workload not in WORKLOADS:
        print(f"unknown workload {args.workload!r}", file=sys.stderr)
        return 2
    workload = WORKLOADS[args.workload]
    units = declared_metrics()[str(args.trace)]
    spans = SpanRecorder(enabled=bool(args.trace))
    host = host_fingerprint()
    print("# host " + json.dumps(host), flush=True)
    inputs = workload.make_inputs(args.seed)
    samples: Dict[str, List[float]] = {}

    def baseline(name: str, **overrides: Any):
        with spans.span(name):
            return run_trial(workload, inputs, args.seed, spans=spans, **overrides)

    if args.trace:
        (plain, traced), peak_rss = repeat_trials(
            workload, inputs, args.seed, args.seconds,
            (("plain", lambda: None), ("traced", Observability.enabled)),
            spans,
        )
    else:
        (plain,), peak_rss = repeat_trials(
            workload, inputs, args.seed, args.seconds,
            (("plain", lambda: None),), spans,
        )
        traced = []
    checked = plain + traced
    extra = []
    oracle = None
    if args.trace or workload.bitwise_oracle:
        oracle = baseline("oracle", backend="simulated")
        extra.append(oracle)
    check_trials(
        workload,
        checked,
        oracle.final_state if oracle and workload.bitwise_oracle else None,
    )
    if args.trace:
        scalar = baseline(
            "baseline.scalar", backend="simulated", use_kernel=False,
            epochs=BASELINE_EPOCHS,
        )
        one_worker = None
        if workload.backend == "multiprocess":
            one_worker = baseline(
                "baseline.one_worker", backend="simulated", workers=1,
                epochs=BASELINE_EPOCHS,
            )
        extra += [t for t in (scalar, one_worker) if t is not None]
        if any(t.raised for t in checked + extra):
            metrics = None
        else:
            metrics = probe_setup_layers(workload, inputs, args.seed, spans)
            metrics.update(
                layer_metrics(workload, plain, traced, oracle, scalar, one_worker)
            )
    elif all(trial.raised for trial in plain):
        metrics = None
    else:
        metrics = end_to_end(workload, inputs, plain, peak_rss, samples)

    everything = checked + extra
    attempted = sum(trial.attempted for trial in everything)
    failed = sum(len(trial.failed) for trial in everything)
    for trial in everything:
        for reason in trial.reasons:
            print(f"# FAILED {reason}", file=sys.stderr)
    print(f"# fail_rate {fail_rate(everything):.6g} ({failed}/{attempted} epochs)")
    if metrics is None:
        print("no metrics: a trial raised", file=sys.stderr)
        return 1
    if set(metrics) != set(units):
        raise SystemExit(f"metrics {sorted(metrics)} != declared {sorted(units)}")
    result = {
        "correct": failed == 0,
        "attempted": attempted,
        "failed": failed,
        "metrics": {
            name: {"value": float(metrics[name]), "unit": unit}
            for name, unit in units.items()
        },
    }
    record = {
        "workload": workload.name,
        "seed": args.seed,
        "seconds": args.seconds,
        "trace": args.trace,
        "host": host,
        "result": result,
        "samples": samples,
    }
    OUT.mkdir(exist_ok=True)
    with open(OUT / "runs.jsonl", "a") as runs:
        runs.write(json.dumps(record) + "\n")
    if args.trace:
        spans.write(
            OUT / f"trace-{workload.name}-seed{args.seed}.json", record
        )
        for name, seconds in sorted(
            spans.self_time_by_name().items(), key=lambda item: -item[1]
        ):
            print(f"# self {seconds:9.4f} s  {name}")
    for name, metric in result["metrics"].items():
        print(f"# {name} = {metric['value']:.6g} {metric['unit']}")
    print(json.dumps(result), flush=True)
    return 0


if __name__ == "__main__":
    raise SystemExit(main())
