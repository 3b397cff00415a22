"""The benchmark's own arithmetic: span self time, the time-to-target
rule, fail-rate counting and the names in ``BENCHMARK.json``.

    python3 -m pytest perfbench/tests -q
"""

from __future__ import annotations

import json
import re
import sys
from pathlib import Path

import pytest

HERE = Path(__file__).resolve().parent
ROOT = HERE.parent.parent
sys.path.insert(0, str(HERE.parent))
sys.path.insert(0, str(ROOT / "src"))

from measure import Trial, check_trials, fail_rate, time_to_target  # noqa: E402
from spans import Span, SpanRecorder, covered_length, self_times  # noqa: E402

NAME = re.compile(r"^[A-Za-z0-9][A-Za-z0-9_.-]{0,63}$")
UNIT = re.compile(r"^[A-Za-z0-9_/%.-]{1,16}$")


def test_self_time_subtracts_children_once():
    spans = [
        Span(0, "trial", 0.0, 10.0, None),
        Span(1, "build", 1.0, 4.0, 0),
        Span(2, "epoch", 3.0, 6.0, 0),  # overlaps build: union is 1..6
        Span(3, "inner", 1.5, 2.0, 1),
    ]
    own = self_times(spans)
    assert own[0] == pytest.approx(10.0 - 5.0)
    assert own[1] == pytest.approx(3.0 - 0.5)
    assert own[2] == pytest.approx(3.0)
    assert own[3] == pytest.approx(0.5)


def test_self_time_clips_children_to_the_parent():
    spans = [Span(0, "p", 0.0, 2.0, None), Span(1, "c", 1.0, 5.0, 0)]
    assert self_times(spans)[0] == pytest.approx(1.0)


def test_covered_length_merges_intervals():
    assert covered_length([(0, 2), (1, 3), (5, 6), (5.5, 5.7)]) == pytest.approx(4.0)
    assert covered_length([]) == 0.0


def test_recorder_nests_spans_and_totals_self_time():
    recorder = SpanRecorder()
    with recorder.span("outer"):
        with recorder.span("inner"):
            pass
    outer, inner = recorder.spans
    assert inner.parent == outer.id and outer.parent is None
    totals = recorder.self_time_by_name()
    assert totals["outer"] + totals["inner"] == pytest.approx(outer.duration)


def test_disabled_recorder_records_nothing():
    recorder = SpanRecorder(enabled=False)
    with recorder.span("x"):
        pass
    assert recorder.spans == []


def test_time_to_target_counts_setup_and_epochs_up_to_the_crossing():
    losses = [10.0, 8.0, 6.0, 4.0, 3.0]  # before training, then per epoch
    walls = [1.0, 2.0, 4.0]  # epochs 1..3 after the warm-up
    assert time_to_target(5.0, walls, losses, 8.0) == 5.0
    assert time_to_target(5.0, walls, losses, 6.0) == 6.0
    assert time_to_target(5.0, walls, losses, 4.0) == 8.0
    assert time_to_target(5.0, walls, losses, 3.5) == 12.0
    assert time_to_target(5.0, walls, losses, 2.0) is None


def test_time_to_target_ignores_the_loss_before_training():
    assert time_to_target(1.0, [], [1.0, 5.0], 2.0) is None


def test_fail_rate_counts_each_failed_epoch_once():
    clean, broken = Trial(attempted=5), Trial(attempted=4)
    broken.fail(3, "loss nan")
    broken.fail(3, "target not reached")
    broken.fail(1, "raised")
    assert fail_rate([clean, broken]) == pytest.approx(2 / 9)
    assert fail_rate([clean]) == 0.0


def _finished_trial(losses):
    return Trial(
        setup_s=1.0,
        steady_walls=[1.0] * (len(losses) - 2),
        losses=list(losses),
        attempted=len(losses) - 1,
    )


def test_checks_fail_the_last_epoch_of_a_missed_or_diverging_trial():
    from workloads import WORKLOADS

    workload = WORKLOADS["lda-ps-mp2"]  # target: 0.9943 x the initial loss
    good = [10.0, 9.99, 9.9, 9.8]
    trials = [
        _finished_trial(good),
        _finished_trial(good),
        _finished_trial([10.0, 9.99, 9.98, 9.97]),  # misses and diverges
        Trial(attempted=2, raised=True, failed={1}),
    ]
    check_trials(workload, trials)
    assert [len(t.failed) for t in trials] == [0, 0, 1, 1]
    assert trials[2].failed == {2} and len(trials[2].reasons) == 2
    assert fail_rate(trials) == pytest.approx(2 / 11)


def test_benchmark_names_and_units_are_valid():
    spec = json.loads((ROOT / "BENCHMARK.json").read_text())
    assert set(spec) == {
        "command", "paths", "run_seconds", "workloads", "end_to_end",
        "per_layer",
    }
    names = [w["name"] for w in spec["workloads"]]
    for metric in spec["end_to_end"] + spec["per_layer"]:
        names.append(metric["name"])
        assert UNIT.match(metric["unit"]), metric
    for name in names:
        assert NAME.match(name), name
    assert len(names) == len(set(names))
    assert any(
        m["name"] == "setup_s" and m["unit"] == "s" and m["better"] == "lower"
        for m in spec["end_to_end"]
    )
    assert all(0 < m["bound"] <= 0.25 for m in spec["end_to_end"])


def test_every_workload_in_benchmark_json_is_defined():
    from workloads import WORKLOADS

    spec = json.loads((ROOT / "BENCHMARK.json").read_text())
    assert {w["name"] for w in spec["workloads"]} <= set(WORKLOADS)
