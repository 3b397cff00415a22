PYTHON ?= python
export PYTHONPATH := src$(if $(PYTHONPATH),:$(PYTHONPATH))

.PHONY: check compile test trace-smoke fault-smoke distributed-smoke \
	lint-smoke sanitize-smoke synth-smoke perf-smoke tune-smoke \
	bench-smoke bench-distributed clean

## Default verification: imports compile, tier-1 tests pass, the tracing
## pipeline produces a loadable Perfetto trace end to end, the
## fault-injection/recovery story holds its invariants, the forked
## multiprocess backend stays bitwise-faithful to the simulated oracle,
## every bundled app lints clean, sanitize mode passes a mini-run of
## each parallelization strategy on both backends, kernel synthesis
## emits equivalence-checked kernels for the batchable apps, and
## `repro perf` regression detection passes clean seeded runs while
## flagging an artificial slowdown, and the adaptive tuner recovers a
## deliberately mistuned pipeline depth.
check: compile test trace-smoke fault-smoke distributed-smoke lint-smoke \
	sanitize-smoke synth-smoke perf-smoke tune-smoke

compile:
	$(PYTHON) -m compileall -q src

test:
	$(PYTHON) -m pytest -x -q

## Run the quickstart with tracing enabled and validate the exported
## trace.json against the Chrome trace-event schema.
trace-smoke:
	REPRO_TRACE=trace.json $(PYTHON) examples/quickstart.py > /dev/null
	$(PYTHON) -c "import json; from repro.obs import validate_chrome_trace; \
	trace = json.load(open('trace.json')); problems = validate_chrome_trace(trace); \
	assert not problems, problems; \
	print('trace.json ok:', len(trace['traceEvents']), 'events')"

## Crash/drop/straggler injection end to end: the example asserts the
## faulted run recovers to bit-equal parameters and only costs virtual
## time, and that the no-plan path stays bit-identical.
fault-smoke:
	$(PYTHON) examples/fault_tolerance.py > /dev/null
	@echo "fault-smoke ok"

## Tiny-dataset pass of the multiprocess backend on all four apps;
## asserts the SGD MF run is bitwise identical to the simulated oracle.
distributed-smoke:
	$(PYTHON) benchmarks/bench_distributed.py --smoke
	@echo "distributed-smoke ok"

## Style lint (ruff, skipped when not installed) plus `repro lint` on
## every bundled app: no error-severity diagnostics allowed, and the
## demo catalog must keep demonstrating its codes.
lint-smoke:
	@if command -v ruff > /dev/null 2>&1; then \
		ruff check src tests examples benchmarks; \
	else \
		echo "ruff not installed; skipping style lint"; \
	fi
	@for app in mf mf-adarev lda lda-1d slr gbt; do \
		$(PYTHON) -m repro.cli lint $$app --scale 0.25 > /dev/null \
			|| exit 1; \
		echo "lint $$app ok"; \
	done
	$(PYTHON) -m repro.cli lint demo > /dev/null
	@echo "lint-smoke ok"

## Shadow-access race detection over one mini-epoch of each strategy:
## 2D unordered (mf), 2D ordered (mf --engine orion-ordered), 1D (lda-1d),
## data parallelism (slr), multi-loop (gbt) — simulated backend — plus a
## multiprocess spot check and the ordered unimodular wavefront example
## (three sanitized epochs). Any S6xx violation fails the run.
sanitize-smoke:
	@for app in mf lda-1d slr gbt; do \
		$(PYTHON) -m repro.cli $$app --sanitize --epochs 1 \
			--scale 0.3 > /dev/null || exit 1; \
		echo "sanitize $$app (simulated) ok"; \
	done
	$(PYTHON) -m repro.cli mf --sanitize --engine orion-ordered \
		--epochs 1 --scale 0.3 > /dev/null
	@echo "sanitize mf (ordered) ok"
	$(PYTHON) -m repro.cli mf --sanitize --backend multiprocess \
		--epochs 1 --scale 0.3 > /dev/null
	@echo "sanitize mf (multiprocess) ok"
	$(PYTHON) examples/wavefront_smoothing.py > /dev/null
	@echo "sanitize wavefront (unimodular) ok"
	@echo "sanitize-smoke ok"

## Kernel synthesis over every bundled app: the batchable bodies
## (mf, mf-adarev, glove, slr, gbt's histogram loop) must emit a kernel and survive an
## equivalence-checked epoch (bitwise state + accounting vs the scalar
## interpreter); the rest must fall back cleanly (exit 1, W50x
## diagnostic) rather than fail.
synth-smoke:
	@for app in mf mf-adarev glove slr gbt; do \
		$(PYTHON) -m repro.cli synth $$app --scale 0.25 --check \
			> /dev/null || exit 1; \
		echo "synth $$app ok (equivalence-checked)"; \
	done
	@for app in lda lda-1d; do \
		$(PYTHON) -m repro.cli synth $$app --scale 0.25 > /dev/null; \
		code=$$?; \
		if [ $$code -ne 1 ]; then \
			echo "synth $$app: expected fallback exit 1, got $$code"; \
			exit 1; \
		fi; \
		echo "synth $$app ok (clean fallback)"; \
	done
	@echo "synth-smoke ok"

## Run-store regression detection end to end: two identical seeded runs
## must record, compare and check clean (virtual-clock determinism =>
## zero noise margin), then a run artificially slowed 2.5x via an
## explicit straggler plan must be flagged by `repro perf check`.
perf-smoke:
	rm -rf .repro_runs_smoke
	$(PYTHON) -m repro.cli slr --engine orion --epochs 2 --scale 0.3 \
		--run-store .repro_runs_smoke > /dev/null
	$(PYTHON) -m repro.cli slr --engine orion --epochs 2 --scale 0.3 \
		--run-store .repro_runs_smoke > /dev/null
	$(PYTHON) -m repro.cli perf compare --store .repro_runs_smoke
	$(PYTHON) -m repro.cli perf check --store .repro_runs_smoke
	$(PYTHON) -m repro.cli slr --engine orion --epochs 2 --scale 0.3 \
		--run-store .repro_runs_smoke --slow-factor 2.5 > /dev/null
	@if $(PYTHON) -m repro.cli perf check --store .repro_runs_smoke; then \
		echo "perf-smoke: 2.5x slowdown was NOT flagged"; exit 1; \
	else \
		echo "perf-smoke ok (slowdown flagged)"; \
	fi
	rm -rf .repro_runs_smoke

## Adaptive-tuner recovery end to end (see docs/tuning.md): SGD MF
## deliberately mistuned to pipeline_depth=1 must converge to within 5%
## of the best fixed depth by epoch 3 (exit 0 from `repro tune`), and a
## follow-up `--mode cached` run against the same store must start at
## the persisted winner from epoch 1.
tune-smoke:
	rm -rf .repro_tune_smoke
	$(PYTHON) -m repro.cli tune mf --depth 1 --epochs 4 \
		--store .repro_tune_smoke
	$(PYTHON) -m repro.cli tune mf --depth 1 --epochs 3 \
		--mode cached --store .repro_tune_smoke
	rm -rf .repro_tune_smoke
	@echo "tune-smoke ok"

## Wall-clock kernel-vs-scalar throughput; writes BENCH_wallclock.json.
bench-smoke:
	$(PYTHON) benchmarks/bench_wallclock.py

## Real forked-worker scaling (1/2/4 workers, all four apps) vs the
## single-process scalar baseline; writes BENCH_distributed.json.
bench-distributed:
	$(PYTHON) benchmarks/bench_distributed.py

clean:
	find . -name __pycache__ -type d -prune -exec rm -rf {} +
	rm -rf .pytest_cache trace.json .repro_runs .repro_runs_smoke \
		.repro_tune_smoke
