"""The repro.faults subsystem: deterministic injection, recovery, options.

Covers the fault-injection contract end to end:

* determinism — identical plans produce identical timing and traffic;
* the chaos property — faults cost virtual time, never data: any fault
  plan leaves final parameters bit-identical to the fault-free run;
* crash recovery — replay from the latest complete checkpoint (or the
  initial snapshot) converges to the fault-free state;
* retry/backoff accounting, straggler slowdowns, manifest completeness;
* the LoopOptions / Observability API consolidation.
"""

import json
import math
import os
import subprocess
import sys

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from repro.api import OrionContext
from repro.apps import MFHyper, build_sgd_mf
from repro.baselines import run_bosen
from repro.data import netflix_like
from repro.errors import FaultError
from repro.faults import (
    FaultPlan,
    FaultyLink,
    MessageDrops,
    RecoveryCosts,
    Straggler,
    WorkerCrash,
)
from repro.faults.plan import stable_uniform
from repro.obs import MetricsRegistry, Observability, Tracer
from repro.runtime.checkpoint import (
    CheckpointConfig,
    checkpoint_arrays,
    latest_complete_tag,
    manifest_meta,
    manifest_path,
)
from repro.runtime.cluster import ClusterSpec
from repro.runtime.network import RetryPolicy
from repro.runtime.options import LoopOptions


@pytest.fixture(scope="module")
def mf_data():
    return netflix_like(num_rows=24, num_cols=20, num_ratings=420, seed=5)


@pytest.fixture
def cluster():
    return ClusterSpec(num_machines=2, workers_per_machine=2)


def _program(mf_data, cluster, **kw):
    return build_sgd_mf(
        mf_data, cluster=cluster, hyper=MFHyper(rank=4, step_size=0.05),
        seed=7, **kw,
    )


def _final_state(program):
    return {
        name: program.arrays[name].values.copy() for name in ("W", "H")
    }


def _states_equal(a, b):
    return all(np.array_equal(a[name], b[name]) for name in a)


# --------------------------------------------------------------------- #
# Plans: construction, determinism, parsing                              #
# --------------------------------------------------------------------- #


class TestFaultPlan:
    def test_random_is_deterministic(self):
        a = FaultPlan.random(seed=11, epochs=6, num_workers=4, crashes=2,
                             stragglers=1, drop_probability=0.05)
        b = FaultPlan.random(seed=11, epochs=6, num_workers=4, crashes=2,
                             stragglers=1, drop_probability=0.05)
        assert a.crashes == b.crashes
        assert a.stragglers == b.stragglers
        assert a.drops == b.drops

    def test_from_spec_round_trip(self):
        plan = FaultPlan.from_spec(
            "seed=7,crashes=1,drops=0.02,stragglers=1,slowdown=3.0",
            epochs=4, num_workers=4,
        )
        assert plan.seed == 7
        assert len(plan.crashes) == 1
        assert len(plan.stragglers) == 1
        assert plan.drops is not None
        assert plan.drops.probability == pytest.approx(0.02)

    def test_from_spec_unknown_key(self):
        with pytest.raises(FaultError):
            FaultPlan.from_spec("bogus=1", epochs=2, num_workers=2)

    def test_crash_validation(self):
        with pytest.raises(FaultError):
            WorkerCrash(worker=0)  # neither at_s nor epoch
        with pytest.raises(FaultError):
            WorkerCrash(worker=0, at_s=1.0, epoch=2)  # both

    def test_claim_crash_fires_once(self):
        plan = FaultPlan(crashes=(WorkerCrash(worker=1, epoch=2),))
        assert plan.claim_crash(1, 0.0, 1.0) is None
        fired = plan.claim_crash(2, 1.0, 2.0)
        assert fired is not None
        assert fired.at_s == pytest.approx(1.5)
        assert plan.claim_crash(2, 2.0, 3.0) is None  # one-shot
        plan.reset()
        assert plan.claim_crash(2, 1.0, 2.0) is not None

    def test_drop_count_is_order_independent(self):
        plan = FaultPlan(drops=MessageDrops(probability=0.4, seed=9))
        keys = [("flush", 0, 1), ("rotation", 2, 3), ("sync", 0)]
        forward = [plan.drop_count(4, key) for key in keys]
        backward = [plan.drop_count(4, key) for key in reversed(keys)]
        assert forward == backward[::-1]

    def test_drops_independent_of_hash_seed(self):
        # String parts of a message key must not go through the salted
        # hash(): the same plan gives the same drops in every process.
        script = (
            "import json\n"
            "from repro.apps import MFHyper, build_sgd_mf\n"
            "from repro.data import netflix_like\n"
            "from repro.faults import FaultPlan\n"
            "from repro.obs import MetricsRegistry, Observability\n"
            "from repro.runtime.cluster import ClusterSpec\n"
            "from repro.runtime.options import LoopOptions\n"
            "cluster = ClusterSpec(num_machines=2, workers_per_machine=2)\n"
            "plan = FaultPlan.from_spec('seed=7,drops=0.02', epochs=3, "
            "num_workers=cluster.num_workers)\n"
            "metrics = MetricsRegistry()\n"
            "data = netflix_like(num_rows=40, num_cols=32, num_ratings=600, "
            "seed=1)\n"
            "history = build_sgd_mf(data, cluster=cluster, "
            "hyper=MFHyper(rank=2), seed=7, options=LoopOptions(faults=plan, "
            "obs=Observability(metrics=metrics))).run(3)\n"
            "print(json.dumps([metrics.counter('message_drops_total').value, "
            "[(r.epoch_time_s, r.bytes_sent) for r in history.records]]))\n"
        )
        src = os.path.join(os.path.dirname(__file__), os.pardir, "src")
        outputs = []
        for hash_seed in ("0", "1"):
            env = dict(
                os.environ,
                PYTHONPATH=os.path.abspath(src),
                PYTHONHASHSEED=hash_seed,
            )
            proc = subprocess.run(
                [sys.executable, "-c", script], env=env,
                capture_output=True, text=True,
            )
            assert proc.returncode == 0, proc.stderr
            outputs.append(json.loads(proc.stdout))
        drops, _epochs = outputs[0]
        assert drops > 0
        assert outputs[0] == outputs[1]

    def test_stable_uniform_range(self):
        values = [stable_uniform(i, "x", 3) for i in range(200)]
        assert all(0.0 <= v < 1.0 for v in values)
        assert len(set(values)) > 150  # actually varies

    def test_straggle_factors_window_overlap(self):
        plan = FaultPlan(
            stragglers=(Straggler(worker=0, slowdown=3.0, t_start=0.5,
                                  t_end=1.0),)
        )
        # Epoch fully inside the window: full slowdown.
        assert plan.straggle_factors(1, 0.5, 1.0)[0] == pytest.approx(3.0)
        # Half overlap: factor interpolates.
        partial = plan.straggle_factors(1, 0.25, 0.75)[0]
        assert 1.0 < partial < 3.0
        # Disjoint: no factor.
        assert 0 not in plan.straggle_factors(1, 2.0, 3.0)


class TestRetryPolicy:
    def test_penalty_math(self):
        retry = RetryPolicy(timeout_s=1.0, backoff_s=0.5, multiplier=2.0,
                            max_attempts=4)
        assert retry.penalty_s(0) == 0.0
        assert retry.penalty_s(1) == pytest.approx(1.5)
        assert retry.penalty_s(2) == pytest.approx(1.5 + 2.0)

    def test_link_accounting(self, cluster):
        plan = FaultPlan(drops=MessageDrops(probability=0.9, seed=1))
        metrics = MetricsRegistry()
        link = FaultyLink(plan, cluster.network, metrics=metrics)
        link.begin_epoch(1)
        outcome = link.transfer(1000.0, key=("flush", 0, 0))
        assert outcome.attempts >= 1
        assert outcome.nbytes_sent == pytest.approx(1000.0 * outcome.attempts)
        base = cluster.network.transfer_time(1000.0)
        drops = outcome.attempts - 1
        assert outcome.seconds == pytest.approx(
            base + plan.retry.penalty_s(drops)
        )
        # Memoized: same key, same outcome object semantics.
        again = link.transfer(1000.0, key=("flush", 0, 0))
        assert again == outcome
        snapshot = metrics.snapshot()
        assert snapshot.get("messages_total") >= 1


# --------------------------------------------------------------------- #
# Options / Observability consolidation                                  #
# --------------------------------------------------------------------- #


class TestLoopOptions:
    def test_observability_resolution(self):
        tracer, metrics = Tracer(), MetricsRegistry()
        obs = Observability(tracer=tracer, metrics=metrics)
        # Bundle alone.
        r = Observability.resolve(obs=obs)
        assert r.tracer is tracer and r.metrics is metrics
        # Explicit component wins over bundle.
        other = Tracer()
        r = Observability.resolve(obs=obs, tracer=other)
        assert r.tracer is other and r.metrics is metrics
        # Default fills the gaps.
        r = Observability.resolve(default=obs)
        assert r.tracer is tracer
        # Nothing: the disabled singletons.
        r = Observability.resolve()
        assert not r.enabled_any

    def test_context_obs_kwarg(self, cluster):
        obs = Observability.enabled()
        ctx = OrionContext(cluster=cluster, obs=obs)
        assert ctx.tracer is obs.tracer
        assert ctx.metrics is obs.metrics


# --------------------------------------------------------------------- #
# Orion executor: determinism, recovery, accounting                      #
# --------------------------------------------------------------------- #


class TestOrionFaults:
    def test_no_fault_options_bit_identical(self, mf_data, cluster):
        plain = _program(mf_data, cluster)
        opted = _program(mf_data, cluster, options=LoopOptions())
        h1, h2 = plain.run(3), opted.run(3)
        assert [r.time_s for r in h1.records] == [r.time_s for r in h2.records]
        assert _states_equal(_final_state(plain), _final_state(opted))

    def test_fault_run_is_deterministic(self, mf_data, cluster):
        def run():
            plan = FaultPlan(
                crashes=(WorkerCrash(worker=1, epoch=2, frac=0.4),),
                drops=MessageDrops(probability=0.05, seed=3),
            )
            program = _program(mf_data, cluster,
                               options=LoopOptions(faults=plan))
            history = program.run(4)
            return history, _final_state(program)

        h1, s1 = run()
        h2, s2 = run()
        assert [r.time_s for r in h1.records] == [r.time_s for r in h2.records]
        assert _states_equal(s1, s2)

    def test_crash_recovery_matches_fault_free(self, mf_data, cluster,
                                               tmp_path):
        clean = _program(mf_data, cluster)
        clean_history = clean.run(5)

        plan = FaultPlan(crashes=(WorkerCrash(worker=0, epoch=4, frac=0.5),))
        ckpt = CheckpointConfig(directory=str(tmp_path), every_n_epochs=2)
        program = _program(mf_data, cluster,
                           options=LoopOptions(faults=plan, checkpoint=ckpt))
        history = program.run(5)

        # Same final parameters, same loss curve values, more virtual time.
        assert _states_equal(_final_state(clean), _final_state(program))
        assert history.final_loss == pytest.approx(clean_history.final_loss)
        assert history.total_time_s > clean_history.total_time_s
        assert history.meta["recoveries"] == 1
        # The crash at epoch 4 replayed from the epoch-2 checkpoint.
        assert latest_complete_tag(str(tmp_path)) is not None

    def test_crash_before_first_checkpoint(self, mf_data, cluster):
        clean = _program(mf_data, cluster)
        clean.run(3)

        plan = FaultPlan(crashes=(WorkerCrash(worker=1, epoch=1, frac=0.2),))
        program = _program(mf_data, cluster,
                           options=LoopOptions(faults=plan))
        history = program.run(3)
        assert _states_equal(_final_state(clean), _final_state(program))
        assert history.meta["recoveries"] == 1

    def test_drops_cost_time_not_data(self, mf_data, cluster):
        clean = _program(mf_data, cluster)
        clean_history = clean.run(3)

        plan = FaultPlan(drops=MessageDrops(probability=0.2, seed=8))
        program = _program(mf_data, cluster,
                           options=LoopOptions(faults=plan))
        history = program.run(3)
        assert _states_equal(_final_state(clean), _final_state(program))
        assert history.total_time_s > clean_history.total_time_s
        # Resends inflate traffic.
        dropped_bytes = sum(r.bytes_sent for r in history.records)
        clean_bytes = sum(r.bytes_sent for r in clean_history.records)
        assert dropped_bytes > clean_bytes

    def test_drops_ordered_schedule(self, mf_data, cluster):
        clean = _program(mf_data, cluster, ordered=True)
        clean_history = clean.run(2)
        plan = FaultPlan(drops=MessageDrops(probability=0.3, seed=2))
        program = _program(mf_data, cluster, ordered=True,
                           options=LoopOptions(faults=plan))
        history = program.run(2)
        assert _states_equal(_final_state(clean), _final_state(program))
        assert history.total_time_s > clean_history.total_time_s

    def test_straggler_inflates_epoch(self, mf_data, cluster):
        clean = _program(mf_data, cluster)
        clean_history = clean.run(3)

        plan = FaultPlan(
            stragglers=(Straggler(worker=0, slowdown=4.0, epoch=2),)
        )
        program = _program(mf_data, cluster,
                           options=LoopOptions(faults=plan))
        history = program.run(3)
        assert _states_equal(_final_state(clean), _final_state(program))
        # Only epoch 2 slows down.
        assert history.records[0].epoch_time_s == pytest.approx(
            clean_history.records[0].epoch_time_s
        )
        assert (
            history.records[1].epoch_time_s
            > clean_history.records[1].epoch_time_s
        )

    def test_fault_spans_and_metrics(self, mf_data, cluster, tmp_path):
        obs = Observability.enabled()
        plan = FaultPlan(crashes=(WorkerCrash(worker=0, epoch=2, frac=0.5),))
        ckpt = CheckpointConfig(directory=str(tmp_path), every_n_epochs=1)
        program = _program(
            mf_data, cluster,
            options=LoopOptions(faults=plan, checkpoint=ckpt, obs=obs),
        )
        program.run(3)
        cats = {span.cat for span in obs.tracer.spans}
        assert "fault" in cats
        assert "recovery" in cats
        assert "checkpoint" in cats
        snapshot = obs.metrics.snapshot()
        assert snapshot["worker_crashes_total"] == 1
        assert snapshot["recoveries_total"] == 1
        assert snapshot["checkpoints_total"] >= 1


# --------------------------------------------------------------------- #
# Checkpoint manifests                                                   #
# --------------------------------------------------------------------- #


class TestManifests:
    def _array(self, ctx, name):
        array = ctx.randn(4, 4, name=name)
        ctx.materialize(array)
        return array

    def test_latest_complete_skips_partial(self, cluster, tmp_path):
        ctx = OrionContext(cluster=cluster, seed=1)
        array = self._array(ctx, "A")
        checkpoint_arrays([array], str(tmp_path), "epoch2",
                          meta={"epoch": 2})
        checkpoint_arrays([array], str(tmp_path), "epoch4",
                          meta={"epoch": 4})
        # Corrupt epoch4: manifest present but an array file missing.
        import json
        import os

        with open(manifest_path(str(tmp_path), "epoch4")) as handle:
            manifest = json.load(handle)
        victim = next(iter(manifest["files"].values()))
        os.remove(os.path.join(str(tmp_path), victim))
        assert latest_complete_tag(str(tmp_path)) == "epoch2"
        assert manifest_meta(str(tmp_path), "epoch2")["epoch"] == 2

    def test_latest_complete_orders_by_epoch(self, cluster, tmp_path):
        ctx = OrionContext(cluster=cluster, seed=1)
        array = self._array(ctx, "A")
        # Written out of lexicographic order: epoch10 > epoch9 numerically.
        checkpoint_arrays([array], str(tmp_path), "epoch9",
                          meta={"epoch": 9})
        checkpoint_arrays([array], str(tmp_path), "epoch10",
                          meta={"epoch": 10})
        assert latest_complete_tag(str(tmp_path)) == "epoch10"


# --------------------------------------------------------------------- #
# Baselines                                                              #
# --------------------------------------------------------------------- #


class TestBosenFaults:
    def _app(self, mf_data):
        from repro.apps import SGDMFApp

        return SGDMFApp(mf_data, MFHyper(rank=4, step_size=0.05))

    def test_no_fault_bit_identical(self, mf_data, cluster):
        app = self._app(mf_data)
        h1 = run_bosen(app, cluster, epochs=3, seed=2)
        app2 = self._app(mf_data)
        h2 = run_bosen(app2, cluster, epochs=3, seed=2, faults=None)
        assert [r.loss for r in h1.records] == [r.loss for r in h2.records]
        assert [r.time_s for r in h1.records] == [r.time_s for r in h2.records]

    def test_crash_recovery_matches_fault_free(self, mf_data, cluster):
        app = self._app(mf_data)
        clean = run_bosen(app, cluster, epochs=4, seed=2)

        plan = FaultPlan(crashes=(WorkerCrash(worker=1, epoch=3, frac=0.5),))
        app2 = self._app(mf_data)
        faulted = run_bosen(app2, cluster, epochs=4, seed=2, faults=plan,
                            ckpt_every=2)
        assert faulted.meta["recoveries"] == 1
        assert faulted.final_loss == pytest.approx(clean.final_loss)
        for name, value in clean.meta["state"].items():
            assert np.array_equal(value, faulted.meta["state"][name])
        assert faulted.total_time_s > clean.total_time_s

    def test_drops_and_stragglers_cost_time(self, mf_data, cluster):
        app = self._app(mf_data)
        clean = run_bosen(app, cluster, epochs=3, seed=2)
        plan = FaultPlan(
            drops=MessageDrops(probability=0.3, seed=4),
            stragglers=(Straggler(worker=0, slowdown=3.0, epoch=1),),
        )
        app2 = self._app(mf_data)
        faulted = run_bosen(app2, cluster, epochs=3, seed=2, faults=plan)
        assert faulted.final_loss == pytest.approx(clean.final_loss)
        assert faulted.total_time_s > clean.total_time_s


class TestCLI:
    def test_faults_smoke(self, mf_data, tmp_path, capsys):
        import io

        from repro.cli import main

        out = io.StringIO()
        code = main(
            [
                "mf", "--engine", "orion", "--epochs", "4",
                "--scale", "0.2",
                "--faults", "seed=5,crashes=1",
                "--ckpt-every", "2", "--ckpt-dir", str(tmp_path),
            ],
            out=out,
        )
        assert code == 0
        text = out.getvalue()
        assert "crash recoveries: 1" in text

    def test_faults_bosen_smoke(self, tmp_path):
        import io

        from repro.cli import main

        out = io.StringIO()
        code = main(
            [
                "mf", "--engine", "bosen", "--epochs", "3",
                "--scale", "0.2", "--faults", "seed=1,drops=0.05",
            ],
            out=out,
        )
        assert code == 0


# --------------------------------------------------------------------- #
# Chaos property                                                         #
# --------------------------------------------------------------------- #


class TestChaos:
    @settings(max_examples=8, deadline=None)
    @given(
        seed=st.integers(min_value=0, max_value=10_000),
        crashes=st.integers(min_value=0, max_value=2),
        drop_p=st.floats(min_value=0.0, max_value=0.3),
        stragglers=st.integers(min_value=0, max_value=1),
    )
    def test_random_faults_never_corrupt_state(self, seed, crashes, drop_p,
                                               stragglers):
        mf_data = netflix_like(num_rows=16, num_cols=12, num_ratings=160,
                               seed=3)
        cluster = ClusterSpec(num_machines=2, workers_per_machine=2)
        epochs = 3

        clean = _program(mf_data, cluster)
        clean_history = clean.run(epochs)

        plan = FaultPlan.random(
            seed=seed, epochs=epochs, num_workers=cluster.num_workers,
            crashes=crashes, stragglers=stragglers,
            drop_probability=drop_p,
        )
        program = _program(mf_data, cluster,
                           options=LoopOptions(faults=plan))
        history = program.run(epochs)

        # Faults cost virtual time, never data.
        assert _states_equal(_final_state(clean), _final_state(program))
        assert history.final_loss == pytest.approx(clean_history.final_loss)
        assert history.total_time_s >= clean_history.total_time_s
        assert math.isfinite(history.total_time_s)
