"""Tests for the SLR application (repro.apps.slr)."""

import numpy as np
import pytest

from repro.analysis.strategy import PlacementKind, Strategy
from repro.apps.slr import SLRApp, SLRHyper, build_orion_program, logistic_loss
from repro.runtime.options import LoopOptions


class TestOrionProgram:
    def test_plan_is_data_parallel(self, slr_small, cluster_tiny):
        program = build_orion_program(slr_small, cluster=cluster_tiny)
        assert program.plan.strategy is Strategy.DATA_PARALLEL
        assert program.plan.uses_buffers

    def test_weights_on_server_with_prefetch(self, slr_small, cluster_tiny):
        program = build_orion_program(slr_small, cluster=cluster_tiny)
        assert program.plan.placements["weights"].kind is PlacementKind.SERVER
        prefetch = program.train_loop.executor.prefetch.prefetch_fn
        assert prefetch is not None
        assert prefetch.arrays == ("weights",)

    def test_prefetch_indices_cover_features(self, slr_small, cluster_tiny):
        program = build_orion_program(slr_small, cluster=cluster_tiny)
        prefetch = program.train_loop.executor.prefetch.prefetch_fn
        key, sample = slr_small.entries[0]
        recorded = {idx[0] for _name, idx in prefetch(key, sample)}
        assert recorded == {fid for fid, _v in sample[0]}

    def test_loss_decreases(self, slr_small, cluster_tiny):
        program = build_orion_program(slr_small, cluster=cluster_tiny)
        history = program.run(4)
        assert history.final_loss < history.meta["initial_loss"]

    def test_adarev_variant_decreases(self, slr_small, cluster_tiny):
        program = build_orion_program(
            slr_small, cluster=cluster_tiny, hyper=SLRHyper(adarev=True)
        )
        history = program.run(4)
        assert history.final_loss < history.meta["initial_loss"]

    def test_validation_clean(self, slr_small, cluster_tiny):
        # Buffered writes are exempt from the same-step check (S605).
        program = build_orion_program(
            slr_small, cluster=cluster_tiny, options=LoopOptions(sanitize=True),
        )
        program.run(2)


class TestSerialApp:
    def test_serial_training_converges(self, slr_small):
        app = SLRApp(slr_small, SLRHyper(step_size=0.2))
        state = app.init_state(0)
        before = app.loss(state)
        for _ in range(4):
            for key, value in app.entries():
                app.apply_entry(state, key, value)
        after = app.loss(state)
        assert after < before
        assert after < 0.6  # meaningfully below chance-level log loss

    def test_only_sample_features_touched(self, slr_small):
        app = SLRApp(slr_small)
        state = app.init_state(0)
        key, value = app.entries()[0]
        app.apply_entry(state, key, value)
        touched = np.nonzero(state["weights"])[0]
        expected = {fid for fid, _v in value[0]}
        assert set(touched) <= expected

    def test_adarev_state(self, slr_small):
        app = SLRApp(slr_small, SLRHyper(adarev=True))
        state = app.init_state(0)
        assert "n2" in state
        key, value = app.entries()[0]
        app.apply_entry(state, key, value)
        assert state["n2"].max() > 1e-8

    def test_logistic_loss_at_zero_weights(self, slr_small):
        weights = np.zeros(slr_small.num_features)
        assert logistic_loss(weights, slr_small.entries) == pytest.approx(
            np.log(2.0)
        )
