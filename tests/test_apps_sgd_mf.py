"""Tests for the SGD MF application (repro.apps.sgd_mf)."""

import numpy as np
import pytest

from repro.analysis.strategy import PlacementKind, Strategy
from repro.apps.sgd_mf import (
    MFHyper,
    SGDMFApp,
    build_orion_program,
    mf_cost_model,
    nzsl,
)
from repro.runtime.cluster import ClusterSpec
from repro.runtime.options import LoopOptions


class TestLossFunction:
    def test_perfect_factorization_zero_loss(self):
        rng = np.random.default_rng(0)
        W = rng.standard_normal((3, 5))
        H = rng.standard_normal((3, 4))
        rows = np.array([0, 2, 4])
        cols = np.array([1, 3, 0])
        values = np.einsum("ki,ki->i", W[:, rows], H[:, cols])
        assert nzsl(W, H, rows, cols, values) == pytest.approx(0.0)

    def test_loss_counts_only_observed(self):
        W = np.zeros((2, 3))
        H = np.zeros((2, 3))
        rows = np.array([0])
        cols = np.array([0])
        values = np.array([2.0])
        assert nzsl(W, H, rows, cols, values) == pytest.approx(4.0)


class TestOrionProgram:
    def test_plan_matches_table2(self, mf_small, cluster_tiny):
        program = build_orion_program(mf_small, cluster=cluster_tiny)
        assert program.plan.strategy is Strategy.TWO_D
        assert not program.plan.ordered

    def test_factor_placements(self, mf_small, cluster_tiny):
        program = build_orion_program(mf_small, cluster=cluster_tiny)
        kinds = {
            name: placement.kind
            for name, placement in program.plan.placements.items()
        }
        # The iteration space itself is partitioned, not placed.
        assert "ratings" not in kinds
        assert {kinds["W"], kinds["H"]} == {
            PlacementKind.LOCAL,
            PlacementKind.ROTATED,
        }

    def test_loss_decreases(self, mf_small, cluster_tiny):
        program = build_orion_program(
            mf_small, cluster=cluster_tiny, hyper=MFHyper(rank=4, step_size=0.05)
        )
        history = program.run(6)
        assert history.final_loss < history.meta["initial_loss"]

    def test_validation_clean(self, mf_small, cluster_tiny):
        program = build_orion_program(
            mf_small, cluster=cluster_tiny, options=LoopOptions(sanitize=True)
        )
        program.run(2)  # raises SanitizerError on a race

    def test_validation_clean_ordered(self, mf_small, cluster_tiny):
        program = build_orion_program(
            mf_small, cluster=cluster_tiny, ordered=True,
            options=LoopOptions(sanitize=True),
        )
        history = program.run(2)  # raises SanitizerError on a race
        assert len(history.records) == 2

    def test_adarev_variant_runs_and_wins_early(self, mf_small, cluster_tiny):
        plain = build_orion_program(
            mf_small, cluster=cluster_tiny, hyper=MFHyper(rank=4, step_size=0.05)
        ).run(4)
        adarev = build_orion_program(
            mf_small, cluster=cluster_tiny, hyper=MFHyper(rank=4, adarev=True)
        ).run(4)
        assert adarev.final_loss < plain.final_loss

    def test_ordered_variant(self, mf_small, cluster_tiny):
        program = build_orion_program(mf_small, cluster=cluster_tiny, ordered=True)
        assert program.plan.ordered
        history = program.run(2)
        assert len(history.records) == 2

    def test_custom_label(self, mf_small, cluster_tiny):
        program = build_orion_program(mf_small, cluster=cluster_tiny, label="X")
        assert program.label == "X"


class TestSerialApp:
    def test_apply_entry_reduces_entry_error(self, mf_small):
        app = SGDMFApp(mf_small, MFHyper(rank=4, step_size=0.1))
        state = app.init_state(0)
        key, value = app.entries()[0]
        before = (value - state["W"][:, key[0]] @ state["H"][:, key[1]]) ** 2
        app.apply_entry(state, key, value)
        after = (value - state["W"][:, key[0]] @ state["H"][:, key[1]]) ** 2
        assert after < before

    def test_adarev_state_arrays(self, mf_small):
        app = SGDMFApp(mf_small, MFHyper(rank=4, adarev=True))
        state = app.init_state(0)
        assert set(state) == {"W", "H", "Wn2", "Hn2"}

    def test_entry_cost_factor_scales(self, mf_small):
        plain = SGDMFApp(mf_small, MFHyper(rank=8))
        heavy = SGDMFApp(mf_small, MFHyper(rank=8, adarev=True))
        assert heavy.entry_cost_factor > plain.entry_cost_factor

    def test_batch_gradient_descends(self, mf_small):
        app = SGDMFApp(mf_small, MFHyper(rank=4, step_size=0.05))
        state = app.init_state(0)
        before = app.loss(state)
        for _ in range(5):
            grads, counts = app.batch_gradient(state, app.entries())
            for name in grads:
                state[name] = state[name] - 0.05 * grads[name] / counts[name]
        assert app.loss(state) < before

    def test_clone_state_is_deep(self, mf_small):
        app = SGDMFApp(mf_small)
        state = app.init_state(0)
        clone = app.clone_state(state)
        clone["W"][:] = 0.0
        assert np.abs(state["W"]).sum() > 0

    def test_model_nbytes(self, mf_small):
        app = SGDMFApp(mf_small, MFHyper(rank=4))
        state = app.init_state(0)
        expected = 8 * 4 * (mf_small.num_rows + mf_small.num_cols)
        assert app.model_nbytes(state) == expected


class TestCostModel:
    def test_rank_scales_cost(self):
        small = mf_cost_model(MFHyper(rank=8))
        big = mf_cost_model(MFHyper(rank=32))
        assert big.entry_cost_s == pytest.approx(4 * small.entry_cost_s)

    def test_adarev_multiplier(self):
        plain = mf_cost_model(MFHyper(rank=8))
        ada = mf_cost_model(MFHyper(rank=8, adarev=True))
        assert ada.entry_cost_s / plain.entry_cost_s == pytest.approx(2.8)


class TestFig5EvaluationLoop:
    """Fig. 5's second parallel for-loop: accumulator-measured loss."""

    def test_accumulator_loss_matches_vectorized(self, mf_small, cluster_tiny):
        direct = build_orion_program(
            mf_small, cluster=cluster_tiny, hyper=MFHyper(rank=4)
        )
        looped = build_orion_program(
            mf_small, cluster=cluster_tiny, hyper=MFHyper(rank=4),
            eval_with_loop=True,
        )
        assert looped.loss_fn() == pytest.approx(direct.loss_fn(), rel=1e-9)

    def test_eval_loop_is_read_only_one_d(self, mf_small, cluster_tiny):
        program = build_orion_program(
            mf_small, cluster=cluster_tiny, eval_with_loop=True
        )
        eval_loop = program.meta["eval_loop"]
        assert eval_loop.plan.strategy is Strategy.ONE_D
        assert not eval_loop.plan.dvecs

    def test_loss_repeatable_after_reset(self, mf_small, cluster_tiny):
        program = build_orion_program(
            mf_small, cluster=cluster_tiny, eval_with_loop=True
        )
        first = program.loss_fn()
        second = program.loss_fn()
        assert first == pytest.approx(second)

    def test_training_history_with_loop_eval(self, mf_small, cluster_tiny):
        program = build_orion_program(
            mf_small, cluster=cluster_tiny, hyper=MFHyper(rank=4),
            eval_with_loop=True,
        )
        history = program.run(3)
        assert history.final_loss < history.meta["initial_loss"]
