"""Tests for the real multiprocess runtime (repro.runtime.distributed).

The headline property: running a compiled plan on forked OS processes with
IPC-mediated partition rotation produces *bitwise identical* parameters to
the simulated executor's linearization — the plans are truly executable by
a distributed runtime.
"""

import numpy as np
import pytest

from repro.apps import MFHyper, build_sgd_mf, build_slr
from repro.apps.slr import SLRHyper
from repro.data import netflix_like, sparse_classification
from repro.errors import ExecutionError
from repro.runtime.cluster import ClusterSpec
from repro.runtime.distributed import MultiprocessRunner


@pytest.fixture(scope="module")
def mf_data():
    return netflix_like(num_rows=36, num_cols=30, num_ratings=700, seed=61)


@pytest.fixture
def cluster():
    return ClusterSpec(num_machines=2, workers_per_machine=2)


def _mf_programs(mf_data, cluster, ordered=False):
    hyper = MFHyper(rank=4, step_size=0.05)
    simulated = build_sgd_mf(
        mf_data, cluster=cluster, hyper=hyper, seed=7, ordered=ordered
    )
    distributed = build_sgd_mf(
        mf_data, cluster=cluster, hyper=hyper, seed=7, ordered=ordered
    )
    return simulated, distributed


class TestBitwiseEquivalence:
    def test_unordered_2d(self, mf_data, cluster):
        simulated, distributed = _mf_programs(mf_data, cluster)
        simulated.run(3)
        with MultiprocessRunner(distributed.train_loop) as runner:
            for _ in range(3):
                runner.run_epoch()
        assert np.array_equal(
            simulated.arrays["W"].values, distributed.arrays["W"].values
        )
        assert np.array_equal(
            simulated.arrays["H"].values, distributed.arrays["H"].values
        )

    def test_ordered_2d(self, mf_data, cluster):
        simulated, distributed = _mf_programs(mf_data, cluster, ordered=True)
        simulated.run(2)
        with MultiprocessRunner(distributed.train_loop) as runner:
            for _ in range(2):
                runner.run_epoch()
        assert np.array_equal(
            simulated.arrays["W"].values, distributed.arrays["W"].values
        )

    def test_loss_progresses(self, mf_data, cluster):
        _sim, distributed = _mf_programs(mf_data, cluster)
        initial = distributed.loss_fn()
        with MultiprocessRunner(distributed.train_loop) as runner:
            for _ in range(4):
                runner.run_epoch()
        assert distributed.loss_fn() < initial


class TestProtocol:
    def test_block_count(self, mf_data, cluster):
        _sim, distributed = _mf_programs(mf_data, cluster)
        executor = distributed.train_loop.executor
        with MultiprocessRunner(distributed.train_loop) as runner:
            blocks = runner.run_epoch()
        assert blocks == executor.num_workers * executor.num_time

    def test_reusable_across_epochs(self, mf_data, cluster):
        _sim, distributed = _mf_programs(mf_data, cluster)
        runner = MultiprocessRunner(distributed.train_loop)
        try:
            first = distributed.loss_fn()
            runner.run_epoch()
            second = distributed.loss_fn()
            runner.run_epoch()
            third = distributed.loss_fn()
        finally:
            runner.close()
        assert third < second < first

    def test_close_is_idempotent(self, mf_data, cluster):
        _sim, distributed = _mf_programs(mf_data, cluster)
        runner = MultiprocessRunner(distributed.train_loop)
        runner.run_epoch()
        runner.close()
        runner.close()


class TestParameterServerPlans:
    """Buffered / server-array plans run with the master as a real
    parameter server: prefetched values ship with each block, buffered
    writes come back as flush messages and are applied through their UDFs."""

    def test_slr_trains_distributed(self, cluster):
        dataset = sparse_classification(
            num_samples=160, num_features=90, nnz_per_sample=5, seed=63
        )
        program = build_slr(dataset, cluster=cluster, hyper=SLRHyper(0.2))
        initial = program.loss_fn()
        with MultiprocessRunner(program.train_loop) as runner:
            for _ in range(3):
                runner.run_epoch()
        assert program.loss_fn() < initial

    def test_lda_counts_consistent_distributed(self, cluster):
        from repro.apps import LDAHyper, build_lda
        from repro.data import lda_corpus

        corpus = lda_corpus(
            num_docs=36, vocab_size=40, num_topics=4, doc_length=12, seed=65
        )
        program = build_lda(corpus, cluster=cluster, hyper=LDAHyper(num_topics=4))
        with MultiprocessRunner(program.train_loop) as runner:
            runner.run_epoch()
        assert program.arrays["doc_topic"].values.sum() == corpus.total_tokens
        assert program.arrays["word_topic"].values.sum() == corpus.total_tokens
        assert program.arrays["topic_sum"].values.sum() == corpus.total_tokens

    def test_mlp_accumulators_collected(self, cluster):
        from repro.apps.mlp import MLPHyper, build_orion_program, make_blobs

        entries = make_blobs(
            num_samples=120, num_features=5, num_classes=3, seed=67
        )
        program = build_orion_program(
            entries, 5, 3, cluster=cluster,
            hyper=MLPHyper(step_size=0.05, max_delay=8), seed=2,
        )
        initial = program.loss_fn()
        # The distributed runtime synchronizes buffers once per block (the
        # paper's once-per-partition bound), i.e. coarser than max_delay,
        # so convergence takes a few passes of whole-block staleness.
        with MultiprocessRunner(program.train_loop) as runner:
            for _ in range(4):
                runner.run_epoch()
        assert program.loss_fn() < initial
        assert program.ctx.get_aggregated_value("train_loss") > 0.0

    def test_unimodular_plan_executes_bitwise(self, cluster):
        """Unimodular plans run stepped: written arrays are server-placed
        dense (in-place shared-memory writes).  Time partitions can lump
        several transformed time values, so the master linearizes such
        steps task-by-task — reproducing the simulated linearization
        bitwise."""
        from repro.analysis.loop_info import analyze_loop_body
        from repro.analysis.strategy import choose_plan
        from repro.api import ParallelLoop
        from repro.core.distarray import DistArray
        from repro.runtime.executor import OrionExecutor

        def build():
            entries = [((i, j), 1.0) for i in range(6) for j in range(6)]
            space = DistArray.from_entries(
                entries, name="mp_uni", shape=(6, 6)
            ).materialize()
            grid = DistArray.randn(6, 6, name="mp_grid", seed=9).materialize()

            def body(key, value):
                left = grid[key[0], key[1] - 1]
                diag = grid[key[0] - 1, key[1] - 1]
                grid[key[0], key[1]] = 0.5 * (left + diag)

            info = analyze_loop_body(body, space, ordered=True)
            plan = choose_plan(info)
            executor = OrionExecutor(body, info, plan, cluster)
            return grid, ParallelLoop(None, body, info, plan, executor)

        grid_sim, loop_sim = build()
        grid_mp, loop_mp = build()
        assert loop_sim.plan.transform is not None
        loop_sim.run(2)
        with MultiprocessRunner(loop_mp) as runner:
            for _ in range(2):
                runner.run_epoch()
        assert np.array_equal(grid_sim.values, grid_mp.values)
