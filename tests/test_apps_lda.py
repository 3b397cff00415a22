"""Tests for the LDA application (repro.apps.lda)."""

import numpy as np
import pytest

from repro.analysis.strategy import PlacementKind, Strategy
from repro.apps.lda import LDAApp, LDAHyper, build_orion_program
from repro.runtime.options import LoopOptions


def _count_invariants(doc_topic, word_topic, topic_sum, total_tokens):
    assert doc_topic.sum() == pytest.approx(total_tokens)
    assert word_topic.sum() == pytest.approx(total_tokens)
    assert topic_sum.sum() == pytest.approx(total_tokens)
    assert (doc_topic >= 0).all()
    assert (word_topic >= 0).all()
    assert (topic_sum >= 0).all()


class TestOrionProgram:
    def test_plan_is_two_d_unordered(self, corpus_small, cluster_tiny):
        program = build_orion_program(
            corpus_small, cluster=cluster_tiny, hyper=LDAHyper(num_topics=4)
        )
        assert program.plan.strategy is Strategy.TWO_D
        assert not program.plan.ordered

    def test_topic_sum_on_server(self, corpus_small, cluster_tiny):
        program = build_orion_program(
            corpus_small, cluster=cluster_tiny, hyper=LDAHyper(num_topics=4)
        )
        assert program.plan.placements["topic_sum"].kind is PlacementKind.SERVER
        assert program.plan.uses_buffers

    def test_counts_stay_consistent_after_epochs(self, corpus_small, cluster_tiny):
        program = build_orion_program(
            corpus_small, cluster=cluster_tiny, hyper=LDAHyper(num_topics=4)
        )
        program.run(3)
        _count_invariants(
            program.arrays["doc_topic"].values,
            program.arrays["word_topic"].values,
            program.arrays["topic_sum"].values,
            corpus_small.total_tokens,
        )

    def test_likelihood_improves(self, corpus_small, cluster_tiny):
        program = build_orion_program(
            corpus_small, cluster=cluster_tiny, hyper=LDAHyper(num_topics=4)
        )
        history = program.run(5)
        assert history.final_loss < history.meta["initial_loss"]

    def test_validation_clean(self, corpus_small, cluster_tiny):
        program = build_orion_program(
            corpus_small,
            cluster=cluster_tiny,
            hyper=LDAHyper(num_topics=4),
            options=LoopOptions(sanitize=True),
        )
        program.run(2)


class TestSerialApp:
    def test_apply_entry_preserves_counts(self, corpus_small):
        app = LDAApp(corpus_small, LDAHyper(num_topics=4))
        state = app.init_state(0)
        for key, value in app.entries()[:20]:
            app.apply_entry(state, key, value)
        _count_invariants(
            state["doc_topic"],
            state["word_topic"],
            state["topic_sum"],
            corpus_small.total_tokens,
        )

    def test_serial_pass_improves_likelihood(self, corpus_small):
        app = LDAApp(corpus_small, LDAHyper(num_topics=4))
        state = app.init_state(0)
        before = app.loss(state)
        for _ in range(3):
            for key, value in app.entries():
                app.apply_entry(state, key, value)
        assert app.loss(state) < before

    def test_init_state_resets_assignments(self, corpus_small):
        app = LDAApp(corpus_small, LDAHyper(num_topics=4))
        state = app.init_state(0)
        for key, value in app.entries():
            app.apply_entry(state, key, value)
        fresh = app.init_state(0)
        _count_invariants(
            fresh["doc_topic"],
            fresh["word_topic"],
            fresh["topic_sum"],
            corpus_small.total_tokens,
        )

    def test_entry_cost_scales_with_topics(self, corpus_small):
        few = LDAApp(corpus_small, LDAHyper(num_topics=4))
        many = LDAApp(corpus_small, LDAHyper(num_topics=16))
        assert many.entry_cost_factor > few.entry_cost_factor


class TestOneDVariant:
    """Table 2 lists LDA as "2D Unordered, 1D": the 1D program partitions
    over documents and buffers the word-topic updates too."""

    def test_plan_is_one_d_over_docs(self, corpus_small, cluster_tiny):
        program = build_orion_program(
            corpus_small,
            cluster=cluster_tiny,
            hyper=LDAHyper(num_topics=4),
            parallelism="1d",
        )
        assert program.plan.strategy is Strategy.ONE_D
        assert program.plan.space_dim == 0

    def test_word_topic_buffered_to_server(self, corpus_small, cluster_tiny):
        program = build_orion_program(
            corpus_small,
            cluster=cluster_tiny,
            hyper=LDAHyper(num_topics=4),
            parallelism="1d",
        )
        assert program.plan.placements["word_topic"].kind is PlacementKind.SERVER
        assert program.plan.placements["doc_topic"].kind is PlacementKind.LOCAL

    def test_converges(self, corpus_small, cluster_tiny):
        program = build_orion_program(
            corpus_small,
            cluster=cluster_tiny,
            hyper=LDAHyper(num_topics=4),
            parallelism="1d",
        )
        history = program.run(4)
        assert history.final_loss < history.meta["initial_loss"]

    def test_counts_stay_consistent(self, corpus_small, cluster_tiny):
        program = build_orion_program(
            corpus_small,
            cluster=cluster_tiny,
            hyper=LDAHyper(num_topics=4),
            parallelism="1d",
        )
        program.run(2)
        _count_invariants(
            program.arrays["doc_topic"].values,
            program.arrays["word_topic"].values,
            program.arrays["topic_sum"].values,
            corpus_small.total_tokens,
        )

    def test_unknown_parallelism_rejected(self, corpus_small, cluster_tiny):
        with pytest.raises(ValueError):
            build_orion_program(
                corpus_small, cluster=cluster_tiny, parallelism="3d"
            )
