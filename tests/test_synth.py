"""Automatic kernel synthesis (repro.analysis.synth).

Synthesized kernels carry the same contract as hand kernels — bit-identical
DistArray/buffer state and identical accounting to the scalar interpreter —
so these tests run every bundled app under ``kernel="auto"`` against the
scalar path on both backends and compare exactly, exercise the built-in
``equivalence_check`` and sanitizer over synthesized kernels, and pin the
fallback story: bodies synthesis cannot batch run scalar with a W50x
diagnostic, never an error.
"""

import io

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from repro import cli
from repro.api import OrionContext
from repro.apps import (
    build_gbt,
    build_glove,
    build_lda,
    build_mlp,
    build_sgd_mf,
    build_slr,
    cooccurrence_corpus,
)
from repro.apps.base import resolve_kernel_option
from repro.apps.mlp import make_blobs
from repro.apps.sgd_mf import MFHyper
from repro.analysis.synth import synth_report, synthesize_kernel
from repro.data.synthetic import (
    lda_corpus,
    netflix_like,
    regression_table,
    sparse_classification,
)
from repro.core.distarray import DistArray
from repro.runtime.cluster import ClusterSpec
from repro.runtime.executor import ExecutionError, kernel_batching_legal
from repro.runtime.kernels import conflict_free_groups_nd, scalar_pow
from repro.runtime.options import LoopOptions


# --------------------------------------------------------------------------- #
# app registry: builder(cluster, use_kernel, options) -> program
# --------------------------------------------------------------------------- #


def _mf(cluster, use_kernel, options=None):
    data = netflix_like(num_rows=36, num_cols=28, num_ratings=320, seed=5)
    return build_sgd_mf(data, cluster=cluster, use_kernel=use_kernel, options=options)


def _mf_adarev(cluster, use_kernel, options=None):
    data = netflix_like(num_rows=36, num_cols=28, num_ratings=320, seed=5)
    return build_sgd_mf(
        data, cluster=cluster, hyper=MFHyper(adarev=True),
        use_kernel=use_kernel, options=options,
    )


def _glove(cluster, use_kernel, options=None):
    data = cooccurrence_corpus(vocab_size=36, num_tokens=1400, seed=6)
    return build_glove(data, cluster=cluster, use_kernel=use_kernel, options=options)


def _slr(cluster, use_kernel, options=None):
    data = sparse_classification(
        num_samples=110, num_features=70, nnz_per_sample=6, seed=7
    )
    return build_slr(data, cluster=cluster, use_kernel=use_kernel, options=options)


def _gbt(cluster, use_kernel, options=None):
    data = regression_table(num_samples=110, num_features=4, seed=8)
    return build_gbt(data, cluster=cluster, use_kernel=use_kernel, options=options)


def _lda(cluster, use_kernel, options=None):
    data = lda_corpus(
        num_docs=18, vocab_size=30, num_topics=4, doc_length=10, seed=9
    )
    return build_lda(data, cluster=cluster, use_kernel=use_kernel, options=options)


def _mlp(cluster, use_kernel, options=None):
    data = make_blobs(num_samples=90, num_features=5, num_classes=3, seed=10)
    return build_mlp(data, 5, 3, cluster=cluster, use_kernel=use_kernel, options=options)


APPS = {
    "mf": _mf,
    "mf-adarev": _mf_adarev,
    "glove": _glove,
    "slr": _slr,
    "gbt": _gbt,
    "lda": _lda,
    "mlp": _mlp,
}

#: Apps whose body synthesis must batch, with the expected tier.
ENGAGES = {
    "mf": "vector",
    "mf-adarev": "vector",
    "glove": "vector",
    "slr": "block-loop",
    "gbt": "block-loop",
}
#: Apps whose body must fall back with a W50x diagnostic.
FALLS_BACK = ("lda", "mlp")


def _cluster():
    return ClusterSpec(num_machines=2, workers_per_machine=2)


def _dense_state(program):
    return {
        name: array.values.copy()
        for name, array in program.arrays.items()
        if not array.sparse
    }


def _assert_same_state(ref, got):
    assert set(ref) == set(got)
    for name in ref:
        assert np.array_equal(ref[name], got[name]), name


# --------------------------------------------------------------------------- #
# engagement / fallback
# --------------------------------------------------------------------------- #


class TestEngagement:
    @pytest.mark.parametrize("app", sorted(ENGAGES))
    def test_batchable_apps_synthesize(self, app):
        program = APPS[app](_cluster(), "auto")
        synth = program.train_loop.synthesis()
        assert synth.engaged
        assert synth.tier == ENGAGES[app]
        assert "_synth_kernel" in synth.source
        assert not synth.diagnostics

    @pytest.mark.parametrize("app", FALLS_BACK)
    def test_unbatchable_apps_fall_back_with_diagnostic(self, app):
        program = APPS[app](_cluster(), "auto")
        synth = program.train_loop.synthesis()
        assert not synth.engaged
        assert synth.kernel is None
        codes = {d.code for d in synth.diagnostics}
        assert codes and codes <= {"W501", "W502"}
        # The fallback surfaces through the loop's lint diagnostics too.
        assert codes <= {d.code for d in program.train_loop.diagnostics()}

    def test_apps_without_hand_kernel_default_to_synthesis(self):
        program = _glove(_cluster(), True)
        assert program.train_loop.synthesis().engaged
        assert callable(program.train_loop.executor.kernel)

    def test_use_kernel_off_disables_synthesis(self):
        program = _glove(_cluster(), "off")
        assert program.train_loop.synthesis() is None
        assert program.train_loop.executor.kernel is None


# --------------------------------------------------------------------------- #
# bit-identity: kernel="auto" vs the scalar interpreter, both backends
# --------------------------------------------------------------------------- #


class TestAutoMatchesScalar:
    @pytest.mark.parametrize("app", sorted(APPS))
    def test_simulated(self, app):
        scalar = APPS[app](_cluster(), False)
        auto = APPS[app](_cluster(), "auto")
        for _ in range(2):
            scalar.epoch_fn()
            auto.epoch_fn()
        _assert_same_state(_dense_state(scalar), _dense_state(auto))

    # gbt is absent: its boosting round interleaves three loops over the
    # same arrays, which backend="multiprocess" refuses (see below).
    @pytest.mark.parametrize(
        "app", ["glove", "lda", "mf", "mf-adarev", "mlp", "slr"]
    )
    def test_multiprocess(self, app):
        options = LoopOptions(backend="multiprocess")
        scalar = APPS[app](_cluster(), False, options)
        auto = APPS[app](_cluster(), "auto", options)
        with scalar, auto:  # releases forked workers + shared memory
            scalar.epoch_fn()
            auto.epoch_fn()
        _assert_same_state(_dense_state(scalar), _dense_state(auto))

    def test_multiprocess_refuses_interleaved_multi_loop(self):
        """GBT's round interleaves three loops over shared arrays; the
        shared-memory pool raises rather than splitting forked workers
        across stale segments."""
        program = _gbt(_cluster(), "auto", LoopOptions(backend="multiprocess"))
        with program, pytest.raises(ExecutionError, match="already shared"):
            program.epoch_fn()

    @pytest.mark.parametrize("app", ["mf", "glove", "slr", "gbt"])
    def test_equivalence_checked_epoch(self, app):
        """The executor's own bitwise check passes over synthesized kernels."""
        program = APPS[app](
            _cluster(), "auto", LoopOptions(equivalence_check=True)
        )
        program.epoch_fn()

    @pytest.mark.parametrize("app", ["mf", "slr"])
    @pytest.mark.parametrize("backend", ["simulated", "multiprocess"])
    def test_sanitized_run_clean(self, app, backend):
        """Sanitized runs (S601-S605) stay clean with kernel='auto'."""
        program = APPS[app](
            _cluster(), "auto", LoopOptions(sanitize=True, backend=backend)
        )
        with program:
            program.epoch_fn()


# --------------------------------------------------------------------------- #
# hypothesis: synthesis never changes results when it engages
# --------------------------------------------------------------------------- #


@st.composite
def _mf_instances(draw):
    rows = draw(st.integers(min_value=3, max_value=12))
    cols = draw(st.integers(min_value=3, max_value=12))
    num = draw(st.integers(min_value=1, max_value=40))
    seed = draw(st.integers(min_value=0, max_value=2**16))
    step = draw(st.floats(min_value=1e-4, max_value=0.5))
    return rows, cols, num, seed, step


@given(_mf_instances())
@settings(max_examples=12, deadline=None)
def test_property_synthesis_never_changes_results(instance):
    """For random MF-like programs, an engaged synthesized kernel is
    bit-identical to the scalar interpreter — state and traffic stats."""
    rows, cols, num, seed, step = instance
    rng = np.random.default_rng(seed)
    keys = {
        (int(rng.integers(0, rows)), int(rng.integers(0, cols)))
        for _ in range(num)
    }
    entries = [(key, float(rng.standard_normal())) for key in sorted(keys)]
    init_w = rng.standard_normal((4, rows)) * 0.1
    init_h = rng.standard_normal((4, cols)) * 0.1

    def build(kernel):
        ctx = OrionContext(cluster=ClusterSpec(2, 2), seed=0)
        space = ctx.from_entries(entries, name="space", shape=(rows, cols))
        ctx.materialize(space)
        W = ctx.zeros(4, rows, name="W")
        H = ctx.zeros(4, cols, name="H")
        ctx.materialize(W, H)
        W.values[:] = init_w
        H.values[:] = init_h

        def body(key, value):
            w = W[:, key[0]]
            h = H[:, key[1]]
            diff = value - w @ h
            W[:, key[0]] = w + step * diff * h
            H[:, key[1]] = h + step * diff * w

        loop = ctx.parallel_for(space, options=LoopOptions(kernel=kernel))(body)
        return loop, W, H

    scalar_loop, sw, sh = build(None)
    auto_loop, aw, ah = build("auto")
    assert auto_loop.synthesis().engaged
    scalar_results = scalar_loop.run()
    auto_results = auto_loop.run()
    assert np.array_equal(sw.values, aw.values)
    assert np.array_equal(sh.values, ah.values)
    assert [r.bytes_sent for r in scalar_results] == [
        r.bytes_sent for r in auto_results
    ]


# --------------------------------------------------------------------------- #
# diagnostics, explain, options plumbing
# --------------------------------------------------------------------------- #


class TestReporting:
    def test_explain_shows_generated_source(self):
        program = _mf(_cluster(), "auto")
        report = program.train_loop.explain()
        assert "Kernel synthesis" in report
        assert "synthesized kernel (tier: vector)" in report
        assert "_synth_kernel" in report

    def test_explain_shows_fallback(self):
        program = _mlp(_cluster(), "auto")
        report = program.train_loop.explain()
        assert "fell back to the scalar interpreter" in report
        assert "W501" in report

    def test_explain_without_synthesis_has_no_section(self):
        program = _mf(_cluster(), False)
        assert "Kernel synthesis" not in program.train_loop.explain()

    def test_w503_when_plan_refuses_batching(self):
        """A vectorizable 1-D body with direct shared writes synthesizes,
        but the 1D plan cannot batch it — surfaced as W503."""
        ctx = OrionContext(cluster=ClusterSpec(1, 2), seed=0)
        space = ctx.from_entries(
            [((i,), float(i)) for i in range(8)], name="space", shape=(8,)
        )
        ctx.materialize(space)
        out = ctx.zeros(8, name="out")
        ctx.materialize(out)

        def body(key, value):
            out[key[0]] = value * 2.0

        loop = ctx.parallel_for(space, options=LoopOptions(kernel="auto"))(body)
        assert loop.synthesis().engaged
        assert "W503" in {d.code for d in loop.diagnostics()}
        # The plan gate is the reason, not the synthesis itself.
        legal, reason = kernel_batching_legal(
            loop.info, loop.plan
        )
        assert not legal and "buffer" in reason

    def test_synth_report_helper(self):
        space = DistArray.from_entries(
            [((i,), 1.0) for i in range(4)], name="s", shape=(4,)
        )
        space.materialize()
        out = DistArray.zeros(4, name="out_sr")
        out.materialize()

        def body(key, value):
            out[key[0]] = value

        result, diagnostics = synth_report(body, space)
        assert result.engaged
        assert "W503" in {d.code for d in diagnostics}


class TestOptionPlumbing:
    def test_resolve_kernel_option(self):
        hand = lambda block, kctx: None  # noqa: E731
        assert resolve_kernel_option(True, hand) is hand
        assert resolve_kernel_option(True) == "auto"
        assert resolve_kernel_option("hand", hand) is hand
        assert resolve_kernel_option("auto", hand) == "auto"
        assert resolve_kernel_option(False, hand) is None
        assert resolve_kernel_option(None, hand) is None
        assert resolve_kernel_option("off", hand) is None
        with pytest.raises(ValueError):
            resolve_kernel_option("hand")
        with pytest.raises(ValueError):
            resolve_kernel_option("bogus", hand)

    def test_executor_rejects_hand_and_unknown_strings(self):
        ctx = OrionContext(cluster=ClusterSpec(1, 2), seed=0)
        space = ctx.from_entries(
            [((i,), 1.0) for i in range(4)], name="space", shape=(4,)
        )
        ctx.materialize(space)

        def body(key, value):
            pass

        with pytest.raises(ExecutionError):
            ctx.parallel_for(space, options=LoopOptions(kernel="hand"))(body)
        with pytest.raises(ExecutionError):
            ctx.parallel_for(space, options=LoopOptions(kernel="bogus"))(body)

    def test_kernel_off_string(self):
        ctx = OrionContext(cluster=ClusterSpec(1, 2), seed=0)
        space = ctx.from_entries(
            [((i,), 1.0) for i in range(4)], name="space", shape=(4,)
        )
        ctx.materialize(space)

        def body(key, value):
            pass

        loop = ctx.parallel_for(space, options=LoopOptions(kernel="off"))(body)
        assert loop.executor.kernel is None


# --------------------------------------------------------------------------- #
# synthesis primitives
# --------------------------------------------------------------------------- #


class TestPrimitives:
    def test_conflict_free_groups_nd_no_repeats_within_group(self):
        rows = [0, 1, 0, 2, 1, 0]
        cols = [5, 6, 7, 5, 6, 7]
        groups = conflict_free_groups_nd([rows, cols])
        assert [hi for _lo, hi in groups][-1] == len(rows)
        for lo, hi in groups:
            assert len(set(rows[lo:hi])) == hi - lo
            assert len(set(cols[lo:hi])) == hi - lo

    def test_conflict_free_groups_nd_empty(self):
        assert conflict_free_groups_nd([]) == []
        assert conflict_free_groups_nd([[]]) == []

    def test_scalar_pow_matches_python_pow_bitwise(self):
        rng = np.random.default_rng(0)
        base = rng.uniform(0.01, 4.0, size=200)
        out = scalar_pow(base, 0.75)
        expected = np.array([b ** 0.75 for b in base])
        assert np.array_equal(out, expected)

    def test_scalar_pow_broadcasts(self):
        out = scalar_pow(np.array([[1.0, 2.0], [3.0, 4.0]]), 2.0)
        assert out.shape == (2, 2)
        assert np.array_equal(out, np.array([[1.0, 4.0], [9.0, 16.0]]))

    def test_synthesize_kernel_requires_recoverable_source(self):
        from repro.analysis.loop_info import analyze_loop_body

        space = DistArray.from_entries(
            [((i,), 1.0) for i in range(4)], name="s2", shape=(4,)
        )
        space.materialize()
        out = DistArray.zeros(4, name="out_ns")
        out.materialize()

        def body(key, value):
            out[key[0]] = value

        info = analyze_loop_body(body, space)
        info.tree = None
        result = synthesize_kernel(body, info)
        assert not result.engaged
        assert result.diagnostics[0].code == "W501"


# --------------------------------------------------------------------------- #
# CLI
# --------------------------------------------------------------------------- #


class TestSynthCLI:
    def test_synth_mf_prints_kernel(self):
        out = io.StringIO()
        code = cli.main(["synth", "mf", "--scale", "0.2"], out=out)
        text = out.getvalue()
        assert code == 0
        assert "synthesized kernel (tier: vector)" in text
        assert "_synth_kernel" in text

    def test_synth_check_runs_equivalence_epoch(self):
        out = io.StringIO()
        code = cli.main(["synth", "slr", "--scale", "0.2", "--check"], out=out)
        assert code == 0
        assert "equivalence check" in out.getvalue()

    def test_synth_fallback_exits_nonzero(self):
        out = io.StringIO()
        code = cli.main(["synth", "lda", "--scale", "0.2"], out=out)
        assert code == 1
        assert "fell back" in out.getvalue()

    def test_lint_demo_covers_synthesis_codes(self):
        out = io.StringIO()
        cli.main(["lint", "demo"], out=out)
        text = out.getvalue()
        for code in ("W501", "W502", "W503"):
            assert code in text
