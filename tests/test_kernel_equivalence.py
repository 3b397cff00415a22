"""Batched block kernels must be bit-identical to the scalar body.

The executor's kernel fast path (repro.runtime.kernels) promises the same
floating-point results *and* the same accounting — every EpochResult field
— as the per-entry interpreted body.  These tests run each app both ways
and compare exactly (``np.array_equal``, ``==`` on virtual times), plus
exercise the built-in ``equivalence_check`` mode and the bulk DistArray
accessors the kernels are built on.
"""

import numpy as np
import pytest

from repro.api import OrionContext
from repro.apps.lda import LDAHyper
from repro.apps.lda import build_orion_program as build_lda
from repro.apps.sgd_mf import MFHyper
from repro.apps.sgd_mf import build_orion_program as build_mf
from repro.apps.slr import SLRHyper
from repro.apps.slr import build_orion_program as build_slr
from repro.core.distarray import DistArray, SubscriptError
from repro.data.synthetic import lda_corpus, netflix_like, sparse_classification
from repro.runtime.cluster import ClusterSpec
from repro.runtime.executor import ExecutionError
from repro.runtime.kernels import conflict_free_groups_nd, conflict_free_levels
from repro.runtime.options import LoopOptions


def _epoch_signature(results):
    return [
        (r.epoch_time_s, r.bytes_sent, r.num_tasks, r.utilization, r.events)
        for batch in results
        for r in batch
    ]


def _run_pair(build, epochs=3):
    """Run kernel and scalar variants of one program for ``epochs``."""
    kernel_prog = build(use_kernel=True)
    scalar_prog = build(use_kernel=False)
    kernel_results = [kernel_prog.epoch_fn() for _ in range(epochs)]
    scalar_results = [scalar_prog.epoch_fn() for _ in range(epochs)]
    return kernel_prog, scalar_prog, kernel_results, scalar_results


@pytest.fixture(scope="module")
def mf_data():
    return netflix_like(num_rows=50, num_cols=40, num_ratings=700, seed=13)


@pytest.fixture(scope="module")
def slr_data():
    return sparse_classification(
        num_samples=120, num_features=70, nnz_per_sample=5, seed=17
    )


@pytest.fixture(scope="module")
def lda_data():
    return lda_corpus(num_docs=40, vocab_size=50, num_topics=4, doc_length=12, seed=23)


class TestSGDMFKernel:
    @pytest.mark.parametrize("ordered", [False, True])
    @pytest.mark.parametrize("adarev", [False, True])
    def test_bit_identical_and_same_traffic(self, mf_data, ordered, adarev):
        def build(use_kernel):
            return build_mf(
                mf_data,
                cluster=ClusterSpec(num_machines=2, workers_per_machine=2),
                hyper=MFHyper(adarev=adarev),
                ordered=ordered,
                seed=7,
                use_kernel=use_kernel,
            )

        kp, sp, kr, sr = _run_pair(build)
        for name in ("W", "H"):
            assert np.array_equal(kp.arrays[name].values, sp.arrays[name].values)
        assert _epoch_signature(kr) == _epoch_signature(sr)
        assert kp.loss_fn() == sp.loss_fn()


class TestSLRKernel:
    @pytest.mark.parametrize("prefetch", ["auto", "none"])
    def test_plain_bit_identical(self, slr_data, prefetch):
        def build(use_kernel):
            return build_slr(
                slr_data,
                hyper=SLRHyper(step_size=0.2),
                seed=3,
                use_kernel=use_kernel,
                options=LoopOptions(prefetch=prefetch),
            )

        kp, sp, kr, sr = _run_pair(build)
        assert np.array_equal(
            kp.arrays["weights"].values, sp.arrays["weights"].values
        )
        assert _epoch_signature(kr) == _epoch_signature(sr)

    def test_adarev_bit_identical(self, slr_data):
        def build(use_kernel):
            return build_slr(
                slr_data,
                hyper=SLRHyper(adarev=True),
                seed=3,
                use_kernel=use_kernel,
            )

        kp, sp, kr, sr = _run_pair(build)
        assert np.array_equal(
            kp.arrays["weights"].values, sp.arrays["weights"].values
        )
        assert _epoch_signature(kr) == _epoch_signature(sr)


class TestLDAKernel:
    @pytest.mark.parametrize("parallelism", ["2d", "1d"])
    def test_bit_identical_counts_and_assignments(self, lda_data, parallelism):
        def build(use_kernel):
            return build_lda(
                lda_data,
                hyper=LDAHyper(num_topics=4),
                parallelism=parallelism,
                seed=5,
                use_kernel=use_kernel,
            )

        kp, sp, kr, sr = _run_pair(build, epochs=2)
        for name in ("doc_topic", "word_topic", "topic_sum"):
            assert np.array_equal(kp.arrays[name].values, sp.arrays[name].values)
        ka, sa = kp.arrays["assignments"], sp.arrays["assignments"]
        assert ka._entries.keys() == sa._entries.keys()
        assert all(
            np.array_equal(ka._entries[k], sa._entries[k]) for k in ka._entries
        )
        assert _epoch_signature(kr) == _epoch_signature(sr)


class TestEquivalenceCheckMode:
    def test_mf_passes(self, mf_data):
        prog = build_mf(
            mf_data, seed=7, use_kernel=True,
            options=LoopOptions(equivalence_check=True),
        )
        prog.epoch_fn()  # would raise ExecutionError on any divergence

    def test_slr_passes(self, slr_data):
        prog = build_slr(
            slr_data, seed=3, use_kernel=True,
            options=LoopOptions(equivalence_check=True),
        )
        prog.epoch_fn()

    def test_catches_wrong_kernel(self, slr_data):
        """A kernel that diverges from the body must fail the check."""
        ctx = OrionContext(seed=1)
        samples = ctx.from_entries(
            slr_data.entries, name="samples", shape=slr_data.shape
        )
        ctx.materialize(samples)
        weights = ctx.zeros(slr_data.num_features, name="weights")
        ctx.materialize(weights)
        buf = ctx.dist_array_buffer(weights, name="buf")

        def body(key, sample):
            features, _target = sample
            for fid, fval in features:
                buf[fid] = -0.1 * fval

        def bad_kernel(block, kctx):
            for _key, (features, _target) in block:
                for fid, fval in features:
                    kctx.buffer_add(buf, [fid], [-0.2 * fval])  # wrong scale
                kctx.account_point_reads(weights, [])

        loop = ctx.parallel_for(
            samples, options=LoopOptions(kernel=bad_kernel, equivalence_check=True),
        )(
            body
        )
        with pytest.raises(ExecutionError, match="kernel/scalar"):
            loop.run()


class TestBulkAccessors:
    def test_dense_bulk_get_set(self):
        array = DistArray.zeros(6, name="d")
        array.materialize()
        array.bulk_set([1, 4], [2.5, -1.0])
        assert array.bulk_get([1, 4, 0]) == [2.5, -1.0, 0.0]

    def test_sparse_bulk_get_default_and_missing(self):
        array = DistArray.from_entries([((0,), 1.0), ((3,), 4.0)], name="s")
        array.materialize()
        assert array.bulk_get([0, 3]) == [1.0, 4.0]
        assert array.bulk_get([0, 2], default=None) == [1.0, None]
        with pytest.raises(SubscriptError):
            array.bulk_get([2])

    def test_sparse_bulk_set_canonicalizes_keys(self):
        array = DistArray.from_entries([((0,), 1.0)], name="s2")
        array.materialize()
        array.bulk_set([(np.int64(1),), 2], [5.0, 6.0])
        assert array.get((1,)) == 5.0
        assert array.get((2,)) == 6.0

    def test_bulk_set_length_mismatch(self):
        array = DistArray.zeros(3, name="d2")
        array.materialize()
        with pytest.raises(SubscriptError):
            array.bulk_set([0, 1], [1.0])

    def test_dense_columns_roundtrip(self):
        array = DistArray.randn(3, 5, name="m", seed=0)
        array.materialize()
        gathered = array.dense_columns([4, 1])
        assert np.array_equal(gathered, array.values[:, [4, 1]])


class TestConflictFreeGroups:
    def test_groups_partition_and_are_conflict_free(self):
        rows = [0, 1, 0, 2, 3, 1]
        cols = [0, 1, 2, 3, 4, 5]
        groups = conflict_free_groups_nd([rows, cols])
        assert groups[0][0] == 0 and groups[-1][1] == len(rows)
        for (_, hi), (lo2, _) in zip(groups, groups[1:]):
            assert hi == lo2
        for lo, hi in groups:
            assert len(set(rows[lo:hi])) == hi - lo
            assert len(set(cols[lo:hi])) == hi - lo

    def test_levels_partition_and_are_conflict_free(self):
        rows = [0, 1, 0, 2, 3, 1]
        cols = [0, 1, 2, 3, 4, 5]
        levels = conflict_free_levels([rows, cols])
        # Entries 2 and 5 repeat rows 0 and 1; everything else batches.
        assert [idx.tolist() for idx in levels] == [[0, 1, 3, 4], [2, 5]]
        assert len(levels) <= len(conflict_free_groups_nd([rows, cols]))

    def test_empty(self):
        assert conflict_free_groups_nd([[], []]) == []
        assert conflict_free_levels([[], []]) == []
