"""Dependence levels and the kernels that batch by them (property tests).

``conflict_free_levels`` must cover every entry once, keep each level
free of shared indices, and put the earlier of any two entries that share
an index on a strictly lower level.  Kernels that run the levels in order
must then equal the scalar body bitwise on any block, including heavily
skewed ones where most entries share a row or a column.
"""

import functools

import numpy as np
from hypothesis import example, given, settings
from hypothesis import strategies as st

from repro.apps.embeddings import build_orion_program as build_glove
from repro.apps.embeddings import cooccurrence_corpus
from repro.apps.sgd_mf import MFHyper
from repro.apps.sgd_mf import build_orion_program as build_mf
from repro.data.synthetic import netflix_like
from repro.runtime.cluster import ClusterSpec
from repro.runtime.kernels import (
    KernelContext,
    PlainBroker,
    conflict_free_groups_nd,
    conflict_free_levels,
)
from repro.sanitizer import verify_conflict_groups

ROWS, COLS = 6, 5

#: Per-entry index tuples over small ranges, so most blocks conflict.
INDEX_TUPLES = st.integers(1, 3).flatmap(
    lambda dims: st.lists(
        st.tuples(*[st.integers(0, 4) for _ in range(dims)]), max_size=40
    )
)


def _seqs(tuples):
    if not tuples:
        return [[]]
    return [list(column) for column in zip(*tuples)]


class TestLevelProperties:
    @settings(max_examples=200, deadline=None)
    @given(tuples=INDEX_TUPLES)
    def test_levels_cover_every_index_exactly_once(self, tuples):
        levels = conflict_free_levels(_seqs(tuples))
        covered = np.concatenate(levels) if levels else np.array([], int)
        assert sorted(covered.tolist()) == list(range(len(tuples)))
        for level in levels:
            assert len(level) > 0
            assert np.all(np.diff(level) > 0)  # ascending

    @settings(max_examples=200, deadline=None)
    @given(tuples=INDEX_TUPLES)
    def test_each_level_is_conflict_free(self, tuples):
        seqs = _seqs(tuples)
        for level in conflict_free_levels(seqs):
            for seq in seqs:
                values = [seq[pos] for pos in level]
                assert len(set(values)) == len(values)

    @settings(max_examples=200, deadline=None)
    @given(tuples=INDEX_TUPLES)
    def test_every_dependence_is_ordered(self, tuples):
        seqs = _seqs(tuples)
        level_of = {}
        for number, level in enumerate(conflict_free_levels(seqs)):
            for pos in level.tolist():
                level_of[pos] = number
        for later in range(len(tuples)):
            for earlier in range(later):
                if any(seq[earlier] == seq[later] for seq in seqs):
                    assert level_of[earlier] < level_of[later]

    @settings(max_examples=100, deadline=None)
    @given(pairs=st.lists(
        st.tuples(st.integers(0, 4), st.integers(0, 4)), max_size=40
    ))
    def test_sanitizer_accepts_levels(self, pairs):
        rows = [row for row, _col in pairs]
        cols = [col for _row, col in pairs]
        levels = conflict_free_levels([rows, cols])
        assert verify_conflict_groups(rows, cols, levels) == []

    def test_time_sorted_block_batches_beyond_contiguous_runs(self):
        # Time-sorted blocks keep each column's entries adjacent, which
        # breaks contiguous runs at every column; levels batch across them.
        rows = [0, 1, 2, 0, 1, 2, 0, 1, 2]
        cols = [0, 0, 0, 1, 1, 1, 2, 2, 2]
        levels = conflict_free_levels([rows, cols])
        assert [level.tolist() for level in levels] == [
            [0], [1, 3], [2, 4, 6], [5, 7], [8],
        ]
        assert len(conflict_free_groups_nd([rows, cols])) == 7


# --------------------------------------------------------------------------- #
# kernels vs the scalar body
# --------------------------------------------------------------------------- #


@functools.lru_cache(maxsize=None)
def _program(app, kernel):
    """One small program per (app, kernel), built once for all examples."""
    cluster = ClusterSpec(num_machines=1, workers_per_machine=2)
    if app == "glove":
        data = cooccurrence_corpus(vocab_size=max(ROWS, COLS), num_tokens=600,
                                   seed=3)
        return build_glove(data, cluster=cluster, seed=4, use_kernel=kernel)
    data = netflix_like(num_rows=ROWS, num_cols=COLS, num_ratings=20, seed=5)
    return build_mf(
        data, cluster=cluster, hyper=MFHyper(adarev=app == "mf-adarev"),
        seed=6, use_kernel=kernel,
    )


def _dense_arrays(loop):
    return [array for array in loop.info.arrays.values() if not array.sparse]


def _assert_kernel_matches_scalar(app, kernel, block):
    loop = _program(app, kernel).train_loop
    arrays = _dense_arrays(loop)
    start = [array.values.copy() for array in arrays]
    try:
        loop.executor.kernel(block, KernelContext(PlainBroker(), 0, {}))
        batched = [array.values.copy() for array in arrays]
        for array, values in zip(arrays, start):
            array.values[...] = values
        for key, value in block:
            loop.body(key, value)
        for array, values in zip(arrays, batched):
            assert np.array_equal(values, array.values), array.name
    finally:
        for array, values in zip(arrays, start):
            array.values[...] = values


KERNELS = [
    ("mf", True), ("mf-adarev", True), ("mf", "auto"), ("glove", "auto"),
]

#: Blocks skewed towards row 0 and column 0 (the head of a Zipf law).
SKEWED_BLOCKS = st.lists(
    st.tuples(
        st.tuples(
            st.one_of(st.just(0), st.integers(0, ROWS - 1)),
            st.one_of(st.just(0), st.integers(0, COLS - 1)),
        ),
        st.floats(0.5, 5.0),
    ),
    max_size=30,
)

ONE_COLUMN = [((row % ROWS, 2), 1.0 + row) for row in range(9)]


def test_kernel_tiers_are_the_batched_ones():
    for app, kernel in KERNELS:
        tier = _program(app, kernel).train_loop.executor.kernel_tier
        assert tier == ("hand" if kernel is True else "synth:vector"), app


class TestKernelsMatchScalarBody:
    @settings(max_examples=60, deadline=None)
    @given(block=SKEWED_BLOCKS)
    @example(block=ONE_COLUMN)
    @example(block=[((3, 4), 2.5)])
    @example(block=[])
    def test_mf_hand_kernel(self, block):
        _assert_kernel_matches_scalar("mf", True, block)

    @settings(max_examples=60, deadline=None)
    @given(block=SKEWED_BLOCKS)
    @example(block=ONE_COLUMN)
    @example(block=[((3, 4), 2.5)])
    @example(block=[])
    def test_mf_adarev_hand_kernel(self, block):
        _assert_kernel_matches_scalar("mf-adarev", True, block)

    @settings(max_examples=60, deadline=None)
    @given(block=SKEWED_BLOCKS)
    @example(block=ONE_COLUMN)
    @example(block=[((3, 4), 2.5)])
    @example(block=[])
    def test_mf_synthesized_kernel(self, block):
        _assert_kernel_matches_scalar("mf", "auto", block)

    @settings(max_examples=60, deadline=None)
    @given(block=SKEWED_BLOCKS)
    @example(block=ONE_COLUMN)
    @example(block=[((3, 4), 2.5)])
    @example(block=[])
    def test_glove_synthesized_kernel(self, block):
        _assert_kernel_matches_scalar("glove", "auto", block)
