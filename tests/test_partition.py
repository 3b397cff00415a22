"""Unit tests for iteration-space partitioning (repro.runtime.partition)."""

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from repro.analysis.unimodular import skew
from repro.errors import PartitionError
from repro.runtime import partition as parts


class TestEqualBounds:
    def test_even_split(self):
        assert parts.equal_bounds(8, 4) == [(0, 2), (2, 4), (4, 6), (6, 8)]

    def test_uneven_split_covers_everything(self):
        bounds = parts.equal_bounds(10, 3)
        assert bounds[0][0] == 0
        assert bounds[-1][1] == 10
        for (lo_a, hi_a), (lo_b, _hi_b) in zip(bounds, bounds[1:]):
            assert hi_a == lo_b

    def test_zero_parts_raises(self):
        with pytest.raises(PartitionError):
            parts.equal_bounds(10, 0)

    def test_zero_extent_raises(self):
        with pytest.raises(PartitionError):
            parts.equal_bounds(0, 2)


class TestBalancedBounds:
    def test_uniform_counts_behave_like_equal(self):
        counts = np.ones(8, dtype=np.int64)
        assert parts.balanced_bounds(counts, 4) == [(0, 2), (2, 4), (4, 6), (6, 8)]

    def test_skewed_counts_get_balanced(self):
        # 90% of entries on the first coordinate: it gets its own partition.
        counts = np.array([90, 2, 2, 2, 2, 2])
        bounds = parts.balanced_bounds(counts, 2)
        assert bounds[0] == (0, 1)
        assert bounds[1] == (1, 6)

    def test_balance_quality_on_power_law(self):
        rng = np.random.default_rng(0)
        weights = 1.0 / np.arange(1, 101) ** 1.2
        counts = rng.multinomial(10_000, weights / weights.sum())
        bounds = parts.balanced_bounds(counts, 8)
        loads = [counts[lo:hi].sum() for lo, hi in bounds]
        # Balanced partitioning keeps the max/mean ratio modest even under
        # a power-law distribution (equal-width would be ~8x here).
        assert max(loads) / (sum(loads) / len(loads)) < 3.0

    def test_covers_full_extent_contiguously(self):
        counts = np.array([5, 0, 0, 1, 9, 3, 3, 7])
        bounds = parts.balanced_bounds(counts, 3)
        assert bounds[0][0] == 0
        assert bounds[-1][1] == len(counts)
        for (lo_a, hi_a), (lo_b, _b) in zip(bounds, bounds[1:]):
            assert hi_a == lo_b

    def test_more_parts_than_coords_pads_empty(self):
        counts = np.array([3, 4])
        bounds = parts.balanced_bounds(counts, 4)
        assert bounds[:2] == [(0, 1), (1, 2)]
        assert bounds[2:] == [(2, 2), (2, 2)]

    def test_all_zero_counts_fall_back_to_equal(self):
        counts = np.zeros(8, dtype=np.int64)
        assert parts.balanced_bounds(counts, 2) == [(0, 4), (4, 8)]

    def test_bucket_of(self):
        bounds = [(0, 3), (3, 7), (7, 10)]
        assert parts.bucket_of(bounds, 0) == 0
        assert parts.bucket_of(bounds, 3) == 1
        assert parts.bucket_of(bounds, 9) == 2
        with pytest.raises(PartitionError):
            parts.bucket_of(bounds, 10)


def _grid_entries(rows, cols):
    return [((i, j), float(i * cols + j)) for i in range(rows) for j in range(cols)]


class TestPartition1D:
    def test_every_entry_assigned_once(self):
        entries = _grid_entries(6, 4)
        partitions = parts.partition_1d(entries, 0, 6, 3)
        assert partitions.total_entries == len(entries)
        assert partitions.num_space == 3
        assert partitions.num_time == 1

    def test_entries_respect_bounds(self):
        entries = _grid_entries(6, 4)
        partitions = parts.partition_1d(entries, 0, 6, 3)
        for (space_idx, _t), block in partitions.blocks.items():
            lo, hi = partitions.space_bounds[space_idx]
            assert all(lo <= key[0] < hi for key, _v in block)

    def test_partition_on_second_dim(self):
        entries = _grid_entries(4, 6)
        partitions = parts.partition_1d(entries, 1, 6, 2)
        for (space_idx, _t), block in partitions.blocks.items():
            lo, hi = partitions.space_bounds[space_idx]
            assert all(lo <= key[1] < hi for key, _v in block)


class TestPartition2D:
    def test_grid_blocks(self):
        entries = _grid_entries(8, 8)
        partitions = parts.partition_2d(entries, 0, 1, 8, 8, 2, 4)
        assert partitions.total_entries == 64
        sizes = partitions.size_matrix()
        assert sizes.shape == (2, 4)
        assert sizes.sum() == 64

    def test_blocks_respect_both_bounds(self):
        entries = _grid_entries(8, 8)
        partitions = parts.partition_2d(entries, 0, 1, 8, 8, 2, 4)
        for (space_idx, time_idx), block in partitions.blocks.items():
            slo, shi = partitions.space_bounds[space_idx]
            tlo, thi = partitions.time_bounds[time_idx]
            for key, _value in block:
                assert slo <= key[0] < shi
                assert tlo <= key[1] < thi

    def test_balanced_flag_changes_bounds_under_skew(self):
        rng = np.random.default_rng(1)
        rows = rng.choice(
            20, size=500, p=(lambda w: w / w.sum())(1.0 / np.arange(1, 21))
        )
        entries = [((int(r), int(i % 10)), 1.0) for i, r in enumerate(rows)]
        balanced = parts.partition_2d(entries, 0, 1, 20, 10, 4, 4, balance=True)
        equal = parts.partition_2d(entries, 0, 1, 20, 10, 4, 4, balance=False)
        balanced_loads = balanced.size_matrix().sum(axis=1)
        equal_loads = equal.size_matrix().sum(axis=1)
        assert balanced_loads.max() < equal_loads.max()

    def test_block_lookup_empty_for_missing(self):
        entries = [((0, 0), 1.0)]
        partitions = parts.partition_2d(entries, 0, 1, 4, 4, 2, 2)
        assert partitions.block(1, 1) == []
        assert partitions.block_size(1, 1) == 0


class TestTransformedPartition:
    def test_skewed_coordinates_bucketed(self):
        entries = _grid_entries(6, 6)
        matrix = skew(2, 0, 1, 1)  # q = (i + j, j)
        partitions = parts.partition_transformed(entries, matrix, 3, 4)
        assert partitions.total_entries == 36
        # Time bounds cover the skewed range [0, 11).
        assert partitions.time_bounds[0][0] == 0
        assert partitions.time_bounds[-1][1] == 11

    def test_blocks_consistent_with_transform(self):
        entries = _grid_entries(5, 5)
        matrix = skew(2, 0, 1, 1)
        partitions = parts.partition_transformed(entries, matrix, 2, 3)
        for (space_idx, time_idx), block in partitions.blocks.items():
            tlo, thi = partitions.time_bounds[time_idx]
            slo, shi = partitions.space_bounds[space_idx]
            for key, _value in block:
                q0 = key[0] + key[1]
                q1 = key[1]
                assert tlo <= q0 < thi
                assert slo <= q1 < shi

    def test_empty_entries_raise(self):
        with pytest.raises(PartitionError):
            parts.partition_transformed([], skew(2, 0, 1, 1), 2, 2)


# --------------------------------------------------------------------------- #
# whole-array binning equals the per-entry pass
# --------------------------------------------------------------------------- #


def _reference_histogram(entries, dim, extent):
    counts = np.zeros(extent, dtype=np.int64)
    for key, _value in entries:
        counts[key[dim]] += 1
    return counts


def _reference_cut(entries, dim, extent, num_parts, balance):
    if balance:
        return parts.balanced_bounds(
            _reference_histogram(entries, dim, extent), num_parts
        )
    return parts.equal_bounds(extent, num_parts)


def _reference_fill(entries, space_dim, time_dim, space_bounds, time_bounds,
                    num_time, sort_time):
    """Per-entry binning: one ``bucket_of`` per entry and dimension, then
    the stable time sort of ``sort_blocks_by_dim``."""
    partitions = parts.IterationPartitions(
        num_space=len(space_bounds), num_time=num_time,
        space_bounds=space_bounds, time_bounds=time_bounds,
    )
    for key, value in entries:
        space_idx = parts.bucket_of(space_bounds, key[space_dim])
        time_idx = 0
        if time_bounds is not None:
            time_idx = parts.bucket_of(time_bounds, key[time_dim])
        partitions.blocks.setdefault((space_idx, time_idx), []).append(
            (key, value)
        )
    if sort_time:
        parts.sort_blocks_by_dim(partitions, time_dim)
    return partitions


def _assert_same_blocks(got, want):
    assert got.space_bounds == want.space_bounds
    assert got.time_bounds == want.time_bounds
    assert (got.num_space, got.num_time) == (want.num_space, want.num_time)
    # Same keys in the same insertion order, same entries in the same order.
    assert list(got.blocks.items()) == list(want.blocks.items())
    for space_idx in range(got.num_space):
        for time_idx in range(got.num_time):
            assert got.block(space_idx, time_idx) == want.block(
                space_idx, time_idx
            )


#: Skewed coordinate pairs in random dataset order, duplicates included.
SHAPES = st.tuples(st.integers(1, 7), st.integers(1, 7))
ENTRY_SETS = SHAPES.flatmap(lambda shape: st.tuples(
    st.just(shape),
    st.lists(
        st.tuples(
            st.tuples(st.integers(0, shape[0] - 1),
                      st.integers(0, shape[1] - 1)),
            st.integers(0, 99),
        ),
        max_size=60,
    ),
))


class TestWholeArrayBinningMatchesPerEntryPass:
    @settings(max_examples=150, deadline=None)
    @given(case=ENTRY_SETS, num_parts=st.integers(1, 9),
           balance=st.booleans(), dim=st.integers(0, 1))
    def test_partition_1d(self, case, num_parts, balance, dim):
        shape, entries = case
        bounds = _reference_cut(entries, dim, shape[dim], num_parts, balance)
        want = _reference_fill(entries, dim, None, bounds, None, 1, False)
        got = parts.partition_1d(entries, dim, shape[dim], num_parts,
                                 balance=balance)
        _assert_same_blocks(got, want)

    @settings(max_examples=150, deadline=None)
    @given(case=ENTRY_SETS, num_space=st.integers(1, 9),
           num_time=st.integers(1, 9), balance=st.booleans(),
           time_sorted=st.booleans(), transpose=st.booleans())
    def test_partition_2d(self, case, num_space, num_time, balance,
                          time_sorted, transpose):
        shape, entries = case
        space_dim, time_dim = (1, 0) if transpose else (0, 1)
        space_bounds = _reference_cut(
            entries, space_dim, shape[space_dim], num_space, balance
        )
        time_bounds = _reference_cut(
            entries, time_dim, shape[time_dim], num_time, balance
        )
        want = _reference_fill(entries, space_dim, time_dim, space_bounds,
                               time_bounds, num_time, time_sorted)
        got = parts.partition_2d(
            entries, space_dim, time_dim, shape[space_dim], shape[time_dim],
            num_space, num_time, balance=balance, time_sorted=time_sorted,
        )
        _assert_same_blocks(got, want)

    @settings(max_examples=150, deadline=None)
    @given(case=ENTRY_SETS, num_space=st.integers(1, 9),
           num_time=st.integers(1, 9), balance=st.booleans())
    def test_retile_time_2d(self, case, num_space, num_time, balance):
        shape, entries = case
        space_bounds = _reference_cut(entries, 0, shape[0], num_space, balance)
        time_bounds = _reference_cut(entries, 1, shape[1], num_time, balance)
        want = _reference_fill(entries, 0, 1, space_bounds, time_bounds,
                               num_time, True)
        got = parts.retile_time_2d(entries, 0, 1, shape[1], space_bounds,
                                   num_time, balance=balance)
        _assert_same_blocks(got, want)

    def test_more_parts_than_coordinates(self):
        entries = [((2, 0), 1.0), ((0, 1), 2.0), ((2, 1), 3.0), ((1, 0), 4.0)]
        got = parts.partition_2d(entries, 0, 1, 3, 2, 5, 4, time_sorted=True)
        assert got.space_bounds == [(0, 1), (1, 2), (2, 3), (3, 3), (3, 3)]
        assert list(got.blocks.items()) == [
            ((2, 0), [((2, 0), 1.0)]),
            ((0, 1), [((0, 1), 2.0)]),
            ((2, 1), [((2, 1), 3.0)]),
            ((1, 0), [((1, 0), 4.0)]),
        ]
        assert got.block(4, 3) == []

    def test_coordinate_outside_extent_raises(self):
        with pytest.raises(PartitionError):
            parts.partition_1d([((5,), 1.0)], 0, 3, 2)
