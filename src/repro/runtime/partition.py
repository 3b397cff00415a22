"""Iteration-space and DistArray partitioning (paper Sec. 4.3/4.4).

The executor partitions the (sparse, usually skewed) iteration space along
the plan's space/time dimensions.  Equal-width partitions of a skewed
dataset are imbalanced, so Orion approximates the data distribution with a
per-dimension histogram and cuts contiguous ranges with near-equal entry
counts.  For unimodular plans, entries are bucketed by their *transformed*
coordinates.

The axis-aligned partitioners bin a whole array at a time: coordinates are
extracted once per dimension, histogrammed with ``bincount``, binned with
one ``searchsorted`` per dimension and grouped into blocks with one stable
sort.  The blocks, their entry order and their insertion order are those a
per-entry pass would build.
"""

from __future__ import annotations

from dataclasses import dataclass, field
from operator import itemgetter
from typing import Any, Dict, List, Optional, Sequence, Tuple

import numpy as np

from repro.analysis.unimodular import Matrix, transform_point
from repro.errors import PartitionError

Entry = Tuple[Tuple[int, ...], Any]

__all__ = [
    "Bounds",
    "axis_slice",
    "equal_bounds",
    "balanced_bounds",
    "bucket_of",
    "IterationPartitions",
    "partition_1d",
    "partition_2d",
    "partition_transformed",
    "retile_time_2d",
    "sort_blocks_by_dim",
]

#: Half-open ``(lo, hi)`` coordinate ranges, one per partition.
Bounds = List[Tuple[int, int]]


def axis_slice(ndim: int, axis: int, lo: int, hi: int) -> Tuple[slice, ...]:
    """A full-array index selecting ``[lo, hi)`` along one axis.

    Used by the multiprocess runtime to address one partition's slice of a
    dense DistArray (e.g. the rotated time-slice owned by a worker)."""
    index: List[slice] = [slice(None)] * ndim
    index[axis] = slice(lo, hi)
    return tuple(index)


def equal_bounds(extent: int, num_parts: int) -> Bounds:
    """Cut ``[0, extent)`` into ``num_parts`` equal-width ranges."""
    if num_parts <= 0:
        raise PartitionError("num_parts must be positive")
    if extent <= 0:
        raise PartitionError("extent must be positive")
    edges = np.linspace(0, extent, num_parts + 1).astype(int)
    return [(int(edges[i]), int(edges[i + 1])) for i in range(num_parts)]


def balanced_bounds(counts: np.ndarray, num_parts: int) -> Bounds:
    """Cut coordinates into contiguous ranges with near-equal entry counts.

    ``counts[c]`` is the number of iteration-space entries with coordinate
    ``c`` along the partitioning dimension (a histogram, paper Sec. 4.3).
    Greedy prefix-sum splitting: each cut is placed where the running count
    first reaches the next multiple of ``total / num_parts``.
    """
    if num_parts <= 0:
        raise PartitionError("num_parts must be positive")
    extent = len(counts)
    if extent == 0:
        raise PartitionError("histogram is empty")
    if extent < num_parts:
        # More partitions than coordinates: one coordinate each, then empty
        # trailing ranges (those workers simply idle).
        singles = [(c, c + 1) for c in range(extent)]
        return singles + [(extent, extent)] * (num_parts - extent)
    total = int(np.sum(counts))
    if total == 0:
        return equal_bounds(extent, num_parts)
    prefix = np.cumsum(counts)
    bounds: Bounds = []
    lo = 0
    for part in range(num_parts):
        if part == num_parts - 1:
            hi = extent
        else:
            target = total * (part + 1) / num_parts
            hi = int(np.searchsorted(prefix, target)) + 1
            hi = max(hi, lo + 1)
            hi = min(hi, extent - (num_parts - part - 1))
        bounds.append((lo, hi))
        lo = hi
    return bounds


def bucket_of(bounds: Bounds, coordinate: int) -> int:
    """Partition index containing ``coordinate`` (linear in partitions,
    which are few)."""
    for position, (lo, hi) in enumerate(bounds):
        if lo <= coordinate < hi:
            return position
    raise PartitionError(f"coordinate {coordinate} outside bounds {bounds}")


@dataclass
class IterationPartitions:
    """Partitioned iteration space handed to the scheduler/executor.

    Blocks are keyed ``(space_idx, time_idx)``; 1D plans use ``time_idx=0``.
    """

    num_space: int
    num_time: int
    blocks: Dict[Tuple[int, int], List[Entry]] = field(default_factory=dict)
    space_bounds: Optional[Bounds] = None
    time_bounds: Optional[Bounds] = None

    def block(self, space_idx: int, time_idx: int) -> List[Entry]:
        """Entries of one block (empty when the block holds no entries)."""
        return self.blocks.get((space_idx, time_idx), [])

    def block_size(self, space_idx: int, time_idx: int) -> int:
        """Entry count of one block."""
        return len(self.blocks.get((space_idx, time_idx), ()))

    def size_matrix(self) -> np.ndarray:
        """(num_space × num_time) entry-count matrix, used by the timing
        model and the load-balance tests."""
        sizes = np.zeros((self.num_space, self.num_time), dtype=np.int64)
        for (space_idx, time_idx), entries in self.blocks.items():
            sizes[space_idx, time_idx] = len(entries)
        return sizes

    @property
    def total_entries(self) -> int:
        """Total entries across every block."""
        return sum(len(entries) for entries in self.blocks.values())


def _coordinates(entries: Sequence[Entry], dims: Sequence[int]) -> List[np.ndarray]:
    """Each requested dimension's coordinates, one int array per dim."""
    count = len(entries)
    keys = list(map(itemgetter(0), entries))
    return [
        np.fromiter(map(itemgetter(dim), keys), np.int64, count) for dim in dims
    ]


def _histogram(coords: np.ndarray, extent: int) -> np.ndarray:
    """Entries per coordinate of ``[0, extent)``."""
    if coords.size and (coords.min() < 0 or coords.max() >= extent):
        raise PartitionError(f"coordinate outside [0, {extent})")
    return np.bincount(coords, minlength=extent)


def _cut(coords: np.ndarray, extent: int, num_parts: int, balance: bool) -> Bounds:
    if balance:
        return balanced_bounds(_histogram(coords, extent), num_parts)
    return equal_bounds(extent, num_parts)


def _bin(coords: np.ndarray, bounds: Bounds) -> np.ndarray:
    """Partition index of every coordinate (``bucket_of``, all at once)."""
    uppers = np.array([hi for _lo, hi in bounds])
    return np.searchsorted(uppers, coords, side="right")


def _fill_blocks(
    partitions: IterationPartitions,
    entries: Sequence[Entry],
    space_idx: np.ndarray,
    time_idx: np.ndarray,
    time_coords: Optional[np.ndarray] = None,
) -> IterationPartitions:
    """Group entries into ``partitions.blocks`` by their block indices.

    Within a block, entries keep their input order, or with
    ``time_coords`` are stably sorted by them (the canonical order of
    :func:`sort_blocks_by_dim`).  Blocks are inserted in order of their
    first entry, as a per-entry pass would insert them.
    """
    if not len(entries):
        return partitions
    stride = int(time_idx.max()) + 1
    block_id = space_idx * stride + time_idx
    if time_coords is None:
        order = np.argsort(block_id, kind="stable")
    else:
        order = np.lexsort((time_coords, block_id))
    sorted_ids = block_id[order]
    starts = np.flatnonzero(np.diff(sorted_ids)) + 1
    starts = np.concatenate(([0], starts))
    stops = np.append(starts[1:], len(order))
    first_entry = np.minimum.reduceat(order, starts)
    ordered = list(map(entries.__getitem__, order.tolist()))
    for run in np.argsort(first_entry).tolist():
        space, time = divmod(int(sorted_ids[starts[run]]), stride)
        partitions.blocks[(space, time)] = ordered[starts[run]:stops[run]]
    return partitions


def partition_1d(
    entries: Sequence[Entry],
    dim: int,
    extent: int,
    num_parts: int,
    balance: bool = True,
) -> IterationPartitions:
    """Partition entries along one iteration-space dimension."""
    (coords,) = _coordinates(entries, (dim,))
    bounds = _cut(coords, extent, num_parts, balance)
    partitions = IterationPartitions(
        num_space=num_parts, num_time=1, space_bounds=bounds
    )
    return _fill_blocks(
        partitions, entries, _bin(coords, bounds), np.zeros_like(coords)
    )


def partition_2d(
    entries: Sequence[Entry],
    space_dim: int,
    time_dim: int,
    space_extent: int,
    time_extent: int,
    num_space: int,
    num_time: int,
    balance: bool = True,
    time_sorted: bool = False,
) -> IterationPartitions:
    """Partition entries into a (space × time) grid of blocks.

    With ``time_sorted`` every block holds the canonical order of
    :func:`sort_blocks_by_dim` along ``time_dim``, in the same pass.
    """
    space_coords, time_coords = _coordinates(entries, (space_dim, time_dim))
    space_bounds = _cut(space_coords, space_extent, num_space, balance)
    time_bounds = _cut(time_coords, time_extent, num_time, balance)
    partitions = IterationPartitions(
        num_space=num_space,
        num_time=num_time,
        space_bounds=space_bounds,
        time_bounds=time_bounds,
    )
    return _fill_blocks(
        partitions,
        entries,
        _bin(space_coords, space_bounds),
        _bin(time_coords, time_bounds),
        time_coords if time_sorted else None,
    )


def sort_blocks_by_dim(partitions: IterationPartitions, dim: int) -> None:
    """Stably sort every block's entries by one iteration-space dimension.

    The unordered-2D canonical order: with each block's entries sorted by
    the *time* coordinate (stable, so same-coordinate entries keep their
    dataset order), a worker's rotation over any time tiling concatenates
    to the same per-worker entry sequence — coarse bins traversed whole
    equal their fine sub-bins traversed in rotation order.  That is the
    invariant that makes a mid-run pipeline-depth change bit-identical
    (see :func:`retile_time_2d`); it must therefore hold from the *first*
    epoch, not just after a re-tile.
    """
    for entries in partitions.blocks.values():
        entries.sort(key=lambda entry: entry[0][dim])


def retile_time_2d(
    entries: Sequence[Entry],
    space_dim: int,
    time_dim: int,
    time_extent: int,
    space_bounds: Optional[Bounds],
    num_time: int,
    balance: bool = True,
) -> IterationPartitions:
    """Re-cut only the *time* dimension of an existing 2D partitioning.

    The adaptive tuner's legal re-tiling primitive (``docs/tuning.md``):
    the given ``space_bounds`` are reused verbatim — never recomputed —
    so every entry provably stays on the worker that owned it before, and
    blocks hold the canonical time-sorted entry order
    (:func:`sort_blocks_by_dim`), so each worker's rotation concatenates
    to the same per-worker entry sequence at every depth.  Changing
    ``num_time`` therefore changes scheduling granularity without
    changing the execution linearization, which is what keeps results
    bit-identical across pipeline depths (the executor additionally
    verifies that the worker-start time cuts nest before committing a
    re-tile).
    """
    if space_bounds is None:
        raise PartitionError(
            "retile_time_2d needs the existing space bounds "
            "(equal/balanced cuts from the original partitioning)"
        )
    space_coords, time_coords = _coordinates(entries, (space_dim, time_dim))
    time_bounds = _cut(time_coords, time_extent, num_time, balance)
    partitions = IterationPartitions(
        num_space=len(space_bounds),
        num_time=num_time,
        space_bounds=list(space_bounds),
        time_bounds=time_bounds,
    )
    return _fill_blocks(
        partitions,
        entries,
        _bin(space_coords, space_bounds),
        _bin(time_coords, time_bounds),
        time_coords,
    )


def partition_transformed(
    entries: Sequence[Entry],
    matrix: Matrix,
    num_space: int,
    num_time: int,
) -> IterationPartitions:
    """Partition entries by their unimodular-transformed coordinates.

    The transformed level 0 becomes the time dimension (it carries every
    dependence, so its blocks run sequentially) and level 1 the space
    dimension.  Block boundaries are balanced on the transformed
    coordinates' empirical distribution.
    """
    if not entries:
        raise PartitionError("cannot partition an empty iteration space")
    transformed = [
        (transform_point(matrix, key), key, value) for key, value in entries
    ]
    time_coords = np.array([q[0] for q, _k, _v in transformed])
    space_coords = np.array([q[1] for q, _k, _v in transformed])

    def _bounds_from(coords: np.ndarray, parts: int) -> Bounds:
        lo, hi = int(coords.min()), int(coords.max()) + 1
        shifted = np.bincount(coords - lo, minlength=hi - lo)
        ranges = balanced_bounds(shifted, parts)
        return [(rlo + lo, rhi + lo) for rlo, rhi in ranges]

    time_bounds = _bounds_from(time_coords, num_time)
    space_bounds = _bounds_from(space_coords, num_space)
    time_uppers = np.array([hi for _lo, hi in time_bounds])
    space_uppers = np.array([hi for _lo, hi in space_bounds])
    partitions = IterationPartitions(
        num_space=num_space,
        num_time=num_time,
        space_bounds=space_bounds,
        time_bounds=time_bounds,
    )
    for q, key, value in transformed:
        time_idx = int(np.searchsorted(time_uppers, q[0], side="right"))
        space_idx = int(np.searchsorted(space_uppers, q[1], side="right"))
        partitions.blocks.setdefault((space_idx, time_idx), []).append((key, value))
    return partitions
