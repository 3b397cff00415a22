"""Batched-kernel execution support (the executor's vectorized fast path).

The scalar execution path runs ``body(key, value)`` once per sparse entry,
funnelling every DistArray element access through ``__getitem__`` → broker
→ per-element lookups.  Once the plan has proven a block safe to execute
as one sequential unit, that per-entry dispatch is pure overhead: an app
may instead register a *kernel* — ``kernel(block_entries, kctx)`` — that
applies the same updates with bulk NumPy operations over the whole block.

The contract a kernel must satisfy:

* **Bit-identical state**: after the kernel runs, every DistArray and
  DistArray Buffer must hold exactly the values the scalar body loop would
  have produced for the same block in entry order.  (In practice: vectorize
  elementwise arithmetic freely — NumPy broadcasting applies the same
  per-element operation chain — but keep reductions such as dot products
  in the scalar body's exact form, and split entries that touch the same
  parameter into conflict-free dependence levels run in order, see
  :func:`conflict_free_levels`.)
* **Identical accounting**: declare every DistArray access the body would
  have made through the :class:`KernelContext` ``account_*`` methods, so
  traffic counters and the serializability validator see the same numbers
  as the scalar path.
* **Determinism**: per block, the same ``account_*`` call sequence every
  epoch (the declarations are memoized across epochs).

Kernels are only invoked when the plan legally permits block-batched
execution (see ``OrionExecutor``); otherwise the scalar body runs.
"""

from __future__ import annotations

from typing import Any, Callable, Dict, List, Optional, Sequence, Tuple

import numpy as np

from repro.core import access
from repro.core.distarray import DistArray
from repro.runtime.pserver import index_nbytes

__all__ = [
    "KernelContext",
    "PlainBroker",
    "conflict_free_groups_nd",
    "conflict_free_levels",
    "normalize_index",
    "scalar_pow",
]

_FULL = slice(None)


class _NullStats:
    """Accounting sink for brokers that only move data."""

    __slots__ = ("server_reads", "server_read_bytes", "accesses")

    def __init__(self) -> None:
        self.server_reads = 0
        self.server_read_bytes = 0
        self.accesses: List[Tuple[str, Tuple[Any, ...], bool]] = []


class PlainBroker(access.AccessBroker):
    """Data-movement-only broker for running kernels outside the simulator.

    The multiprocess backend executes kernels *inside* worker processes,
    where virtual-clock accounting is meaningless (the master owns the
    timeline) and validation runs on the simulated oracle instead.  This
    broker direct-passes every read/write to the arrays and swallows the
    ``account_*`` declarations: no server byte counters, no access records,
    so :class:`KernelContext` stays usable verbatim in workers.
    """

    validate = False
    server_ids: frozenset = frozenset()

    def __init__(self) -> None:
        self.stats = _NullStats()


def normalize_index(index: Any) -> Tuple[Any, ...]:
    """Hashable normal form of a subscript, as the validator records it."""
    if not isinstance(index, tuple):
        index = (index,)
    out: List[Any] = []
    for item in index:
        if isinstance(item, slice):
            out.append(("range", item.start, item.stop))
        else:
            out.append(("pt", int(item)))
    return tuple(out)


def conflict_free_groups_nd(
    seqs: Sequence[Sequence[int]],
) -> List[Tuple[int, int]]:
    """Split entries into maximal contiguous runs with no repeated index.

    ``seqs`` holds one per-entry index sequence per conflict dimension
    (all the same length).  A run breaks as soon as any dimension repeats
    a value already seen in the current run; within a run, no two entries
    touch the same parameter index on any conflict dimension.  Runs are
    half-open ``(lo, hi)`` ranges into the input order.  Kernels batch by
    :func:`conflict_free_levels` instead, which never makes more groups.
    """
    if not seqs:
        return []
    n = len(seqs[0])
    groups: List[Tuple[int, int]] = []
    lo = 0
    seen: List[set] = [set() for _ in seqs]
    for position in range(n):
        values = [seq[position] for seq in seqs]
        if any(v in s for v, s in zip(values, seen)):
            groups.append((lo, position))
            lo = position
            seen = [{v} for v in values]
        else:
            for s, v in zip(seen, values):
                s.add(v)
    if lo < n:
        groups.append((lo, n))
    return groups


def conflict_free_levels(seqs: Sequence[Sequence[int]]) -> List[np.ndarray]:
    """Group a block's entries into dependence levels.

    ``seqs`` holds one per-entry index sequence per conflict dimension
    (all the same length).  An entry's level is one more than the highest
    level of any *earlier* entry sharing a value with it on some conflict
    dimension (0 when there is none).  Each level is returned as an
    ascending index array into the input order, lowest level first.

    No two entries of one level share an index on any conflict dimension,
    so a vectorized gather-update-scatter over a level is exactly the
    sequential execution of its entries.  Any two entries that do share an
    index sit on strictly increasing levels in input order, so running the
    levels in order is a topological order of the block's sequential
    dependence graph: entries that conflict keep their relative order and
    the rest commute, which makes the result bit-identical to the scalar
    loop.  There are never more levels than contiguous runs of
    :func:`conflict_free_groups_nd`: an entry's level is at most the
    index of its run.
    """
    if not seqs or len(seqs[0]) == 0:
        return []
    columns = [
        seq.tolist() if isinstance(seq, np.ndarray) else list(seq)
        for seq in seqs
    ]
    # The levels of the entries sharing one value strictly increase with
    # position, so the latest of them holds their maximum: one dict per
    # conflict dimension, value -> level of its latest entry, suffices.
    latest: List[Dict[Any, int]] = [{} for _ in columns]
    levels: List[int] = []
    for values in zip(*columns):
        level = 0
        for seen, value in zip(latest, values):
            below = seen.get(value, -1)
            if below >= level:
                level = below + 1
        for seen, value in zip(latest, values):
            seen[value] = level
        levels.append(level)
    level_of = np.array(levels, dtype=np.intp)
    order = np.argsort(level_of, kind="stable")
    stops = np.cumsum(np.bincount(level_of)).tolist()
    return [order[lo:hi] for lo, hi in zip([0] + stops[:-1], stops)]


def scalar_pow(base: Any, exponent: Any) -> Any:
    """Elementwise ``**`` that is bit-identical to the scalar interpreter.

    NumPy's vectorized ``**`` uses a SIMD pow that differs from Python's
    scalar pow in the last ulp for a few percent of inputs, which would
    break the kernel contract's bit-identity clause.  This helper applies
    Python-level ``**`` per element (``np.float64.__pow__`` matches
    ``float.__pow__`` exactly), trading speed for faithfulness on the rare
    bodies that exponentiate.
    """
    b, e = np.broadcast_arrays(np.asarray(base), np.asarray(exponent))
    out = np.empty(b.shape, dtype=np.result_type(b, e))
    flat_out = out.reshape(-1)
    flat_b = b.reshape(-1)
    flat_e = e.reshape(-1)
    for i in range(flat_out.size):
        flat_out[i] = flat_b[i] ** flat_e[i]
    return out


class KernelContext:
    """Handed to an app kernel for one block execution.

    Provides bulk data movement (:meth:`bulk_read`, :meth:`bulk_write`,
    :meth:`buffer_add`) and accounting-only declarations (``account_*``)
    for kernels that read and write the dense backing arrays directly.
    Accounting declarations reproduce exactly what the scalar body's
    per-element broker traffic would have recorded — server read counts
    and bytes, and (in validation mode) the normalized access records the
    serializability checker consumes.

    Attributes:
        worker: the simulated worker executing the block.
        cache: a per-block dict that persists across epochs — kernels use
            it to memoize index arrays, dependence levels, and anything
            else derivable from the (immutable) block entry list.
    """

    def __init__(self, broker: Any, worker: int, cache: Dict[Any, Any]) -> None:
        self.broker = broker
        self.worker = worker
        self.cache = cache
        self._seq = 0

    # ---------------- bulk data movement ------------------------------- #

    def bulk_read(self, array: DistArray, indices: Sequence[Any]) -> Any:
        """Accounted bulk point/set read through the broker."""
        return self.broker.bulk_read(array, indices)

    def bulk_write(
        self, array: DistArray, indices: Sequence[Any], values: Sequence[Any]
    ) -> None:
        """Accounted bulk point/set write through the broker."""
        self.broker.bulk_write(array, indices, values)

    def buffer_add(
        self, buffer: Any, indices: Sequence[Any], values: Sequence[Any]
    ) -> None:
        """Merge many writes into a DistArray Buffer, in order (exactly N
        scalar buffered writes)."""
        self.broker.bulk_buffer_write(buffer, indices, values)

    # ---------------- accounting-only declarations --------------------- #
    #
    # Each call declares the accesses the scalar body would have made; the
    # derived quantities (byte totals, normalized records) are memoized in
    # the block cache under the call's sequence number, so epochs after the
    # first pay one dict lookup per declaration.  A broker that neither
    # counts server reads nor validates never builds them.

    def account_point_reads(self, array: DistArray, keys: Sequence[Any]) -> None:
        """Declare N point reads (``array[key]`` per key)."""
        self._account(array, False, lambda: list(keys))

    def account_point_writes(self, array: DistArray, keys: Sequence[Any]) -> None:
        """Declare N point writes."""
        self._account(array, True, lambda: list(keys))

    def account_col_reads(self, array: DistArray, cols: Sequence[int]) -> None:
        """Declare N whole-column reads (``array[:, c]`` per c)."""
        self._account(array, False, lambda: [(_FULL, int(c)) for c in cols])

    def account_col_writes(self, array: DistArray, cols: Sequence[int]) -> None:
        """Declare N whole-column writes."""
        self._account(array, True, lambda: [(_FULL, int(c)) for c in cols])

    def account_row_reads(self, array: DistArray, rows: Sequence[int]) -> None:
        """Declare N whole-row reads (``array[r, :]`` per r)."""
        self._account(array, False, lambda: [(int(r), _FULL) for r in rows])

    def account_row_writes(self, array: DistArray, rows: Sequence[int]) -> None:
        """Declare N whole-row writes."""
        self._account(array, True, lambda: [(int(r), _FULL) for r in rows])

    def account_full_reads(self, array: DistArray, count: int) -> None:
        """Declare ``count`` full-array reads (``array[:]`` per entry)."""
        self._account(array, False, lambda: [_FULL] * count)

    def account_reads(self, array: DistArray, indices: Sequence[Any]) -> None:
        """Declare N reads with raw subscripts (ints, tuples, slices) —
        the generic form synthesized kernels emit for arbitrary sites."""
        self._account(array, False, lambda: list(indices))

    def account_writes(self, array: DistArray, indices: Sequence[Any]) -> None:
        """Declare N writes with raw subscripts."""
        self._account(array, True, lambda: list(indices))

    # ---------------- internals ---------------------------------------- #

    def _account(
        self,
        array: DistArray,
        write: bool,
        build_indices: Callable[[], List[Any]],
    ) -> None:
        broker = self.broker
        tag = ("acct", self._seq, array.name, write)
        self._seq += 1
        server = not write and id(array) in broker.server_ids
        if not server and not broker.validate:
            # Nothing is counted or recorded (always so on a worker's
            # PlainBroker): skip building the per-entry indices.
            return
        cached = self.cache.get(tag)
        if cached is None:
            indices = build_indices()
            count = len(indices)
            nbytes = 0
            if server:
                nbytes = sum(index_nbytes(array, index) for index in indices)
            records: Optional[List[Tuple[str, Tuple[Any, ...], bool]]] = None
            if broker.validate:
                name = array.name
                records = [
                    (name, normalize_index(index), write) for index in indices
                ]
            self.cache[tag] = cached = (count, nbytes, records)
        count, nbytes, records = cached
        stats = broker.stats
        if server:
            stats.server_reads += count
            stats.server_read_bytes += nbytes
        if records is not None:
            stats.accesses.extend(records)
