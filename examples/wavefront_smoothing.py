"""Wavefront computation via unimodular transformation (paper Sec. 4.3).

Not every parallelizable loop is an ML training loop.  This example runs a
Gauss-Seidel-style grid smoothing whose loop body reads the *left* and
*upper-left diagonal* neighbours it just wrote:

    grid[i, j] = 0.25 * (grid[i, j-1] + grid[i-1, j-1]) + 0.5 * grid[i, j]

The dependence vectors are {(0,1), (1,1)} — no iteration-space dimension
is all-zero (no 1D) and the diagonal vector defeats every 2D orientation.
Orion searches the unimodular transformations (interchange / reversal /
skew) for a matrix carrying every dependence on the transformed outer
level and schedules the inner level in parallel — the classic wavefront.

Run:  python examples/wavefront_smoothing.py
"""

import numpy as np

from repro import ClusterSpec, LoopOptions, OrionContext

N = 24
ctx = OrionContext(
    cluster=ClusterSpec(num_machines=2, workers_per_machine=4), seed=11
)

# Iterate over interior cells only, so the -1 offsets stay in bounds.
cells = ctx.from_entries(
    [((i, j), 1.0) for i in range(1, N) for j in range(1, N)],
    name="cells",
    shape=(N, N),
)
ctx.materialize(cells)
grid = ctx.rand(N, N, name="grid")
ctx.materialize(grid)
initial = grid.values.copy()


def smooth(key, _value):
    left = grid[key[0], key[1] - 1]
    diagonal = grid[key[0] - 1, key[1] - 1]
    grid[key[0], key[1]] = 0.25 * (left + diagonal) + 0.5 * grid[key[0], key[1]]


# The dependences require lexicographic order: this loop is `ordered`.
# Sanitize mode checks every epoch that the run honours the plan: each
# dependence is reported (S601) and the blocks one wavefront step runs
# concurrently touch disjoint cells (S605).
loop = ctx.parallel_for(
    cells, options=LoopOptions(ordered=True, sanitize=True)
)(smooth)
print(loop.explain())

loop.run(epochs=3)

# Cross-check against the plain serial loop on the saved initial state.
reference = initial.copy()
for _ in range(3):
    for i in range(1, N):
        for j in range(1, N):
            reference[i, j] = 0.25 * (
                reference[i, j - 1] + reference[i - 1, j - 1]
            ) + 0.5 * reference[i, j]

match = np.allclose(grid.values, reference)
print(f"matches the serial reference exactly: {match}")
print(f"grid roughness before: {np.abs(np.diff(initial, axis=1)).mean():.4f}")
print(f"grid roughness after:  {np.abs(np.diff(grid.values, axis=1)).mean():.4f}")
