"""SGD matrix factorization (paper Alg. 1, Fig. 5; Table 2 rows 1-2).

Factorizes a sparse rating matrix ``V ≈ Wᵀ H`` by stochastic gradient
descent on the nonzero squared loss, optionally with Adaptive Revision
(AdaGrad-style adaptive step sizes).  The Orion form is the paper's
Fig. 5 program: iterating the ratings DistArray with factor-column reads
and writes ``W[:, key[0]]`` / ``H[:, key[1]]``, which static analysis
parallelizes as *2D unordered* with one factor matrix pinned and the other
rotated.
"""

from __future__ import annotations

from dataclasses import dataclass, replace
from operator import itemgetter
from typing import Any, Dict, List, Optional, Tuple

import numpy as np

from repro.api import OrionContext
from repro.apps.base import (
    Entry,
    OrionProgram,
    SerialApp,
    resolve_kernel_option,
)
from repro.data.synthetic import MFDataset
from repro.runtime.cluster import ClusterSpec
from repro.runtime.options import LoopOptions
from repro.runtime.kernels import conflict_free_levels
from repro.runtime.simtime import CostModel

__all__ = ["MFHyper", "SGDMFApp", "build_orion_program", "mf_cost_model", "nzsl"]

try:
    _vecdot = np.vecdot
except AttributeError:  # numpy < 2: row-wise dots, same strided operands

    def _vecdot(a: np.ndarray, b: np.ndarray) -> np.ndarray:
        return np.array([x @ y for x, y in zip(a, b)])


@dataclass(frozen=True)
class MFHyper:
    """Hyperparameters for SGD MF.

    ``adarev`` switches the update to adaptive revision (AdaGrad-style
    per-coordinate step sizes; identical to AdaGrad under serializable
    execution — see :mod:`repro.apps.optimizers`).
    """

    rank: int = 8
    step_size: float = 0.05
    adarev: bool = False
    adarev_step: float = 0.3
    epsilon: float = 1e-8
    init_scale: float = 0.1


def nzsl(
    W: np.ndarray,
    H: np.ndarray,
    rows: np.ndarray,
    cols: np.ndarray,
    values: np.ndarray,
) -> float:
    """Nonzero squared loss over the observed entries (paper's L_NZSL)."""
    predictions = np.einsum("ki,ki->i", W[:, rows], H[:, cols])
    residual = values - predictions
    return float(residual @ residual)


def _index_arrays(entries: List[Entry]) -> Tuple[np.ndarray, np.ndarray, np.ndarray]:
    n = len(entries)
    keys = list(map(itemgetter(0), entries))
    rows = np.fromiter(map(itemgetter(0), keys), np.int64, n)
    cols = np.fromiter(map(itemgetter(1), keys), np.int64, n)
    values = np.fromiter(map(itemgetter(1), entries), np.float64, n)
    return rows, cols, values


def mf_cost_model(hyper: MFHyper, base_entry_cost: float = 1e-6) -> CostModel:
    """Per-entry compute cost: linear in rank, ~2.8× with AdaRev.

    The AdaRev factor matches the paper's Table 3 throughput ratio between
    SGD MF and SGD MF AdaRev.
    """
    factor = hyper.rank / 8.0
    if hyper.adarev:
        factor *= 2.8
    return CostModel(entry_cost_s=base_entry_cost * factor)


def _block_prep(block, kctx):
    """Index arrays + dependence levels for one block, cached per block.

    Each level is pre-gathered as ``(single, rows, cols, values)``: one
    entry's scalars when ``single`` (the kernel replays the body exactly),
    the level's index and rating arrays otherwise.
    """
    prep = kctx.cache.get("prep")
    if prep is None:
        rows, cols, values = _index_arrays(block)
        levels = []
        for idx in conflict_free_levels([rows, cols]):
            if len(idx) == 1:
                k = idx[0]
                levels.append((True, rows[k], cols[k], values[k]))
            else:
                levels.append((False, rows[idx], cols[idx], values[idx]))
        kctx.cache["prep"] = prep = (rows, cols, levels)
    return prep


def build_orion_program(
    dataset: MFDataset,
    cluster: Optional[ClusterSpec] = None,
    hyper: MFHyper = MFHyper(),
    ordered: bool = False,
    eval_with_loop: bool = False,
    seed: int = 0,
    label: Optional[str] = None,
    use_kernel: Any = True,
    options: Optional[LoopOptions] = None,
) -> OrionProgram:
    """Build the paper's Fig. 5 program against the real Orion API.

    The loop body below is what static analysis sees; the chosen plan is
    2D (space = rows, time = cols) unordered unless ``ordered=True``.

    With ``eval_with_loop=True`` the training loss is measured the way
    Fig. 5 does — a *second* parallel for-loop over the ratings folding
    squared errors into an accumulator (lines 21-26 of the paper's
    listing) — instead of a driver-side vectorized computation.  The
    evaluation loop is read-only, so the analyzer parallelizes it 1D.

    ``use_kernel`` registers a batched block kernel that produces
    bit-identical factors and accounting to the per-entry body (vectorized
    elementwise updates over conflict-free dependence levels; dot products stay
    in the body's exact strided-view form).  Pass ``False`` to force the
    scalar path everywhere.

    ``options`` configures both loops; ``ordered`` and ``use_kernel``
    override its ``ordered`` and ``kernel`` fields for the training loop.
    """
    cluster = cluster or ClusterSpec(num_machines=1, workers_per_machine=4)
    ctx = OrionContext(cluster=cluster, seed=seed)
    ratings = ctx.from_entries(dataset.entries, name="ratings", shape=dataset.shape)
    ctx.materialize(ratings)
    K = hyper.rank
    W = ctx.randn(K, dataset.num_rows, name="W", scale=hyper.init_scale)
    H = ctx.randn(K, dataset.num_cols, name="H", scale=hyper.init_scale)
    ctx.materialize(W, H)
    step_size = hyper.step_size

    if hyper.adarev:
        # AdaRevision state per parameter: z (sum of applied gradients, used
        # for the delay correction g_bck = z_now - z_read; identically zero
        # under serializable execution) and z² (the adapted accumulator).
        # Maintaining z is what makes the same program delay-tolerant when a
        # data-parallel engine runs it — and it is extra rotated state, the
        # reason AdaRev's communication exceeds plain SGD MF's (Table 3).
        Wn2 = ctx.full((K, dataset.num_rows), hyper.epsilon, name="Wn2")
        Hn2 = ctx.full((K, dataset.num_cols), hyper.epsilon, name="Hn2")
        Wz = ctx.zeros(K, dataset.num_rows, name="Wz")
        Hz = ctx.zeros(K, dataset.num_cols, name="Hz")
        ctx.materialize(Wn2, Hn2, Wz, Hz)
        ada_step = hyper.adarev_step

        def body(key, rating):
            w_col = W[:, key[0]]
            h_col = H[:, key[1]]
            pred = w_col @ h_col
            diff = rating - pred
            w_grad = -2.0 * diff * h_col
            h_grad = -2.0 * diff * w_col
            wn2 = Wn2[:, key[0]] + w_grad * w_grad
            hn2 = Hn2[:, key[1]] + h_grad * h_grad
            Wn2[:, key[0]] = wn2
            Hn2[:, key[1]] = hn2
            Wz[:, key[0]] = Wz[:, key[0]] + w_grad
            Hz[:, key[1]] = Hz[:, key[1]] + h_grad
            W[:, key[0]] = w_col - ada_step * w_grad / np.sqrt(wn2)
            H[:, key[1]] = h_col - ada_step * h_grad / np.sqrt(hn2)

        def kernel(block, kctx):
            rows, cols, levels = _block_prep(block, kctx)
            Wd, Hd = W.values, H.values
            Wn2d, Hn2d = Wn2.values, Hn2.values
            Wzd, Hzd = Wz.values, Hz.values
            for single, r, c, v in levels:
                if single:
                    # Single-entry level: replay the body exactly (the
                    # batched dot below needs ≥ 2 columns to keep the
                    # strided reduction path).
                    i, j = r, c
                    w_col, h_col = Wd[:, i], Hd[:, j]
                    diff = v - w_col @ h_col
                    w_grad = -2.0 * diff * h_col
                    h_grad = -2.0 * diff * w_col
                    wn2 = Wn2d[:, i] + w_grad * w_grad
                    hn2 = Hn2d[:, j] + h_grad * h_grad
                    Wn2d[:, i] = wn2
                    Hn2d[:, j] = hn2
                    Wzd[:, i] = Wzd[:, i] + w_grad
                    Hzd[:, j] = Hzd[:, j] + h_grad
                    Wd[:, i] = w_col - ada_step * w_grad / np.sqrt(wn2)
                    Hd[:, j] = h_col - ada_step * h_grad / np.sqrt(hn2)
                    continue
                W_g = Wd.take(r, axis=1)
                H_g = Hd.take(c, axis=1)
                # One batched dot per level.  The transposed rows of a
                # C-ordered gather are strided vectors, which keeps vecdot
                # on the same sequential reduction the body's strided
                # ``w_col @ h_col`` uses — bit-identical predictions.
                preds = _vecdot(W_g.T, H_g.T)
                coeff = -2.0 * (v - preds)
                w_grads = coeff * H_g
                h_grads = coeff * W_g
                wn2 = Wn2d.take(r, axis=1) + w_grads * w_grads
                hn2 = Hn2d.take(c, axis=1) + h_grads * h_grads
                Wn2d[:, r] = wn2
                Hn2d[:, c] = hn2
                Wzd[:, r] = Wzd.take(r, axis=1) + w_grads
                Hzd[:, c] = Hzd.take(c, axis=1) + h_grads
                Wd[:, r] = W_g - ada_step * w_grads / np.sqrt(wn2)
                Hd[:, c] = H_g - ada_step * h_grads / np.sqrt(hn2)
            for array in (W, Wn2, Wz):
                kctx.account_col_reads(array, rows)
            for array in (H, Hn2, Hz):
                kctx.account_col_reads(array, cols)
    else:

        def body(key, rating):
            w_col = W[:, key[0]]
            h_col = H[:, key[1]]
            pred = w_col @ h_col
            diff = rating - pred
            W[:, key[0]] = w_col + step_size * 2.0 * diff * h_col
            H[:, key[1]] = h_col + step_size * 2.0 * diff * w_col

        scale = step_size * 2.0

        def kernel(block, kctx):
            rows, cols, levels = _block_prep(block, kctx)
            Wd, Hd = W.values, H.values
            for single, r, c, v in levels:
                if single:
                    # Single-entry level: replay the body exactly (the
                    # batched dot below needs ≥ 2 columns to keep the
                    # strided reduction path).
                    w_col, h_col = Wd[:, r], Hd[:, c]
                    coeff = scale * (v - w_col @ h_col)
                    w_new = w_col + coeff * h_col
                    Wd[:, r] = w_new
                    # The body writes W first, so its H update reads the
                    # already-updated W column.
                    Hd[:, c] = h_col + coeff * w_new
                    continue
                W_g = Wd.take(r, axis=1)
                H_g = Hd.take(c, axis=1)
                # One batched dot per level.  The transposed rows of a
                # C-ordered gather are strided vectors, which keeps vecdot
                # on the same sequential reduction the body's strided
                # ``w_col @ h_col`` uses — bit-identical predictions.
                preds = _vecdot(W_g.T, H_g.T)
                coeff = scale * (v - preds)
                W_new = W_g + coeff * H_g
                # The body writes W first, so its H update reads the
                # already-updated W column.
                Hd[:, c] = H_g + coeff * W_new
                Wd[:, r] = W_new
            kctx.account_col_reads(W, rows)
            kctx.account_col_reads(H, cols)

    base_opts = options or LoopOptions()
    kernel_opt = resolve_kernel_option(use_kernel, kernel)
    loop = ctx.parallel_for(
        ratings, options=replace(base_opts, ordered=ordered, kernel=kernel_opt)
    )(body)
    rows, cols, values = _index_arrays(dataset.entries)

    if eval_with_loop:
        err = ctx.accumulator("err", 0.0)

        def eval_body(key, rating):
            prediction = W[:, key[0]] @ H[:, key[1]]
            err.add((rating - prediction) ** 2)

        eval_loop = ctx.parallel_for(ratings, options=base_opts)(eval_body)

        def loss_fn() -> float:
            ctx.reset_accumulator("err")
            eval_loop.run()
            return float(ctx.get_aggregated_value("err"))
    else:
        eval_loop = None

        def loss_fn() -> float:
            return nzsl(W.values, H.values, rows, cols, values)

    name = label or ("Orion SGD MF AdaRev" if hyper.adarev else "Orion SGD MF")
    arrays = {"ratings": ratings, "W": W, "H": H}
    return OrionProgram(
        label=name,
        ctx=ctx,
        epoch_fn=lambda: loop.run(),
        loss_fn=loss_fn,
        train_loop=loop,
        arrays=arrays,
        meta={"hyper": hyper, "eval_loop": eval_loop},
    )


class SGDMFApp(SerialApp):
    """Numpy form of SGD MF for the baseline engines."""

    def __init__(self, dataset: MFDataset, hyper: MFHyper = MFHyper()) -> None:
        self.dataset = dataset
        self.hyper = hyper
        self.name = "sgd_mf_adarev" if hyper.adarev else "sgd_mf"
        self.entry_cost_factor = (hyper.rank / 8.0) * (2.8 if hyper.adarev else 1.0)
        self._rows, self._cols, self._values = _index_arrays(dataset.entries)

    def init_state(self, seed: int = 0) -> Dict[str, np.ndarray]:
        rng = np.random.default_rng(seed)
        K = self.hyper.rank
        state = {
            "W": rng.standard_normal((K, self.dataset.num_rows))
            * self.hyper.init_scale,
            "H": rng.standard_normal((K, self.dataset.num_cols))
            * self.hyper.init_scale,
        }
        if self.hyper.adarev:
            state["Wn2"] = np.full((K, self.dataset.num_rows), self.hyper.epsilon)
            state["Hn2"] = np.full((K, self.dataset.num_cols), self.hyper.epsilon)
        return state

    def apply_entry(self, state: Dict[str, np.ndarray], key, value) -> None:
        i, j = key
        W, H = state["W"], state["H"]
        w_col = W[:, i].copy()
        h_col = H[:, j].copy()
        diff = value - w_col @ h_col
        if self.hyper.adarev:
            w_grad = -2.0 * diff * h_col
            h_grad = -2.0 * diff * w_col
            state["Wn2"][:, i] += w_grad * w_grad
            state["Hn2"][:, j] += h_grad * h_grad
            W[:, i] = w_col - self.hyper.adarev_step * w_grad / np.sqrt(
                state["Wn2"][:, i]
            )
            H[:, j] = h_col - self.hyper.adarev_step * h_grad / np.sqrt(
                state["Hn2"][:, j]
            )
        else:
            W[:, i] = w_col + self.hyper.step_size * 2.0 * diff * h_col
            H[:, j] = h_col + self.hyper.step_size * 2.0 * diff * w_col

    def batch_gradient(
        self, state: Dict[str, np.ndarray], batch: List[Entry]
    ) -> Tuple[Dict[str, np.ndarray], Dict[str, np.ndarray]]:
        """Gradient of the batch loss at fixed ``state``, plus per-column
        touch counts (TensorFlow-style mini-batch engines apply the
        touch-normalized gradient once per batch)."""
        W, H = state["W"], state["H"]
        grad_W = np.zeros_like(W)
        grad_H = np.zeros_like(H)
        count_W = np.zeros(W.shape[1])
        count_H = np.zeros(H.shape[1])
        for (i, j), value in batch:
            diff = value - W[:, i] @ H[:, j]
            grad_W[:, i] += -2.0 * diff * H[:, j]
            grad_H[:, j] += -2.0 * diff * W[:, i]
            count_W[i] += 1
            count_H[j] += 1
        counts = {
            "W": np.maximum(count_W, 1.0)[None, :],
            "H": np.maximum(count_H, 1.0)[None, :],
        }
        return {"W": grad_W, "H": grad_H}, counts

    def loss(self, state: Dict[str, np.ndarray]) -> float:
        return nzsl(state["W"], state["H"], self._rows, self._cols, self._values)

    def entries(self) -> List[Entry]:
        return self.dataset.entries
