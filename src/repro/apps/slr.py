"""Sparse logistic regression via SGD (paper Table 2 rows 3-4).

Each sample reads and updates only the weights of its nonzero features —
subscripts that depend on runtime values, which static analysis cannot
bound.  Traditional dependence analysis would conservatively serialize the
loop; instead the program routes weight updates through a DistArray Buffer
(paper Sec. 3.3), turning the loop into 1D data parallelism, and the
weights are served by parameter servers with *bulk prefetching*
(Sec. 4.4): the synthesized prefetch function walks each sample's feature
list to collect weight indices, replacing per-read network round trips
with one bulk fetch per block.

The AdaRev variant applies buffered gradients with an AdaGrad-style
element-wise UDF — the atomic read-modify-write hook the paper highlights.
"""

from __future__ import annotations

from dataclasses import dataclass, replace
from typing import Any, Dict, List, Optional

import numpy as np

from repro.api import OrionContext
from repro.apps.base import (
    Entry,
    OrionProgram,
    SerialApp,
    resolve_kernel_option,
)
from repro.data.synthetic import SLRDataset
from repro.runtime.cluster import ClusterSpec
from repro.runtime.options import LoopOptions
from repro.runtime.simtime import CostModel

__all__ = ["SLRHyper", "SLRApp", "build_orion_program", "slr_cost_model", "logistic_loss"]


@dataclass(frozen=True)
class SLRHyper:
    """Hyperparameters for sparse logistic regression."""

    step_size: float = 0.1
    adarev: bool = False
    adarev_step: float = 0.5
    epsilon: float = 1e-8


def logistic_loss(weights: np.ndarray, entries: List[Entry]) -> float:
    """Mean logistic loss of ``weights`` over the training entries."""
    total = 0.0
    for (_sample,), (features, label) in entries:
        margin = sum(weights[fid] * fval for fid, fval in features)
        # log(1 + exp(-y·margin)) with y in {-1, +1}
        signed = margin if label == 1 else -margin
        total += float(np.log1p(np.exp(-signed)))
    return total / max(1, len(entries))


def slr_cost_model(hyper: SLRHyper, base_entry_cost: float = 2e-6) -> CostModel:
    """Per-sample compute cost (~nnz multiply-adds, heavier with AdaRev)."""
    factor = 1.6 if hyper.adarev else 1.0
    return CostModel(entry_cost_s=base_entry_cost * factor)


def _block_prep(block, kctx):
    """Flattened feature ids/values + per-sample extents, cached per block.

    Everything here derives from the immutable block entry list, so the
    first epoch builds it and later epochs reuse it.
    """
    prep = kctx.cache.get("prep")
    if prep is None:
        flat_fids: list = []
        meta = []
        for _key, (features, target) in block:
            flat_fids.extend(fid for fid, _fval in features)
            meta.append((len(features), target))
        flat_fvals = np.array(
            [fval for _key, (features, _t) in block for _fid, fval in features],
            dtype=np.float64,
        )
        fid_index = np.array(flat_fids, dtype=np.intp)
        kctx.cache["prep"] = prep = (flat_fids, fid_index, flat_fvals, meta)
    return prep


def build_orion_program(
    dataset: SLRDataset,
    cluster: Optional[ClusterSpec] = None,
    hyper: SLRHyper = SLRHyper(),
    seed: int = 0,
    label: Optional[str] = None,
    use_kernel: Any = True,
    options: Optional[LoopOptions] = None,
) -> OrionProgram:
    """Build the SLR Orion program (1D data parallelism with buffers).

    ``use_kernel`` registers a batched block kernel: one weight gather for
    the whole block (legal because every update is buffered until the block
    boundary, so the weights are frozen during the block), sequential
    per-sample margin accumulation in the body's exact order, and one bulk
    buffer merge — bit-identical weights and traffic accounting to the
    scalar path.  ``options`` configures the loop; ``use_kernel``
    overrides its ``kernel`` field.
    """
    cluster = cluster or ClusterSpec(num_machines=1, workers_per_machine=4)
    ctx = OrionContext(cluster=cluster, seed=seed)
    samples = ctx.from_entries(dataset.entries, name="samples", shape=dataset.shape)
    ctx.materialize(samples)
    weights = ctx.zeros(dataset.num_features, name="weights")
    ctx.materialize(weights)
    step_size = hyper.step_size

    if hyper.adarev:
        n2 = np.full(dataset.num_features, hyper.epsilon)
        ada_step = hyper.adarev_step

        def apply_adagrad(key, current, grad):
            n2[key[0]] += grad * grad
            return current - ada_step * grad / np.sqrt(n2[key[0]])

        weight_buf = ctx.dist_array_buffer(
            weights, apply_fn=apply_adagrad, name="weight_buf"
        )

        def body(key, sample):
            features, target = sample
            margin = 0.0
            for fid, fval in features:
                margin = margin + weights[fid] * fval
            prob = 1.0 / (1.0 + np.exp(-margin))
            grad_scale = prob - target
            for fid, fval in features:
                weight_buf[fid] = grad_scale * fval

        def coefficient(grad_scale):
            return grad_scale
    else:
        weight_buf = ctx.dist_array_buffer(weights, name="weight_buf")

        def body(key, sample):
            features, target = sample
            margin = 0.0
            for fid, fval in features:
                margin = margin + weights[fid] * fval
            prob = 1.0 / (1.0 + np.exp(-margin))
            grad_scale = prob - target
            for fid, fval in features:
                weight_buf[fid] = -step_size * grad_scale * fval

        def coefficient(grad_scale):
            return -step_size * grad_scale

    def kernel(block, kctx):
        flat_fids, fid_index, flat_fvals, meta = _block_prep(block, kctx)
        wd = weights.values
        # Buffered updates only reach the weights at the block boundary, so
        # one gather serves every sample's margin terms.
        products = wd[fid_index] * flat_fvals
        values = np.empty(len(flat_fvals))
        offset = 0
        for num_features, target in meta:
            end = offset + num_features
            # Sequential accumulation in the body's exact order (a
            # vectorized sum pairs terms differently).
            margin = 0.0
            for term in products[offset:end]:
                margin = margin + term
            prob = 1.0 / (1.0 + np.exp(-margin))
            grad_scale = prob - target
            values[offset:end] = coefficient(grad_scale) * flat_fvals[offset:end]
            offset = end
        kctx.buffer_add(weight_buf, flat_fids, values)
        kctx.account_point_reads(weights, flat_fids)

    kernel_opt = resolve_kernel_option(use_kernel, kernel)
    opts = replace(options or LoopOptions(), kernel=kernel_opt)
    loop = ctx.parallel_for(samples, options=opts)(body)

    def loss_fn() -> float:
        return logistic_loss(weights.values, dataset.entries)

    name = label or ("Orion SLR AdaRev" if hyper.adarev else "Orion SLR")
    return OrionProgram(
        label=name,
        ctx=ctx,
        epoch_fn=lambda: loop.run(),
        loss_fn=loss_fn,
        train_loop=loop,
        arrays={"samples": samples, "weights": weights},
        meta={"hyper": hyper},
    )


class SLRApp(SerialApp):
    """Numpy form of SLR for the baseline engines."""

    def __init__(self, dataset: SLRDataset, hyper: SLRHyper = SLRHyper()) -> None:
        self.dataset = dataset
        self.hyper = hyper
        self.name = "slr_adarev" if hyper.adarev else "slr"
        self.entry_cost_factor = 1.6 if hyper.adarev else 1.0

    def init_state(self, seed: int = 0) -> Dict[str, np.ndarray]:
        state = {"weights": np.zeros(self.dataset.num_features)}
        if self.hyper.adarev:
            state["n2"] = np.full(self.dataset.num_features, self.hyper.epsilon)
        return state

    def apply_entry(self, state: Dict[str, np.ndarray], key, value) -> None:
        features, target = value
        weights = state["weights"]
        margin = sum(weights[fid] * fval for fid, fval in features)
        prob = 1.0 / (1.0 + np.exp(-margin))
        grad_scale = prob - target
        if self.hyper.adarev:
            n2 = state["n2"]
            for fid, fval in features:
                grad = grad_scale * fval
                n2[fid] += grad * grad
                weights[fid] -= self.hyper.adarev_step * grad / np.sqrt(n2[fid])
        else:
            for fid, fval in features:
                weights[fid] -= self.hyper.step_size * grad_scale * fval

    def loss(self, state: Dict[str, np.ndarray]) -> float:
        return logistic_loss(state["weights"], self.dataset.entries)

    def entries(self) -> List[Entry]:
        return self.dataset.entries
