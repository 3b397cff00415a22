"""Gradient boosted regression trees (paper Table 2 row 6, 1D parallel).

Histogram-based GBT in the Orion programming model.  Each boosting round
grows one depth-limited regression tree:

1. **Histogram loops** (one per tree level): every sample adds its residual
   gradient into per-(leaf, feature, bin) histograms.  The histogram
   subscripts are data dependent, so those writes go through DistArray
   Buffers; the per-sample state (``preds``, ``node_assign``) is subscripted
   ``[key[0]]`` and pins the loop to *1D* parallelization over samples.
2. **Driver split selection**: reads the flushed histograms, picks the
   variance-reducing split per leaf.
3. **Grow loop**: routes each sample to its child node.
4. **Apply loop**: adds the finished tree's leaf values into predictions.

Feature values are pre-quantized into ``num_bins`` buckets, as in
production GBT systems.
"""

from __future__ import annotations

from dataclasses import dataclass, replace
from typing import Any, Dict, List, Optional

import numpy as np

from repro.api import OrionContext
from repro.apps.base import (
    OrionProgram,
    resolve_kernel_option,
)
from repro.data.synthetic import TableDataset
from repro.runtime.cluster import ClusterSpec
from repro.runtime.options import LoopOptions
from repro.runtime.simtime import CostModel

__all__ = ["GBTHyper", "build_orion_program", "gbt_cost_model", "quantize_features"]


@dataclass(frozen=True)
class GBTHyper:
    """Boosting hyperparameters."""

    num_rounds: int = 10
    max_depth: int = 3
    learning_rate: float = 0.3
    num_bins: int = 16
    min_samples_split: int = 8


def gbt_cost_model(
    hyper: GBTHyper, num_features: int, base_entry_cost: float = 1e-6
) -> CostModel:
    """Per-sample cost: one histogram contribution per feature per level."""
    factor = num_features * hyper.max_depth / 8.0
    return CostModel(entry_cost_s=base_entry_cost * factor)


def quantize_features(features: np.ndarray, num_bins: int) -> np.ndarray:
    """Per-column quantile binning of a dense feature matrix."""
    binned = np.zeros_like(features, dtype=np.int64)
    for column in range(features.shape[1]):
        edges = np.quantile(
            features[:, column], np.linspace(0, 1, num_bins + 1)[1:-1]
        )
        binned[:, column] = np.searchsorted(edges, features[:, column])
    return np.minimum(binned, num_bins - 1)


def _best_splits(
    hist_sum: np.ndarray,
    hist_cnt: np.ndarray,
    active_leaves: List[int],
    min_samples: int,
) -> Dict[int, tuple]:
    """Variance-reduction split per active leaf from its histograms.

    Returns leaf -> (feature, bin_threshold) for leaves worth splitting.
    """
    splits: Dict[int, tuple] = {}
    num_features, num_bins = hist_sum.shape[1], hist_sum.shape[2]
    for leaf in active_leaves:
        total_sum = float(hist_sum[leaf, 0].sum())
        total_cnt = float(hist_cnt[leaf, 0].sum())
        if total_cnt < min_samples:
            continue
        base_score = total_sum * total_sum / max(total_cnt, 1e-12)
        best = None
        for feature in range(num_features):
            left_sum = 0.0
            left_cnt = 0.0
            for threshold in range(num_bins - 1):
                left_sum += float(hist_sum[leaf, feature, threshold])
                left_cnt += float(hist_cnt[leaf, feature, threshold])
                right_sum = total_sum - left_sum
                right_cnt = total_cnt - left_cnt
                if left_cnt < 1 or right_cnt < 1:
                    continue
                score = (
                    left_sum * left_sum / left_cnt
                    + right_sum * right_sum / right_cnt
                    - base_score
                )
                if best is None or score > best[0]:
                    best = (score, feature, threshold)
        if best is not None and best[0] > 1e-12:
            splits[leaf] = (best[1], best[2])
    return splits


def build_orion_program(
    dataset: TableDataset,
    cluster: Optional[ClusterSpec] = None,
    hyper: GBTHyper = GBTHyper(),
    seed: int = 0,
    label: Optional[str] = None,
    use_kernel: Any = True,
    options: Optional[LoopOptions] = None,
) -> OrionProgram:
    """Build the GBT Orion program (one epoch = one boosting round).

    GBT has no hand kernel; ``use_kernel=True`` attempts synthesis
    (``kernel="auto"``) for each of the round's three loops.  The
    histogram loop batches (its shared writes are buffered); the grow and
    apply loops fall back to the scalar interpreter with W50x diagnostics
    (state-dependent branching / unbuffered shared writes).  ``options``
    configures all three loops; ``use_kernel`` overrides its ``kernel``
    field.
    """
    cluster = cluster or ClusterSpec(num_machines=1, workers_per_machine=4)
    ctx = OrionContext(cluster=cluster, seed=seed)
    binned = quantize_features(dataset.features, hyper.num_bins)
    targets = dataset.targets
    entries = [
        ((i,), (binned[i], float(targets[i]))) for i in range(dataset.num_samples)
    ]
    samples = ctx.from_entries(entries, name="samples", shape=dataset.shape)
    ctx.materialize(samples)
    preds = ctx.zeros(dataset.num_samples, name="preds")
    node_assign = ctx.zeros(dataset.num_samples, name="node_assign")
    ctx.materialize(preds, node_assign)

    max_leaves = 2 ** hyper.max_depth
    num_features = dataset.num_features
    hist_sum = ctx.zeros(max_leaves, num_features, hyper.num_bins, name="hist_sum")
    hist_cnt = ctx.zeros(max_leaves, num_features, hyper.num_bins, name="hist_cnt")
    ctx.materialize(hist_sum, hist_cnt)
    sum_buf = ctx.dist_array_buffer(hist_sum, name="sum_buf")
    cnt_buf = ctx.dist_array_buffer(hist_cnt, name="cnt_buf")

    # Mutable driver state the loop bodies read through their closures
    # ("inherited variables may change between loop executions", Sec. 3.2).
    splits_by_leaf: Dict[int, tuple] = {}
    leaf_values = np.zeros(max_leaves)
    learning_rate = hyper.learning_rate

    def hist_body(key, sample):
        bins, target = sample
        leaf = int(node_assign[key[0]])
        residual = target - preds[key[0]]
        for feature in range(num_features):
            sum_buf[leaf, feature, bins[feature]] = residual
            cnt_buf[leaf, feature, bins[feature]] = 1.0

    def grow_body(key, sample):
        bins, target = sample
        leaf = int(node_assign[key[0]])
        split = splits_by_leaf.get(leaf)
        if split is None:
            node_assign[key[0]] = leaf * 2
        else:
            feature, threshold = split
            node_assign[key[0]] = leaf * 2 + (1 if bins[feature] > threshold else 0)

    def apply_body(key, sample):
        leaf = int(node_assign[key[0]])
        preds[key[0]] = preds[key[0]] + leaf_values[leaf]
        node_assign[key[0]] = 0.0

    kernel_opt = resolve_kernel_option(use_kernel)
    opts = replace(options or LoopOptions(), kernel=kernel_opt)
    hist_loop = ctx.parallel_for(samples, options=opts)(hist_body)
    grow_loop = ctx.parallel_for(samples, options=opts)(grow_body)
    apply_loop = ctx.parallel_for(samples, options=opts)(apply_body)

    def run_round():
        results = []
        for _level in range(hyper.max_depth):
            hist_sum.values[:] = 0.0
            hist_cnt.values[:] = 0.0
            results.extend(hist_loop.run())
            active = sorted(
                {
                    leaf
                    for leaf in range(max_leaves)
                    if hist_cnt.values[leaf].sum() > 0
                }
            )
            splits_by_leaf.clear()
            splits_by_leaf.update(
                _best_splits(
                    hist_sum.values,
                    hist_cnt.values,
                    active,
                    hyper.min_samples_split,
                )
            )
            results.extend(grow_loop.run())
        # Leaf values: mean residual per final leaf, from one last histogram.
        hist_sum.values[:] = 0.0
        hist_cnt.values[:] = 0.0
        results.extend(hist_loop.run())
        leaf_values[:] = 0.0
        for leaf in range(max_leaves):
            count = hist_cnt.values[leaf, 0].sum()
            if count > 0:
                leaf_values[leaf] = (
                    learning_rate * hist_sum.values[leaf, 0].sum() / count
                )
        results.extend(apply_loop.run())
        return results

    def loss_fn() -> float:
        residual = targets - preds.values
        return float(residual @ residual / len(targets))

    return OrionProgram(
        label=label or "Orion GBT",
        ctx=ctx,
        epoch_fn=run_round,
        loss_fn=loss_fn,
        train_loop=hist_loop,
        arrays={
            "samples": samples,
            "preds": preds,
            "node_assign": node_assign,
            "hist_sum": hist_sum,
            "hist_cnt": hist_cnt,
        },
        meta={"hyper": hyper},
    )
