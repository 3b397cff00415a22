"""Reproduce the numerical findings recorded in ``perfbench/NOTES.md``.

    python3 perfbench/findings.py slr        # SLR's loss rises instead of falling
    python3 perfbench/findings.py glove-nan  # GloVe at vocab 1000 goes NaN

Run from the root of a checkout.  Each finding prints its per-epoch loss
curves on one and on two workers; the notes quote the numbers.
"""

from __future__ import annotations

import sys
from pathlib import Path

import numpy as np

ROOT = Path(__file__).resolve().parent.parent
sys.path.insert(0, str(ROOT / "src"))

from repro.apps.embeddings import build_orion_program as build_glove  # noqa: E402
from repro.apps.embeddings import cooccurrence_corpus  # noqa: E402
from repro.apps.slr import SLRHyper  # noqa: E402
from repro.apps.slr import build_orion_program as build_slr  # noqa: E402
from repro.data.synthetic import sparse_classification  # noqa: E402
from repro.runtime.cluster import ClusterSpec  # noqa: E402
from repro.runtime.options import LoopOptions  # noqa: E402


def _curve(build, epochs: int, backend: str, workers: int) -> list:
    """Loss before training, then after each of ``epochs`` epochs."""
    with np.errstate(all="ignore"):
        program = build(
            cluster=ClusterSpec(num_machines=1, workers_per_machine=workers),
            options=LoopOptions(backend=backend),
        )
        try:
            losses = [program.loss_fn()]
            for _ in range(epochs):
                program.epoch_fn()
                losses.append(program.loss_fn())
        finally:
            program.close()
    return [float(loss) for loss in losses]


def _print_curves(label: str, build, epochs: int) -> None:
    for backend, workers in (("simulated", 1), ("multiprocess", 2)):
        losses = _curve(build, epochs, backend, workers)
        cells = " ".join(f"{loss:.4g}" for loss in losses)
        print(f"{label} {backend} x{workers}: {cells}")


def slr() -> None:
    data = sparse_classification(
        num_samples=4000, num_features=2000, nnz_per_sample=12, seed=5
    )
    for step in (0.2, 0.02):
        _print_curves(
            f"slr step {step}",
            lambda **kw: build_slr(
                data, hyper=SLRHyper(step_size=step), seed=7, **kw
            ),
            epochs=10,
        )


def glove_nan() -> None:
    data = cooccurrence_corpus(vocab_size=1000, num_tokens=150_000, seed=5)
    _print_curves(
        "glove vocab 1000",
        lambda **kw: build_glove(data, seed=7, **kw),
        epochs=8,
    )


FINDINGS = {"slr": slr, "glove-nan": glove_nan}


if __name__ == "__main__":
    if len(sys.argv) != 2 or sys.argv[1] not in FINDINGS:
        raise SystemExit(f"usage: findings.py {{{','.join(FINDINGS)}}}")
    FINDINGS[sys.argv[1]]()
