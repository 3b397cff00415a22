"""Wall-clock throughput: scalar body vs hand kernels vs synthesized kernels.

Unlike the other benchmarks (which report *virtual* time from the cost
model), this one measures real host seconds: each app runs the same
program once per variant in the same process — ``use_kernel=False`` (the
per-entry interpreted body), ``use_kernel="hand"`` (the app's hand-written
block kernel, where one exists) and ``use_kernel="auto"`` (the kernel
synthesized from the loop body by ``repro.analysis.synth``) — and reports
entries/second for each plus speedups over scalar.  Results land in
``BENCH_wallclock.json`` at the repo root, with the host fingerprint
(``nproc``, platform, Python and NumPy versions) they were measured on.

Apps whose bodies synthesis cannot batch (LDA's sparse sampling) report
``"synth": null`` — they fall back to the scalar interpreter (W50x).

Run:  make bench-smoke        (or: PYTHONPATH=src python benchmarks/bench_wallclock.py)
"""

from __future__ import annotations

import json
import os
import platform
import sys
import time
from pathlib import Path

import numpy as np

from repro.apps.embeddings import build_orion_program as build_glove
from repro.apps.embeddings import cooccurrence_corpus
from repro.apps.lda import LDAHyper
from repro.apps.lda import build_orion_program as build_lda
from repro.apps.sgd_mf import MFHyper
from repro.apps.sgd_mf import build_orion_program as build_mf
from repro.apps.slr import SLRHyper
from repro.apps.slr import build_orion_program as build_slr
from repro.data.synthetic import lda_corpus, netflix_like, sparse_classification

EPOCHS = 3


def _measure(build, num_entries: int, variants=None) -> dict:
    """Time ``EPOCHS`` passes of each variant of one program, scalar first."""
    variants = variants or (
        ("scalar", False), ("hand", "hand"), ("synth", "auto")
    )
    out = {}
    for variant, use_kernel in variants:
        program = build(use_kernel=use_kernel)
        if use_kernel == "auto" and not program.train_loop.synthesis().engaged:
            out[variant] = None  # fell back: nothing distinct to measure
            continue
        program.epoch_fn()  # warm-up pass: block materialization, caches
        start = time.perf_counter()
        for _ in range(EPOCHS):
            program.epoch_fn()
        wall = time.perf_counter() - start
        out[variant] = {
            "wall_seconds": round(wall, 4),
            "entries_per_sec": round(EPOCHS * num_entries / wall, 1),
        }
    scalar_rate = out["scalar"]["entries_per_sec"]
    for variant in ("hand", "synth"):
        row = out.get(variant)
        out[f"speedup_{variant}"] = (
            round(row["entries_per_sec"] / scalar_rate, 2) if row else None
        )
    return out


def host_fingerprint() -> dict:
    """The host facts a wall-clock number depends on."""
    return {
        "nproc": os.cpu_count(),
        "machine": platform.machine(),
        "python": platform.python_version(),
        "numpy": np.__version__,
    }


def run(out_path: Path) -> dict:
    mf = netflix_like(num_rows=300, num_cols=240, num_ratings=18000, seed=5)
    slr = sparse_classification(
        num_samples=4000, num_features=2000, nnz_per_sample=12, seed=5
    )
    lda = lda_corpus(num_docs=150, vocab_size=200, num_topics=8, doc_length=30, seed=5)
    glove = cooccurrence_corpus(vocab_size=300, num_tokens=40000, seed=5)

    results = {
        "host": host_fingerprint(),
        "epochs_timed": EPOCHS,
        "apps": {
            "sgd_mf": _measure(
                lambda use_kernel: build_mf(mf, seed=7, use_kernel=use_kernel),
                len(mf.entries),
            ),
            "sgd_mf_adarev": _measure(
                lambda use_kernel: build_mf(
                    mf, hyper=MFHyper(adarev=True), seed=7, use_kernel=use_kernel
                ),
                len(mf.entries),
            ),
            "slr": _measure(
                lambda use_kernel: build_slr(
                    slr, hyper=SLRHyper(step_size=0.2), seed=7, use_kernel=use_kernel
                ),
                len(slr.entries),
            ),
            "lda": _measure(
                lambda use_kernel: build_lda(
                    lda, hyper=LDAHyper(num_topics=8), seed=7, use_kernel=use_kernel
                ),
                len(lda.entries),
            ),
            # GloVe ships no hand kernel: synthesis is its only fast path.
            "glove": _measure(
                lambda use_kernel: build_glove(
                    glove, seed=7, use_kernel=use_kernel
                ),
                len(glove.entries),
                variants=(("scalar", False), ("synth", "auto")),
            ),
        },
    }
    out_path.write_text(json.dumps(results, indent=2) + "\n")
    return results


def main() -> int:
    out_path = Path(sys.argv[1]) if len(sys.argv) > 1 else (
        Path(__file__).resolve().parent.parent / "BENCH_wallclock.json"
    )
    results = run(out_path)
    print(f"wrote {out_path}")
    width = max(len(name) for name in results["apps"])
    for name, row in results["apps"].items():
        cells = [f"scalar {row['scalar']['entries_per_sec']:>11,.0f}/s"]
        for variant in ("hand", "synth"):
            if row.get(variant):
                cells.append(
                    f"{variant} {row[variant]['entries_per_sec']:>11,.0f}/s"
                    f" ({row[f'speedup_{variant}']:.2f}x)"
                )
            else:
                cells.append(f"{variant} {'—':>11s}")
        print(f"  {name:{width}s}  " + "  ".join(cells))
    return 0


if __name__ == "__main__":
    raise SystemExit(main())
