"""The benchmark's training workloads.

Each workload turns ``--seed`` into its inputs (the program sees only the
generated dataset and the seed it initializes its parameters from) and
builds the bundled app's Orion program on the workload's backend.  Why
each one was chosen, and why ``BENCHMARK.json`` leaves ``glove-sim`` out,
is in ``NOTES.md``.
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import Any, Callable, Dict, Optional, Tuple

from repro.apps.base import OrionProgram
from repro.apps.embeddings import build_orion_program as build_glove
from repro.apps.embeddings import cooccurrence_corpus
from repro.apps.lda import LDAHyper
from repro.apps.lda import build_orion_program as build_lda
from repro.apps.sgd_mf import build_orion_program as build_mf
from repro.data.synthetic import lda_corpus, netflix_like
from repro.obs.observability import Observability
from repro.runtime.cluster import ClusterSpec
from repro.runtime.options import LoopOptions

#: Worker processes per workload.  Fixed, so that a workload is the same
#: job on every host; 2 is the core count of the host it was tuned on.
WORKERS = 2


@dataclass(frozen=True)
class Workload:
    """One training job: inputs from a seed, a program, and its targets.

    Attributes:
        name: the workload name used in ``BENCHMARK.json``.
        backend: the backend the timed trials run on.
        epochs: epochs per trial, the warm-up epoch included;
            ``loss_final`` is the loss after the last of them.
        target_ratio: ``time_to_target_s`` stops at the first epoch whose
            loss is at most this share of the loss before training.  A
            share rather than an absolute loss, because seeds shift the
            loss level by more than LDA's whole descent; chosen from the
            loss curves of seeds 0-11 so that every seed crosses it at the
            same epoch (seeds 0-39 for GloVe).
        make_inputs: the dataset for one seed.
        build_app: the app's ``build_orion_program`` with the workload's
            hyperparameters bound.
        state_arrays: the trained parameters compared with a
            simulated-backend run of the same seed (the oracle).
        bitwise_oracle: whether ``state_arrays`` must equal the oracle's
            bitwise; a difference is then a failed check.
    """

    name: str
    backend: str
    epochs: int
    target_ratio: float
    make_inputs: Callable[[int], Any]
    build_app: Callable[..., OrionProgram]
    state_arrays: Tuple[str, ...]
    bitwise_oracle: bool = False

    def build(
        self,
        inputs: Any,
        seed: int,
        *,
        backend: Optional[str] = None,
        workers: int = WORKERS,
        use_kernel: Any = True,
        obs: Optional[Observability] = None,
    ) -> OrionProgram:
        """The workload's program; keyword overrides build its baselines."""
        return self.build_app(
            inputs,
            cluster=ClusterSpec(num_machines=1, workers_per_machine=workers),
            seed=seed,
            use_kernel=use_kernel,
            options=LoopOptions(backend=backend or self.backend, obs=obs),
        )


def _build_lda(dataset, **kwargs) -> OrionProgram:
    return build_lda(dataset, hyper=LDAHyper(num_topics=8), **kwargs)


WORKLOADS: Dict[str, Workload] = {
    workload.name: workload
    for workload in (
        Workload(
            name="mf-rotate-mp2",
            backend="multiprocess",
            epochs=4,
            target_ratio=0.94,
            make_inputs=lambda seed: netflix_like(
                num_rows=2000, num_cols=1600, rank=8, num_ratings=120_000,
                seed=seed,
            ),
            build_app=build_mf,
            state_arrays=("W", "H"),
            bitwise_oracle=True,
        ),
        Workload(
            name="lda-ps-mp2",
            backend="multiprocess",
            epochs=8,
            target_ratio=0.9943,
            make_inputs=lambda seed: lda_corpus(
                num_docs=1000, vocab_size=500, num_topics=8, doc_length=30,
                seed=seed,
            ),
            build_app=_build_lda,
            state_arrays=("doc_topic", "word_topic", "topic_sum"),
        ),
        Workload(
            name="glove-sim",
            backend="simulated",
            epochs=3,
            target_ratio=0.11,
            make_inputs=lambda seed: cooccurrence_corpus(
                vocab_size=300, num_tokens=40_000, seed=seed
            ),
            build_app=build_glove,
            state_arrays=("W", "C", "bw", "bc"),
        ),
    )
}
