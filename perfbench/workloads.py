"""The benchmark's workloads.

Each workload is a synthetic dataset shape plus the program path that runs on
it. The program only ever sees the generated dataset files; the workload seed
becomes the generator's `rng_seed`.
"""
from __future__ import annotations

from dataclasses import dataclass, field

import numpy as np

ALIGN, SEEDS = "align", "seeds"


@dataclass(frozen=True)
class Workload:
    name: str
    why: str
    path: str  # ALIGN runs cli.run_alignment, SEEDS runs the `seeds` subcommand
    synth: dict  # SynthParams fields other than rng_seed
    config: dict = field(default_factory=dict)  # encoder/train/align sections
    # Datasets generated per workload seed. The first `pipeline_datasets` go
    # through the program path and their quality figures are averaged; the
    # rest only go through the `seeds` subcommand, to pool more generated
    # seeds into seed_precision and seed_recall.
    pipeline_datasets: int = 1
    datasets: int = 1

    def dataset_seeds(self, seed: int) -> list[int]:
        """Generator seeds of the datasets of one workload seed."""
        extra = np.random.SeedSequence([seed, 1]).generate_state(self.datasets - 1)
        return [seed, *(int(s) for s in extra)]


# 2000 timestamps without deduplicated time signatures: many entities share
# timestamps, so the time matrix has tens of millions of non-zeros at 20k.
_SHARED_TIMES = dict(timestamps=2000, unique_times=False, edge_noise=0.05,
                     time_noise=0.05, seed_pairs=0)

WORKLOADS = {
    w.name: w
    for w in (
        Workload(
            name="noisy_1k",
            why="unsupervised 1k pairs, 50% edge and time noise, 3 per run: trainer-bound, dense "
                "time path; Hits@1 near 0.45, so accuracy changes show",
            path=ALIGN,
            synth=dict(entities=1000, quads_per_entity=2, edge_noise=0.5, time_noise=0.5,
                       seed_pairs=0),
            config={"encoder": {"dim": 100, "layers": 2},
                    "train": {"epochs": 30},
                    "align": {"iterations": 5}},
            # Hits@1 moves by about 0.05 from one noisy dataset to the next, and
            # about 27 seeds per dataset are too few for a steady precision
            pipeline_datasets=3,
            datasets=32,
        ),
        Workload(
            name="unsup_8k",
            why="unsupervised 8k pair, one iteration: dense scoring and CSLS set peak memory; "
                "sparse time path",
            path=ALIGN,
            synth=dict(entities=8000, **_SHARED_TIMES),
            config={"encoder": {"dim": 100, "layers": 2},
                    "train": {"epochs": 20},
                    "align": {"iterations": 1}},
        ),
        Workload(
            name="seeds_20k",
            why="seeds subcommand on a 20k pair: load, time dictionaries, sparse time matrix, "
                "seeds; bypasses trainer, encoder, aligner; Hits/MRR rank gold by time alone",
            path=SEEDS,
            synth=dict(entities=20000, **_SHARED_TIMES),
        ),
    )
}
