"""Synthetic benchmark generator: a random temporal KG and a relabeled,
optionally perturbed counterpart, with gold alignment split into seed and
reference files."""
from __future__ import annotations

from collections import Counter
from dataclasses import dataclass
from pathlib import Path

import numpy as np

from .encoder import check_field_types
from .io import DatasetLayout, write_pairs
from .kg import AlignmentPairSet


@dataclass
class SynthParams:
    entities: int = 1000
    relations: int = 10
    timestamps: int = 50
    quads_per_entity: int = 8
    interval_fraction: float = 0.2
    edge_noise: float = 0.0  # fraction of counterpart facts with rewired tail
    time_noise: float = 0.0  # fraction of counterpart facts with resampled time
    seed_pairs: int = 50
    unique_times: bool = True
    rng_seed: int = 0

    def __post_init__(self) -> None:
        check_field_types(self)
        if (self.entities < 2 or self.relations < 1 or self.timestamps < 1
                or self.quads_per_entity < 0):
            raise ValueError("entities must be >= 2, relations and timestamps >= 1, and "
                             "quads_per_entity >= 0")
        if not 0 <= self.seed_pairs <= self.entities:
            raise ValueError(f"seed_pairs must be in [0, entities], got {self.seed_pairs}")
        for name in ("interval_fraction", "edge_noise", "time_noise"):
            if not 0.0 <= getattr(self, name) <= 1.0:
                raise ValueError(f"{name} must be in [0, 1], got {getattr(self, name)!r}")
        if self.interval_fraction > 0 and self.timestamps < 2:
            raise ValueError("an interval draws two distinct timestamps: timestamps must be >= 2")


@dataclass
class SyntheticDataset:
    quads1: list[tuple[int, int, int, str, str]]
    quads2: list[tuple[int, int, int, str, str]]
    entity_perm: np.ndarray  # counterpart of G1 entity i is entity_perm[i] in G2
    relation_perm: np.ndarray
    sup_pairs: list[tuple[int, int]]
    ref_pairs: list[tuple[int, int]]


def _signature(quads, n) -> list[tuple]:
    sigs = [Counter() for _ in range(n)]
    for h, _, t, tb, te in quads:
        stamps = (tb,) if tb == te else (tb, te)
        for e in (h, t):
            sigs[e].update(stamps)
    return [tuple(sorted(c.items())) for c in sigs]


def _random_quad(rng, h, params) -> tuple[int, int, int, str, str]:
    t = int(rng.integers(params.entities - 1))
    t += t >= h  # skip past h: uniform over the other entities
    r = int(rng.integers(params.relations))
    if rng.random() < params.interval_fraction:
        a, b = sorted(rng.choice(params.timestamps, size=2, replace=False) + 1)
        return (h, r, t, str(int(a)), str(int(b)))
    tau = int(rng.integers(params.timestamps)) + 1
    return (h, r, t, str(tau), str(tau))


def make_benchmark(params: SynthParams) -> SyntheticDataset:
    """Deterministic from params.rng_seed. The counterpart graph relabels
    entity and relation ids by random permutations and perturbs the requested
    fractions of tails and timestamps. With unique_times, entity time
    signatures in the base graph are deduplicated so exact temporal matches
    identify counterparts unambiguously."""
    rng = np.random.default_rng(params.rng_seed)
    quads1 = [
        _random_quad(rng, h, params)
        for h in range(params.entities)
        for _ in range(params.quads_per_entity)
    ]

    if params.unique_times:
        for _ in range(100):
            sigs = _signature(quads1, params.entities)
            # every entity whose signature an earlier entity has
            first: dict[tuple, int] = {}
            dupes = [e for e, sig in enumerate(sigs) if first.setdefault(sig, e) != e]
            if not dupes:
                break
            for e in dupes:
                quads1.append(_random_quad(rng, e, params))
        else:
            raise RuntimeError("could not deduplicate time signatures")

    eperm = rng.permutation(params.entities)
    rperm = rng.permutation(params.relations)
    quads2 = []
    for h, r, t, tb, te in quads1:
        if rng.random() < params.edge_noise:
            t = int(rng.integers(params.entities - 1))
            t += t >= h
        if rng.random() < params.time_noise:
            tau = int(rng.integers(params.timestamps)) + 1
            tb = te = str(tau)
        quads2.append((int(eperm[h]), int(rperm[r]), int(eperm[t]), tb, te))

    gold = [(i, int(eperm[i])) for i in range(params.entities)]
    order = rng.permutation(params.entities)
    sup_idx = set(order[: params.seed_pairs].tolist())
    sup = [gold[i] for i in sorted(sup_idx)]
    ref = [gold[i] for i in range(params.entities) if i not in sup_idx]
    return SyntheticDataset(quads1, quads2, eperm, rperm, sup, ref)


def write_benchmark(ds: SyntheticDataset, out_dir: Path) -> DatasetLayout:
    out_dir = Path(out_dir)
    out_dir.mkdir(parents=True, exist_ok=True)
    for name, quads in (("triples_1", ds.quads1), ("triples_2", ds.quads2)):
        (out_dir / name).write_text("".join(f"{h}\t{r}\t{t}\t{tb}\t{te}\n"
                                            for h, r, t, tb, te in quads), encoding="utf-8")
    write_pairs(AlignmentPairSet.from_pairs(ds.sup_pairs), out_dir / "sup_pairs")
    write_pairs(AlignmentPairSet.from_pairs(ds.ref_pairs), out_dir / "ref_pairs")
    return DatasetLayout.from_dir(out_dir)
