"""Output checks and quality figures, computed from the dataset files.

The oracles here parse the generated files themselves, so they do not share
the program's parsing or graph code. Every function runs outside the timed
region.
"""
from __future__ import annotations

import csv
import math
from collections import Counter
from pathlib import Path

import numpy as np
import scipy.sparse as sp

# Labels the dataset format reserves for an unknown time boundary.
_UNKNOWN = {"", "0", "###", "inf", "-inf", "~"}


def read_pairs(path: Path) -> list[tuple[int, int]]:
    with open(path, encoding="utf-8") as f:
        return [tuple(int(x) for x in line.split("\t")[:2]) for line in f if line.strip()]


def time_signatures(path: Path, entities: int) -> list[Counter]:
    """Per-entity multiset of timestamp labels: every fact adds its time to
    its head and its tail; a point once, an interval both endpoints."""
    sigs = [Counter() for _ in range(entities)]
    with open(path, encoding="utf-8") as f:
        for line in f:
            h, _, t, tb, te = line.rstrip("\n").split("\t")
            stamps = [x for x in ((tb,) if tb == te else (tb, te)) if x.strip() not in _UNKNOWN]
            sigs[int(h)].update(stamps)
            sigs[int(t)].update(stamps)
    return sigs


class Dataset:
    """Gold pairs and time signatures of one generated dataset."""

    def __init__(self, root: Path):
        self.root = Path(root)
        self.gold = read_pairs(self.root / "ref_pairs")
        n1 = 1 + max(a for a, _ in self.gold)
        n2 = 1 + max(b for _, b in self.gold)
        self.sig1 = time_signatures(self.root / "triples_1", n1)
        self.sig2 = time_signatures(self.root / "triples_2", n2)

    def exact_match_pairs(self) -> list[tuple[int, int]]:
        """Pairs whose non-empty time signatures are equal and occur exactly
        once on each side: the unsupervised seed rule, by brute force."""
        key1 = [frozenset(c.items()) for c in self.sig1]
        key2 = [frozenset(c.items()) for c in self.sig2]
        count1, count2 = Counter(key1), Counter(key2)
        pos2 = {k: j for j, k in enumerate(key2)}
        return sorted((i, pos2[k]) for i, k in enumerate(key1)
                      if k and count1[k] == 1 and count2.get(k) == 1)


def _dense_rows(scores, rows) -> np.ndarray:
    if sp.issparse(scores):
        return scores[rows].toarray()
    return np.asarray(scores[rows])


def check_time_matrix(matrix, data: Dataset, rows, time_similarity) -> list[str]:
    """Sampled rows of the time matrix equal the scalar oracle on every column:
    non-zero exactly where a timestamp is shared, and equal to it there."""
    n1, n2 = len(data.sig1), len(data.sig2)
    if not (np.array_equal(matrix.source_ids, np.arange(n1))
            and np.array_equal(matrix.target_ids, np.arange(n2))):
        return ["time matrix does not cover every entity in id order"]
    index: dict[str, list[int]] = {}
    for j, c in enumerate(data.sig2):
        for t in c:
            index.setdefault(t, []).append(j)
    problems = []
    for i, row in zip(rows, _dense_rows(matrix.scores, rows)):
        support = sorted(set().union(*(index.get(t, ()) for t in data.sig1[i])))
        if np.flatnonzero(row).tolist() != support:
            problems.append(f"time matrix row {i}: non-zeros differ from shared timestamps")
            continue
        expect = [time_similarity(data.sig1[i], data.sig2[j]) for j in support]
        if not np.allclose(row[support], expect, rtol=0, atol=1e-12):
            problems.append(f"time matrix row {i}: scores differ from time_similarity")
    return problems


def check_seeds(seeds: list[tuple[int, int]], data: Dataset) -> list[str]:
    """Every generated seed is a unique exact time match both ways, and every
    such pair is generated."""
    if len(set(seeds)) != len(seeds):
        return ["generated seeds contain duplicates"]
    expect = set(data.exact_match_pairs())
    wrong = set(seeds) - expect
    lost = expect - set(seeds)
    if wrong or lost:
        return [f"generated seeds: {len(wrong)} not unique exact matches, "
                f"{len(lost)} unique exact matches not generated"]
    return []


def check_predictions(path: Path, data: Dataset) -> list[str]:
    """Each reference source is predicted exactly once, with a target from
    the reference candidate pool."""
    preds = read_pairs(path)
    sources = [a for a, _ in preds]
    problems = []
    if sorted(sources) != sorted(a for a, _ in data.gold):
        problems.append("predictions do not cover each reference source exactly once")
    pool = {b for _, b in data.gold}
    if any(b not in pool for _, b in preds):
        problems.append("a predicted target is outside the candidate pool")
    return problems


def read_losses(path: Path) -> list[float]:
    with open(path, newline="", encoding="utf-8") as f:
        return [float(row["loss"]) for row in csv.DictReader(f)]


def check_losses(losses: list[float], epochs: int) -> list[str]:
    if len(losses) != epochs:
        return [f"loss trajectory has {len(losses)} epochs, expected {epochs}"]
    if not all(math.isfinite(x) for x in losses):
        return ["loss trajectory is not finite"]
    return []


def pair_quality(pairs, gold) -> tuple[int, int]:
    """(pairs that are gold, pairs) for precision and recall."""
    gold = set(gold)
    return sum(p in gold for p in pairs), len(pairs)


def ranking_quality(scores, gold, rank_of_truth, block: int = 512) -> dict:
    """Hits@1, Hits@10 and MRR of the gold targets ranked by `scores` rows,
    with the program's tie rule (`rank_of_truth`)."""
    ranks = []
    for start in range(0, len(gold), block):
        chunk = gold[start:start + block]
        dense = _dense_rows(scores, [a for a, _ in chunk])
        ranks += [rank_of_truth(row, b) for row, (_, b) in zip(dense, chunk)]
    ranks = np.array(ranks, dtype=np.float64)
    return {"hits_at_1": float((ranks <= 1).mean()), "hits_at_10": float((ranks <= 10).mean()),
            "mrr": float((1.0 / ranks).mean())}
