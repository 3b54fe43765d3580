"""Dataset file parsing and serialization.

File formats (tab separated, one record per line):
  quadruple file: head  relation  tail  time_begin  time_end
      non-negative integer ids for head/relation/tail, raw timestamp labels
      for the time columns; a point-in-time fact repeats the same label in
      both columns. Labels "0", "", "###", "inf", "-inf" and "~" mark an
      unknown/open boundary.
  pair file:      id_in_G1  id_in_G2
  prediction file: source_id  target_id  score
"""
from __future__ import annotations

import os
from dataclasses import dataclass
from pathlib import Path

import numpy as np

from .kg import (
    HEAD,
    RELATION,
    TAIL,
    UNKNOWN_TIME_ID,
    UNKNOWN_TIME_LABELS,
    AlignmentPairSet,
    MergedTimeVocabulary,
    TemporalKG,
    build_merged_time_vocabulary,
)


@dataclass
class DatasetLayout:
    """Paths of one dataset: a quadruple file per graph plus optional seed
    (sup) and reference (ref) pair files."""

    quads1: Path
    quads2: Path
    sup_pairs: Path | None = None
    ref_pairs: Path | None = None

    @classmethod
    def from_dir(cls, d: str | os.PathLike) -> "DatasetLayout":
        d = Path(d)
        sup = d / "sup_pairs"
        ref = d / "ref_pairs"
        return cls(
            quads1=d / "triples_1",
            quads2=d / "triples_2",
            sup_pairs=sup if sup.exists() else None,
            ref_pairs=ref if ref.exists() else None,
        )


class ParseError(ValueError):
    pass


def _parse_quad_lines(path: Path) -> tuple[list[tuple[int, int, int]], list[str]]:
    """(head, relation, tail) ids per line, and the stripped time_begin and
    time_end labels of every line, flattened in order."""
    ids, labels = [], []
    with open(path, "r", encoding="utf-8") as f:
        for lineno, line in enumerate(f, start=1):
            line = line.rstrip("\n")
            if not line.strip():
                continue
            parts = line.split("\t")
            if len(parts) != 5:
                raise ParseError(f"{path}:{lineno}: expected 5 tab-separated fields, got {len(parts)}")
            try:
                h, r, t = int(parts[0]), int(parts[1]), int(parts[2])
            except ValueError as exc:
                raise ParseError(f"{path}:{lineno}: non-integer id: {exc}") from None
            if h < 0 or r < 0 or t < 0:
                raise ParseError(f"{path}:{lineno}: negative id in quadruple ({h}, {r}, {t})")
            ids.append((h, r, t))
            labels += (parts[3].strip(), parts[4].strip())
    return ids, labels


def read_pairs(path: Path, provenance: str = "gold") -> AlignmentPairSet:
    pairs = []
    with open(path, "r", encoding="utf-8") as f:
        for lineno, line in enumerate(f, start=1):
            line = line.rstrip("\n")
            if not line.strip():
                continue
            parts = line.split("\t")
            if len(parts) != 2:
                raise ParseError(f"{path}:{lineno}: expected 2 tab-separated fields, got {len(parts)}")
            try:
                a, b = int(parts[0]), int(parts[1])
            except ValueError as exc:
                raise ParseError(f"{path}:{lineno}: non-integer id: {exc}") from None
            if a < 0 or b < 0:
                raise ParseError(f"{path}:{lineno}: negative entity id in pair ({a}, {b})")
            pairs.append((a, b))
    return AlignmentPairSet.from_pairs(pairs, provenance=provenance)


def write_pairs(pairs: AlignmentPairSet, path: Path) -> None:
    with open(path, "w", encoding="utf-8") as f:
        for a, b in pairs.pairs:
            f.write(f"{a}\t{b}\n")


def load_dataset(
    layout: DatasetLayout,
) -> tuple[TemporalKG, TemporalKG, MergedTimeVocabulary, AlignmentPairSet, AlignmentPairSet]:
    """Parse a dataset into graph structures sharing one merged timestamp
    vocabulary. Entity/relation counts are inferred from the maximum ids seen
    in the quadruple and pair files of each graph."""
    ids1, labels1 = _parse_quad_lines(Path(layout.quads1))
    ids2, labels2 = _parse_quad_lines(Path(layout.quads2))
    vocab = build_merged_time_vocabulary(set(labels1), set(labels2))
    time_ids = {**dict.fromkeys(UNKNOWN_TIME_LABELS, UNKNOWN_TIME_ID), **vocab.label_to_id}

    seeds = (
        read_pairs(Path(layout.sup_pairs))
        if layout.sup_pairs is not None
        else AlignmentPairSet.from_pairs([])
    )
    refs = (
        read_pairs(Path(layout.ref_pairs))
        if layout.ref_pairs is not None
        else AlignmentPairSet.from_pairs([])
    )

    def build(ids, labels, side):
        quads = np.hstack([
            np.array(ids, dtype=np.int64).reshape(-1, 3),
            np.array([time_ids[x] for x in labels], dtype=np.int64).reshape(-1, 2),
        ])
        pair_ids = [p[side] for p in seeds.pairs + refs.pairs]
        n = max(int(quads[:, [HEAD, TAIL]].max(initial=-1)), max(pair_ids, default=-1)) + 1
        return TemporalKG.build(quads, n, int(quads[:, RELATION].max(initial=-1)) + 1)

    return build(ids1, labels1, 0), build(ids2, labels2, 1), vocab, seeds, refs


def write_predictions(pairs: AlignmentPairSet, path: Path) -> None:
    """Write `source \\t target \\t score` lines; score defaults to 1."""
    scores = pairs.scores or [1.0] * len(pairs)
    with open(path, "w", encoding="utf-8") as f:
        for (a, b), s in zip(pairs.pairs, scores):
            f.write(f"{a}\t{b}\t{s!r}\n")


def read_predictions(path: Path) -> AlignmentPairSet:
    pairs, scores = [], []
    with open(path, "r", encoding="utf-8") as f:
        for lineno, line in enumerate(f, start=1):
            line = line.rstrip("\n")
            if not line.strip():
                continue
            parts = line.split("\t")
            if len(parts) != 3:
                raise ParseError(f"{path}:{lineno}: expected 3 tab-separated fields, got {len(parts)}")
            try:
                pairs.append((int(parts[0]), int(parts[1])))
            except ValueError as exc:
                raise ParseError(f"{path}:{lineno}: non-integer id: {exc}") from None
            try:
                scores.append(float(parts[2]))
            except ValueError as exc:
                raise ParseError(f"{path}:{lineno}: non-float score: {exc}") from None
    return AlignmentPairSet.from_pairs(pairs, provenance="prediction", scores=scores)
