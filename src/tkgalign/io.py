"""Dataset file parsing and serialization.

File formats (tab separated, one record per line):
  quadruple file: head  relation  tail  time_begin  time_end
      integer ids for head/relation/tail, raw timestamp labels for the time
      columns; a point-in-time fact repeats the same label in both columns.
      Label "0" (or empty) marks an unknown/open boundary.
  pair file:      id_in_G1  id_in_G2
  prediction file: source_id  target_id  score
"""
from __future__ import annotations

import os
from dataclasses import dataclass
from pathlib import Path

from .kg import (
    AlignmentPairSet,
    MergedTimeVocabulary,
    Quadruple,
    TemporalKG,
    TimeAnnotation,
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


def _parse_quad_lines(path: Path) -> list[tuple[int, int, int, str, str]]:
    rows = []
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
            rows.append((h, r, t, parts[3].strip(), parts[4].strip()))
    return rows


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
    raw1 = _parse_quad_lines(Path(layout.quads1))
    raw2 = _parse_quad_lines(Path(layout.quads2))
    vocab = build_merged_time_vocabulary(
        (lab for row in raw1 for lab in row[3:5]),
        (lab for row in raw2 for lab in row[3:5]),
    )

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

    def counts(raw, side):
        max_e = max((max(h, t) for h, _, t, _, _ in raw), default=-1)
        max_r = max((r for _, r, _, _, _ in raw), default=-1)
        pair_ids = [p[side] for p in seeds.pairs + refs.pairs]
        if pair_ids:
            max_e = max(max_e, max(pair_ids))
        return max_e + 1, max_r + 1

    n1, m1 = counts(raw1, 0)
    n2, m2 = counts(raw2, 1)

    def to_quads(raw):
        quads = []
        for h, r, t, tb, te in raw:
            b, e = vocab.id_of(tb), vocab.id_of(te)
            quads.append(Quadruple(h, r, t, TimeAnnotation(b, e)))
        return quads

    kg1 = TemporalKG.build(to_quads(raw1), n1, m1)
    kg2 = TemporalKG.build(to_quads(raw2), n2, m2)
    return kg1, kg2, vocab, seeds, refs


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
            pairs.append((int(parts[0]), int(parts[1])))
            scores.append(float(parts[2]))
    return AlignmentPairSet.from_pairs(pairs, provenance="prediction", scores=scores)
