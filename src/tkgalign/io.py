"""Dataset file parsing and serialization.

File formats (tab separated, one record per line; blank lines are skipped):
  quadruple file: head  relation  tail  time_begin  time_end
      non-negative integer ids for head/relation/tail, raw timestamp labels
      for the time columns; a point-in-time fact repeats the same label in
      both columns. Labels "0", "", "###", "inf", "-inf" and "~" mark an
      unknown/open boundary.
  pair file:      id_in_G1  id_in_G2
  prediction file: source_id  target_id  score
      ids are non-negative and no pair occurs on two lines.

Every file goes through one reader, which splits the whole file once and
converts it a column at a time; a malformed file raises ParseError naming
the first bad `file:line`.
"""
from __future__ import annotations

import os
from contextlib import suppress
from dataclasses import dataclass
from itertools import repeat
from pathlib import Path

import numpy as np

from .kg import (
    HEAD,
    RELATION,
    TAIL,
    AlignmentPairSet,
    MergedTimeVocabulary,
    TemporalKG,
    build_merged_time_vocabulary,
    first_repeated_pair,
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


_MAX_ID = int(np.iinfo(np.int64).max)


def _first_bad_line(path: Path, lines: list[str], kinds: str, pairs: bool) -> ParseError | None:
    """The error of the first bad line, checked in the order the columns are:
    field count, integer ids, no negative id, no id beyond int64, float
    fields, and with `pairs` no repeat of an earlier line's two ids."""
    n, record, seen = len(kinds), "pair" if pairs else "quadruple", set()
    for lineno, line in enumerate(lines, start=1):
        if not line.strip():
            continue
        row = line.split("\t")
        if len(row) != n:
            return ParseError(f"{path}:{lineno}: expected {n} tab-separated fields, got {len(row)}")
        try:
            ids = tuple(int(x) for x, k in zip(row, kinds) if k == "i")
        except ValueError as exc:
            return ParseError(f"{path}:{lineno}: non-integer id: {exc}")
        if min(ids) < 0:
            return ParseError(f"{path}:{lineno}: negative id in {record} {ids}")
        if max(ids) > _MAX_ID:
            return ParseError(f"{path}:{lineno}: id out of range in {record} {ids}")
        try:
            [float(x) for x, k in zip(row, kinds) if k == "f"]
        except ValueError as exc:
            return ParseError(f"{path}:{lineno}: non-float score: {exc}")
        if pairs:
            if ids in seen:
                return ParseError(f"{path}:{lineno}: duplicate pair {ids}")
            seen.add(ids)
    return None


def _read_columns(path: Path, kinds: str, pairs: bool = False) -> list:
    """The columns of a tab-separated file, one per character of `kinds`: 'i'
    a non-negative id (int64), 'f' a float (float64), 's' a raw label (list
    of str). Blank lines are skipped; with `pairs`, no two lines hold the
    same first two ids. The file is split once and each column converted
    whole, by the `int` or `float` of each field; only when that fails are
    the lines checked one by one, to raise ParseError at the first bad one."""
    lines = Path(path).read_text(encoding="utf-8").split("\n")
    records = [line for line in lines if line.strip()]
    n = len(kinds)
    columns = None
    if not set(map(str.count, records, repeat("\t"))) - {n - 1}:  # n fields on every line
        fields = "\t".join(records).split("\t") if records else []
        # a field that int() or float() rejects, or an id beyond int64
        with suppress(ValueError, OverflowError):
            columns = [
                fields[j::n] if k == "s"
                else np.array(fields[j::n], dtype=np.int64 if k == "i" else np.float64)
                for j, k in enumerate(kinds)
            ]
    if (
        columns is None
        or any((c < 0).any() for c, k in zip(columns, kinds) if k == "i")
        or (pairs and first_repeated_pair(columns[0], columns[1]) >= 0)
    ):
        raise _first_bad_line(path, lines, kinds, pairs)
    return columns


def read_pairs(path: Path, provenance: str = "gold") -> AlignmentPairSet:
    return AlignmentPairSet(*_read_columns(path, "ii", pairs=True), provenance)


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
    cols1 = _read_columns(Path(layout.quads1), "iiiss")
    cols2 = _read_columns(Path(layout.quads2), "iiiss")
    raw1, raw2 = ({*cols[3], *cols[4]} for cols in (cols1, cols2))
    vocab = build_merged_time_vocabulary(raw1, raw2)
    empty = AlignmentPairSet.from_pairs([])
    seeds = read_pairs(Path(layout.sup_pairs)) if layout.sup_pairs is not None else empty
    refs = read_pairs(Path(layout.ref_pairs)) if layout.ref_pairs is not None else empty

    def build(cols, raw_labels, pair_ids):
        time_id = {label: vocab.id_of(label) for label in raw_labels}
        times = [np.fromiter(map(time_id.__getitem__, c), np.int64, len(c)) for c in cols[3:]]
        quads = np.column_stack([*cols[:3], *times])
        n = max(int(quads[:, [HEAD, TAIL]].max(initial=-1)), int(pair_ids.max(initial=-1))) + 1
        return TemporalKG.build(quads, n, int(quads[:, RELATION].max(initial=-1)) + 1)

    kg1 = build(cols1, raw1, np.concatenate([seeds.sources, refs.sources]))
    kg2 = build(cols2, raw2, np.concatenate([seeds.targets, refs.targets]))
    return kg1, kg2, vocab, seeds, refs


def write_predictions(pairs: AlignmentPairSet, path: Path) -> None:
    """Write `source \\t target \\t score` lines; score defaults to 1."""
    scores = [1.0] * len(pairs) if pairs.scores is None else pairs.scores.tolist()
    with open(path, "w", encoding="utf-8") as f:
        for (a, b), s in zip(pairs.pairs, scores):
            f.write(f"{a}\t{b}\t{s!r}\n")


def read_predictions(path: Path) -> AlignmentPairSet:
    src, tgt, scores = _read_columns(path, "iif", pairs=True)
    return AlignmentPairSet(src, tgt, "prediction", scores)
