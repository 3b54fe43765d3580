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

Every file goes through one reader, `_read_columns`. It reads the file as
bytes, takes CRLF and CR line ends as text mode does, and checks that the
bytes are UTF-8. One numpy pass then finds the tabs and newlines and the
field count of every line; a line is blank when str.strip() empties it.
Each column is converted whole:
  ids      a field of 1 to 18 ASCII digits (canonical) is converted by
           8-byte word arithmetic. Any other field (padded, '+'-signed,
           `1_000`, non-ASCII digits, 19 or more digits, '-0') goes
           through int(), only that field.
  labels   the distinct raw labels and an index per record, from
           `np.unique` on the bytes of each label packed into one uint64.
  scores   float() of each field.
The same pass finds every line a check rejects (another field count, a
field int() or float() rejects, an id out of range, a repeated pair). Only
the first is split again, to raise the ParseError a line parser would at
its `file:line`. A byte that is not UTF-8 raises ParseError at its line.
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
        sup, ref = d / "sup_pairs", d / "ref_pairs"
        return cls(quads1=d / "triples_1", quads2=d / "triples_2",
                   sup_pairs=sup if sup.exists() else None, ref_pairs=ref if ref.exists() else None)


class ParseError(ValueError):
    pass


_MAX_ID = int(np.iinfo(np.int64).max)
_MAX_DIGITS = 18  # any run of this many ASCII digits fits int64
_PACKED = 7  # a label of up to this many bytes packs, with its length, into one uint64
_PAD = 3 * 8  # zero bytes before the text, so that the words of an 18-digit field are in range
# the bytes that may begin or end a line that str.strip() empties: the ASCII
# spaces, the separators 0x1C to 0x1F, any byte of a multi-byte UTF-8
# character, and the zero byte that precedes an empty first line
_MAYBE_SPACE = np.zeros(256, dtype=bool)
_MAYBE_SPACE[list(b"\0 \t\n\v\f\r")] = _MAYBE_SPACE[0x1C:0x20] = _MAYBE_SPACE[0x80:] = True
# _BELOW[c] has the low 8 - c bytes of a word set: the bytes before its last c
_BELOW = np.array([(1 << 8 * (8 - c)) - 1 for c in range(9)], dtype=np.uint64)
_ZEROS, _HIGH, _SIX = (np.uint64(int.from_bytes(bytes([x]) * 8, "little")) for x in (48, 0xF0, 6))
# a word of 8 digits (first digit in the lowest byte) to its value: pairs, quads, the word
_SWAR = [(np.uint64(mask), np.uint64(10**d << shift | 1), np.uint64(shift)) for mask, d, shift in
         ((0x0F0F0F0F0F0F0F0F, 1, 8), (0x00FF00FF00FF00FF, 2, 16), (0x0000FFFF0000FFFF, 4, 32))]


def _distinct(items) -> tuple[list, np.ndarray]:
    """The distinct items in first-seen order, and each item's position there."""
    codes: dict = {}
    index = np.fromiter((codes.setdefault(x, len(codes)) for x in items), np.int64, len(items))
    return list(codes), index


def _parsed(convert, text: bytes, start: np.ndarray, end: np.ndarray) -> list:
    """convert() of each field `text[start:end]`, or None where it raises ValueError."""
    def one(field: bytes):
        try:
            return convert(field.decode())
        except ValueError:
            return None
    return [one(text[a:b]) for a, b in zip(start.tolist(), end.tolist())]


def _raise_at(path: Path, lineno: int, line: str, kinds: str) -> None:
    """Raise the line parser's ParseError for `line`, which the whole-array
    pass rejected: the first check it fails of field count, integer ids, no
    negative id, no id beyond int64 and float fields; if it passes them all,
    it repeats an earlier line's pair."""
    row, where = line.split("\t"), f"{path}:{lineno}"
    if len(row) != len(kinds):
        raise ParseError(f"{where}: expected {len(kinds)} tab-separated fields, got {len(row)}")
    try:
        ids = tuple(int(x) for x, k in zip(row, kinds) if k == "i")
    except ValueError as exc:
        raise ParseError(f"{where}: non-integer id: {exc}") from None
    record = "pair" if len(ids) == 2 else "quadruple"
    if min(ids) < 0:
        raise ParseError(f"{where}: negative id in {record} {ids}")
    if max(ids) > _MAX_ID:
        raise ParseError(f"{where}: id out of range in {record} {ids}")
    try:
        [float(x) for x, k in zip(row, kinds) if k == "f"]
    except ValueError as exc:
        raise ParseError(f"{where}: non-float score: {exc}") from None
    raise ParseError(f"{where}: duplicate pair {ids}")


def _digits(win: np.ndarray, start: np.ndarray, end: np.ndarray) -> tuple[np.ndarray, np.ndarray]:
    """The value of each field `start:end` read as 1 to 18 ASCII digits, and
    whether it is that. Each 8-byte word from the field's end is checked and
    converted whole (`_SWAR`), with the bytes before the field's first digit
    set to '0'."""
    length = end - start
    ok, value = (length > 0) & (length <= _MAX_DIGITS), np.zeros(len(start), dtype=np.int64)
    for w in range(-(-min(int(length.max(initial=0)), _MAX_DIGITS) // 8)):
        below = _BELOW[np.clip(length - 8 * w, 0, 8)]
        word = win[end - 8 * w - 8] & ~below | _ZEROS & below
        ok &= (word & _HIGH == _ZEROS) & ((word + _SIX) & _HIGH == _ZEROS)
        for mask, scale, shift in _SWAR:
            word = (word & mask) * scale >> shift
        value += word.astype(np.int64) * 10 ** (8 * w)
    return value, ok


def _byte_ids(win: np.ndarray, text: bytes, start: np.ndarray,
              end: np.ndarray) -> tuple[np.ndarray, np.ndarray]:
    """The ids in the fields `text[start:end]`, and the positions of the
    fields rejected: by int(), or as negative or beyond int64. A field of
    ASCII digits is read by `_digits`; any other by int()."""
    ids, ok = _digits(win, start, end)
    odd = np.flatnonzero(~ok)
    if odd.size:  # -1 marks a rejected field
        ids[odd] = [v if v is not None and 0 <= v <= _MAX_ID else -1
                    for v in _parsed(int, text, start[odd], end[odd])]
        odd = odd[ids[odd] < 0]
    return ids, odd


def _byte_labels(win: np.ndarray, text: bytes, start: np.ndarray,
                 end: np.ndarray) -> tuple[list[str], np.ndarray]:
    """The distinct raw labels of the fields `text[start:end]`, and each
    field's position among them, by `np.unique` on one uint64 key per
    field: up to 7 bytes packed with the length in the top byte, or a
    longer label's first-seen number under a top byte of 255."""
    length = end - start
    key = win[start] & _BELOW[8 - np.clip(length, 0, _PACKED)]
    key |= length.astype(np.uint64) << np.uint64(56)
    long = np.flatnonzero(length > _PACKED)
    more, number = _distinct([text[a:b] for a, b in zip(start[long].tolist(), end[long].tolist())])
    key[long] = number.astype(np.uint64) | np.uint64(255 << 56)
    keys, index = np.unique(key, return_inverse=True)
    labels = [
        int(x).to_bytes(8, "little")[: int(x) >> 56] if int(x) >> 56 <= _PACKED
        else more[int(x) & (1 << 56) - 1]
        for x in keys
    ]
    return [x.decode() for x in labels], index


def _records(buf: np.ndarray, text: bytes, n: int) -> tuple[np.ndarray, ...]:
    """Where each line of `buf` (the bytes of `text`, whose lines start after
    `_PAD` zero bytes and end in a newline) starts, which are records, the
    lines neither records nor blank (that str.strip() does not empty), and
    where each record's n fields end: at its tabs and newline."""
    is_sep = buf == ord("\t")
    is_sep |= buf == ord("\n")
    sep = np.flatnonzero(is_sep)
    del is_sep
    ends = np.flatnonzero(buf[sep] == ord("\n"))  # where each line ends, in `sep`
    per_line = np.diff(ends, prepend=-1)
    line_end = sep[ends]
    line_start = np.concatenate(([_PAD], line_end[:-1] + 1))
    # a blank line starts and ends with a byte str.strip() may remove (an
    # empty one with the newline)
    blank = _MAYBE_SPACE[buf[line_start]] & _MAYBE_SPACE[buf[line_end - 1]]
    maybe = np.flatnonzero(blank)
    blank[maybe] = [not text[a:b].decode().strip()
                    for a, b in zip(line_start[maybe].tolist(), line_end[maybe].tolist())]
    record = (per_line == n) & ~blank
    if not record.all():
        sep = sep[np.repeat(record, per_line)]
    return line_start, record, np.flatnonzero(~(record | blank)), sep.reshape(-1, n)


def _read_columns(path: Path, kinds: str, pairs: bool = False) -> list:
    """The columns of a tab-separated file, one per character of `kinds`: 'i'
    a non-negative id (int64), 'f' a float (float64), 's' a raw label, given
    as its distinct labels (list of str) and each record's position among
    them (int64). Blank lines are skipped; with `pairs`, no two lines hold
    the same first two ids. Lines end in LF, CRLF or CR, as text mode reads
    them. One whole-array pass reads the columns and finds every line a
    check rejects; ParseError names the first."""
    data = Path(path).read_bytes()
    if b"\r" in data:
        data = data.replace(b"\r\n", b"\n").replace(b"\r", b"\n")
    if not data.isascii():
        try:
            data.decode("utf-8")
        except UnicodeDecodeError as exc:
            line = data.count(b"\n", 0, exc.start) + 1
            raise ParseError(
                f"{path}:{line}: not UTF-8: byte {data[exc.start]:#04x}, {exc.reason}") from None
    # the only copy of the file held from here on, its lines between zero bytes
    text = b"".join([bytes(_PAD), data, b"" if data.endswith(b"\n") else b"\n", bytes(8)])
    del data
    buf = np.frombuffer(text, dtype=np.uint8)
    # win[p] is the little-endian word of the 8 bytes from text[p]
    win = np.ndarray((len(text) - 7,), dtype="<u8", buffer=text, strides=(1,))
    line_start, record, wrong, field_end = _records(buf, text, len(kinds))
    columns, rejected = [], []  # the first record each check rejects
    for j, k in enumerate(kinds):
        start, end = line_start[record] if j == 0 else field_end[:, j - 1] + 1, field_end[:, j]
        if k == "i":
            column, bad = _byte_ids(win, text, start, end)
        elif k == "s":
            column, bad = _byte_labels(win, text, start, end), []
        else:
            values = _parsed(float, text, start, end)
            column = np.array(values, dtype=np.float64)
            bad = [r for r, v in enumerate(values) if v is None]
        columns.append(column)
        rejected.extend(bad[:1])
    if pairs and (dup := first_repeated_pair(columns[0], columns[1])) >= 0:
        rejected.append(dup)
    if rejected:  # the record-to-line map, only once a check has failed
        wrong = np.append(wrong, np.flatnonzero(record)[min(rejected)])
    if wrong.size:
        at, start = int(wrong.min()), line_start[wrong.min()]
        _raise_at(path, at + 1, text[start:text.index(b"\n", start)].decode(), kinds)
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
    raw1, raw2 = ([label for labels, _ in cols[3:] for label in labels] for cols in (cols1, cols2))
    vocab = build_merged_time_vocabulary(raw1, raw2)
    empty = AlignmentPairSet.from_pairs([])
    seeds = read_pairs(Path(layout.sup_pairs)) if layout.sup_pairs is not None else empty
    refs = read_pairs(Path(layout.ref_pairs)) if layout.ref_pairs is not None else empty

    def quadruples(cols):
        times = [np.fromiter(map(vocab.id_of, labels), np.int64, len(labels)).take(index)
                 for labels, index in cols[3:]]
        return np.column_stack([*cols[:3], *times])

    def build(quads, pair_ids):
        n = max(int(quads[:, [HEAD, TAIL]].max(initial=-1)), int(pair_ids.max(initial=-1))) + 1
        return TemporalKG.build(quads, n, int(quads[:, RELATION].max(initial=-1)) + 1)

    quads1, quads2 = quadruples(cols1), quadruples(cols2)
    del cols1, cols2  # copied into the quadruples: free them before the graphs are built
    kg1 = build(quads1, np.concatenate([seeds.sources, refs.sources]))
    kg2 = build(quads2, np.concatenate([seeds.targets, refs.targets]))
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
