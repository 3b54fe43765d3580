"""Per-entity time dictionaries and the temporal matching similarity.

Two entities match temporally with score 2c / (m + n), where m and n are the
sizes of their timestamp multisets and c the multiset-intersection size
(min of multiplicities per id). The score lives in [0, 1] and equals 1 only
for identical multisets.
"""
from __future__ import annotations

from collections import Counter
from dataclasses import dataclass
from typing import Callable, Iterable, Iterator

import numpy as np
import scipy.sparse as sp

from .kg import HEAD, TAIL, TIME_BEGIN, TIME_END, UNKNOWN_TIME_ID, TemporalKG


def build_time_dictionary(kg: TemporalKG) -> sp.csr_matrix:
    """Harvest timestamps into a sparse (entities x timestamp ids) count
    matrix: each quadruple adds its time ids to the rows of both its head
    and its tail. A point adds its id once, an interval both endpoints;
    reserved id 0 adds nothing."""
    q = kg.quadruples
    begin, end = q[:, TIME_BEGIN], q[:, TIME_END]
    stamps = np.concatenate([begin, np.where(begin == end, UNKNOWN_TIME_ID, end)])
    rows = np.concatenate([q[:, HEAD], q[:, HEAD], q[:, TAIL], q[:, TAIL]])
    cols = np.tile(stamps, 2)
    known = cols != UNKNOWN_TIME_ID
    width = int(q[:, TIME_BEGIN:].max(initial=UNKNOWN_TIME_ID)) + 1
    return sp.coo_matrix(
        (np.ones(int(known.sum()), dtype=np.int64), (rows[known], cols[known])),
        shape=(kg.entity_count, width),
    ).tocsr()


def time_similarity(dic_i: Counter | Iterable[int], dic_j: Counter | Iterable[int]) -> float:
    """Matching degree 2c / (m + n) between two timestamp multisets; 0 when
    both are empty."""
    a = dic_i if isinstance(dic_i, Counter) else Counter(dic_i)
    b = dic_j if isinstance(dic_j, Counter) else Counter(dic_j)
    m = sum(a.values())
    n = sum(b.values())
    if m + n == 0:
        return 0.0
    c = sum((a & b).values())
    return 2.0 * c / (m + n)


# bytes of one dense float64 block of score rows: a pass over a score matrix
# holds a few blocks of this size, never the whole matrix
_BLOCK_BYTES = 16 << 20


class ScoreRows:
    """Scores between ordered source and target entity id lists, read a
    dense block of rows at a time: `rows(start, stop)` returns rows
    [start, stop) as a new float64 array that the caller owns."""

    source_ids: np.ndarray
    target_ids: np.ndarray
    kind: str

    @property
    def shape(self) -> tuple[int, int]:
        return (len(self.source_ids), len(self.target_ids))

    def row_blocks(self, wanted: np.ndarray | None = None) -> Iterator[tuple[int, np.ndarray]]:
        """(start, rows [start, start + len(block))) over the whole matrix,
        each block at most _BLOCK_BYTES (and at least one row). With
        `wanted`, a bool per row, only the blocks that hold a wanted row."""
        n_src, n_tgt = self.shape
        step = max(1, _BLOCK_BYTES // (8 * max(n_tgt, 1)))
        for start in range(0, n_src, step):
            stop = min(start + step, n_src)
            if wanted is None or wanted[start:stop].any():
                yield start, self.rows(start, stop)

    @property
    def dense(self) -> np.ndarray:
        out = np.empty(self.shape)
        for start, block in self.row_blocks():
            out[start : start + len(block)] = block
        return out


@dataclass
class SimilarityMatrix(ScoreRows):
    """Stored scores between ordered source and target entity id lists, as
    a scipy csr matrix whose absent entries are exactly 0. kind is one of
    {time, embedding, combined}.
    """

    source_ids: np.ndarray
    target_ids: np.ndarray
    scores: sp.csr_matrix
    kind: str

    def rows(self, start: int, stop: int) -> np.ndarray:
        return self.scores[start:stop].toarray()

    def submatrix(self, row_positions: np.ndarray, col_positions: np.ndarray) -> BlockedScores:
        """The rows and columns at the given positions, gathered a block of
        rows at a time rather than copied whole."""
        row_positions = np.asarray(row_positions)
        col_positions = np.asarray(col_positions)

        def rows(start: int, stop: int) -> np.ndarray:
            return self.scores[row_positions[start:stop]][:, col_positions].toarray()

        return BlockedScores(
            source_ids=np.asarray(self.source_ids)[row_positions],
            target_ids=np.asarray(self.target_ids)[col_positions],
            rows=rows,
            kind=self.kind,
        )


@dataclass
class BlockedScores(ScoreRows):
    """Scores computed a block of rows at a time by `rows(start, stop)` and
    never held whole."""

    source_ids: np.ndarray
    target_ids: np.ndarray
    rows: Callable[[int, int], np.ndarray]
    kind: str


# stored entries of a time matrix that a pass over its values takes per
# step, so no temporary grows with the stored entries
_CHUNK_ENTRIES = 1 << 16


def entry_chunks(nnz: int) -> Iterator[tuple[int, int]]:
    """[lo, hi) bounds covering nnz stored entries, _CHUNK_ENTRIES at a time."""
    for lo in range(0, nnz, _CHUNK_ENTRIES):
        yield lo, min(lo + _CHUNK_ENTRIES, nnz)


def _occurrence_sets(counts: sp.csr_matrix, k: int, width: int) -> sp.csr_matrix:
    """0/1 rows over (timestamp, occurrence) columns: the multiset {t: a_t}
    becomes the set {(t, 0), ..., (t, a_t - 1)}, column t*k + j."""
    entries = counts.tocoo()
    reps = entries.data
    rows = np.repeat(entries.row, reps)
    first = np.repeat(np.cumsum(reps) - reps, reps)
    cols = np.repeat(entries.col.astype(np.int64) * k, reps) + np.arange(len(rows)) - first
    return sp.csr_matrix(
        (np.ones(len(rows)), (rows, cols)), shape=(counts.shape[0], width * k)
    )


def build_time_similarity_matrix(dic1: sp.csr_matrix, dic2: sp.csr_matrix) -> SimilarityMatrix:
    """Pairwise temporal matching scores between every entity of two count
    matrices (rows = entities, columns = timestamp ids), as CSR.

    The multiset intersection size c = sum_t min(a_t, b_t) is one sparse
    product of the two (timestamp, occurrence) set matrices. Only pairs
    sharing a timestamp are stored; every absent entry is exactly 0. The
    columns within a row are left in the product's order, unspecified:
    every reader goes by value, `toarray()` or fancy indexing.
    """
    a, b = sp.csr_matrix(dic1), sp.csr_matrix(dic2)
    width = max(a.shape[1], b.shape[1])
    k = int(max(a.data.max(initial=0), b.data.max(initial=0), 1))
    scores = _occurrence_sets(a, k, width) @ _occurrence_sets(b, k, width).T
    # c / ((m + n) / 2) rounds the same real number as 2c / (m + n): every
    # operand is an exact small integer or half of one
    m_half = np.asarray(a.sum(axis=1)).ravel() / 2.0
    n_half = np.asarray(b.sum(axis=1)).ravel() / 2.0
    ptr = scores.indptr
    for lo, hi in entry_chunks(scores.nnz):
        # rows [first, last) hold entries [lo, hi); a row that a chunk bound
        # cuts repeats its half sum only over its entries inside the chunk
        first = np.searchsorted(ptr, lo, side="right") - 1
        last = np.searchsorted(ptr, hi, side="left")
        denom = np.take(n_half, scores.indices[lo:hi])
        denom += np.repeat(m_half[first:last], np.diff(np.clip(ptr[first : last + 1], lo, hi)))
        scores.data[lo:hi] /= denom
    return SimilarityMatrix(
        source_ids=np.arange(a.shape[0]),
        target_ids=np.arange(b.shape[0]),
        scores=scores,
        kind="time",
    )
