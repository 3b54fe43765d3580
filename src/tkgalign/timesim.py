"""Per-entity time dictionaries and the temporal matching similarity.

Two entities match temporally with score 2c / (m + n), where m and n are the
sizes of their timestamp multisets and c the multiset-intersection size
(min of multiplicities per id). The score lives in [0, 1] and equals 1 only
for identical multisets.

No |E1| x |E2| score matrix is ever stored. `build_time_similarity_matrix`
returns a `TimeScores` that holds the two count matrices; a scoring call
restricts their (timestamp, occurrence) sets to its pool once and computes
each block of rows as one sparse product, finished into scores in place
(`_score_product`).
"""
from __future__ import annotations

from collections import Counter
from dataclasses import dataclass
from functools import cached_property
from typing import Callable, Iterable, Iterator

import numpy as np
import scipy.sparse as sp

from .kg import HEAD, TAIL, TIME_BEGIN, TIME_END, UNKNOWN_TIME_ID, TemporalKG, sorted_key_csr


def build_time_dictionary(kg: TemporalKG) -> sp.csr_matrix:
    """Harvest timestamps into a sparse (entities x timestamp ids) count
    matrix: each quadruple adds its time ids to the rows of both its head
    and its tail. A point adds its id once, an interval both endpoints;
    reserved id 0 adds nothing."""
    q = kg.quadruples
    width = int(q[:, TIME_BEGIN:].max(initial=UNKNOWN_TIME_ID)) + 1
    begin, end = q[:, TIME_BEGIN], q[:, TIME_END]
    end = np.where(begin == end, UNKNOWN_TIME_ID, end)  # a point adds its id once
    # a key entity·width + stamp for each stamp of a fact, at its head and at its tail
    keys = np.concatenate([q[:, e] * width + t for e in (HEAD, TAIL) for t in (begin, end)])
    keys = keys[np.tile(np.concatenate([begin, end]) != UNKNOWN_TIME_ID, 2)]
    indptr, columns, counts = sorted_key_csr(keys, kg.entity_count, width)
    return sp.csr_matrix((counts, columns, indptr), shape=(kg.entity_count, width))


def time_similarity(dic_i: Counter | Iterable[int], dic_j: Counter | Iterable[int]) -> float:
    """Matching degree 2c / (m + n) between two timestamp multisets; 0 when
    both are empty."""
    a, b = Counter(dic_i), Counter(dic_j)
    total = a.total() + b.total()
    return 2.0 * (a & b).total() / total if total else 0.0


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


@dataclass
class BlockedScores(ScoreRows):
    """Scores computed a block of rows at a time by `rows(start, stop)` and
    never held whole."""

    source_ids: np.ndarray
    target_ids: np.ndarray
    rows: Callable[[int, int], np.ndarray]
    kind: str


def _occurrence_sets(counts: sp.csr_matrix, k: int, width: int) -> sp.csr_matrix:
    """0/1 rows over (timestamp, occurrence) columns: the multiset {t: a_t}
    becomes the set {(t, 0), ..., (t, a_t - 1)}, column t*k + j. `counts` is
    canonical, so these columns come out in CSR order."""
    reps = counts.data
    ends = np.cumsum(reps)
    cols = np.repeat(counts.indices.astype(np.int64) * k, reps)
    cols += np.arange(len(cols)) - np.repeat(ends - reps, reps)
    indptr = np.concatenate([[0], ends])[counts.indptr]
    return sp.csr_matrix((np.ones(len(cols)), cols, indptr), shape=(counts.shape[0], width * k))


def _score_product(occ1: sp.csr_matrix, occ2t: sp.csr_matrix, m_half: np.ndarray,
                   n_half: np.ndarray) -> sp.csr_matrix:
    """Scores of the rows of the set matrix `occ1` against the columns of the
    transposed set matrix `occ2t`, as CSR; `m_half` and `n_half` are the
    halved multiset sizes of those rows and columns.

    The intersection size c = sum_t min(a_t, b_t) of every pair is one
    sparse product, and only pairs sharing a timestamp are stored. Each c is
    then divided in place by (m + n) / 2, all stored entries in one step: the
    caller densifies the product's rows, so those dense rows already bound
    this step's temporaries. The columns within a row are left in the
    product's order."""
    scores = occ1 @ occ2t
    # c / ((m + n) / 2) rounds the same real number as 2c / (m + n): every
    # operand is an exact small integer or half of one
    denom = n_half[scores.indices]
    denom += np.repeat(m_half, np.diff(scores.indptr))
    scores.data /= denom
    return scores


class TimeScores(ScoreRows):
    """Temporal matching scores between every entity of two count matrices
    (rows = entities, columns = timestamp ids), computed a block of rows at
    a time and never stored. The matrix holds only the two count matrices,
    as int64 in canonical form and of one width (`counts`). Seeds come from
    an exact join of equal-length count rows (`seeds.generate_seeds`), and
    scoring reads a pool's rows through `submatrix`."""

    kind = "time"

    def __init__(self, dic1: sp.csr_matrix, dic2: sp.csr_matrix):
        self.counts = tuple(sp.csr_matrix(d, dtype=np.int64, copy=True) for d in (dic1, dic2))
        width = max(m.shape[1] for m in self.counts)
        for m in self.counts:
            m.sum_duplicates()
            m.eliminate_zeros()
            m.resize(m.shape[0], width)
        self.source_ids = np.arange(self.counts[0].shape[0])
        self.target_ids = np.arange(self.counts[1].shape[0])

    def _pool(self, row_positions, col_positions) -> tuple:
        """The (timestamp, occurrence) sets of the rows and of the columns
        (transposed) at the given positions, and their halved sizes: the
        operands of `_score_product`."""
        a, b = self.counts
        width = a.shape[1]
        k = int(max(a.data.max(initial=0), b.data.max(initial=0), 1))
        a, b = a[row_positions], b[col_positions]
        return (_occurrence_sets(a, k, width), _occurrence_sets(b, k, width).T.tocsr(),
                np.asarray(a.sum(axis=1)).ravel() / 2.0, np.asarray(b.sum(axis=1)).ravel() / 2.0)

    def submatrix(self, row_positions: np.ndarray, col_positions: np.ndarray) -> BlockedScores:
        """The rows and columns at the given positions. Their (timestamp,
        occurrence) sets are built once here, and every block of rows is one
        `_score_product` of them."""
        occ1, occ2t, m_half, n_half = self._pool(row_positions, col_positions)

        def rows(start: int, stop: int) -> np.ndarray:
            return _score_product(occ1[start:stop], occ2t, m_half[start:stop], n_half).toarray()

        return BlockedScores(
            source_ids=self.source_ids[row_positions],
            target_ids=self.target_ids[col_positions],
            rows=rows,
            kind=self.kind,
        )

    def __getitem__(self, positions) -> np.ndarray:
        """Dense rows at the given source positions, over every target."""
        positions = np.asarray(positions)
        return self.submatrix(positions, self.target_ids).rows(0, len(positions))

    def rows(self, start: int, stop: int) -> np.ndarray:
        return self[np.arange(start, stop)]

    @property
    def scores(self) -> TimeScores:
        """The matrix itself, read the way stored scores are read: rows by
        `[positions]`, and `nnz` and `nbytes`. Nothing is stored, so reading
        it builds no |E1| x |E2| structure."""
        return self

    @cached_property
    def nnz(self) -> int:
        """Non-zero scores, i.e. pairs that share a timestamp, counted once,
        a block of rows at a time, from the count matrices."""
        a, b = self.counts
        bt = b.T.tocsr()
        step = max(1, _BLOCK_BYTES // (8 * max(b.shape[0], 1)))
        return sum((a[lo : lo + step] @ bt).nnz for lo in range(0, a.shape[0], step))

    @property
    def nbytes(self) -> int:
        """Bytes the matrix holds: its two count matrices."""
        return sum(m.data.nbytes + m.indices.nbytes + m.indptr.nbytes for m in self.counts)


def build_time_similarity_matrix(dic1: sp.csr_matrix, dic2: sp.csr_matrix) -> TimeScores:
    """Pairwise temporal matching scores between every entity of two count
    matrices (rows = entities, columns = timestamp ids), as a `TimeScores`
    that holds the counts and computes scores only when rows are read."""
    return TimeScores(dic1, dic2)
