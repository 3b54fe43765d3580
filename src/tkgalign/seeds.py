"""Unsupervised seed generation from temporal similarity.

A pair (i, j) becomes a seed iff j is the only entity whose time signature
exactly matches i's (score 1 in row i, uniquely) and, symmetrically, i is
the only exact match in column j. Emitted seeds form a partial matching.

The score 2c / (m + n) is 1 exactly when the two timestamp multisets are
equal and non-empty, so on a `TimeScores` matrix the seeds are the count
rows (sorted (timestamp, count) entries) that occur exactly once on each
side: an exact join of the rows of each length, which computes no score. A
matrix of stored scores, such as a hand-built one, is scanned for its
scores of 1 instead.
"""
from __future__ import annotations

import numpy as np
import scipy.sparse as sp

from .kg import AlignmentPairSet
from .timesim import ScoreRows, SimilarityMatrix, TimeScores, entry_chunks

# a stored exact match is exactly 1.0 (2c = m + n, and x / x is exact); the
# tolerance only serves hand-built score matrices
EXACT_MATCH_TOL = 1e-12


def generate_seeds(time_sim: ScoreRows) -> AlignmentPairSet:
    if time_sim.kind != "time":
        raise ValueError("seed generation expects a time similarity matrix")
    if isinstance(time_sim, TimeScores):
        rows, cols = _signature_join(*time_sim.counts)
    elif isinstance(time_sim, SimilarityMatrix):
        rows, cols = _exact_scores(time_sim.scores)
    else:
        raise ValueError("seed generation expects a TimeScores or SimilarityMatrix, "
                         f"got {type(time_sim).__name__}")
    src = np.asarray(time_sim.source_ids)[rows]
    tgt = np.asarray(time_sim.target_ids)[cols]
    order = np.lexsort((tgt, src))
    return AlignmentPairSet(src[order], tgt[order], "generated")


def _exact_scores(s: sp.csr_matrix) -> tuple[np.ndarray, np.ndarray]:
    """(row, column) positions of the stored scores of 1 that are the only
    one in their row and in their column."""
    # every |x - 1| <= tol has x >= 1 - 2*tol: this one-comparison superset,
    # taken a chunk of stored scores at a time, keeps the exact test from
    # allocating anything as long as the stored scores
    hits = [np.empty(0, dtype=np.intp)]
    for lo, hi in entry_chunks(s.nnz):
        x = s.data[lo:hi]
        near = np.flatnonzero(x >= 1.0 - 2.0 * EXACT_MATCH_TOL)
        hits.append(lo + near[np.abs(x[near] - 1.0) <= EXACT_MATCH_TOL])
    hits = np.concatenate(hits)
    rows = np.searchsorted(s.indptr, hits, side="right") - 1
    cols = s.indices[hits]
    unique = (np.bincount(rows, minlength=s.shape[0])[rows] == 1) & (
        np.bincount(cols, minlength=s.shape[1])[cols] == 1
    )
    return rows[unique], cols[unique]


def _row_keys(m: sp.csr_matrix, rows: np.ndarray, n: int, k: int) -> np.ndarray:
    """The n entries of each given row of m, as keys timestamp * k + count,
    one row of keys per row."""
    at = m.indptr[rows, None] + np.arange(n)
    return m.indices[at].astype(np.int64) * k + m.data[at]


def _signature_join(a: sp.csr_matrix, b: sp.csr_matrix) -> tuple[np.ndarray, np.ndarray]:
    """(row of a, row of b) of every non-empty count row that occurs exactly
    once in each canonical count matrix.

    Each stored entry is one exact int64 key, timestamp * k + count, with k
    above every count. Rows can only be equal at equal length, so the rows
    of each length that both sides hold are grouped by one `np.unique` over
    their key rows, each row viewed as one value of 8 * length bytes."""
    k = 1 + max(a.data.max(initial=0), b.data.max(initial=0))
    length = [np.diff(m.indptr) for m in (a, b)]
    src, tgt = [np.empty(0, dtype=np.intp)], [np.empty(0, dtype=np.intp)]
    for n in np.intersect1d(length[0][length[0] > 0], length[1]):
        rows = [np.flatnonzero(x == n) for x in length]
        block = np.concatenate([_row_keys(m, r, n, k) for m, r in zip((a, b), rows)])
        _, first, group, count = np.unique(block.view(np.dtype((np.void, 8 * n))).ravel(),
                                           return_index=True, return_inverse=True,
                                           return_counts=True)
        # a key row held twice, once in b, is held once on each side
        in_b = group[len(rows[0]):]
        seed = (count == 2) & (np.bincount(in_b, minlength=len(count)) == 1)
        j = np.flatnonzero(seed[in_b])
        src.append(rows[0][first[in_b[j]]])
        tgt.append(rows[1][j])
    return np.concatenate(src), np.concatenate(tgt)
