"""Unsupervised seed generation from temporal similarity.

A pair (i, j) becomes a seed iff j is the only entity whose time signature
exactly matches i's (score 1 in row i, uniquely) and, symmetrically, i is
the only exact match in column j. Emitted seeds form a partial matching.

The score 2c / (m + n) is 1 exactly when the two timestamp multisets are
equal and non-empty, so on a `TimeScores` matrix the seeds are the count
rows (sorted (timestamp, count) entries) that occur exactly once on each
side: a join on a hash of each row, confirmed entry by entry, that computes
no score. A matrix of stored scores, such as a hand-built one, is scanned
for its scores of 1 instead.
"""
from __future__ import annotations

from collections import defaultdict

import numpy as np
import scipy.sparse as sp

from .kg import AlignmentPairSet
from .timesim import ScoreRows, TimeScores, entry_chunks

# a stored exact match is exactly 1.0 (2c = m + n, and x / x is exact); the
# tolerance only serves hand-built score matrices
EXACT_MATCH_TOL = 1e-12

# count entries that one step of the row comparison gathers
_COMPARE_ENTRIES = 1 << 11


def generate_seeds(time_sim: ScoreRows) -> AlignmentPairSet:
    if time_sim.kind != "time":
        raise ValueError("seed generation expects a time similarity matrix")
    if isinstance(time_sim, TimeScores):
        rows, cols = _signature_join(*time_sim.counts)
    else:
        rows, cols = _exact_scores(time_sim.scores)
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


def _splitmix64(x: np.ndarray) -> np.ndarray:
    """The splitmix64 finalizer of each uint64, in place (wrapping)."""
    x += np.uint64(0x9E3779B97F4A7C15)
    x ^= x >> np.uint64(30)
    x *= np.uint64(0xBF58476D1CE4E5B9)
    x ^= x >> np.uint64(27)
    x *= np.uint64(0x94D049BB133111EB)
    x ^= x >> np.uint64(31)
    return x


def _row_hashes(counts: sp.csr_matrix) -> tuple[np.ndarray, np.ndarray]:
    """The non-empty rows of a canonical count matrix and one uint64 per
    row, equal for equal rows: the splitmix64 mixes of its (timestamp,
    count) entries summed mod 2**64, with the row length mixed in."""
    length = np.diff(counts.indptr)
    filled = np.flatnonzero(length)
    entry = counts.indices.astype(np.uint64)
    entry <<= np.uint64(32)
    entry ^= counts.data.view(np.uint64)
    # each slice between two non-empty row starts holds one row's entries
    sums = np.add.reduceat(_splitmix64(entry), counts.indptr[filled])
    sums += _splitmix64(length[filled].astype(np.uint64))
    return filled, _splitmix64(sums)


def _same_rows(x: sp.csr_matrix, rx: np.ndarray, y: sp.csr_matrix, ry: np.ndarray) -> np.ndarray:
    """Whether row rx[i] of x equals row ry[i] of y entry by entry, both
    canonical, a step of about _COMPARE_ENTRIES gathered entries at a time."""
    length = x.indptr[rx + 1] - x.indptr[rx]
    same = length == y.indptr[ry + 1] - y.indptr[ry]
    pos = np.flatnonzero(same)
    ends = np.cumsum(length[pos])
    cuts = np.arange(_COMPARE_ENTRIES, ends.max(initial=0), _COMPARE_ENTRIES)
    for part in np.split(pos, np.searchsorted(ends, cuts, side="right")):
        n = length[part]
        row_ends = np.cumsum(n)
        ex = np.repeat(x.indptr[rx[part]] - (row_ends - n), n)
        ex += np.arange(len(ex))
        ey = ex + np.repeat(y.indptr[ry[part]] - x.indptr[rx[part]], n)
        bad = x.indices[ex] != y.indices[ey]
        bad |= x.data[ex] != y.data[ey]
        same[part[np.searchsorted(row_ends, np.flatnonzero(bad), side="right")]] = False
    return same


def _signature_join(a: sp.csr_matrix, b: sp.csr_matrix) -> tuple[np.ndarray, np.ndarray]:
    """(row of a, row of b) of every non-empty count row that occurs exactly
    once in each canonical count matrix.

    Rows are grouped by hash. A hash shared by both sides is checked by
    comparing each of its rows with its first row in a: when all are equal,
    the group is one signature and a seed when it has one row per side; a
    group whose rows differ (a hash collision) is grouped exactly."""
    rows1, h1 = _row_hashes(a)
    rows2, h2 = _row_hashes(b)
    shared = np.intersect1d(h1, h2)
    in1, in2 = np.isin(h1, shared), np.isin(h2, shared)
    rows1, h1, rows2, h2 = rows1[in1], h1[in1], rows2[in2], h2[in2]
    o1, o2 = np.argsort(h1, kind="stable"), np.argsort(h2, kind="stable")
    rows1, h1, rows2, h2 = rows1[o1], h1[o1], rows2[o2], h2[o2]
    # group g is shared[g]; its first row in a stands for it
    g1, g2 = np.searchsorted(shared, h1), np.searchsorted(shared, h2)
    first = rows1[np.searchsorted(h1, shared)]
    n1 = np.bincount(g1, minlength=len(shared))
    n2 = np.bincount(g2, minlength=len(shared))
    mixed = np.zeros(len(shared), dtype=bool)
    mixed[g1[~_same_rows(a, rows1, a, first[g1])]] = True
    mixed[g2[~_same_rows(b, rows2, a, first[g2])]] = True
    seed = ~mixed & (n1 == 1) & (n2 == 1)
    src = [first[seed]]
    tgt = [rows2[np.isin(g2, np.flatnonzero(seed))]]
    for g in np.flatnonzero(mixed):
        sides = defaultdict(lambda: ([], []))
        for side, m, r in ((0, a, rows1[g1 == g]), (1, b, rows2[g2 == g])):
            for i in r.tolist():
                cells = slice(m.indptr[i], m.indptr[i + 1])
                key = (tuple(m.indices[cells].tolist()), tuple(m.data[cells].tolist()))
                sides[key][side].append(i)
        pairs = np.array([(s[0], t[0]) for s, t in sides.values() if len(s) == len(t) == 1],
                         dtype=np.intp).reshape(-1, 2)
        src.append(pairs[:, 0])
        tgt.append(pairs[:, 1])
    return np.concatenate(src), np.concatenate(tgt)
