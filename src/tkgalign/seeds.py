"""Unsupervised seed generation from the temporal similarity matrix.

A pair (i, j) becomes a seed iff j is the only entity whose time signature
exactly matches i's (score 1 in row i, uniquely) and, symmetrically, i is
the only exact match in column j. Emitted seeds form a partial matching.
"""
from __future__ import annotations

import numpy as np

from .kg import AlignmentPairSet
from .timesim import SimilarityMatrix, entry_chunks

# a built time matrix stores an exact match as exactly 1.0 (2c = m + n, and
# x / x is exact); the tolerance only serves hand-built score matrices
EXACT_MATCH_TOL = 1e-12


def generate_seeds(time_sim: SimilarityMatrix) -> AlignmentPairSet:
    if time_sim.kind != "time":
        raise ValueError("seed generation expects a time similarity matrix")
    s = time_sim.scores
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
    src = np.asarray(time_sim.source_ids)[rows[unique]]
    tgt = np.asarray(time_sim.target_ids)[cols[unique]]
    order = np.lexsort((tgt, src))
    return AlignmentPairSet(src[order], tgt[order], "generated")
