"""Ranking metrics over reference alignment pairs."""
from __future__ import annotations

from dataclasses import dataclass
from typing import Sequence

import numpy as np

from .encoder import block_rows, check_field_types
from .kg import AlignmentPairSet
from .timesim import ScoreRows


def rank_of_truth(sim_row: np.ndarray, truth_index: int) -> int:
    """1-based rank of the true candidate; any tie counts against it."""
    row = np.asarray(sim_row, dtype=np.float64)
    if not 0 <= truth_index < len(row):
        raise ValueError("truth index outside the candidate pool")
    # 1 + #(> truth) + (#(== truth) - 1)
    return int((row >= row[truth_index]).sum())


@dataclass
class EvalConfig:
    ks: tuple[int, ...] = (1, 10)  # the k of each reported Hits@k
    bidirectional: bool = False

    def __post_init__(self) -> None:
        check_field_types(self)
        if not all(k >= 1 for k in self.ks):
            raise ValueError(f"ks must be positive, got {self.ks!r}")
        self.ks = tuple(int(k) for k in self.ks)


@dataclass
class EvalReport:
    hits_at: dict[int, float]
    mrr: float
    pool_size: int

    def to_dict(self) -> dict:
        return {
            **{f"hits@{k}": v for k, v in sorted(self.hits_at.items())},
            "mrr": self.mrr,
            "pool_size": self.pool_size,
        }

    def to_text(self) -> str:
        lines = [f"hits@{k} = {v:.4f}" for k, v in sorted(self.hits_at.items())]
        return "\n".join([*lines, f"mrr    = {self.mrr:.4f}", f"pool   = {self.pool_size}"])


def _positions(ids: np.ndarray, wanted: np.ndarray, missing: str) -> np.ndarray:
    """Positions of the wanted ids in the distinct `ids`; `missing` names an absent one."""
    absent = ~np.isin(wanted, ids)
    if absent.any():
        raise ValueError(missing.format(wanted[np.argmax(absent)]))
    order = np.argsort(ids)
    return order[np.searchsorted(ids, wanted, sorter=order)]


class RowRanks:
    """`rank_of_truth` of every reference in its row, in reference order,
    filled in as `update` is handed the row blocks of `sim`.

    With t the truth's score, 1 + #(> t) + (#(== t) - 1) is the count of
    scores >= t, so each reference is ranked within the block that holds its
    row. A block is read in place: its rows are compared a chunk of
    `encoder.block_rows` rows at a time, so no copy of it is held. Raises
    ValueError when a reference entity is not in `sim`."""

    def __init__(self, sim: ScoreRows, references: AlignmentPairSet) -> None:
        self.references = references
        self.rows = _positions(sim.source_ids, references.sources,
                               "reference source {} missing from similarity rows")
        self.cols = _positions(sim.target_ids, references.targets,
                               "reference target {} missing from candidate pool")
        self.truth = np.empty(len(references))
        self.ranks = np.empty(len(references), dtype=np.int64)
        self._order = np.argsort(self.rows, kind="stable")
        self._sorted_rows = self.rows[self._order]

    def update(self, start: int, block: np.ndarray) -> None:
        """Rank the references whose rows are in `block`, rows [start,
        start + len(block)) of `sim`."""
        lo, hi = np.searchsorted(self._sorted_rows, [start, start + len(block)])
        step = block_rows(block.shape[1])
        for at in range(lo, hi, step):
            mine = self._order[at : min(at + step, hi)]
            rows = self.rows[mine] - start
            self.truth[mine] = block[rows, self.cols[mine]]
            self.ranks[mine] = (block[rows] >= self.truth[mine, None]).sum(axis=1)

    def settle(self, candidates: np.ndarray, scores: np.ndarray, bound: np.ndarray) -> np.ndarray:
        """Rank the references that their row's candidates alone can rank:
        `candidates` holds target positions and `scores` their scores, a
        row of `sim` each, and no other cell of row i scores above
        `bound[i]`. That is exact for a truth that is a candidate scoring
        above its row's bound. Returns a bool per row of `sim`, True where
        a reference is left for `update`."""
        mine, scored = candidates[self.rows], scores[self.rows]
        hit = mine == self.cols[:, None]
        truth = scored[np.arange(len(self.rows)), np.argmax(hit, axis=1)]
        ok = hit.any(axis=1) & (truth > bound[self.rows])
        self.truth[ok] = truth[ok]
        self.ranks[ok] = (scored[ok] >= truth[ok, None]).sum(axis=1)
        unranked = np.zeros(len(candidates), dtype=bool)
        unranked[self.rows[~ok]] = True
        return unranked

    def with_columns(self, sim: ScoreRows, bidirectional: bool) -> np.ndarray:
        """The row ranks; with `bidirectional`, followed by each reference's
        rank in its column, counted in one more pass over `sim`."""
        if not bidirectional:
            return self.ranks
        back = np.zeros(len(self.rows), dtype=np.int64)
        # a chunk's truth columns, taken into one C-contiguous buffer: on the
        # strided result of s[rows, cols] the compare and sums run ~3x slower
        scratch = np.empty((block_rows(max(len(self.cols), 1)), len(self.cols)))
        for _, s in sim.row_blocks():
            for at in range(0, len(s), len(scratch)):
                rows = s[at : at + len(scratch)]
                chunk = np.take(rows, self.cols, axis=1, out=scratch[: len(rows)], mode="clip")
                back += (chunk >= self.truth).sum(axis=0)
            del s, rows  # the block, and its view, before the next is asked for
        return np.concatenate([self.ranks, back])


def _row_ranks(sim: ScoreRows, references: AlignmentPairSet) -> RowRanks:
    ranked = RowRanks(sim, references)
    for start, s in sim.row_blocks():
        ranked.update(start, s)
        del s
    return ranked


def evaluate(
    sim: ScoreRows,
    references: AlignmentPairSet,
    ks: Sequence[int] = (1, 10),
    bidirectional: bool = False,
    *,
    row_ranks: RowRanks | None = None,
) -> EvalReport:
    """Hits@k and MRR of the references under the given similarity.

    Default protocol ranks source entities against the target candidate pool;
    with `bidirectional` the metrics are averaged with the transposed
    direction. `row_ranks`, the row ranks of this same `references` object
    already taken over `sim` (as `aligner.predict_and_rank` returns them),
    saves the pass over the rows; only `bidirectional` then reads `sim`."""
    if row_ranks is None:
        row_ranks = _row_ranks(sim, references)
    elif row_ranks.references is not references:
        raise ValueError("row_ranks were taken for other references")
    arr = row_ranks.with_columns(sim, bidirectional).astype(np.float64)
    hits = {int(k): float((arr <= k).mean()) for k in ks}
    return EvalReport(
        hits_at=hits,
        mrr=float((1.0 / arr).mean()),
        pool_size=len(sim.target_ids),
    )
