"""Ranking metrics over reference alignment pairs."""
from __future__ import annotations

from dataclasses import dataclass, field
from typing import Sequence

import numpy as np

from .kg import AlignmentPairSet
from .timesim import ScoreRows


def rank_of_truth(sim_row: np.ndarray, truth_index: int) -> int:
    """1-based rank of the true candidate; any tie counts against it."""
    row = np.asarray(sim_row, dtype=np.float64)
    if not 0 <= truth_index < len(row):
        raise ValueError("truth index outside the candidate pool")
    t = row[truth_index]
    greater = int((row > t).sum())
    ties = int((row == t).sum()) - 1
    return 1 + greater + ties


@dataclass
class EvalReport:
    hits_at: dict[int, float]
    mrr: float
    pool_size: int
    metadata: dict = field(default_factory=dict)

    def to_dict(self) -> dict:
        return {
            **{f"hits@{k}": v for k, v in sorted(self.hits_at.items())},
            "mrr": self.mrr,
            "pool_size": self.pool_size,
            **self.metadata,
        }

    def to_text(self) -> str:
        lines = [f"hits@{k} = {v:.4f}" for k, v in sorted(self.hits_at.items())]
        lines.append(f"mrr    = {self.mrr:.4f}")
        lines.append(f"pool   = {self.pool_size}")
        for key, val in self.metadata.items():
            lines.append(f"{key} = {val}")
        return "\n".join(lines)


def _ranks(sim: ScoreRows, references: AlignmentPairSet, bidirectional: bool) -> np.ndarray:
    """`rank_of_truth` of every reference in its row, in reference order;
    with `bidirectional`, followed by each one's rank in its column.

    With t the truth's score, 1 + #(> t) + (#(== t) - 1) is the count of
    scores >= t. One pass over the row blocks ranks each reference in its
    row; a second pass counts down each truth's column."""
    src_pos = {int(e): i for i, e in enumerate(sim.source_ids)}
    tgt_pos = {int(e): j for j, e in enumerate(sim.target_ids)}
    rows, cols = [], []
    for a, b in references.pairs:
        if a not in src_pos:
            raise ValueError(f"reference source {a} missing from similarity rows")
        if b not in tgt_pos:
            raise ValueError(f"reference target {b} missing from candidate pool")
        rows.append(src_pos[a])
        cols.append(tgt_pos[b])
    rows, cols = np.array(rows, dtype=np.int64), np.array(cols, dtype=np.int64)
    truth = np.empty(len(rows))
    ranks = np.empty(len(rows), dtype=np.int64)
    order = np.argsort(rows, kind="stable")
    sorted_rows = rows[order]
    for start, s in sim.row_blocks():
        lo, hi = np.searchsorted(sorted_rows, [start, start + len(s)])
        mine = order[lo:hi]
        scored = s[rows[mine] - start]
        truth[mine] = scored[np.arange(len(mine)), cols[mine]]
        ranks[mine] = (scored >= truth[mine, None]).sum(axis=1)
    if not bidirectional:
        return ranks
    back = np.zeros(len(rows), dtype=np.int64)
    for _, s in sim.row_blocks():
        back += (s[:, cols] >= truth[None, :]).sum(axis=0)
    return np.concatenate([ranks, back])


def evaluate(
    sim: ScoreRows,
    references: AlignmentPairSet,
    ks: Sequence[int] = (1, 10),
    bidirectional: bool = False,
) -> EvalReport:
    """Hits@k and MRR of the references under the given similarity.

    Default protocol ranks source entities against the target candidate pool;
    with `bidirectional` the metrics are averaged with the transposed
    direction."""
    arr = _ranks(sim, references, bidirectional).astype(np.float64)
    hits = {int(k): float((arr <= k).mean()) for k in ks}
    return EvalReport(
        hits_at=hits,
        mrr=float((1.0 / arr).mean()),
        pool_size=len(sim.target_ids),
    )
