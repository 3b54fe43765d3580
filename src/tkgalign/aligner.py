"""Alignment prediction: cosine embedding similarity, mixing with temporal
similarity, hubness-corrected rescaling (CSLS), greedy decoding, and the
bootstrapped iterative loop that grows the training pool with mutually
nearest pseudo pairs.

Every score stage is read a block of source rows at a time (`row_blocks`),
and each consumer reduces the blocks as they come and drops each before
asking for the next, so no stage holds a pool x pool matrix. The embedding
product of the next block runs on one helper thread while the caller
reduces the current one, so a pass holds two blocks. `csls_rescale`'s
pass keeps each row's k best cells and each column's two best; the
decoders answer every row that a bound proves from them, and read again
only the blocks that hold another row (`_row_bests`)."""
from __future__ import annotations

import os
from concurrent.futures import Future, ThreadPoolExecutor, wait
from dataclasses import dataclass, field
from typing import Sequence

import numpy as np

from .encoder import EmbeddingState, EncoderConfig, block_rows, check_field_types, forward
from .evaluate import RowRanks
from .kg import AlignmentPairSet, TemporalKG, check_pair_ids, union_graph
from .timesim import BlockedScores, ScoreRows, TimeScores
from .trainer import TrainConfig, train_on_union


@dataclass
class AlignConfig:
    alpha: float = 0.3  # weight of time similarity in the combined score
    csls_k: int = 10
    iterations: int = 5

    def __post_init__(self) -> None:
        check_field_types(self)
        if not 0.0 <= self.alpha <= 1.0:
            raise ValueError("alpha must be in [0, 1]")
        if self.csls_k < 1 or self.iterations < 1:
            raise ValueError("csls_k and iterations must be >= 1")


def _normalize_rows(x: np.ndarray) -> np.ndarray:
    """Each row of the float64 array `x` divided by its L2 norm, in place;
    a row of norm 0 (or NaN) becomes 0. Returns `x`. It runs a row block at
    a time, so its temporaries (the squares that sum to the norms) stay one
    row block; a row's norm does not depend on its block."""
    step = block_rows(max(x.shape[1], 1))
    for lo in range(0, len(x), step):
        rows = x[lo : lo + step]
        norms = np.linalg.norm(rows, axis=1, keepdims=True)
        ok = norms > 0
        np.divide(rows, norms, out=rows, where=ok)
        rows[~ok[:, 0]] = 0.0
    return x


def _start_helper() -> None:
    global _HELPER
    _HELPER = ThreadPoolExecutor(max_workers=1, thread_name_prefix="tkgalign-product")


# The one thread that runs embedding products: a single worker, so at most one
# BLAS call is ever in flight. Its thread starts on the first product; a forked
# child, which inherits no thread, gets a fresh executor.
_start_helper()
os.register_at_fork(after_in_child=_start_helper)


def _product(a: np.ndarray, b: np.ndarray, out: np.ndarray) -> np.ndarray:
    """a @ b.T written into `out`: all the helper thread ever runs."""
    return np.matmul(a, b.T, out=out)


class _ReadAhead:
    """`rows(start, stop)` of the cosine scores a[start:stop] @ b.T, for
    row-normalized a and b.

    Every product runs on the helper thread, reading its rows of a and b in
    place, into a buffer allocated by the caller. Serving [start, stop)
    hands the helper the next block of the same height, which it computes
    while the caller reduces this one; the last block reads nothing ahead.
    A request for any other block waits out the product in flight and
    discards it, with any error it raised, then submits its own. So a reader
    that drops each block before asking for the next holds at most two: the
    one it reduces and the one in flight. One thread reads a given
    instance."""

    def __init__(self, a: np.ndarray, b: np.ndarray) -> None:
        self.a, self.b = a, b
        self.ahead: tuple[int, int, Future] | None = None

    def _submit(self, start: int, stop: int) -> tuple[int, int, Future]:
        out = np.empty((stop - start, len(self.b)))
        return start, stop, _HELPER.submit(_product, self.a[start:stop], self.b, out)

    def __call__(self, start: int, stop: int) -> np.ndarray:
        ahead, self.ahead = self.ahead, None
        if ahead is None or ahead[:2] != (start, stop):
            if ahead is not None:
                wait([ahead[2]])
            ahead = self._submit(start, stop)  # nothing is in flight
        if start < stop < len(self.a):
            self.ahead = self._submit(stop, min(2 * stop - start, len(self.a)))
        return ahead[2].result()


def embedding_similarity(
    pool: np.ndarray, source_ids: Sequence[int], target_ids: Sequence[int]
) -> BlockedScores:
    """Cosine similarity between the source and the target embedding rows
    of a pool. `pool` holds the rows of `source_ids`, then those of
    `target_ids`; the scores take it over, normalizing its rows in place
    (a float64 C-contiguous array is not copied). Zero-norm rows yield
    all-zero similarities. Each block's product is computed ahead of the
    reader (`_ReadAhead`) from slices of the pool. Raises ValueError when
    the pool's row count is not that of the ids."""
    src = np.asarray(source_ids, dtype=np.int64)
    tgt = np.asarray(target_ids, dtype=np.int64)
    if len(pool) != len(src) + len(tgt):
        raise ValueError(f"the pool holds {len(pool)} rows for {len(src)} sources "
                         f"and {len(tgt)} targets")
    pool = _normalize_rows(np.ascontiguousarray(pool, dtype=np.float64))
    return BlockedScores(src, tgt, _ReadAhead(pool[: len(src)], pool[len(src) :]), "embedding")


# rows of time scores densified at a time to be mixed into an embedding block
_MIX_ROWS = 32


def combine(emb: ScoreRows, time: ScoreRows, alpha: float) -> BlockedScores:
    """Entry-wise (1-alpha)*embedding + alpha*time. The endpoints alpha=0 and
    alpha=1 are exact pass-throughs of the respective input."""
    if emb.shape != time.shape:
        raise ValueError("dimension mismatch between similarity matrices")
    if not (
        np.array_equal(emb.source_ids, time.source_ids)
        and np.array_equal(emb.target_ids, time.target_ids)
    ):
        raise ValueError("id orderings of the similarity matrices differ")
    if alpha == 0.0:
        rows = emb.rows
    elif alpha == 1.0:
        rows = time.rows
    else:

        def rows(start: int, stop: int) -> np.ndarray:
            mixed = emb.rows(start, stop)
            mixed *= 1.0 - alpha
            for lo in range(start, stop, _MIX_ROWS):
                hi = min(lo + _MIX_ROWS, stop)
                weighted = time.rows(lo, hi)
                weighted *= alpha
                mixed[lo - start : hi - start] += weighted
            return mixed

    return BlockedScores(emb.source_ids, emb.target_ids, rows, "combined")


@dataclass
class CSLSScores(BlockedScores):
    """The lazy CSLS matrix, plus what its first pass kept of each row and
    column. The decoders answer a row from it, without reading the row
    again, whenever its bound proves the answer (`_row_bests`)."""

    r_src: np.ndarray
    r_tgt: np.ndarray
    candidates: np.ndarray  # each row's k best input cells: target positions, ascending
    candidate_scores: np.ndarray  # and their CSLS scores
    bound: np.ndarray  # no cell outside row i's candidates scores above bound[i]
    col_max: np.ndarray  # each column's best 2*s - r_src
    col_second: np.ndarray  # and its second best, equal to col_max on a tie


def _merge_column_tops(top: np.ndarray, block: np.ndarray) -> None:
    """Merge a block of rows into `top`, a row per column holding its m best
    values so far (least first), in place. Only entries above their column's
    least can change it; when few are, only they are merged."""
    m, rows = top.shape[1], len(block)
    above = block > np.ascontiguousarray(top[:, 0])
    if np.count_nonzero(above) * 16 > above.size:  # most of the block: merge every column whole
        del above
        # a chunk of columns at a time, so the merged copy stays one row block
        step = block_rows(m + rows)
        for lo in range(0, block.shape[1], step):
            merged = np.hstack([top[lo : lo + step], block[:, lo : lo + step].T])
            merged.partition(rows, axis=1)
            top[lo : lo + step] = merged[:, rows:]
        return
    r, c = np.divmod(np.flatnonzero(above), block.shape[1])
    if len(c) == 0:
        return
    order = np.argsort(c)
    r, c = r[order], c[order]
    starts = np.flatnonzero(np.r_[True, c[1:] != c[:-1]])
    per_col = np.diff(np.r_[starts, len(c)])
    cols = c[starts]
    merged = np.full((len(cols), m + per_col.max()), -np.inf)
    merged[:, :m] = top[cols]
    slot = m + np.arange(len(c)) - np.repeat(starts, per_col)
    merged[np.repeat(np.arange(len(cols)), per_col), slot] = block[r, c]
    width = merged.shape[1] - m
    merged.partition(width, axis=1)
    top[cols] = merged[:, width:]


def _row_tops(s: np.ndarray, k: int) -> np.ndarray:
    """np.argpartition(s, n - k, axis=1)[:, n - k:] for s n columns wide:
    each row's k best positions, in argpartition's order. It runs a row
    block at a time, so its full-size index output stays one row block."""
    n = s.shape[1]
    top = np.empty((len(s), k), dtype=np.int64)
    step = block_rows(n)
    for lo in range(0, len(s), step):
        top[lo : lo + step] = np.argpartition(s[lo : lo + step], n - k, axis=1)[:, n - k :]
    return top


def _check_sides(sim: ScoreRows) -> None:
    """Raise ValueError naming each empty side of the pool."""
    empty = [side for side, n in zip(("sources", "targets"), sim.shape) if n == 0]
    if empty:
        raise ValueError(f"the pool has no {' and no '.join(empty)}")


def csls_rescale(sim: ScoreRows, k: int) -> CSLSScores:
    """Cross-domain local scaling: score(i,j) <- 2*s(i,j) - r_src(i) - r_tgt(j)
    with r_src(i) the mean of i's k best scores over targets and r_tgt(j) the
    mean of j's k best over sources. k is clamped to the pool size.

    One pass over the row blocks finds r_src per block and r_tgt from each
    column's k best, merged block by block and summed in sorted order; the
    rescaled rows are computed again from `sim` whenever they are read. The
    same pass keeps each row's k best cells and each column's two best
    2*s - r_src, from which the decoders settle what they can prove.
    Raises ValueError when the pool has no sources or no targets."""
    _check_sides(sim)
    n_src, n_tgt = sim.shape
    k_row = min(k, n_tgt)
    r_src = np.empty(n_src)
    candidates = np.empty((n_src, k_row), dtype=np.int64)
    candidate_scores = np.empty((n_src, k_row))
    col_top = np.full((n_tgt, min(k, n_src)), -np.inf)  # each column's k best inputs
    col_best = np.full((n_tgt, 2), -np.inf)  # each column's two best 2*s - r_src
    for start, s in sim.row_blocks():
        rows = slice(start, start + len(s))
        _merge_column_tops(col_top, s)
        top = _row_tops(s, k_row)
        r_src[rows] = np.take_along_axis(s, top, axis=1).mean(axis=1)
        candidates[rows] = top = np.sort(top, axis=1)
        # the block is ours: it becomes 2*s - r_src by the rescaled rows' ops
        s *= 2.0
        s -= r_src[rows, None]
        _merge_column_tops(col_best, s)
        candidate_scores[rows] = np.take_along_axis(s, top, axis=1)
        del s  # before the next block is asked for: two blocks, not three
    r_tgt = np.sort(col_top, axis=1).mean(axis=1)
    col_best.sort(axis=1)

    def rows(start: int, stop: int) -> np.ndarray:
        s = sim.rows(start, stop)
        s *= 2.0
        s -= r_src[start:stop, None]
        s -= r_tgt
        return s

    if k_row < n_tgt:
        # any other cell of row i has an input no larger than its least
        # candidate's, so no larger 2*s - r_src; subtracting r_tgt rounds
        # monotonically, so it scores at most this
        bound = candidate_scores.min(axis=1) - r_tgt.min()
    else:  # every cell is a candidate
        bound = np.full(n_src, -np.inf)
    candidate_scores -= r_tgt[candidates]
    return CSLSScores(
        sim.source_ids, sim.target_ids, rows, sim.kind, r_src, r_tgt, candidates,
        candidate_scores, bound, col_best[:, 1], col_best[:, 0],
    )


def _row_bests(sim: ScoreRows, ranked: RowRanks | None = None) -> tuple[np.ndarray, ...]:
    """Each row's best target position (ties toward the smaller), its score
    and whether no other cell of the row reaches it; with `ranked`, each
    reference's row rank too. A CSLS row whose best candidate scores above
    the row's bound is answered from its candidates, since no other cell
    competes, and so is a reference that `ranked.settle` can rank. Only the
    row blocks that hold any other row are read again."""
    if isinstance(sim, CSLSScores):
        scores = sim.candidate_scores
        pick = np.argmax(scores, axis=1)[:, None]  # candidates are in target order
        best = np.take_along_axis(sim.candidates, pick, axis=1)[:, 0]
        top = np.take_along_axis(scores, pick, axis=1)[:, 0]
        unique = np.count_nonzero(scores == top[:, None], axis=1) == 1
        wanted = ~(top > sim.bound)
        if ranked is not None:
            wanted |= ranked.settle(sim.candidates, scores, sim.bound)
    else:  # nothing settled: read every row
        n = sim.shape[0]
        best, top, unique = np.empty(n, dtype=np.int64), np.empty(n), np.empty(n, dtype=bool)
        wanted = None
    for start, s in sim.row_blocks(wanted):
        rows = slice(start, start + len(s))
        best[rows] = np.argmax(s, axis=1)
        top[rows] = s[np.arange(len(s)), best[rows]]
        unique[rows] = np.count_nonzero(s == top[rows, None], axis=1) == 1
        if ranked is not None:
            ranked.update(start, s)
        del s
    return best, top, unique


def predict(sim: ScoreRows, *, ranked: RowRanks | None = None) -> AlignmentPairSet:
    """Row-wise argmax decoding; ties break toward the smaller target index.
    With `ranked`, the same read ranks its references (`_row_bests`).
    Raises ValueError when the pool has no sources or no targets."""
    _check_sides(sim)
    best, scores, _ = _row_bests(sim, ranked)
    return AlignmentPairSet(sim.source_ids, np.asarray(sim.target_ids)[best], "prediction", scores)


def predict_and_rank(
    sim: ScoreRows, references: AlignmentPairSet
) -> tuple[AlignmentPairSet, RowRanks]:
    """`predict(sim)` and each reference's row rank, from one read."""
    ranked = RowRanks(sim, references)
    return predict(sim, ranked=ranked), ranked


def mutual_nearest_pairs(sim: ScoreRows) -> AlignmentPairSet:
    """Pairs (i, j) where j is the unique argmax of row i and i the unique
    argmax of column j. The result is a partial matching.

    Row i must reach column j's best and the column's second best must score
    less. A CSLS matrix's column bests are its first pass's two best
    2*s - r_src less r_tgt[j], exact since that subtraction rounds
    monotonically; a plain matrix's come from one more pass over its rows."""
    n_src, n_tgt = sim.shape
    if n_src == 0 or n_tgt == 0:
        return AlignmentPairSet([], [], "pseudo")
    if isinstance(sim, CSLSScores):
        col_max, col_second = sim.col_max - sim.r_tgt, sim.col_second - sim.r_tgt
    else:
        col_top = np.full((n_tgt, 2), -np.inf)
        for _, s in sim.row_blocks():
            _merge_column_tops(col_top, s)
            del s
        col_second, col_max = np.sort(col_top, axis=1).T
    row_best, row_max, row_unique = _row_bests(sim)
    i = np.flatnonzero(row_unique)
    j = row_best[i]
    keep = (row_max[i] == col_max[j]) & (col_second[j] < col_max[j])
    i, j = i[keep], j[keep]
    return AlignmentPairSet(np.asarray(sim.source_ids)[i], np.asarray(sim.target_ids)[j],
                            "pseudo", row_max[i])


@dataclass
class IterationResult:
    state: EmbeddingState
    predictions: AlignmentPairSet
    similarity: BlockedScores | None  # the final CSLS scores, recomputed when read
    report: list[tuple[int, int, int]]  # (iteration, pseudo_pairs_added, train_pool_size)
    losses: list[float] = field(default_factory=list)
    reference_ranks: RowRanks | None = None  # taken in the prediction pass


def _scored_similarity(
    state: EmbeddingState,
    union: TemporalKG,
    enc_config: EncoderConfig,
    n1: int,
    align_config: AlignConfig,
    time_matrix: TimeScores,
    source_ids: np.ndarray,
    target_ids: np.ndarray,
) -> BlockedScores:
    """Combined + CSLS-rescaled similarity of the current embedding on the
    union graph (G1's entities first, `n1` of them), restricted to the given
    pools. The forward pass computes the pool's rows alone, sources then
    targets, and the scores take them over. Raises IndexError for an id
    outside its graph, which would read another entity's row."""
    for name, ids, n in (("source", source_ids, n1), ("target", target_ids,
                                                      union.entity_count - n1)):
        if len(ids) and not (ids.min() >= 0 and ids.max() < n):
            raise IndexError(f"{name} ids must be in [0, {n})")
    pool = forward(state, union, enc_config, rows=np.concatenate([source_ids, n1 + target_ids]))
    emb = embedding_similarity(pool, source_ids, target_ids)
    mixed = combine(emb, time_matrix.submatrix(source_ids, target_ids), align_config.alpha)
    return csls_rescale(mixed, align_config.csls_k)


def iterate(
    state: EmbeddingState,
    kg1: TemporalKG,
    kg2: TemporalKG,
    seeds: AlignmentPairSet,
    enc_config: EncoderConfig,
    train_config: TrainConfig,
    align_config: AlignConfig,
    time_matrix: TimeScores,
    references: AlignmentPairSet | None = None,
) -> IterationResult:
    """Bootstrapped alignment loop.

    Each iteration trains for train_config.epochs on the current pool, then
    adds mutually nearest pairs among not-yet-aligned entities to the pool as
    pseudo seeds. Pseudo pairs accumulate and are never revoked. Final
    predictions are decoded over the reference pool when `references` holds
    a pair, and the same pass ranks each reference in its row; otherwise
    they are decoded over the entities outside the training pool.

    `time_matrix` must cover all entities of both graphs (rows = G1 ids,
    columns = G2 ids), and so must seeds and references (else ValueError).
    Raises FloatingPointError when training leaves a non-finite value in an
    embedding table, which would otherwise decide argmax ties by its position.
    """
    if len(seeds) == 0:
        raise ValueError("iteration needs seeds (gold or generated)")
    if time_matrix.shape != (kg1.entity_count, kg2.entity_count):
        raise ValueError("time_matrix must be full |E1| x |E2|")
    for what, pairs in (("seed", seeds), ("reference", references)):
        if pairs is not None:
            check_pair_ids(pairs.sources, pairs.targets, *time_matrix.shape, what)

    union = union_graph(kg1, kg2)
    n1 = kg1.entity_count
    pool = seeds
    rng = np.random.default_rng(train_config.rng_seed)
    report: list[tuple[int, int, int]] = []
    losses: list[float] = []

    for it in range(1, align_config.iterations + 1):
        losses += train_on_union(
            state, union, (n1, kg2.entity_count), pool, enc_config, train_config, rng
        )
        for name, table in (("entity", state.entity_table), ("relation", state.relation_table)):
            if not np.isfinite(table).all():
                raise FloatingPointError(
                    f"iteration {it}: the {name} embedding table holds a non-finite value"
                )
        rest_src = np.setdiff1d(np.arange(n1), pool.sources)
        rest_tgt = np.setdiff1d(np.arange(kg2.entity_count), pool.targets)
        added = 0
        if len(rest_src) and len(rest_tgt):
            # the scores are dropped with the call, not kept through the
            # next training run or the final scoring
            pseudo = mutual_nearest_pairs(_scored_similarity(
                state, union, enc_config, n1, align_config, time_matrix, rest_src, rest_tgt
            ))
            added = len(pseudo)
            if added:
                pool = pool.extended(pseudo)
        report.append((it, added, len(pool)))

    has_refs = references is not None and len(references) > 0
    if has_refs:
        pred_src = np.unique(references.sources)
        pred_tgt = np.unique(references.targets)
    else:
        gold = pool.provenance != "pseudo"
        pred_src = np.setdiff1d(np.arange(n1), pool.sources[gold])
        pred_tgt = np.setdiff1d(np.arange(kg2.entity_count), pool.targets[gold])

    similarity = ranked = None
    predictions = AlignmentPairSet([], [], "prediction")
    if len(pred_src) and len(pred_tgt):
        similarity = _scored_similarity(
            state, union, enc_config, n1, align_config, time_matrix, pred_src, pred_tgt
        )
        if has_refs:
            predictions, ranked = predict_and_rank(similarity, references)
        else:
            predictions = predict(similarity)

    return IterationResult(
        state=state,
        predictions=predictions,
        similarity=similarity,
        report=report,
        losses=losses,
        reference_ranks=ranked,
    )
