"""Alignment prediction: cosine embedding similarity, mixing with temporal
similarity, hubness-corrected rescaling (CSLS), greedy decoding, and the
bootstrapped iterative loop that grows the training pool with mutually
nearest pseudo pairs."""
from __future__ import annotations

from dataclasses import dataclass, field
from typing import Sequence

import numpy as np

from .encoder import EmbeddingState, EncoderConfig, forward
from .kg import AlignmentPairSet, TemporalKG, union_graph
from .timesim import SimilarityMatrix
from .trainer import TrainConfig, train_on_union


@dataclass
class AlignConfig:
    alpha: float = 0.3  # weight of time similarity in the combined score
    csls_k: int = 10
    iterations: int = 5

    def __post_init__(self) -> None:
        if not 0.0 <= self.alpha <= 1.0:
            raise ValueError("alpha must be in [0, 1]")
        if self.csls_k < 1 or self.iterations < 1:
            raise ValueError("csls_k and iterations must be >= 1")


def _normalize_rows(x: np.ndarray) -> np.ndarray:
    norms = np.linalg.norm(x, axis=1, keepdims=True)
    out = np.zeros_like(x, dtype=np.float64)
    np.divide(x, norms, out=out, where=norms > 0)
    return out


def embedding_similarity(
    global1: np.ndarray,
    global2: np.ndarray,
    source_ids: Sequence[int],
    target_ids: Sequence[int],
) -> SimilarityMatrix:
    """Cosine similarity between selected rows of the two graphs' embedding
    matrices. Zero-norm rows yield all-zero similarities."""
    src = np.asarray(source_ids, dtype=np.int64)
    tgt = np.asarray(target_ids, dtype=np.int64)
    a = _normalize_rows(np.asarray(global1, dtype=np.float64)[src])
    b = _normalize_rows(np.asarray(global2, dtype=np.float64)[tgt])
    return SimilarityMatrix(source_ids=src, target_ids=tgt, scores=a @ b.T, kind="embedding")


def combine(emb: SimilarityMatrix, time: SimilarityMatrix, alpha: float) -> SimilarityMatrix:
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
        scores = emb.dense.copy()
    elif alpha == 1.0:
        scores = time.dense.copy()
    else:
        scores = (1.0 - alpha) * emb.dense + alpha * time.dense
    return SimilarityMatrix(emb.source_ids, emb.target_ids, scores, kind="combined")


def csls_rescale(sim: SimilarityMatrix, k: int) -> SimilarityMatrix:
    """Cross-domain local scaling: score(i,j) <- 2*s(i,j) - r_src(i) - r_tgt(j)
    with r_src(i) the mean of i's k best scores over targets and r_tgt(j) the
    mean of j's k best over sources. k is clamped to the pool size."""
    s = sim.dense
    k_row = min(k, s.shape[1])
    k_col = min(k, s.shape[0])
    r_src = np.partition(s, s.shape[1] - k_row, axis=1)[:, s.shape[1] - k_row :].mean(axis=1)
    r_tgt = np.partition(s, s.shape[0] - k_col, axis=0)[s.shape[0] - k_col :, :].mean(axis=0)
    rescaled = 2.0 * s - r_src[:, None] - r_tgt[None, :]
    return SimilarityMatrix(sim.source_ids, sim.target_ids, rescaled, kind=sim.kind)


def predict(sim: SimilarityMatrix) -> AlignmentPairSet:
    """Row-wise argmax decoding; ties break toward the smaller target index."""
    s = sim.dense
    best = np.argmax(s, axis=1)
    pairs = [
        (int(sim.source_ids[i]), int(sim.target_ids[best[i]])) for i in range(s.shape[0])
    ]
    scores = [float(s[i, best[i]]) for i in range(s.shape[0])]
    return AlignmentPairSet.from_pairs(pairs, provenance="prediction", scores=scores)


def mutual_nearest_pairs(sim: SimilarityMatrix) -> AlignmentPairSet:
    """Pairs (i, j) where j is the unique argmax of row i and i the unique
    argmax of column j. The result is a partial matching."""
    s = sim.dense
    if s.size == 0:
        return AlignmentPairSet.from_pairs([], provenance="pseudo")
    row_best = np.argmax(s, axis=1)
    col_best = np.argmax(s, axis=0)
    row_unique = (s == s.max(axis=1, keepdims=True)).sum(axis=1) == 1
    col_unique = (s == s.max(axis=0, keepdims=True)).sum(axis=0) == 1
    pairs, scores = [], []
    for i, j in enumerate(row_best):
        if row_unique[i] and col_unique[j] and col_best[j] == i:
            pairs.append((int(sim.source_ids[i]), int(sim.target_ids[j])))
            scores.append(float(s[i, j]))
    return AlignmentPairSet.from_pairs(pairs, provenance="pseudo", scores=scores)


@dataclass
class IterationResult:
    state: EmbeddingState
    predictions: AlignmentPairSet
    similarity: SimilarityMatrix | None
    report: list[tuple[int, int, int]]  # (iteration, pseudo_pairs_added, train_pool_size)
    losses: list[float] = field(default_factory=list)


def _scored_similarity(
    state: EmbeddingState,
    union_kg: TemporalKG,
    n1: int,
    enc_config: EncoderConfig,
    align_config: AlignConfig,
    time_matrix: SimilarityMatrix,
    source_ids: np.ndarray,
    target_ids: np.ndarray,
) -> SimilarityMatrix:
    """Combined + CSLS-rescaled similarity restricted to the given pools."""
    g = forward(state, union_kg, enc_config)
    emb = embedding_similarity(g[:n1], g[n1:], source_ids, target_ids)
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
    time_matrix: SimilarityMatrix,
    references: AlignmentPairSet | None = None,
) -> IterationResult:
    """Bootstrapped alignment loop.

    Each iteration trains for train_config.epochs on the current pool, then
    adds mutually nearest pairs among not-yet-aligned entities to the pool as
    pseudo seeds. Pseudo pairs accumulate and are never revoked. Final
    predictions are decoded over the reference pool when given, otherwise
    over the entities outside the training pool.

    `time_matrix` must cover all entities of both graphs (rows = G1 ids,
    columns = G2 ids).
    """
    if len(seeds) == 0:
        raise ValueError("iteration needs seeds (gold or generated)")
    if time_matrix.shape != (kg1.entity_count, kg2.entity_count):
        raise ValueError("time_matrix must be full |E1| x |E2|")

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
        used_src = set(pool.sources())
        used_tgt = set(pool.targets())
        rest_src = np.array([e for e in range(n1) if e not in used_src], dtype=np.int64)
        rest_tgt = np.array(
            [e for e in range(kg2.entity_count) if e not in used_tgt], dtype=np.int64
        )
        added = 0
        if len(rest_src) and len(rest_tgt):
            sim = _scored_similarity(
                state, union, n1, enc_config, align_config, time_matrix, rest_src, rest_tgt
            )
            pseudo = mutual_nearest_pairs(sim)
            added = len(pseudo)
            if added:
                pool = pool.extended(pseudo)
        report.append((it, added, len(pool)))

    if references is not None and len(references):
        pred_src = np.array(sorted(set(references.sources())), dtype=np.int64)
        pred_tgt = np.array(sorted(set(references.targets())), dtype=np.int64)
    else:
        gold_src = {s for s, lab in zip(pool.sources(), pool.provenance) if lab != "pseudo"}
        gold_tgt = {t for t, lab in zip(pool.targets(), pool.provenance) if lab != "pseudo"}
        pred_src = np.array([e for e in range(n1) if e not in gold_src], dtype=np.int64)
        pred_tgt = np.array(
            [e for e in range(kg2.entity_count) if e not in gold_tgt], dtype=np.int64
        )

    similarity = None
    predictions = AlignmentPairSet.from_pairs([], provenance="prediction")
    if len(pred_src) and len(pred_tgt):
        similarity = _scored_similarity(
            state, union, n1, enc_config, align_config, time_matrix, pred_src, pred_tgt
        )
        predictions = predict(similarity)

    return IterationResult(
        state=state, predictions=predictions, similarity=similarity, report=report, losses=losses
    )
