"""Margin-based training of the embedding tables.

Both graphs are merged into one disjoint-union graph so a single pair of
tables and one forward pass serve both sides. The loss is a hinge over
Manhattan distances between aligned-pair embeddings and corrupted-pair
embeddings; gradients are computed analytically through the encoder and
applied with an RMSProp update.
"""
from __future__ import annotations

from dataclasses import dataclass, field

import numpy as np
import scipy.sparse as sp

from .encoder import (
    EmbeddingState,
    EncoderConfig,
    forward_layers,
    global_embedding,
    make_dropout_mask,
)
from .kg import AlignmentPairSet, TemporalKG, union_graph


@dataclass
class TrainConfig:
    margin: float = 3.0
    learning_rate: float = 0.005
    epochs: int = 1200
    negatives_per_pair: int = 5
    dropout_rate: float = 0.3
    rng_seed: int = 0
    optimizer_decay: float = 0.9
    optimizer_epsilon: float = 1e-8

    def __post_init__(self) -> None:
        if self.margin <= 0 or self.learning_rate <= 0:
            raise ValueError("margin and learning_rate must be positive")
        if not 0.0 <= self.dropout_rate < 1.0:
            raise ValueError("dropout_rate must be in [0, 1)")


@dataclass
class OptimizerState:
    """Per-parameter running averages of squared gradients."""

    acc_entity: np.ndarray
    acc_relation: np.ndarray

    @classmethod
    def zeros_like(cls, state: EmbeddingState) -> "OptimizerState":
        return cls(np.zeros_like(state.entity_table), np.zeros_like(state.relation_table))


def manhattan_distance(u: np.ndarray, v: np.ndarray) -> float:
    u = np.asarray(u, dtype=np.float64)
    v = np.asarray(v, dtype=np.float64)
    if u.shape != v.shape:
        raise ValueError("length mismatch")
    return float(np.abs(u - v).sum())


def sample_negatives(
    pairs: AlignmentPairSet,
    kg_sizes: tuple[int, int],
    count: int,
    rng: np.random.Generator,
) -> np.ndarray:
    """`count` corrupted pairs per positive pair, each replacing exactly one
    side with a uniformly random *different* entity from that side's graph.
    Sides are chosen with equal probability. Returns a (len(pairs)*count, 2)
    int64 array whose rows p*count .. (p+1)*count-1 corrupt pair p."""
    if count < 1:
        raise ValueError("count must be >= 1")
    out = np.repeat(np.asarray(pairs.pairs, dtype=np.int64).reshape(-1, 2), count, axis=0)
    sides = rng.integers(2, size=len(out))
    for side, n, name in ((0, kg_sizes[0], "source"), (1, kg_sizes[1], "target")):
        rows = np.flatnonzero(sides == side)
        if rows.size == 0:
            continue
        if n < 2:
            raise ValueError(f"cannot corrupt the {name} side of a 1-entity graph")
        # uniform over the n-1 ids other than the original: skip past it
        r = rng.integers(n - 1, size=rows.size)
        out[rows, side] = r + (r >= out[rows, side])
    return out


def triplet_loss(pos_dists: np.ndarray, neg_dists: np.ndarray, margin: float) -> float:
    pos_dists = np.asarray(pos_dists, dtype=np.float64)
    neg_dists = np.asarray(neg_dists, dtype=np.float64)
    if pos_dists.shape != neg_dists.shape:
        raise ValueError("length mismatch")
    return float(np.maximum(pos_dists - neg_dists + margin, 0.0).sum())


@dataclass
class TripletBatch:
    """One epoch's triplets in disjoint-union index space: positives repeated
    once per negative, row-aligned with their corruptions."""

    pos_src: np.ndarray
    pos_tgt: np.ndarray
    neg_src: np.ndarray
    neg_tgt: np.ndarray

    @classmethod
    def build(
        cls,
        pairs: AlignmentPairSet,
        negatives: np.ndarray,
        entity_offset: int,
    ) -> "TripletBatch":
        negatives = np.asarray(negatives, dtype=np.int64).reshape(-1, 2)
        k, rem = divmod(len(negatives), max(len(pairs), 1))
        if rem or not pairs.pairs:
            raise ValueError("negatives must be a whole multiple of pairs")
        pos = np.repeat(np.asarray(pairs.pairs, dtype=np.int64), k, axis=0)
        return cls(
            pos[:, 0], pos[:, 1] + entity_offset, negatives[:, 0], negatives[:, 1] + entity_offset
        )


def compute_gradients(
    state: EmbeddingState,
    union_kg: TemporalKG,
    batch: TripletBatch,
    enc_config: EncoderConfig,
    train_config: TrainConfig,
    dropout_mask: np.ndarray | None = None,
) -> tuple[float, np.ndarray, np.ndarray]:
    """Exact batch loss and its gradient with respect to both tables.

    Chain rule through: hinge (subgradient, inactive terms contribute 0),
    L1 distance (per-coordinate sign; 0 at exact ties), concatenation (slice
    routing), rectifier (gate on forward positivity), neighborhood means
    (transpose of the sparse mean operators), and the dropout scaling.
    """
    layers = forward_layers(state, union_kg, enc_config, dropout_mask)
    g = global_embedding(layers, enc_config.ablate_global_concat)

    # score each distinct positive pair once (`inv` maps triplets to it),
    # then every negative; row k of `pair_diff` is e(src_k) - e(tgt_k)
    n = g.shape[0]
    keys, inv = np.unique(batch.pos_src * n + batch.pos_tgt, return_inverse=True)
    src = np.concatenate([keys // n, batch.neg_src])
    tgt = np.concatenate([keys % n, batch.neg_tgt])
    m = len(src)
    pair_diff = sp.csr_matrix(
        (np.tile([1.0, -1.0], m), np.column_stack([src, tgt]).ravel(), np.arange(0, 2 * m + 1, 2)),
        shape=(m, n),
    )
    diff = pair_diff @ g
    buf = np.abs(diff)  # reused for the signs below
    dist = buf.sum(axis=1)
    slack = dist[inv] - dist[len(keys) :] + train_config.margin
    active = slack > 0
    loss = float(slack[active].sum())

    # d_global = C @ sign(diff) with the signed incidence C = pair_diff^T W.
    # W weighs a positive pair by its number of active hinges and an active
    # negative by -1; inactive rows get 0 and drop out of C. All terms are
    # small integers, so the sums are exact in any order.
    weight = np.concatenate([np.bincount(inv[active], minlength=len(keys)), -1 * active])
    incidence = pair_diff.T @ sp.diags(weight.astype(np.float64))
    d_global = incidence @ np.sign(diff, out=buf)

    # route the global gradient back to per-layer gradients
    width = layers[0].shape[1]
    if enc_config.ablate_global_concat:
        d_layers = [np.zeros_like(layers[0]) for _ in layers[:-1]] + [d_global]
    else:
        d_layers = [d_global[:, l * width : (l + 1) * width] for l in range(len(layers))]

    op_t = union_kg.mean_operator_t
    d_run = d_layers[-1]
    for l in range(len(layers) - 1, 0, -1):
        gated = d_run * (layers[l] > 0)
        d_run = d_layers[l - 1] + op_t @ gated

    if dropout_mask is not None:
        d_run = d_run * dropout_mask

    d = state.dim
    d_ent_half = d_run[:, :d]
    d_rel_half = d_run[:, d:]
    if enc_config.ablate_relation_fusion:
        d_ent_half = d_ent_half + d_rel_half
        grad_rel = np.zeros_like(state.relation_table)
    else:
        grad_rel = union_kg.relation_operator.T @ d_rel_half
    grad_ent = op_t @ d_ent_half
    return loss, grad_ent, grad_rel


def batch_loss(
    state: EmbeddingState,
    union_kg: TemporalKG,
    batch: TripletBatch,
    enc_config: EncoderConfig,
    train_config: TrainConfig,
    dropout_mask: np.ndarray | None = None,
) -> float:
    """Loss only, via the same forward path (finite-difference reference)."""
    layers = forward_layers(state, union_kg, enc_config, dropout_mask)
    g = global_embedding(layers, enc_config.ablate_global_concat)
    d_pos = np.abs(g[batch.pos_src] - g[batch.pos_tgt]).sum(axis=1)
    d_neg = np.abs(g[batch.neg_src] - g[batch.neg_tgt]).sum(axis=1)
    return triplet_loss(d_pos, d_neg, train_config.margin)


def optimizer_step(
    state: EmbeddingState,
    opt: OptimizerState,
    grad_ent: np.ndarray,
    grad_rel: np.ndarray,
    config: TrainConfig,
) -> None:
    """RMSProp update in place: acc <- decay*acc + (1-decay)*g^2,
    p <- p - lr * g / (sqrt(acc) + eps)."""
    decay, lr, eps = config.optimizer_decay, config.learning_rate, config.optimizer_epsilon
    opt.acc_entity *= decay
    opt.acc_entity += (1.0 - decay) * grad_ent**2
    opt.acc_relation *= decay
    opt.acc_relation += (1.0 - decay) * grad_rel**2
    state.entity_table -= lr * grad_ent / (np.sqrt(opt.acc_entity) + eps)
    state.relation_table -= lr * grad_rel / (np.sqrt(opt.acc_relation) + eps)


def train_on_union(
    state: EmbeddingState,
    union_kg: TemporalKG,
    kg_sizes: tuple[int, int],
    seeds: AlignmentPairSet,
    enc_config: EncoderConfig,
    train_config: TrainConfig,
    rng: np.random.Generator | None = None,
) -> list[float]:
    """Run the epoch loop on a prebuilt union graph; mutates `state` in place
    and returns the loss trajectory."""
    if len(seeds) == 0:
        raise ValueError("training needs at least one seed pair; generate seeds first")
    if rng is None:
        rng = np.random.default_rng(train_config.rng_seed)
    opt = OptimizerState.zeros_like(state)
    n1 = kg_sizes[0]
    losses: list[float] = []
    mask_shape = (union_kg.entity_count, 2 * state.dim)
    for _ in range(train_config.epochs):
        mask = (
            make_dropout_mask(rng, mask_shape, train_config.dropout_rate)
            if train_config.dropout_rate > 0
            else None
        )
        negs = sample_negatives(seeds, kg_sizes, train_config.negatives_per_pair, rng)
        batch = TripletBatch.build(seeds, negs, entity_offset=n1)
        loss, g_ent, g_rel = compute_gradients(
            state, union_kg, batch, enc_config, train_config, mask
        )
        optimizer_step(state, opt, g_ent, g_rel, train_config)
        losses.append(loss)
    return losses


def train(
    state: EmbeddingState,
    kg1: TemporalKG,
    kg2: TemporalKG,
    seeds: AlignmentPairSet,
    enc_config: EncoderConfig,
    train_config: TrainConfig,
) -> tuple[EmbeddingState, list[float]]:
    """Train the tables on a graph pair; returns (state, loss trajectory).
    Deterministic given train_config.rng_seed."""
    union = union_graph(kg1, kg2)
    losses = train_on_union(
        state, union, (kg1.entity_count, kg2.entity_count), seeds, enc_config, train_config
    )
    return state, losses
