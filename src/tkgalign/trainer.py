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
    check_field_types,
    forward_layers,
    make_dropout_mask,
)
from .kg import AlignmentPairSet, TemporalKG, union_graph


# row block of the hinge pass over the pair differences
_HINGE_BLOCK_BYTES = 1 << 20


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
        check_field_types(self)
        if self.margin <= 0 or self.learning_rate <= 0:
            raise ValueError("margin and learning_rate must be positive")
        if not 0.0 <= self.dropout_rate < 1.0:
            raise ValueError("dropout_rate must be in [0, 1)")
        if self.epochs < 0 or self.negatives_per_pair < 1:
            raise ValueError("epochs must be >= 0 and negatives_per_pair >= 1")
        if not (0.0 <= self.optimizer_decay < 1.0 and self.optimizer_epsilon > 0):
            raise ValueError("optimizer_decay must be in [0, 1) and optimizer_epsilon positive")


@dataclass
class OptimizerState:
    """Per-parameter running averages of squared gradients."""

    acc_entity: np.ndarray
    acc_relation: np.ndarray

    @classmethod
    def zeros_like(cls, state: EmbeddingState) -> "OptimizerState":
        return cls(np.zeros_like(state.entity_table), np.zeros_like(state.relation_table))


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
    out = np.repeat(np.column_stack([pairs.sources, pairs.targets]), count, axis=0)
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
        if rem or not len(pairs):
            raise ValueError("negatives must be a whole multiple of pairs")
        pos_src, pos_tgt = np.repeat(pairs.sources, k), np.repeat(pairs.targets, k) + entity_offset
        return cls(pos_src, pos_tgt, negatives[:, 0], negatives[:, 1] + entity_offset)


def compute_gradients(
    state: EmbeddingState,
    union_kg: TemporalKG,
    batch: TripletBatch,
    enc_config: EncoderConfig,
    train_config: TrainConfig,
    dropout_mask: np.ndarray | None = None,
    *,
    layers_out: np.ndarray | None = None,
) -> tuple[float, np.ndarray, np.ndarray]:
    """Exact batch loss and its gradient with respect to both tables.

    Chain rule through: hinge (subgradient, inactive terms contribute 0),
    L1 distance (per-coordinate sign; 0 at exact ties), concatenation (slice
    routing), rectifier (gate on forward positivity), neighborhood means
    (transpose of the sparse mean operators), and the dropout scaling.
    `layers_out` is `forward_layers`' output buffer, for reuse across epochs.
    """
    layers = forward_layers(state, union_kg, enc_config, dropout_mask, out=layers_out)
    g = layers[:, -2 * state.dim :] if enc_config.ablate_global_concat else layers

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
    # distances, then signs over the differences, in row blocks through one
    # small scratch (np.sign in place is several times slower than into it)
    dist = np.empty(m)
    rows = max(1, _HINGE_BLOCK_BYTES // (8 * diff.shape[1]))
    scratch = np.empty((min(rows, m), diff.shape[1]))
    for start in range(0, m, rows):  # no view of diff or scratch outlives the loop
        stop = min(start + rows, m)
        np.abs(diff[start:stop], out=scratch[: stop - start]).sum(axis=1, out=dist[start:stop])
        diff[start:stop] = np.sign(diff[start:stop], out=scratch[: stop - start])
    del scratch
    slack = dist[inv] - dist[len(keys) :] + train_config.margin
    active = slack > 0
    loss = float(slack[active].sum())

    # d_global = C @ sign(diff) with the signed incidence C = pair_diff^T W.
    # W weighs a positive pair by its number of active hinges and an active
    # negative by -1; inactive rows get 0 and drop out of C. All terms are
    # small integers, so the sums are exact in any order.
    weight = np.concatenate([np.bincount(inv[active], minlength=len(keys)), -1 * active])
    incidence = pair_diff.T @ sp.diags(weight.astype(np.float64))
    d_global = incidence @ diff
    del diff

    # backward in place, last layer first: layer l's gradient (its column
    # slice of d_global) is gated by its forward positivity and carried
    # through the transposed mean into layer l-1's slice, one d-wide half at
    # a time. Under ablate_global_concat d_global holds the last layer only,
    # and an earlier layer's gradient is the carried term alone.
    d = state.dim
    w = 2 * d
    op_t = union_kg.mean_operator_t
    d_run = d_global[:, -w:]
    for l in range(enc_config.layers - 1, 0, -1):
        d_run *= layers[:, l * w : (l + 1) * w] > 0
        if enc_config.ablate_global_concat:
            d_run = op_t @ d_run
        else:
            for c in range(l * w, (l + 1) * w, d):
                d_global[:, c - w : c - w + d] += op_t @ d_global[:, c : c + d]
            d_run = d_global[:, (l - 1) * w : l * w]

    if dropout_mask is not None:
        d_run *= dropout_mask

    d_ent_half = d_run[:, :d]
    d_rel_half = d_run[:, d:]
    if enc_config.ablate_relation_fusion:
        d_ent_half += d_rel_half
        grad_rel = np.zeros_like(state.relation_table)
    else:
        grad_rel = union_kg.relation_operator.T @ d_rel_half
    grad_ent = op_t @ d_ent_half
    return loss, grad_ent, grad_rel


def optimizer_step(
    state: EmbeddingState,
    opt: OptimizerState,
    grad_ent: np.ndarray,
    grad_rel: np.ndarray,
    config: TrainConfig,
) -> None:
    """RMSProp update in place: acc <- decay*acc + (1-decay)*g^2,
    p <- p - lr * g / (sqrt(acc) + eps). The float64 gradient arrays are
    consumed: each is overwritten with the step taken on its table."""
    decay, lr, eps = config.optimizer_decay, config.learning_rate, config.optimizer_epsilon
    for table, acc, grad in ((state.entity_table, opt.acc_entity, grad_ent),
                             (state.relation_table, opt.acc_relation, grad_rel)):
        scratch = np.square(grad)
        scratch *= 1.0 - decay
        acc *= decay
        acc += scratch
        np.sqrt(acc, out=scratch)
        scratch += eps
        grad *= lr
        grad /= scratch
        table -= grad


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
    losses: list[float] = []
    # one layer buffer and one mask buffer serve every epoch
    n = union_kg.entity_count
    layers = np.empty((n, 2 * state.dim * enc_config.layers))
    mask = np.empty((n, 2 * state.dim)) if train_config.dropout_rate > 0 else None
    for _ in range(train_config.epochs):
        if mask is not None:
            make_dropout_mask(rng, mask.shape, train_config.dropout_rate, out=mask)
        negs = sample_negatives(seeds, kg_sizes, train_config.negatives_per_pair, rng)
        batch = TripletBatch.build(seeds, negs, entity_offset=kg_sizes[0])
        loss, g_ent, g_rel = compute_gradients(
            state, union_kg, batch, enc_config, train_config, mask, layers_out=layers
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
