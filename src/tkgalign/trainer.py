"""Margin-based training of the embedding tables.

Both graphs are merged into one disjoint-union graph so a single pair of
tables and one forward pass serve both sides. The loss is a hinge over
Manhattan distances between aligned-pair embeddings and corrupted-pair
embeddings; gradients are computed analytically through the encoder and
applied with an RMSProp update.
"""
from __future__ import annotations

from dataclasses import dataclass
from typing import Callable

import numpy as np
import scipy.sparse as sp

from .encoder import (
    DropoutMask,
    EmbeddingState,
    EncoderConfig,
    block_rows,
    check_field_types,
    forward_layers,
    make_dropout_mask,
)
from .kg import AlignmentPairSet, TemporalKG, check_pair_ids


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
    dropout_mask: DropoutMask | None = None,
    *,
    layers_out: np.ndarray | None = None,
) -> tuple[float, np.ndarray, np.ndarray]:
    """Exact batch loss and its gradient with respect to both tables.

    Chain rule through: hinge (subgradient, inactive terms contribute 0),
    L1 distance (per-coordinate sign; 0 at exact ties), concatenation (slice
    routing), rectifier (gate on forward positivity), neighborhood means
    (transpose of the sparse mean operators), and the dropout scaling.
    `layers_out` is `forward_layers`' output buffer, for reuse across epochs.
    The backward pass runs over the rows that carry gradient only, and the
    last layer is computed at the batch's entities only.
    """
    # score each distinct positive pair once (`inv` maps triplets to it),
    # then every negative; pair k's difference is e(src_k) - e(tgt_k)
    n = union_kg.entity_count
    for pairs in ((batch.pos_src, batch.pos_tgt), (batch.neg_src, batch.neg_tgt)):
        check_pair_ids(*pairs, n, n, "batch")
    keys, inv = np.unique(batch.pos_src * n + batch.pos_tgt, return_inverse=True)
    src = np.concatenate([keys // n, batch.neg_src])
    tgt = np.concatenate([keys % n, batch.neg_tgt])
    m = len(src)
    layers = forward_layers(state, union_kg, enc_config, dropout_mask, out=layers_out,
                            rows=_marked(n, src, tgt))
    # the global embedding g is the last `width` columns of the layers
    d = state.dim
    width = 2 * d if enc_config.ablate_global_concat else layers.shape[1]
    g_start = layers.shape[1] - width

    # distances in row blocks through two small scratch arrays; no view of
    # them outlives a loop
    block = block_rows(width)
    scratch = np.empty((2, min(block, m), width))
    dist = np.empty(m)
    for start in range(0, m, block):
        stop = min(start + block, m)
        np.abs(_pair_diff(layers, g_start, width, src[start:stop], tgt[start:stop], scratch),
               out=scratch[1, : stop - start]).sum(axis=1, out=dist[start:stop])
    slack = dist[inv] - dist[len(keys) :] + train_config.margin
    active = slack > 0
    loss = float(slack[active].sum())

    # W weighs a positive pair by its number of active hinges and an active
    # negative by -1. Only the live pairs (weight != 0) have a gradient.
    # Their signs are kept one d-wide column block at a time, so that the
    # gradient of each block is one product; the blocks have room for every
    # pair, so the arrays have the same size in every epoch. A sign is
    # stored as int8: a live pair's difference is never NaN, since a NaN
    # distance leaves its hinges inactive, so the cast is exact.
    weight = np.concatenate([np.bincount(inv[active], minlength=len(keys)), -1 * active])
    live = np.flatnonzero(weight)
    src, tgt = src[live], tgt[live]
    k = len(live)
    signs = np.empty((width // d, m, d), dtype=np.int8)
    for start in range(0, k, block):
        stop = min(start + block, k)
        diff = _pair_diff(layers, g_start, width, src[start:stop], tgt[start:stop], scratch)
        np.sign(diff.reshape(stop - start, -1, d).swapaxes(0, 1), out=signs[:, start:stop],
                casting="unsafe")
        del diff
    del scratch

    # the gradient of column block b is C @ signs[b] with the signed
    # incidence C = pair_diff^T W over the live pairs; it is 0 outside their
    # endpoints, the hot rows. All terms are small integers, so the sums are
    # exact in any order.
    signed = np.repeat(weight[live].astype(np.float64), 2)
    signed[1::2] *= -1.0
    incidence = sp.csr_matrix(
        (signed, np.column_stack([src, tgt]).ravel(), np.arange(0, 2 * k + 1, 2)), shape=(k, n)
    ).T
    del signed, live

    # each block's signs are widened once, into one float64 buffer, so the
    # product reads no int8 operand (scipy would convert it in a fresh copy)
    widened = np.empty((m, d))

    def scattered(b: int) -> np.ndarray:
        np.copyto(widened[:k], signs[b, :k])
        return incidence @ widened[:k]

    # Backward, last layer first, over the rows that carry gradient. Layer
    # l's gradient is 0 outside its row set, which starts at the hot rows:
    # it is gated by the layer's forward positivity there and carried
    # through the transposed mean of those rows, M[rows].T, which reaches
    # one hop further, into layer l-1's row set. With the global concat,
    # layer l-1's scattered block is added to the carried term.
    # The full transpose M.T in CSR form has sorted indices, so its row i
    # adds M[j, i] x[j] over ascending j; M[rows].T over ascending rows adds
    # the same terms in the same order and drops only those of x[j] = +-0,
    # which never change a sum that starts at +0.
    mean = union_kg.mean_operator
    row_sets = [_marked(n, src, tgt)]
    carries = []
    for _ in range(enc_config.layers - 1):
        carries.append(mean[row_sets[-1]].T)
        row_sets.append(_marked(n, carries[-1].indices))
    rows = row_sets[-1]

    args = (layers, scattered, row_sets, carries, dropout_mask, enc_config)
    d_rel_half = _half_gradient(d, *args)
    if enc_config.ablate_relation_fusion:
        grad_rel = np.zeros_like(state.relation_table)
    else:
        grad_rel = union_kg.relation_operator[rows].T @ d_rel_half
        d_rel_half = None
    d_ent_half = _half_gradient(0, *args)
    if d_rel_half is not None:
        d_ent_half += d_rel_half
    grad_ent = mean[rows].T @ d_ent_half
    return loss, grad_ent, grad_rel


def _take_columns(
    a: np.ndarray, ids: np.ndarray, start: int, width: int, out: np.ndarray
) -> np.ndarray:
    """a[ids, start:start + width] into `out`, read from `a`'s own memory:
    `a` is C-contiguous and `start` and a's width are multiples of `width`,
    so those columns of row i are row i * (a.shape[1] // width) + start //
    width of the view a.reshape(-1, width). np.take would first copy a
    strided column slice whole; into `out` it is unbuffered with
    mode="clip"."""
    per_row = a.shape[1] // width
    flat = ids if per_row == 1 else ids * per_row + start // width
    return np.take(a.reshape(-1, width), flat, axis=0, out=out, mode="clip")


def _pair_diff(
    layers: np.ndarray, start: int, width: int, src: np.ndarray, tgt: np.ndarray,
    scratch: np.ndarray,
) -> np.ndarray:
    """g[src] - g[tgt], with g = layers[:, start:start + width], in the first
    len(src) rows of scratch[0], with scratch[1] as the second operand. It
    is bit for bit the product of the signed pair incidence with g, but for
    the sign of a zero, which neither a distance nor a sum of signs sees."""
    rows = len(src)
    a = _take_columns(layers, src, start, width, scratch[0, :rows])
    return np.subtract(a, _take_columns(layers, tgt, start, width, scratch[1, :rows]), out=a)


def _half_gradient(
    half: int,
    layers: np.ndarray,
    scattered: Callable[[int], np.ndarray],
    row_sets: list[np.ndarray],
    carries: list[sp.csc_matrix],
    dropout_mask: DropoutMask | None,
    enc_config: EncoderConfig,
) -> np.ndarray:
    """The fused layer's gradient in the d columns from `half` of each layer,
    at `row_sets[-1]`; `scattered(b)` is the hinge gradient of column block
    b of the global embedding. It runs compacted to the front of one
    entity-sized buffer, and a carried product, once compacted, is the spare
    buffer of the next gate. The dropout mask's keep bits are gathered into
    an entity-sized bool buffer. Every buffer has the same size in every
    epoch, so each epoch reuses the heap chunks of the last one instead of
    fragmenting the heap."""
    n, d = layers.shape[0], enc_config.dim
    w = 2 * d
    x = np.empty((n, d))
    spare = np.empty((n, d))
    hot = row_sets[0]
    last = enc_config.layers - 1
    block = half // d + (0 if enc_config.ablate_global_concat else 2 * last)
    np.take(scattered(block), hot, axis=0, out=x[: len(hot)], mode="clip")
    for step, carry_t in enumerate(carries):
        l = last - step
        at, reach = row_sets[step], row_sets[step + 1]
        gate = _take_columns(layers, at, l * w + half, d, spare[: len(at)])
        x[: len(at)] *= np.greater(gate, 0.0, out=gate)
        del gate, spare
        spare = carry_t @ x[: len(at)]
        if not enc_config.ablate_global_concat:
            spare += scattered(block - 2 * (step + 1))
        np.take(spare, reach, axis=0, out=x[: len(reach)], mode="clip")
    x = x[: len(row_sets[-1])]
    del spare
    if dropout_mask is not None:
        keep = np.empty((n, d), dtype=bool)[: len(x)]
        x *= _take_columns(dropout_mask.keep, row_sets[-1], half, d, keep)
        x *= dropout_mask.scale
    return x


def _marked(n: int, *ids: np.ndarray) -> np.ndarray:
    """The distinct ids among `ids`, ascending, all in [0, n)."""
    seen = np.zeros(n, dtype=bool)
    for x in ids:
        seen[x] = True
    return np.flatnonzero(seen)


def optimizer_step(
    state: EmbeddingState,
    opt: OptimizerState,
    grad_ent: np.ndarray,
    grad_rel: np.ndarray,
    config: TrainConfig,
) -> None:
    """RMSProp update in place: acc <- decay*acc + (1-decay)*g^2,
    p <- p - lr * g / (sqrt(acc) + eps). The float64 gradient arrays are
    consumed: each is overwritten with the step taken on its table. Each
    row block takes every step before the next one is read."""
    decay, lr, eps = config.optimizer_decay, config.learning_rate, config.optimizer_epsilon
    for table, acc, grad in ((state.entity_table, opt.acc_entity, grad_ent),
                             (state.relation_table, opt.acc_relation, grad_rel)):
        block = block_rows(table.shape[1])
        scratch = np.empty((min(block, len(table)), table.shape[1]))
        for start in range(0, len(table), block):
            rows = slice(start, start + block)
            t, a, g = table[rows], acc[rows], grad[rows]
            s = np.square(g, out=scratch[: len(g)])
            s *= 1.0 - decay
            a *= decay
            a += s
            np.sqrt(a, out=s)
            s += eps
            g *= lr
            g /= s
            t -= g


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
    and returns the loss trajectory. Raises ValueError when a seed is not
    in [0, kg_sizes[0]) x [0, kg_sizes[1])."""
    if len(seeds) == 0:
        raise ValueError("training needs at least one seed pair; generate seeds first")
    check_pair_ids(seeds.sources, seeds.targets, *kg_sizes, "seed")
    if rng is None:
        rng = np.random.default_rng(train_config.rng_seed)
    opt = OptimizerState.zeros_like(state)
    losses: list[float] = []
    # one layer buffer and one keep-bit buffer serve every epoch
    n = union_kg.entity_count
    layers = np.empty((n, 2 * state.dim * enc_config.layers))
    keep = np.empty((n, 2 * state.dim), dtype=bool) if train_config.dropout_rate > 0 else None
    mask = None
    for _ in range(train_config.epochs):
        if keep is not None:
            mask = make_dropout_mask(rng, keep.shape, train_config.dropout_rate, out=keep)
        negs = sample_negatives(seeds, kg_sizes, train_config.negatives_per_pair, rng)
        batch = TripletBatch.build(seeds, negs, entity_offset=kg_sizes[0])
        loss, g_ent, g_rel = compute_gradients(
            state, union_kg, batch, enc_config, train_config, mask, layers_out=layers
        )
        optimizer_step(state, opt, g_ent, g_rel, train_config)
        # consumed: the next epoch's gradients are not computed beside them
        del g_ent, g_rel
        losses.append(loss)
    return losses

