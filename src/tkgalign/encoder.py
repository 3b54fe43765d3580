"""Weightless entity encoder.

The only learnable parameters are the entity and relation embedding tables;
layers contain no projection matrices. Layer 1 fuses each entity's mean
neighbor embedding with its mean incident-relation embedding; deeper layers
apply a rectified row-normalized-adjacency mean; the final representation
concatenates all layers.
"""
from __future__ import annotations

import math
from dataclasses import dataclass, field, fields
from numbers import Integral, Real

import numpy as np
import scipy.sparse as sp

from .kg import TemporalKG


# the values a field of each annotated type accepts; a bool is no number
_FIELD_TYPES = {
    "int": (lambda v: isinstance(v, Integral) and not isinstance(v, bool), "an integer"),
    "bool": (lambda v: isinstance(v, (bool, np.bool_)), "a bool"),
    "float": (lambda v: isinstance(v, Real) and not isinstance(v, bool) and math.isfinite(v),
              "a finite number"),
}


def check_field_types(config) -> None:
    """Raise ValueError unless every field holds a value of its annotated
    type: an `int` field a Python or NumPy integer, a `bool` field a Python
    or NumPy bool, a `float` field a finite real number, never a bool; an
    optional (`| None`) field may also hold None."""
    for f in fields(config):
        v = getattr(config, f.name)
        kind = f.type.removesuffix(" | None")
        if v is None and kind != f.type:
            continue
        valid, name = _FIELD_TYPES[kind]
        if not valid(v):
            raise ValueError(f"{f.name} must be {name}, got {v!r}")


@dataclass
class EncoderConfig:
    dim: int = 100
    layers: int = 2
    init_seed: int = 0
    init_scale: float | None = None  # None: sqrt(6 / (rows + cols)) per table
    ablate_relation_fusion: bool = False
    ablate_global_concat: bool = False

    def __post_init__(self) -> None:
        check_field_types(self)
        if self.dim < 1 or self.layers < 1:
            raise ValueError("dim and layers must be >= 1")
        if self.init_scale is not None and self.init_scale <= 0:
            raise ValueError(f"init_scale must be > 0, got {self.init_scale!r}")


@dataclass
class EmbeddingState:
    entity_table: np.ndarray
    relation_table: np.ndarray

    @property
    def dim(self) -> int:
        return self.entity_table.shape[1]

    @property
    def parameter_count(self) -> int:
        return self.entity_table.size + self.relation_table.size

    def copy(self) -> "EmbeddingState":
        return EmbeddingState(self.entity_table.copy(), self.relation_table.copy())


def init_embeddings(config: EncoderConfig, entity_count: int, relation_count: int) -> EmbeddingState:
    """Uniform initialization in [-scale, +scale], reproducible from
    config.init_seed. Default scale is fan-based per table."""
    if entity_count < 1 or relation_count < 1:
        raise ValueError("counts must be >= 1")
    rng = np.random.default_rng(config.init_seed)

    def table(rows: int) -> np.ndarray:
        scale = config.init_scale
        if scale is None:
            scale = np.sqrt(6.0 / (rows + config.dim))
        return rng.uniform(-scale, scale, size=(rows, config.dim))

    return EmbeddingState(table(entity_count), table(relation_count))


def make_dropout_mask(
    rng: np.random.Generator, shape: tuple[int, int], rate: float, *, out: np.ndarray | None = None
) -> np.ndarray:
    """Inverted-scaling dropout mask: zero with probability `rate`, else
    1 / (1 - rate). With `out` (float64, of `shape`) the mask is drawn into
    it, from the same stream as a fresh draw."""
    if not 0.0 <= rate < 1.0:
        raise ValueError("dropout rate must be in [0, 1)")
    mask = rng.random(shape, out=out)
    np.greater_equal(mask, rate, out=mask)  # in place: 1.0 where kept, else 0.0
    mask *= 1.0 / (1.0 - rate)
    return mask


def _rows_only(op: sp.csr_matrix, rows: np.ndarray) -> sp.csr_matrix:
    """`op` with every row outside `rows` (sorted, distinct ids) emptied. A
    kept row has the same entries in the same order, so a product computes
    the same sums at `rows` and 0 elsewhere. The result keeps all the rows,
    so the product has the same size in every call and the heap does not
    fragment over a training run."""
    kept = op[rows]
    indptr = np.zeros(op.shape[0] + 1, dtype=kept.indptr.dtype)
    indptr[rows + 1] = np.diff(kept.indptr)
    np.cumsum(indptr, out=indptr)
    return sp.csr_matrix((kept.data, kept.indices, indptr), shape=op.shape)


def fuse_features(
    state: EmbeddingState,
    kg: TemporalKG,
    config: EncoderConfig,
    *,
    out: np.ndarray | None = None,
    rows: np.ndarray | None = None,
) -> np.ndarray:
    """Layer-1 features: [mean neighbor embedding || mean relation embedding]
    per entity, width 2d, written into `out` when given; with `rows` (sorted
    entity ids), at those entities only and 0 elsewhere. Entities with no
    incident relations get a zero relational half. With
    ablate_relation_fusion the relational half is a second copy of the
    structural half (width preserved)."""
    d = state.dim
    mean, relation = kg.mean_operator, kg.relation_operator
    if rows is not None:
        mean, relation = _rows_only(mean, rows), _rows_only(relation, rows)
    out = np.empty((kg.entity_count, 2 * d)) if out is None else out
    out[:, :d] = mean @ state.entity_table
    if config.ablate_relation_fusion:
        out[:, d:] = out[:, :d]
    else:
        out[:, d:] = relation @ state.relation_table
    return out


def aggregate_layer(
    prev: np.ndarray,
    kg: TemporalKG,
    *,
    out: np.ndarray | None = None,
    rows: np.ndarray | None = None,
) -> np.ndarray:
    """One aggregation step: rectified neighborhood mean of the previous
    layer's rows (self included), written into `out` when given; with
    `rows` (sorted entity ids), at those entities only and 0 elsewhere."""
    mean = kg.mean_operator if rows is None else _rows_only(kg.mean_operator, rows)
    return np.maximum(mean @ prev, 0.0, out=out)


def forward_layers(
    state: EmbeddingState,
    kg: TemporalKG,
    config: EncoderConfig,
    dropout_mask: np.ndarray | None = None,
    *,
    out: np.ndarray | None = None,
    rows: np.ndarray | None = None,
) -> np.ndarray:
    """All layer outputs side by side in one entity_count x 2*d*layers array
    (`out` when given): layer l fills columns [2*d*l, 2*d*(l+1)), starting
    with the (optionally dropout-masked) fused layer; the mask applies to the
    fused features only. With `rows` (sorted entity ids) the last layer is
    computed at those entities only and is 0 elsewhere."""
    d = state.dim
    width = 2 * d
    out = np.empty((kg.entity_count, width * config.layers)) if out is None else out
    last = out.shape[1] - width
    h = fuse_features(state, kg, config, out=out[:, :width], rows=None if last else rows)
    if dropout_mask is not None:
        h *= dropout_mask
    # aggregation is column-wise, so each d-wide half of a layer comes from
    # the same half of the previous layer (smaller temporaries than a layer)
    for c in range(width, out.shape[1], d):
        aggregate_layer(out[:, c - width : c - width + d], kg, out=out[:, c : c + d],
                        rows=rows if c >= last else None)
    return out


def forward(
    state: EmbeddingState,
    kg: TemporalKG,
    config: EncoderConfig,
    dropout_mask: np.ndarray | None = None,
) -> np.ndarray:
    """Full forward pass: entity_count x 2*d*layers matrix (or x 2d under
    ablate_global_concat, the last layer's columns of `forward_layers`)."""
    layers = forward_layers(state, kg, config, dropout_mask)
    return layers[:, -2 * state.dim :] if config.ablate_global_concat else layers
