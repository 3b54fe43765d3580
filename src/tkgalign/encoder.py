"""Weightless entity encoder.

The only learnable parameters are the entity and relation embedding tables;
layers contain no projection matrices. Layer 1 fuses each entity's mean
neighbor embedding with its mean incident-relation embedding; deeper layers
apply a rectified row-normalized-adjacency mean; the final representation
concatenates all layers.
"""
from __future__ import annotations

import math
from collections.abc import Iterator
from dataclasses import dataclass, fields
from numbers import Integral, Real

import numpy as np
import scipy.sparse as sp

from .kg import TemporalKG


def _is_int(v) -> bool:
    return isinstance(v, Integral) and not isinstance(v, bool)


# the values a field of each annotated type accepts; a bool is no number
_FIELD_TYPES = {
    "int": (_is_int, "an integer"),
    "bool": (lambda v: isinstance(v, (bool, np.bool_)), "a bool"),
    "float": (lambda v: isinstance(v, Real) and not isinstance(v, bool) and math.isfinite(v),
              "a finite number"),
    "tuple[int, ...]": (lambda v: isinstance(v, (list, tuple)) and all(map(_is_int, v)),
                        "a list of integers"),
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


# bytes per row block of the row-wise passes (the dropout draw, the hinge
# pass, RMSProp): each pass's operand blocks stay in a 2 MiB L2 together
_ROW_BLOCK_BYTES = 1 << 18


def block_rows(width: int) -> int:
    """Rows of a float64 array `width` columns wide in one row block."""
    return max(1, _ROW_BLOCK_BYTES // (8 * width))


@dataclass
class DropoutMask:
    """An inverted-scaling dropout mask, kept as its keep bits: the mask is
    `scale` where `keep` (bool) is True and 0 elsewhere. Applied as
    `h *= keep; h *= scale`, it gives h times the mask bit for bit: h * 1.0
    is exact, and a dropped value keeps the sign of its zero.
    `np.asarray(mask)` is the float64 mask."""

    keep: np.ndarray
    scale: float

    def __array__(self, dtype=None, copy=None) -> np.ndarray:
        return np.asarray(self.keep * self.scale, dtype=dtype)


def make_dropout_mask(
    rng: np.random.Generator, shape: tuple[int, int], rate: float, *, out: np.ndarray | None = None
) -> DropoutMask:
    """Inverted-scaling dropout mask: zero with probability `rate`, else
    1 / (1 - rate). With `out` (a C-contiguous bool array of `shape`) the
    keep bits are drawn into it. The doubles are drawn a row block at a
    time through one scratch block, which takes the same doubles from the
    stream as one draw of `shape`."""
    if not 0.0 <= rate < 1.0:
        raise ValueError("dropout rate must be in [0, 1)")
    if out is not None and (out.shape != tuple(shape) or out.dtype != np.bool_):
        raise ValueError(f"out is {out.dtype} of shape {out.shape}, not bool of {tuple(shape)}")
    keep = np.empty(shape, dtype=bool) if out is None else out
    block = block_rows(shape[1])
    scratch = np.empty((min(block, shape[0]), shape[1]))
    for start in range(0, shape[0], block):
        kept = keep[start : start + block]
        np.greater_equal(rng.random(out=scratch[: len(kept)]), rate, out=kept)
    return DropoutMask(keep, 1.0 / (1.0 - rate))


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


def _layer_halves(
    state: EmbeddingState,
    kg: TemporalKG,
    config: EncoderConfig,
    dropout_mask: DropoutMask | None,
    rows: np.ndarray | None,
    compact: bool,
) -> Iterator[tuple[int, int, np.ndarray]]:
    """(layer, first column, output) of each d-wide half of every layer, in
    the order they are computed. The fused layer is (optionally) masked;
    each deeper one is the rectified mean over the previous layer. With
    `rows` the last layer is computed at those entities only: as their rows
    alone, in the order of `rows`, under `compact`, or else at full height
    and 0 elsewhere (`rows` sorted and distinct). A row computed either way
    holds the same sums as the full product's."""
    d = state.dim
    last = config.layers - 1

    # the operator of a layer, at `rows` only in the last one; built for each
    # product and dropped with it, since one kept live across the |E| x d
    # products fragments the heap (about 3 MiB more RSS at 16000 entities)
    def at(op: sp.csr_matrix, layer: int) -> sp.csr_matrix:
        if rows is None or layer < last:
            return op
        return op[rows] if compact else _rows_only(op, rows)

    # Aggregation is column-wise, so each d-wide half of a layer comes from
    # the same half of the previous layer. Each half is one chain of
    # products, each fed the contiguous array the previous one returned, so
    # at most two |E| x d arrays are live.
    for half in (0, d):
        if half and not config.ablate_relation_fusion:
            h = at(kg.relation_operator, 0) @ state.relation_table
        else:
            h = at(kg.mean_operator, 0) @ state.entity_table
        if dropout_mask is not None:
            keep = dropout_mask.keep[:, half : half + d]
            h *= keep[rows] if compact and last == 0 else keep
            h *= dropout_mask.scale
        yield 0, half, h
        for l in range(1, config.layers):
            h = at(kg.mean_operator, l) @ h
            np.maximum(h, 0.0, out=h)
            yield l, 2 * d * l + half, h


def forward_layers(
    state: EmbeddingState,
    kg: TemporalKG,
    config: EncoderConfig,
    dropout_mask: DropoutMask | None = None,
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
    out = np.empty((kg.entity_count, 2 * d * config.layers)) if out is None else out
    # each output is copied once into its columns
    for _, col, h in _layer_halves(state, kg, config, dropout_mask, rows, compact=False):
        out[:, col : col + d] = h
    return out


def forward(
    state: EmbeddingState,
    kg: TemporalKG,
    config: EncoderConfig,
    dropout_mask: DropoutMask | None = None,
    *,
    rows: np.ndarray | None = None,
) -> np.ndarray:
    """Full forward pass: entity_count x 2*d*layers matrix (or x 2d under
    ablate_global_concat, the last layer's columns of `forward_layers`).

    With `rows` (entity ids, in any order), a new array of those rows only,
    in that order, bit for bit the full pass's rows: every layer but the
    last is computed at every entity and written at `rows` only, and the
    last comes from the operator's rows at `rows`. Raises IndexError for an
    id outside the graph."""
    if rows is None:
        layers = forward_layers(state, kg, config, dropout_mask)
        return layers[:, -2 * state.dim :] if config.ablate_global_concat else layers
    rows = np.asarray(rows, dtype=np.int64)
    if len(rows) and not (rows.min() >= 0 and rows.max() < kg.entity_count):
        raise IndexError(f"rows must be entity ids in [0, {kg.entity_count})")
    d, last = state.dim, config.layers - 1
    skip = 2 * d * last if config.ablate_global_concat else 0  # columns left out
    out = np.empty((len(rows), 2 * d * config.layers - skip))
    for l, col, h in _layer_halves(state, kg, config, dropout_mask, rows, compact=True):
        if col >= skip:
            out[:, col - skip : col - skip + d] = h if l == last else h[rows]
    return out
