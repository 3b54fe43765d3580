"""Weightless entity encoder.

The only learnable parameters are the entity and relation embedding tables;
layers contain no projection matrices. Layer 1 fuses each entity's mean
neighbor embedding with its mean incident-relation embedding; deeper layers
apply a rectified row-normalized-adjacency mean; the final representation
concatenates all layers.
"""
from __future__ import annotations

import math
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


# bytes per row block of a sparse product written into a given array: each
# block's product is a new array of at most this size, copied into place
_PRODUCT_BLOCK_BYTES = 1 << 21


def product_into(op: sp.csr_matrix, x: np.ndarray, out: np.ndarray, *, add: bool = False
                 ) -> np.ndarray:
    """op @ x written into `out` (added to it under `add`), a row block at a
    time: scipy's product takes no output array. A block is the product of
    the CSR matrix of the block's rows, so each row adds the same terms in
    the same order as in op @ x. `x` should be C-contiguous, or scipy copies
    it for every block."""
    rows = op.shape[0]
    block = max(1, _PRODUCT_BLOCK_BYTES // (8 * x.shape[1]))
    for start in range(0, rows, block):
        stop = min(start + block, rows)
        part = op
        if stop - start < rows:
            lo, hi = op.indptr[start], op.indptr[stop]
            indptr = op.indptr[start : stop + 1] - lo
            part = sp.csr_matrix((op.data[lo:hi], op.indices[lo:hi], indptr),
                                 shape=(stop - start, op.shape[1]))
        if add:
            out[start:stop] += part @ x
        else:
            out[start:stop] = part @ x
    return out


def _write_layers(
    state: EmbeddingState,
    kg: TemporalKG,
    config: EncoderConfig,
    dropout_mask: DropoutMask | None,
    out: np.ndarray,
    rows: np.ndarray | None,
    skip: int = 0,
    workspace: np.ndarray | None = None,
) -> None:
    """Write the layers into `out`, the d-wide half of layer l that starts at
    column c of the global embedding into column c - skip; the halves before
    `skip` are computed but not written. The fused layer is (optionally)
    masked; each deeper one is the rectified mean over the previous layer.
    With `rows` each layer is written at those entities only, in the order
    of `rows`, and the last layer is computed there only, from the
    operator's rows, straight into `out`; each row holds the same sums as
    the full product's. With `workspace` (two |E| x d float64 arrays) the
    other products are written into its arrays in turn; without, each is a
    new array."""
    d, last = state.dim, config.layers - 1
    block = block_rows(d)
    # Aggregation is column-wise, so each d-wide half of a layer comes from
    # the same half of the previous layer. Each half is one chain of
    # products, each fed the contiguous array the previous one wrote and
    # dropping it, so at most two |E| x d arrays are live.
    for half in (0, d):
        for l in range(config.layers):
            col = 2 * d * l + half - skip
            if l:
                op, x = kg.mean_operator, h
            elif half and not config.ablate_relation_fusion:
                op, x = kg.relation_operator, state.relation_table
            else:
                op, x = kg.mean_operator, state.entity_table
            if rows is not None and l == last:
                # the operator's rows, built for each product and dropped
                # with it: kept live across the |E| x d products, it
                # fragments the heap (about 3 MiB more RSS at 16000 entities)
                h = product_into(op[rows], x, out[:, col : col + d])
            elif workspace is not None:
                h = product_into(op, x, workspace[l % 2])
            else:
                h = op @ x
            del x
            if l == 0 and dropout_mask is not None:
                keep = dropout_mask.keep[:, half : half + d]
                h *= keep[rows] if rows is not None and last == 0 else keep
                h *= dropout_mask.scale
            elif l:
                np.maximum(h, 0.0, out=h)
            if col < 0 or (rows is not None and l == last):
                continue
            if rows is None:
                out[:, col : col + d] = h
                continue
            # gathered a row block at a time: no temporary of len(rows) x d
            for start in range(0, len(rows), block):
                ids = rows[start : start + block]
                out[start : start + len(ids), col : col + d] = h[ids]


def forward_layers(
    state: EmbeddingState,
    kg: TemporalKG,
    config: EncoderConfig,
    dropout_mask: DropoutMask | None = None,
    *,
    out: np.ndarray | None = None,
    rows: np.ndarray | None = None,
    workspace: np.ndarray | None = None,
) -> np.ndarray:
    """All layer outputs side by side in one array (`out` when given): layer
    l fills columns [2*d*l, 2*d*(l+1)), starting with the (optionally
    dropout-masked) fused layer; the mask applies to the fused features
    only. Without `rows`, one row per entity. With `rows` (entity ids), the
    rows of those entities only, in the order of `rows`, in the first
    len(rows) rows of `out`; no other row of `out` is written. The layers
    before the last are still computed at every entity, since the next one
    reads them there, and the last at `rows` only. With `workspace` (a
    C-contiguous (2, |E|, d) float64 array) every product is written into
    it or into `out`, and no entity-sized array is allocated."""
    if out is None:
        n = kg.entity_count if rows is None else len(rows)
        out = np.empty((n, 2 * state.dim * config.layers))
    _write_layers(state, kg, config, dropout_mask, out[: len(rows)] if rows is not None else out,
                  rows, workspace=workspace)
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
    _write_layers(state, kg, config, dropout_mask, out, rows, skip)
    return out
