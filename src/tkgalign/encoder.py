"""Weightless entity encoder.

The only learnable parameters are the entity and relation embedding tables;
layers contain no projection matrices. Layer 1 fuses each entity's mean
neighbor embedding with its mean incident-relation embedding; deeper layers
apply a rectified row-normalized-adjacency mean; the final representation
concatenates all layers.
"""
from __future__ import annotations

from dataclasses import dataclass, field

import numpy as np

from .kg import TemporalKG


@dataclass
class EncoderConfig:
    dim: int = 100
    layers: int = 2
    init_seed: int = 0
    init_scale: float | None = None  # None: sqrt(6 / (rows + cols)) per table
    ablate_relation_fusion: bool = False
    ablate_global_concat: bool = False

    def __post_init__(self) -> None:
        if self.dim < 1 or self.layers < 1:
            raise ValueError("dim and layers must be >= 1")


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


def make_dropout_mask(rng: np.random.Generator, shape: tuple[int, int], rate: float) -> np.ndarray:
    """Inverted-scaling dropout mask: zero with probability `rate`, else
    1 / (1 - rate)."""
    if not 0.0 <= rate < 1.0:
        raise ValueError("dropout rate must be in [0, 1)")
    mask = rng.random(shape)
    np.greater_equal(mask, rate, out=mask)  # in place: 1.0 where kept, else 0.0
    mask *= 1.0 / (1.0 - rate)
    return mask


def fuse_features(state: EmbeddingState, kg: TemporalKG, config: EncoderConfig) -> np.ndarray:
    """Layer-1 features: [mean neighbor embedding || mean relation embedding]
    per entity, width 2d. Entities with no incident relations get a zero
    relational half. With ablate_relation_fusion the relational half is a
    second copy of the structural half (width preserved)."""
    h_ent = kg.mean_operator @ state.entity_table
    if config.ablate_relation_fusion:
        h_rel = h_ent.copy()
    else:
        h_rel = kg.relation_operator @ state.relation_table
    return np.hstack([h_ent, h_rel])


def aggregate_layer(prev: np.ndarray, kg: TemporalKG) -> np.ndarray:
    """One aggregation step: rectified neighborhood mean of the previous
    layer's rows (self included)."""
    return np.maximum(kg.mean_operator @ prev, 0.0)


def global_embedding(layer_outputs: list[np.ndarray], ablate_global_concat: bool = False) -> np.ndarray:
    """Concatenate all layer outputs row-wise; with the ablation flag only
    the last layer is returned."""
    if not layer_outputs:
        raise ValueError("need at least one layer output")
    if ablate_global_concat or len(layer_outputs) == 1:
        return layer_outputs[-1]
    return np.hstack(layer_outputs)


def forward_layers(
    state: EmbeddingState,
    kg: TemporalKG,
    config: EncoderConfig,
    dropout_mask: np.ndarray | None = None,
) -> list[np.ndarray]:
    """All layer outputs, starting with the (optionally dropout-masked) fused
    layer; the mask applies to the fused features only."""
    h1 = fuse_features(state, kg, config)
    if dropout_mask is not None:
        h1 = h1 * dropout_mask
    layers = [h1]
    for _ in range(config.layers - 1):
        layers.append(aggregate_layer(layers[-1], kg))
    return layers


def forward(
    state: EmbeddingState,
    kg: TemporalKG,
    config: EncoderConfig,
    dropout_mask: np.ndarray | None = None,
) -> np.ndarray:
    """Full forward pass: entity_count x 2*d*layers matrix (or x 2d under
    ablate_global_concat)."""
    layers = forward_layers(state, kg, config, dropout_mask)
    return global_embedding(layers, config.ablate_global_concat)
