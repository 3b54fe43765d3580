"""In-memory model of a temporal knowledge graph and alignment pair sets.

Entities, relations and timestamps are dense integer ids. Timestamp id 0 is
reserved for unknown/open interval boundaries and never carries matchable
information.
"""
from __future__ import annotations

from dataclasses import dataclass, field
from typing import Iterable, Sequence

import numpy as np
import scipy.sparse as sp

UNKNOWN_TIME_ID = 0

# raw labels that denote an unknown / open boundary in dataset files
UNKNOWN_TIME_LABELS = frozenset({"", "0", "###", "inf", "-inf", "~"})


@dataclass(frozen=True)
class TimeAnnotation:
    """Point or interval time of a fact, as ids in the merged vocabulary.

    A point in time is stored with begin == end.
    """

    begin: int
    end: int

    @classmethod
    def point(cls, t: int) -> "TimeAnnotation":
        return cls(t, t)

    @property
    def is_point(self) -> bool:
        return self.begin == self.end

    def stamps(self) -> tuple[int, ...]:
        """Timestamp ids this annotation contributes to a time dictionary.

        A point contributes its single id once; an interval contributes both
        endpoints. Reserved id 0 (unknown boundary) is dropped.
        """
        ids = (self.begin,) if self.is_point else (self.begin, self.end)
        return tuple(t for t in ids if t != UNKNOWN_TIME_ID)


@dataclass(frozen=True)
class Quadruple:
    head: int
    relation: int
    tail: int
    time: TimeAnnotation


@dataclass
class MergedTimeVocabulary:
    """Shared timestamp vocabulary of a graph pair (union of both label sets).

    Identical raw labels in either graph map to the same id. Ids start at 1;
    id 0 is reserved for unknown/open boundaries.
    """

    label_to_id: dict[str, int]

    @property
    def size(self) -> int:
        return len(self.label_to_id)

    def id_of(self, label: str) -> int:
        label = label.strip()
        if label in UNKNOWN_TIME_LABELS:
            return UNKNOWN_TIME_ID
        return self.label_to_id[label]


def build_merged_time_vocabulary(
    raw_times_g1: Iterable[str], raw_times_g2: Iterable[str]
) -> MergedTimeVocabulary:
    """Merge the raw timestamp labels of both graphs into one id space."""
    labels = {str(x).strip() for x in raw_times_g1} | {str(x).strip() for x in raw_times_g2}
    labels -= UNKNOWN_TIME_LABELS
    return MergedTimeVocabulary({lab: i + 1 for i, lab in enumerate(sorted(labels))})


def build_adjacency(
    quadruples: Sequence[Quadruple], entity_count: int
) -> tuple[sp.csr_matrix, np.ndarray, list[set[int]], list[list[int]]]:
    """Build the entity graph structures consumed by the encoder.

    Returns (adjacency, degree, entity_neighbors, entity_relations) where
    adjacency is a symmetric 0/1 csr matrix with self-loops, degree counts
    each entity's neighbor set (self included), entity_neighbors[e] is that
    set, and entity_relations[e] is the multiset (list) of relation ids of
    every quadruple incident to e. Parallel edges collapse to one adjacency
    entry but keep all their relation occurrences.
    """
    neighbors: list[set[int]] = [{e} for e in range(entity_count)]
    relations: list[list[int]] = [[] for _ in range(entity_count)]
    for idx, q in enumerate(quadruples):
        if not (0 <= q.head < entity_count and 0 <= q.tail < entity_count):
            raise ValueError(f"entity id out of range in quadruple {idx}: {q}")
        neighbors[q.head].add(q.tail)
        neighbors[q.tail].add(q.head)
        relations[q.head].append(q.relation)
        relations[q.tail].append(q.relation)

    degree = np.array([len(n) for n in neighbors], dtype=np.int64)
    indptr = np.zeros(entity_count + 1, dtype=np.int64)
    np.cumsum(degree, out=indptr[1:])
    indices = np.empty(indptr[-1], dtype=np.int64)
    for e, n in enumerate(neighbors):
        indices[indptr[e] : indptr[e + 1]] = sorted(n)
    data = np.ones(len(indices), dtype=np.float64)
    adjacency = sp.csr_matrix((data, indices, indptr), shape=(entity_count, entity_count))
    return adjacency, degree, neighbors, relations


@dataclass
class TemporalKG:
    """One temporal KG: quadruples plus derived adjacency structures.

    Immutable after construction; safe for concurrent reads.
    """

    entity_count: int
    relation_count: int
    quadruples: list[Quadruple]
    adjacency: sp.csr_matrix
    degree: np.ndarray
    entity_neighbors: list[set[int]]
    entity_relations: list[list[int]]
    _mean_operator: sp.csr_matrix | None = field(default=None, repr=False)
    _mean_operator_t: sp.csr_matrix | None = field(default=None, repr=False)
    _relation_operator: sp.csr_matrix | None = field(default=None, repr=False)

    @classmethod
    def build(
        cls, quadruples: Sequence[Quadruple], entity_count: int, relation_count: int
    ) -> "TemporalKG":
        for idx, q in enumerate(quadruples):
            if not (0 <= q.relation < relation_count):
                raise ValueError(f"relation id out of range in quadruple {idx}: {q}")
        adjacency, degree, neighbors, relations = build_adjacency(quadruples, entity_count)
        return cls(
            entity_count=entity_count,
            relation_count=relation_count,
            quadruples=list(quadruples),
            adjacency=adjacency,
            degree=degree,
            entity_neighbors=neighbors,
            entity_relations=relations,
        )

    @property
    def mean_operator(self) -> sp.csr_matrix:
        """Row-normalized adjacency D^-1 A: one application takes the mean
        over each entity's neighbor set (self included)."""
        if self._mean_operator is None:
            inv_deg = sp.diags(1.0 / self.degree.astype(np.float64))
            self._mean_operator = (inv_deg @ self.adjacency).tocsr()
        return self._mean_operator

    @property
    def mean_operator_t(self) -> sp.csr_matrix:
        """Transpose of `mean_operator` in CSR form, for the backward pass."""
        if self._mean_operator_t is None:
            self._mean_operator_t = self.mean_operator.T.tocsr()
        return self._mean_operator_t

    @property
    def relation_operator(self) -> sp.csr_matrix:
        """Sparse (entities x relations) operator whose application takes the
        mean relation embedding over each entity's incident relation multiset.
        Rows of entities with no incident relations are all-zero."""
        if self._relation_operator is None:
            rows, cols, vals = [], [], []
            for e, rels in enumerate(self.entity_relations):
                if not rels:
                    continue
                w = 1.0 / len(rels)
                for r in rels:
                    rows.append(e)
                    cols.append(r)
                    vals.append(w)
            self._relation_operator = sp.csr_matrix(
                (vals, (rows, cols)), shape=(self.entity_count, self.relation_count)
            )
            self._relation_operator.sum_duplicates()
        return self._relation_operator


def union_graph(kg1: TemporalKG, kg2: TemporalKG) -> TemporalKG:
    """Disjoint union of two graphs: entity and relation ids of the second
    graph are offset by the first graph's counts. One shared embedding space
    then serves both graphs in a single forward pass."""
    e_off, r_off = kg1.entity_count, kg1.relation_count
    quads = list(kg1.quadruples) + [
        Quadruple(q.head + e_off, q.relation + r_off, q.tail + e_off, q.time)
        for q in kg2.quadruples
    ]
    return TemporalKG.build(
        quads, kg1.entity_count + kg2.entity_count, kg1.relation_count + kg2.relation_count
    )


VALID_PROVENANCE = ("gold", "pseudo", "generated", "prediction")


@dataclass
class AlignmentPairSet:
    """Entity-id pairs across the two graphs with per-pair provenance."""

    pairs: list[tuple[int, int]]
    provenance: list[str]
    scores: list[float] | None = None

    def __post_init__(self) -> None:
        if len(self.pairs) != len(self.provenance):
            raise ValueError("pairs and provenance lengths differ")
        if self.scores is not None and len(self.scores) != len(self.pairs):
            raise ValueError("scores length differs from pairs")
        seen = set()
        for p in self.pairs:
            if p in seen:
                raise ValueError(f"duplicate pair {p}")
            seen.add(p)
        for lab in self.provenance:
            if lab not in VALID_PROVENANCE:
                raise ValueError(f"unknown provenance label {lab!r}")

    @classmethod
    def from_pairs(
        cls,
        pairs: Iterable[tuple[int, int]],
        provenance: str = "gold",
        scores: Iterable[float] | None = None,
    ) -> "AlignmentPairSet":
        pairs = [tuple(p) for p in pairs]
        return cls(
            pairs=pairs,
            provenance=[provenance] * len(pairs),
            scores=None if scores is None else list(scores),
        )

    def __len__(self) -> int:
        return len(self.pairs)

    def sources(self) -> list[int]:
        return [p[0] for p in self.pairs]

    def targets(self) -> list[int]:
        return [p[1] for p in self.pairs]

    def as_set(self) -> set[tuple[int, int]]:
        return set(self.pairs)

    def extended(self, other: "AlignmentPairSet") -> "AlignmentPairSet":
        """New set with other's pairs appended; duplicates are rejected."""
        scores = None
        if self.scores is not None or other.scores is not None:
            scores = [
                *(self.scores or [float("nan")] * len(self)),
                *(other.scores or [float("nan")] * len(other)),
            ]
        return AlignmentPairSet(
            pairs=self.pairs + other.pairs,
            provenance=self.provenance + other.provenance,
            scores=scores,
        )
