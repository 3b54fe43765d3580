"""In-memory model of a temporal knowledge graph and alignment pair sets.

Entities, relations and timestamps are dense integer ids. Timestamp id 0 is
reserved for unknown/open interval boundaries and never carries matchable
information.
"""
from __future__ import annotations

from dataclasses import dataclass
from functools import cached_property
from typing import Iterable

import numpy as np
import scipy.sparse as sp

UNKNOWN_TIME_ID = 0

# raw labels that denote an unknown / open boundary in dataset files
UNKNOWN_TIME_LABELS = frozenset({"", "0", "###", "inf", "-inf", "~"})


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


# columns of `TemporalKG.quadruples`
HEAD, RELATION, TAIL, TIME_BEGIN, TIME_END = range(5)


def sorted_key_csr(keys: np.ndarray, rows: int, width: int) -> tuple[np.ndarray, ...]:
    """Sort int64 keys row·width + col in place; the CSR of the distinct
    keys: (indptr, columns, the run count of each entry's key)."""
    keys.sort()
    # a run of equal keys starts at the first key and at each one unlike the key before it
    starts = np.flatnonzero(np.concatenate([keys[:1] >= 0, keys[1:] != keys[:-1]]))
    runs, keys = np.diff(starts, append=len(keys)), keys[starts]
    indptr = np.searchsorted(keys, np.arange(rows + 1) * width)
    keys %= width  # the column of each entry
    return indptr, keys, runs


def _first_bad_row(bad: np.ndarray, q: np.ndarray, what: str) -> None:
    if bad.any():
        idx = int(np.argmax(bad))
        raise ValueError(f"{what} id out of range in quadruple {idx}: {q[idx].tolist()}")


@dataclass
class TemporalKG:
    """One temporal KG: quadruples plus the structures derived from them.

    `quadruples` is an (n, 5) int64 array with columns head, relation, tail,
    time_begin and time_end; a point in time has begin == end. The derived
    structures are built on first read and cached: only one thread reads a
    graph, as concurrent first reads would each build them.
    """

    entity_count: int
    relation_count: int
    quadruples: np.ndarray

    @classmethod
    def build(cls, quadruples, entity_count: int, relation_count: int) -> "TemporalKG":
        q = np.asarray(quadruples, dtype=np.int64)
        if q.size == 0:
            q = q.reshape(0, 5)
        if q.ndim != 2 or q.shape[1] != 5:
            raise ValueError("quadruples must be an (n, 5) array: head, relation, tail, "
                             "time_begin, time_end")
        r = q[:, RELATION]
        _first_bad_row((r < 0) | (r >= relation_count), q, "relation")
        heads, tails = q[:, HEAD], q[:, TAIL]
        _first_bad_row((np.minimum(heads, tails) < 0)
                       | (np.maximum(heads, tails) >= entity_count), q, "entity")
        _first_bad_row(np.minimum(q[:, TIME_BEGIN], q[:, TIME_END]) < 0, q, "time")
        return cls(entity_count=entity_count, relation_count=relation_count, quadruples=q)

    @cached_property
    def adjacency(self) -> sp.csr_matrix:
        """The symmetric 0/1 entity graph with self-loops; parallel edges
        collapse to one entry."""
        # one key per entry, both directions and the self-loops: a parallel edge repeats one
        n, heads, tails = self.entity_count, self.quadruples[:, HEAD], self.quadruples[:, TAIL]
        keys = np.concatenate([heads * n + tails, tails * n + heads, np.arange(n) * (n + 1)])
        indptr, columns, _ = sorted_key_csr(keys, n, n)
        return sp.csr_matrix((np.ones(len(columns)), columns, indptr), shape=(n, n))

    @property
    def degree(self) -> np.ndarray:
        """The entry count of each row of `adjacency`."""
        return np.diff(self.adjacency.indptr).astype(np.int64)

    @cached_property
    def mean_operator(self) -> sp.csr_matrix:
        """Row-normalized adjacency D^-1 A: one application takes the mean
        over each entity's neighbor set (self included)."""
        # not a key pass: the product's entry order in a row sets the bits of every forward sum
        return (sp.diags(1.0 / self.degree.astype(np.float64)) @ self.adjacency).tocsr()

    @cached_property
    def relation_operator(self) -> sp.csr_matrix:
        """Sparse (entities x relations) operator whose application takes the
        mean relation embedding over each entity's incident relation multiset
        (a quadruple counts once for its head and once for its tail).
        Rows of entities with no incident relations are all-zero."""
        q = self.quadruples
        rows = np.concatenate([q[:, HEAD], q[:, TAIL]])
        incident = np.bincount(rows, minlength=self.entity_count)
        # not a key pass: tocsr adds duplicate float entries in their order here
        return sp.coo_matrix(
            (1.0 / incident[rows], (rows, np.tile(q[:, RELATION], 2))),
            shape=(self.entity_count, self.relation_count),
        ).tocsr()


def union_graph(kg1: TemporalKG, kg2: TemporalKG) -> TemporalKG:
    """Disjoint union of two graphs: entity and relation ids of the second
    graph are offset by the first graph's counts. One shared embedding space
    then serves both graphs in a single forward pass."""
    e_off, r_off = kg1.entity_count, kg1.relation_count
    shifted = kg2.quadruples + np.array([e_off, r_off, e_off, 0, 0])
    return TemporalKG.build(
        np.concatenate([kg1.quadruples, shifted]),
        kg1.entity_count + kg2.entity_count,
        kg1.relation_count + kg2.relation_count,
    )


def check_pair_ids(src: np.ndarray, tgt: np.ndarray, n_src: int, n_tgt: int, what: str) -> None:
    """Raise ValueError naming the first pair outside [0, n_src) x [0, n_tgt)."""
    bad = np.flatnonzero((src < 0) | (src >= n_src) | (tgt < 0) | (tgt >= n_tgt))
    if len(bad):
        raise ValueError(f"{what} pair ({src[bad[0]]}, {tgt[bad[0]]}) is outside "
                         f"[0, {n_src}) x [0, {n_tgt})")


VALID_PROVENANCE = ("gold", "pseudo", "generated", "prediction")


def first_repeated_pair(sources: np.ndarray, targets: np.ndarray) -> int:
    """Position of the first pair that equals an earlier one, or -1."""
    order = np.lexsort((targets, sources))  # stable: equal pairs keep their order
    s, t = sources[order], targets[order]
    later = order[1:][(s[1:] == s[:-1]) & (t[1:] == t[:-1])]
    return int(later.min()) if len(later) else -1


@dataclass
class AlignmentPairSet:
    """Entity-id pairs across the two graphs, as columns: `sources` and
    `targets` (int64), a provenance label per pair (one label given alone
    applies to every pair) and optional float64 `scores`. No pair occurs
    twice."""

    sources: np.ndarray
    targets: np.ndarray
    provenance: np.ndarray | str
    scores: np.ndarray | None = None

    def __post_init__(self) -> None:
        self.sources = np.asarray(self.sources, dtype=np.int64)
        self.targets = np.asarray(self.targets, dtype=np.int64)
        if self.scores is not None:
            self.scores = np.asarray(self.scores, dtype=np.float64)
        if len({len(c) for c in (self.sources, self.targets, self.scores) if c is not None}) > 1:
            raise ValueError("sources, targets and scores lengths differ")
        self.provenance = np.broadcast_to(np.asarray(self.provenance, str), self.sources.shape)
        dup = first_repeated_pair(self.sources, self.targets)
        if dup >= 0:
            raise ValueError(f"duplicate pair {self.pairs[dup]}")
        unknown = self.provenance[~np.isin(self.provenance, VALID_PROVENANCE)]
        if len(unknown):
            raise ValueError(f"unknown provenance label {str(unknown[0])!r}")

    @classmethod
    def from_pairs(
        cls,
        pairs: Iterable[tuple[int, int]],
        provenance: str = "gold",
        scores: Iterable[float] | None = None,
    ) -> "AlignmentPairSet":
        ids = np.array(list(pairs), dtype=np.int64).reshape(-1, 2)
        return cls(ids[:, 0], ids[:, 1], provenance, None if scores is None else list(scores))

    def __len__(self) -> int:
        return len(self.sources)

    @property
    def pairs(self) -> list[tuple[int, int]]:
        """The (source, target) tuples, derived from the columns."""
        return list(zip(self.sources.tolist(), self.targets.tolist()))

    def as_set(self) -> set[tuple[int, int]]:
        return set(self.pairs)

    def extended(self, other: "AlignmentPairSet") -> "AlignmentPairSet":
        """New set, without scores, with other's pairs appended; duplicates
        are rejected."""
        return AlignmentPairSet(
            np.concatenate([self.sources, other.sources]),
            np.concatenate([self.targets, other.targets]),
            np.concatenate([self.provenance, other.provenance]),
        )
