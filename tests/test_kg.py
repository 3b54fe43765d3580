import numpy as np
import pytest
from hypothesis import given, strategies as st

from tkgalign.kg import (
    AlignmentPairSet,
    TemporalKG,
    build_merged_time_vocabulary,
    union_graph,
)


def P(t):
    return (t, t)


def Quadruple(head, relation, tail, time):
    return [head, relation, tail, *time]


def build_adjacency(quads, entity_count):
    """(adjacency, degree, neighbor sets, relation multisets) of a graph; the
    sets are read back from its adjacency rows, the multisets from its mean
    relation operator times each entity's incident fact count."""
    kg = TemporalKG.build(quads, entity_count, 1 + max((q[1] for q in quads), default=0))
    adj, op = kg.adjacency, kg.relation_operator
    incident = np.bincount([e for q in quads for e in (q[0], q[2])], minlength=entity_count)
    neigh = [set(adj[e].indices.tolist()) for e in range(entity_count)]
    rels = [
        np.repeat(op[e].indices, np.rint(op[e].data * incident[e]).astype(int)).tolist()
        for e in range(entity_count)
    ]
    return adj, kg.degree, neigh, rels


class TestMergedVocabulary:
    def test_union_size(self):
        v = build_merged_time_vocabulary({"2005", "2008"}, {"2005", "2011"})
        assert v.size == 3
        assert v.id_of("2005") == v.id_of("2005")

    def test_identical_sets_idempotent(self):
        v = build_merged_time_vocabulary({"1", "2", "3"}, {"1", "2", "3"})
        assert v.size == 3

    def test_unknown_labels_map_to_zero(self):
        v = build_merged_time_vocabulary({"2005", "0"}, {""})
        assert v.size == 1
        assert v.id_of("0") == 0
        assert v.id_of("") == 0
        assert v.id_of("2005") == 1

    @given(
        st.sets(st.text(alphabet="abc123", min_size=1, max_size=4)),
        st.sets(st.text(alphabet="abc123", min_size=1, max_size=4)),
    )
    def test_commutative_and_injective(self, a, b):
        v1 = build_merged_time_vocabulary(a, b)
        v2 = build_merged_time_vocabulary(b, a)
        assert v1.size == v2.size == len((a | b) - {"0"})
        ids = list(v1.label_to_id.values())
        assert len(ids) == len(set(ids))
        assert 0 not in ids


class TestAdjacency:
    def test_single_quadruple_self_loops(self):
        adj, degree, neigh, rels = build_adjacency([Quadruple(0, 0, 1, P(1))], 2)
        assert degree.tolist() == [2, 2]
        assert neigh[0] == {0, 1} and neigh[1] == {0, 1}
        assert rels[0] == [0] and rels[1] == [0]

    def test_empty_graph_self_loops_only(self):
        _, degree, neigh, _ = build_adjacency([], 3)
        assert degree.tolist() == [1, 1, 1]
        assert all(e in neigh[e] for e in range(3))

    def test_out_of_range_reports_index(self):
        quads = [Quadruple(0, 0, 1, P(1)), Quadruple(0, 0, 5, P(1))]
        with pytest.raises(ValueError, match="quadruple 1"):
            build_adjacency(quads, 2)

    def test_random_graph_matches_brute_force(self):
        rng = np.random.default_rng(7)
        n = 12
        quads = [
            Quadruple(int(rng.integers(n)), 0, int(rng.integers(n)), P(1))
            for _ in range(20)
        ]
        adj, degree, neigh, _ = build_adjacency(quads, n)
        # brute-force neighbor sets
        expected = [{e} for e in range(n)]
        for head, _, tail, *_ in quads:
            expected[head].add(tail)
            expected[tail].add(head)
        assert neigh == expected
        assert degree.tolist() == [len(s) for s in expected]
        dense = adj.toarray()
        assert np.array_equal(dense, dense.T)
        assert np.array_equal(np.diag(dense), np.ones(n))

    def test_parallel_edges_collapse_but_relations_accumulate(self):
        quads = [Quadruple(0, 1, 1, P(1)), Quadruple(0, 2, 1, P(1))]
        adj, degree, _, rels = build_adjacency(quads, 2)
        assert adj[0, 1] == 1.0
        assert degree.tolist() == [2, 2]
        assert sorted(rels[0]) == [1, 2]


class TestTemporalKG:
    def test_relation_id_validation(self):
        with pytest.raises(ValueError, match="relation id"):
            TemporalKG.build([Quadruple(0, 3, 1, P(1))], 2, 2)

    def test_quadruples_need_five_columns(self):
        with pytest.raises(ValueError, match=r"\(n, 5\)"):
            TemporalKG.build([[0, 0, 1, 1]], 2, 1)

    def test_negative_entity_reports_first_bad_row(self):
        quads = [Quadruple(0, 0, 1, P(1)), Quadruple(-1, 0, 1, P(1)), Quadruple(0, 0, 7, P(1))]
        with pytest.raises(ValueError, match=r"entity id out of range in quadruple 1: \[-1,"):
            TemporalKG.build(quads, 2, 1)

    def test_negative_time_reports_first_bad_row(self):
        quads = [Quadruple(0, 0, 1, P(1)), Quadruple(1, 0, 0, (4, -3)), Quadruple(0, 0, 1, P(-2))]
        with pytest.raises(ValueError, match=r"time id out of range in quadruple 1: \[1, 0, 0, 4,"):
            TemporalKG.build(quads, 2, 1)

    def test_mean_operator_rows_sum_to_one(self):
        rng = np.random.default_rng(0)
        quads = [
            Quadruple(int(rng.integers(6)), int(rng.integers(2)), int(rng.integers(6)), P(1))
            for _ in range(10)
        ]
        kg = TemporalKG.build(quads, 6, 2)
        sums = np.asarray(kg.mean_operator.sum(axis=1)).ravel()
        assert np.allclose(sums, 1.0)

    def test_transposed_mean_has_sorted_indices(self):
        rng = np.random.default_rng(1)
        for n in (1, 5, 40):
            quads = [
                Quadruple(int(rng.integers(n)), 0, int(rng.integers(n)), P(1))
                for _ in range(3 * n)
            ]
            op_t = TemporalKG.build(quads, n, 1).mean_operator.T.tocsr()
            assert op_t.has_sorted_indices
            for i in range(n):
                row = op_t.indices[op_t.indptr[i] : op_t.indptr[i + 1]]
                assert (np.diff(row) > 0).all()

    # Row i of mean_operator.T.tocsr() @ x adds M[j, i] x[j] over ascending j.
    # The restricted product over ascending `rows` adds the same terms in the
    # same order, dropping only those of x[j] = +-0: byte for byte the same.
    @given(st.integers(0, 2**32 - 1), st.integers(1, 30), st.integers(0, 90))
    def test_restricted_transposed_product_is_bit_identical(self, seed, n, facts):
        rng = np.random.default_rng(seed)
        quads = np.column_stack([
            rng.integers(n, size=facts), np.zeros(facts, dtype=np.int64),
            rng.integers(n, size=facts), np.ones((facts, 2), dtype=np.int64),
        ])
        kg = TemporalKG.build(quads, n, 1)
        rows = np.flatnonzero(rng.random(n) < rng.random())
        x = rng.standard_normal((n, 3)) * rng.integers(0, 2, size=(n, 3))
        x[rng.random((n, 3)) < 0.2] = -0.0
        outside = np.setdiff1d(np.arange(n), rows)
        x[outside] = np.where(rng.random((len(outside), 3)) < 0.5, 0.0, -0.0)
        full = kg.mean_operator.T.tocsr() @ x
        restricted = kg.mean_operator[rows].T @ x[rows]
        assert restricted.shape == full.shape
        assert restricted.tobytes() == full.tobytes()

    def test_union_graph_offsets(self):
        kg1 = TemporalKG.build([Quadruple(0, 0, 1, P(1))], 2, 1)
        kg2 = TemporalKG.build([Quadruple(0, 0, 2, P(2))], 3, 2)
        u = union_graph(kg1, kg2)
        assert u.entity_count == 5 and u.relation_count == 3
        assert u.quadruples[1].tolist() == Quadruple(2, 1, 4, P(2))
        # no cross edges between the two components
        assert u.adjacency[0, 2] == 0


class TestAlignmentPairSet:
    def test_duplicate_rejected(self):
        with pytest.raises(ValueError, match="duplicate"):
            AlignmentPairSet.from_pairs([(1, 2), (1, 2)])

    def test_provenance_validated(self):
        with pytest.raises(ValueError, match="provenance"):
            AlignmentPairSet(sources=[0], targets=[0], provenance=["nope"])

    def test_extended_keeps_provenance(self):
        a = AlignmentPairSet.from_pairs([(0, 0)], provenance="gold")
        b = AlignmentPairSet.from_pairs([(1, 1)], provenance="pseudo")
        c = a.extended(b)
        assert c.pairs == [(0, 0), (1, 1)]
        assert c.provenance.tolist() == ["gold", "pseudo"]
