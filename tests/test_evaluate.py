import tracemalloc

import numpy as np
import pytest

from tkgalign.aligner import predict_and_rank
from tkgalign.evaluate import RowRanks, _row_ranks, evaluate, rank_of_truth
from tkgalign.kg import AlignmentPairSet
from tkgalign.timesim import BlockedScores

from test_aligner import dense_predict, matrix, use_block_rows


def dense_ranks(sim, references):
    """The dense reference: `rank_of_truth` on each reference's full row."""
    s = sim.dense
    src_pos = {int(e): i for i, e in enumerate(sim.source_ids)}
    tgt_pos = {int(e): j for j, e in enumerate(sim.target_ids)}
    ranks = []
    for a, b in references.pairs:
        if a not in src_pos:
            raise ValueError(f"reference source {a} missing from similarity rows")
        if b not in tgt_pos:
            raise ValueError(f"reference target {b} missing from candidate pool")
        ranks.append(rank_of_truth(s[src_pos[a]], tgt_pos[b]))
    return ranks


def dense_bidirectional_ranks(sim, references):
    flipped = matrix(sim.dense.T, sim.kind, sim.target_ids, sim.source_ids)
    rev_refs = AlignmentPairSet.from_pairs([(b, a) for a, b in references.pairs])
    return dense_ranks(sim, references) + dense_ranks(flipped, rev_refs)


class TestRank:
    def test_unique_max_is_rank_one(self):
        assert rank_of_truth([0.1, 0.9, 0.3], 1) == 1

    def test_tie_counts_against_truth(self):
        assert rank_of_truth([0.5, 0.5, 0.1], 0) == 2

    def test_truth_outside_pool(self):
        with pytest.raises(ValueError):
            rank_of_truth([0.5], 3)

    def test_matches_sort_oracle(self):
        rng = np.random.default_rng(0)
        for _ in range(50):
            row = np.round(rng.random(20), 2)  # rounded so ties occur
            truth = int(rng.integers(20))
            got = rank_of_truth(row, truth)
            order = sorted(row, reverse=True)
            # pessimistic: position after every tied competitor
            expected = max(i for i, v in enumerate(order) if v == row[truth]) + 1
            assert got == expected


class TestEvaluate:
    def rank_fixture(self, ranks):
        # truth sits in the last column; r-1 other columns outscore it
        n = max(ranks) + 1
        s = np.zeros((len(ranks), n))
        for i, r in enumerate(ranks):
            s[i, : r - 1] = np.linspace(0.9, 0.8, r - 1)
            s[i, n - 1] = 0.5
        refs = AlignmentPairSet.from_pairs([(i, n - 1) for i in range(len(ranks))])
        return matrix(s), refs

    def test_hand_case_ranks_1_2_4(self):
        sim, refs = self.rank_fixture([1, 2, 4])
        report = evaluate(sim, refs, ks=(1, 2, 10))
        assert report.hits_at[1] == pytest.approx(1 / 3)
        assert report.mrr == pytest.approx((1 + 1 / 2 + 1 / 4) / 3)

    def test_all_rank_one(self):
        sim = matrix(np.eye(4))
        refs = AlignmentPairSet.from_pairs([(i, i) for i in range(4)])
        report = evaluate(sim, refs)
        assert report.hits_at[1] == 1.0 and report.mrr == 1.0

    def test_matches_per_pair_oracle(self):
        rng = np.random.default_rng(1)
        s = rng.random((50, 50))
        refs = AlignmentPairSet.from_pairs([(i, int(rng.integers(50))) for i in range(50)])
        report = evaluate(matrix(s), refs, ks=(1, 5, 10))
        ranks = [rank_of_truth(s[a], b) for a, b in refs.pairs]
        for k in (1, 5, 10):
            assert report.hits_at[k] == pytest.approx(np.mean([r <= k for r in ranks]))
        assert report.mrr == pytest.approx(np.mean([1 / r for r in ranks]))

    def test_hits_monotone_and_mrr_bounds(self):
        rng = np.random.default_rng(2)
        s = rng.random((30, 30))
        refs = AlignmentPairSet.from_pairs([(i, i) for i in range(30)])
        report = evaluate(matrix(s), refs, ks=(1, 2, 5, 10, 30))
        vals = [report.hits_at[k] for k in (1, 2, 5, 10, 30)]
        assert vals == sorted(vals)
        assert report.hits_at[1] <= report.mrr <= 1.0

    def test_invariant_under_monotone_transform(self):
        rng = np.random.default_rng(3)
        s = rng.random((20, 20))
        refs = AlignmentPairSet.from_pairs([(i, i) for i in range(20)])
        a = evaluate(matrix(s), refs)
        b = evaluate(matrix(np.exp(5 * s)), refs)
        assert a.hits_at == b.hits_at and a.mrr == pytest.approx(b.mrr)

    def test_missing_reference_entity(self):
        sim = matrix(np.eye(3))
        refs = AlignmentPairSet.from_pairs([(0, 7)])
        with pytest.raises(ValueError, match="7"):
            evaluate(sim, refs)

    def test_bidirectional_averages_both_directions(self):
        s = np.array([[1.0, 0.0], [0.9, 0.1]])
        refs = AlignmentPairSet.from_pairs([(0, 0), (1, 1)])
        uni = evaluate(matrix(s), refs)
        bi = evaluate(matrix(s), refs, bidirectional=True)
        # forward ranks: 1, 2 ; backward ranks: 1, 1
        assert uni.hits_at[1] == pytest.approx(0.5)
        assert bi.hits_at[1] == pytest.approx(0.75)


class TestBlockedRanks:
    """Blocked ranks equal the dense `rank_of_truth` oracle, whatever the
    block size, in both directions."""

    @pytest.mark.parametrize("block", [1, 3, 7, None])
    @pytest.mark.parametrize("shape", [(13, 17), (17, 13)])
    @pytest.mark.parametrize("ties", [False, True], ids=["random", "ties"])
    def test_matches_dense_oracle(self, monkeypatch, block, shape, ties):
        rng = np.random.default_rng(sum(shape) + 2 * ties)
        s = rng.integers(0, 3, size=shape).astype(float) if ties else rng.random(shape)
        sim = matrix(
            s,
            source_ids=rng.permutation(shape[0]) + 100,
            target_ids=rng.permutation(shape[1]) + 500,
        )
        pairs = {(int(rng.integers(shape[0])) + 100, int(rng.integers(shape[1])) + 500)
                 for _ in range(20)}
        refs = AlignmentPairSet.from_pairs(sorted(pairs, key=lambda p: -p[1]))
        use_block_rows(monkeypatch, block, shape[1])
        ranked = _row_ranks(sim, refs)
        assert ranked.ranks.tolist() == dense_ranks(sim, refs)
        assert ranked.with_columns(sim, True).tolist() == dense_bidirectional_ranks(sim, refs)
        for bidirectional, oracle in ((False, dense_ranks), (True, dense_bidirectional_ranks)):
            arr = np.array(oracle(sim, refs), dtype=np.float64)
            report = evaluate(sim, refs, ks=(1, 5), bidirectional=bidirectional)
            assert report.mrr == float((1.0 / arr).mean())
            assert report.hits_at == {k: float((arr <= k).mean()) for k in (1, 5)}

    @pytest.mark.parametrize("block", [1, 3, 7, None])
    @pytest.mark.parametrize("shape", [(13, 17), (17, 13)])
    @pytest.mark.parametrize("ties", [False, True], ids=["random", "ties"])
    def test_fused_decode_matches_dense_oracle(self, monkeypatch, block, shape, ties):
        rng = np.random.default_rng(sum(shape) + 2 * ties + 1)
        s = rng.integers(0, 3, size=shape).astype(float) if ties else rng.random(shape)
        sim = matrix(
            s,
            source_ids=rng.permutation(shape[0]) + 100,
            target_ids=rng.permutation(shape[1]) + 500,
        )
        pairs = {(int(rng.integers(shape[0])) + 100, int(rng.integers(shape[1])) + 500)
                 for _ in range(20)}
        refs = AlignmentPairSet.from_pairs(sorted(pairs, key=lambda p: -p[1]))
        use_block_rows(monkeypatch, block, shape[1])
        preds, ranked = predict_and_rank(sim, refs)
        expected = dense_predict(s, sim.source_ids, sim.target_ids)
        assert (preds.pairs, preds.scores.tolist()) == expected
        assert ranked.ranks.tolist() == dense_ranks(sim, refs)
        assert ranked.with_columns(sim, True).tolist() == dense_bidirectional_ranks(sim, refs)
        for bidirectional, oracle in ((False, dense_ranks), (True, dense_bidirectional_ranks)):
            arr = np.array(oracle(sim, refs), dtype=np.float64)
            report = evaluate(sim, refs, ks=(1, 5), bidirectional=bidirectional,
                              row_ranks=ranked)
            assert report.mrr == float((1.0 / arr).mean())
            assert report.hits_at == {k: float((arr <= k).mean()) for k in (1, 5)}

    @pytest.mark.parametrize("block", [1, 2, 3])
    def test_column_tie_across_a_block_boundary(self, monkeypatch, block):
        # column 0 holds 0.9 in rows 1 and 2, which sit in different blocks
        # for block sizes 1 and 2 and in one block for 3
        s = np.array([[0.1, 0.2], [0.9, 0.3], [0.9, 0.4], [0.5, 0.6]])
        refs = AlignmentPairSet.from_pairs([(1, 0), (2, 0), (3, 1)])
        use_block_rows(monkeypatch, block, 2)
        sim = matrix(s)
        assert _row_ranks(sim, refs).with_columns(sim, True).tolist() == [1, 1, 1, 2, 2, 1]

    def test_given_row_ranks_save_the_row_pass(self, monkeypatch):
        s = np.random.default_rng(4).random((7, 5))
        refs = AlignmentPairSet.from_pairs([(i, i % 5) for i in range(7)])
        use_block_rows(monkeypatch, 3, 5)
        reads = []

        def rows(start, stop):
            reads.append(start)
            return s[start:stop].copy()

        sim = BlockedScores(np.arange(7), np.arange(5), rows, "combined")
        preds, ranked = predict_and_rank(sim, refs)
        assert reads == [0, 3, 6]
        for bidirectional, passes in ((False, 1), (True, 2)):
            report = evaluate(sim, refs, bidirectional=bidirectional, row_ranks=ranked)
            alone = evaluate(matrix(s), refs, bidirectional=bidirectional)
            assert (report.hits_at, report.mrr) == (alone.hits_at, alone.mrr)
            assert len(reads) == 3 * passes
        with pytest.raises(ValueError, match="other references"):
            evaluate(sim, AlignmentPairSet.from_pairs(refs.pairs[1:]), row_ranks=ranked)

    def test_missing_reference_entity_any_block(self, monkeypatch):
        use_block_rows(monkeypatch, 1, 3)
        with pytest.raises(ValueError, match="reference source 9"):
            evaluate(matrix(np.eye(3)), AlignmentPairSet.from_pairs([(9, 0)]))
        with pytest.raises(ValueError, match="reference target 9"):
            predict_and_rank(matrix(np.eye(3)), AlignmentPairSet.from_pairs([(0, 0), (1, 9)]))

    def test_ranks_read_the_block_in_place(self, monkeypatch):
        """The row ranks of a 2000 x 2000 block with a reference in every row,
        one source twice, and the column ranks of one more pass over it,
        equal `rank_of_truth`. Neither pass holds a copy of the block: each
        traced peak beyond the inputs stays under a quarter of its bytes."""
        n = 2000
        rng = np.random.default_rng(6)
        s = rng.integers(0, 40, size=(n, n)) / 8  # few levels: ties in every row
        targets = rng.permutation(n)
        pairs = [(i, int(t)) for i, t in enumerate(targets)] + [(7, int(targets[8]))]
        refs = AlignmentPairSet.from_pairs(pairs)
        use_block_rows(monkeypatch, n, n)  # one block, read as a view of s
        sim = BlockedScores(np.arange(n), np.arange(n), lambda start, stop: s[start:stop], "combined")
        ranked = RowRanks(sim, refs)
        peaks = []
        for run in (lambda: ranked.update(0, s), lambda: ranked.with_columns(sim, True)):
            tracemalloc.start()
            try:
                before = tracemalloc.get_traced_memory()[0]
                out = run()
                peaks.append(tracemalloc.get_traced_memory()[1] - before)
            finally:
                tracemalloc.stop()
        assert ranked.truth.tolist() == [s[a, b] for a, b in pairs]
        assert ranked.ranks.tolist() == [rank_of_truth(s[a], b) for a, b in pairs]
        assert out[len(pairs):].tolist() == [rank_of_truth(s[:, b], a) for a, b in pairs]
        assert max(peaks) < s.nbytes / 4, peaks
