import multiprocessing
import sys
import threading
import time
import tracemalloc
import warnings
import weakref
from unittest import mock

import numpy as np
import pytest
import scipy.sparse as sp
from hypothesis import given, settings, strategies as st

from tkgalign import aligner, encoder, timesim
from tkgalign.aligner import (
    AlignConfig,
    _normalize_rows,
    _scored_similarity,
    combine,
    csls_rescale,
    embedding_similarity,
    iterate,
    mutual_nearest_pairs,
    predict,
    predict_and_rank,
)
from tkgalign.encoder import EncoderConfig, forward, init_embeddings
from tkgalign.cli import run_alignment
from tkgalign.evaluate import RowRanks, _row_ranks, evaluate, rank_of_truth
from tkgalign.io import load_dataset
from tkgalign.kg import AlignmentPairSet, TemporalKG, union_graph
from tkgalign.synth import SynthParams, make_benchmark, write_benchmark
from tkgalign.timesim import (
    BlockedScores,
    SimilarityMatrix,
    build_time_dictionary,
    build_time_similarity_matrix,
)
from tkgalign.trainer import TrainConfig, train_on_union

from test_trainer import train


def matrix(scores, kind="combined", source_ids=None, target_ids=None):
    """Dense scores read through the row-block protocol."""
    scores = np.asarray(scores, dtype=np.float64)
    return BlockedScores(
        source_ids=np.arange(scores.shape[0]) if source_ids is None else source_ids,
        target_ids=np.arange(scores.shape[1]) if target_ids is None else target_ids,
        rows=lambda start, stop: scores[start:stop].copy(),
        kind=kind,
    )


def stored_submatrix(sim, row_positions, col_positions):
    """The rows and columns of a `SimilarityMatrix` at the given positions,
    gathered from its stored scores a block of rows at a time."""
    row_positions, col_positions = np.asarray(row_positions), np.asarray(col_positions)

    def rows(start, stop):
        return sim.scores[row_positions[start:stop]][:, col_positions].toarray()

    return BlockedScores(np.asarray(sim.source_ids)[row_positions],
                         np.asarray(sim.target_ids)[col_positions], rows, sim.kind)


def use_block_rows(monkeypatch, rows, n_cols):
    """Make every row block hold `rows` rows of an n_cols-wide matrix
    (None: the default, which holds a small pool whole)."""
    if rows is not None:
        monkeypatch.setattr(timesim, "_BLOCK_BYTES", 8 * n_cols * rows)


# Dense references: the whole pool x pool matrix at once.

def dense_combine(e, t, alpha):
    if alpha == 0.0:
        return e.copy()
    if alpha == 1.0:
        return t.copy()
    return (1.0 - alpha) * e + alpha * t


def dense_csls(s, k):
    k_row = min(k, s.shape[1])
    k_col = min(k, s.shape[0])
    r_src = np.partition(s, s.shape[1] - k_row, axis=1)[:, s.shape[1] - k_row :].mean(axis=1)
    r_tgt = np.partition(s, s.shape[0] - k_col, axis=0)[s.shape[0] - k_col :, :].mean(axis=0)
    return 2.0 * s - r_src[:, None] - r_tgt[None, :]


def dense_predict(s, source_ids, target_ids):
    best = np.argmax(s, axis=1)
    pairs = [(int(source_ids[i]), int(target_ids[best[i]])) for i in range(s.shape[0])]
    return pairs, [float(s[i, best[i]]) for i in range(s.shape[0])]


def dense_mutual(s, source_ids, target_ids):
    if s.size == 0:
        return [], []
    row_best = np.argmax(s, axis=1)
    col_best = np.argmax(s, axis=0)
    row_unique = (s == s.max(axis=1, keepdims=True)).sum(axis=1) == 1
    col_unique = (s == s.max(axis=0, keepdims=True)).sum(axis=0) == 1
    pairs, scores = [], []
    for i, j in enumerate(row_best):
        if row_unique[i] and col_unique[j] and col_best[j] == i:
            pairs.append((int(source_ids[i]), int(target_ids[j])))
            scores.append(float(s[i, j]))
    return pairs, scores


def naive_csls(s, k):
    ns, nt = s.shape
    r_src = np.array([np.sort(s[i])[::-1][: min(k, nt)].mean() for i in range(ns)])
    r_tgt = np.array([np.sort(s[:, j])[::-1][: min(k, ns)].mean() for j in range(nt)])
    return 2 * s - r_src[:, None] - r_tgt[None, :]


def pool_similarity(g1, g2, source_ids, target_ids):
    """`embedding_similarity` of rows `source_ids` of g1 and `target_ids` of
    g2: the pool array the forward pass gives for them, sources first."""
    pool = np.vstack([g1[np.asarray(source_ids)], g2[np.asarray(target_ids)]])
    return embedding_similarity(pool, source_ids, target_ids)


class TestEmbeddingSimilarity:
    def test_identical_and_orthogonal(self):
        g1 = np.array([[1.0, 0.0], [0.0, 2.0]])
        g2 = np.array([[2.0, 0.0], [0.0, 1.0]])
        sim = pool_similarity(g1, g2, [0, 1], [0, 1])
        assert sim.dense[0, 0] == pytest.approx(1.0)
        assert sim.dense[0, 1] == pytest.approx(0.0)
        assert sim.dense[1, 1] == pytest.approx(1.0)

    def test_zero_norm_row(self):
        g1 = np.zeros((1, 3))
        g2 = np.ones((2, 3))
        sim = pool_similarity(g1, g2, [0], [0, 1])
        assert not sim.dense.any()

    @pytest.mark.parametrize("src,tgt", [([0, 3], [0]), ([-1], [0]), ([0], [2]), ([0], [-1])])
    def test_an_id_outside_its_graph_is_rejected_on_construction(self, src, tgt):
        # a pool's rows are union ids, so a source id past G1 would read a
        # row of G2 and a negative id one from the end: both sides are
        # checked against their own graph before the forward pass
        kg1 = TemporalKG.build([[0, 0, 1, 1, 1], [1, 0, 2, 1, 1]], 3, 1)
        kg2 = TemporalKG.build([[0, 0, 1, 1, 1]], 2, 1)
        enc = EncoderConfig(dim=2)
        state = init_embeddings(enc, 5, 2)
        with pytest.raises(IndexError, match="source" if src != [0] else "target"):
            _scored_similarity(state, union_graph(kg1, kg2), enc, 3, AlignConfig(), None,
                               np.array(src), np.array(tgt))

    def test_a_pool_of_other_rows_than_its_ids_is_rejected(self):
        with pytest.raises(ValueError, match="3 rows for 1 sources and 1 targets"):
            embedding_similarity(np.ones((3, 2)), [0], [0])

    def test_matches_double_loop_cosine_oracle(self):
        rng = np.random.default_rng(0)
        g1, g2 = rng.normal(size=(2, 20, 6))
        sim = pool_similarity(g1, g2, range(20), range(20))
        for i in range(20):
            for j in range(20):
                expected = g1[i] @ g2[j] / (np.linalg.norm(g1[i]) * np.linalg.norm(g2[j]))
                assert sim.dense[i, j] == pytest.approx(expected, abs=1e-10)


def cosine_pool(shape, seed=0):
    """`embedding_similarity` over random embeddings, with the normalised
    rows whose product each block must equal."""
    rng = np.random.default_rng(seed)
    g1, g2 = rng.normal(size=(shape[0], 6)), rng.normal(size=(shape[1], 6))
    sim = pool_similarity(g1, g2, range(shape[0]), range(shape[1]))
    return sim, _normalize_rows(g1.copy()), _normalize_rows(g2.copy())


def check_pass(sim, a, b):
    """One pass over `sim`, each block compared with its product; the starts."""
    starts = []
    for start, block in sim.row_blocks():
        starts.append(start)
        assert np.array_equal(block, a[start : start + len(block)] @ b.T)
    return starts


class TestReadAhead:
    """Each block's product is computed ahead on the one helper thread and
    must equal `a[start:stop] @ b.T` bit for bit, whatever the request order."""

    @pytest.mark.parametrize("block", [1, 3, 7, None])
    def test_blocks_equal_the_product(self, monkeypatch, block):
        sim, a, b = cosine_pool((23, 11))
        use_block_rows(monkeypatch, block, 11)
        assert check_pass(sim, a, b) == list(range(0, 23, block or 23))

    @pytest.mark.parametrize("requests", [
        [(0, 3), (0, 3), (3, 6), (3, 6), (6, 9)],  # repeated
        [(9, 12), (0, 3), (21, 23), (20, 23), (3, 6), (6, 9), (0, 23), (5, 6)],  # out of order
        [(0, 7), (7, 14), (14, 21), (21, 23), (0, 7), (7, 14)],  # two passes, the last block short
        [(4, 4), (4, 5), (5, 6), (22, 23), (0, 1)],  # empty, single and last rows
    ])
    def test_any_request_order_equals_the_product(self, requests):
        sim, a, b = cosine_pool((23, 11))
        for start, stop in requests:
            assert np.array_equal(sim.rows(start, stop), a[start:stop] @ b.T)

    @pytest.mark.parametrize("block", [1, 3, 7, None])
    def test_a_pass_broken_off_then_a_fresh_pass(self, monkeypatch, block):
        sim, a, b = cosine_pool((23, 11))
        other, a2, b2 = cosine_pool((23, 11), seed=1)
        use_block_rows(monkeypatch, block, 11)
        passes = sim.row_blocks()
        next(passes)  # leaves the second block in flight
        del passes
        for pool in ((other, a2, b2), (sim, a, b), (sim, a, b)):
            assert check_pass(*pool) == list(range(0, 23, block or 23))

    def test_at_most_one_product_in_flight(self, monkeypatch):
        product, lock = aligner._product, threading.Lock()
        in_flight, most, calls = [0], [0], [0]

        def counted(*args, **kwargs):
            with lock:
                in_flight[0] += 1
                calls[0] += 1
                most[0] = max(most[0], in_flight[0])
            time.sleep(0.001)
            try:
                return product(*args, **kwargs)
            finally:
                with lock:
                    in_flight[0] -= 1

        monkeypatch.setattr(aligner, "_product", counted)
        use_block_rows(monkeypatch, 2, 11)
        pools = [cosine_pool((23, 11), seed) for seed in range(6)]
        # two passes interleaved block by block on this thread ...
        (s0, a0, b0), (s1, a1, b1) = pools[:2]
        for (i, x), (j, y) in zip(s0.row_blocks(), s1.row_blocks()):
            assert np.array_equal(x, a0[i : i + 2] @ b0.T)
            assert np.array_equal(y, a1[j : j + 2] @ b1.T)
        # ... and four more passes from four threads at once, more than the cores
        errors = []

        def guarded(pool):
            try:
                check_pass(*pool)
            except AssertionError as e:
                errors.append(e)

        threads = [threading.Thread(target=guarded, args=(pool,)) for pool in pools[2:]]
        interval = sys.getswitchinterval()
        sys.setswitchinterval(1e-5)
        try:
            for t in threads:
                t.start()
            for t in threads:
                t.join(60)
        finally:
            sys.setswitchinterval(interval)
        assert not any(t.is_alive() for t in threads) and not errors
        assert calls[0] >= 6 * 12 and most[0] == 1

    def test_a_forked_child_gets_its_own_helper(self):
        sim, a, b = cosine_pool((23, 11))
        list(sim.row_blocks())  # the helper thread of this process is running
        child = multiprocessing.get_context("fork").Process(target=check_pass, args=(sim, a, b))
        child.start()
        child.join(60)
        if child.is_alive():
            child.kill()
            child.join()
        assert child.exitcode == 0


class TestAlignConfig:
    @pytest.mark.parametrize("field,value", [
        ("alpha", 1.5),
        ("csls_k", 0),
        ("csls_k", 2.5),
        ("iterations", 1.0),
        ("iterations", True),
    ])
    def test_bad_value_rejected(self, field, value):
        with pytest.raises(ValueError, match=field):
            AlignConfig(**{field: value})

    @pytest.mark.parametrize("value", [True, "0.3", float("nan"), float("inf")])
    def test_alpha_of_the_wrong_type_rejected(self, value):
        with pytest.raises(ValueError, match="alpha"):
            AlignConfig(alpha=value)


class TestCombine:
    def test_hand_arithmetic(self):
        emb = matrix([[0.5]], kind="embedding")
        tim = matrix([[1.0]], kind="time")
        assert combine(emb, tim, 0.3).dense[0, 0] == pytest.approx(0.65)

    def test_endpoints_bit_exact(self):
        rng = np.random.default_rng(1)
        emb = matrix(rng.random((4, 4)), kind="embedding")
        tim = matrix(rng.random((4, 4)), kind="time")
        assert np.array_equal(combine(emb, tim, 0.0).dense, emb.dense)
        assert np.array_equal(combine(emb, tim, 1.0).dense, tim.dense)

    def test_dimension_mismatch(self):
        with pytest.raises(ValueError):
            combine(matrix(np.zeros((2, 2))), matrix(np.zeros((2, 3))), 0.5)

    def test_monotone_in_both_signals(self):
        emb = matrix([[0.2]], kind="embedding")
        tim = matrix([[0.3]], kind="time")
        base = combine(emb, tim, 0.4).dense[0, 0]
        up = combine(matrix([[0.25]]), matrix([[0.35]]), 0.4).dense[0, 0]
        assert up >= base


class TestCSLS:
    def test_constant_matrix_rescales_to_zero(self):
        sim = matrix(np.full((5, 5), 0.7))
        assert np.allclose(csls_rescale(sim, 3).dense, 0.0)

    def test_3x3_hand_computation(self):
        s = np.array([[1.0, 0.0, 0.0], [0.0, 0.5, 0.2], [0.1, 0.3, 0.9]])
        out = csls_rescale(matrix(s), 2).dense
        r_src = np.array([(1.0 + 0.0) / 2, (0.5 + 0.2) / 2, (0.9 + 0.3) / 2])
        r_tgt = np.array([(1.0 + 0.1) / 2, (0.5 + 0.3) / 2, (0.9 + 0.2) / 2])
        expected = 2 * s - r_src[:, None] - r_tgt[None, :]
        assert np.allclose(out, expected)

    def test_matches_naive_oracle_on_random_inputs(self):
        rng = np.random.default_rng(2)
        for _ in range(5):
            s = rng.random((30, 30))
            out = csls_rescale(matrix(s), 10).dense
            assert np.allclose(out, naive_csls(s, 10), atol=1e-10)
            assert np.array_equal(np.argmax(out, axis=1), np.argmax(naive_csls(s, 10), axis=1))

    def test_k_clamped_to_pool(self):
        s = np.random.default_rng(3).random((4, 4))
        assert np.allclose(csls_rescale(matrix(s), 100).dense, naive_csls(s, 4))

    def test_row_shift_argmax_invariance(self):
        # shifting an entire input row leaves that row's own argmax unchanged
        # (the row's rescaled scores shift almost uniformly)
        for seed in range(20):
            rng = np.random.default_rng(seed)
            s = rng.random((20, 20))
            shifted = s.copy()
            shifted[7] += rng.uniform(0.5, 4.0)
            a = np.argmax(csls_rescale(matrix(s), 10).dense, axis=1)
            b = np.argmax(csls_rescale(matrix(shifted), 10).dense, axis=1)
            assert a[7] == b[7]

    # one row (or column) per chunk, a few per chunk, and the default, one chunk
    @pytest.mark.parametrize("chunk_bytes", [8, 8 * 40 * 3 + 8, None])
    def test_chunked_tops_equal_one_call_over_the_block(self, monkeypatch, chunk_bytes):
        """`_row_tops` and the whole-column merge of `_merge_column_tops`
        run a chunk of rows or columns at a time. Each row or column is
        reduced on its own, so they equal one argpartition, and one
        partition of the whole hstack, bit for bit; the values are quarters
        from a few levels, so most rows and columns hold ties."""
        if chunk_bytes is not None:
            monkeypatch.setattr(encoder, "_ROW_BLOCK_BYTES", chunk_bytes)
        rng = np.random.default_rng(8)
        block = rng.integers(0, 6, size=(37, 40)) / 4
        block[:, 5] = block[:, 6]
        for k in (1, 7, 40):
            assert np.array_equal(aligner._row_tops(block, k),
                                  np.argpartition(block, 40 - k, axis=1)[:, 40 - k :])
        for m in (1, 2, 10):
            top = np.sort(rng.integers(-3, 1, size=(40, m)) / 4, axis=1)
            top[::9] = -np.inf  # columns that have seen no row yet
            merged = np.hstack([top, block.T])
            merged.partition(len(block), axis=1)
            aligner._merge_column_tops(top, block)
            assert np.array_equal(top, merged[:, len(block) :])


class TestPredict:
    def test_identity_matrix(self):
        preds = predict(matrix(np.eye(3)))
        assert preds.pairs == [(0, 0), (1, 1), (2, 2)]
        assert preds.provenance.tolist() == ["prediction"] * 3

    def test_tie_breaks_toward_smaller_index(self):
        preds = predict(matrix([[0.5, 0.5, 0.1]]))
        assert preds.pairs == [(0, 0)]

    def test_matches_argmax_oracle(self):
        rng = np.random.default_rng(5)
        s = rng.random((15, 9))
        preds = predict(matrix(s))
        for row, (src, tgt) in enumerate(preds.pairs):
            assert tgt == int(np.argmax(s[row]))


class TestEmptyPool:
    """A pool with no sources or no targets has no CSLS means and no
    argmax: both say which side is empty, without a numpy warning."""

    @pytest.mark.parametrize("shape,side", [
        ((3, 0), "no targets"), ((0, 3), "no sources"), ((0, 0), "no sources and no targets"),
    ])
    def test_csls_and_predict_name_the_empty_side(self, shape, side):
        sim = matrix(np.zeros(shape))
        with warnings.catch_warnings():
            warnings.simplefilter("error")
            with pytest.raises(ValueError, match=side):
                csls_rescale(sim, 3)
            with pytest.raises(ValueError, match=side):
                predict(sim)


class TestMutualNearest:
    def test_identity_matrix_full_diagonal(self):
        pairs = mutual_nearest_pairs(matrix(np.eye(4)))
        assert pairs.as_set() == {(i, i) for i in range(4)}
        assert pairs.provenance.tolist() == ["pseudo"] * 4

    def test_colliding_rows_leave_at_most_one_pair(self):
        s = np.array([[0.9, 0.1], [0.8, 0.1]])  # both rows prefer target 0
        pairs = mutual_nearest_pairs(matrix(s))
        assert pairs.pairs == [(0, 0)]

    def test_matches_brute_force_oracle(self):
        rng = np.random.default_rng(6)
        s = rng.random((25, 25))
        got = mutual_nearest_pairs(matrix(s)).as_set()
        expected = set()
        for i in range(25):
            j = int(np.argmax(s[i]))
            if int(np.argmax(s[:, j])) == i:
                if (s[i] == s[i].max()).sum() == 1 and (s[:, j] == s[:, j].max()).sum() == 1:
                    expected.add((i, j))
        assert got == expected

    def test_partial_matching_property(self):
        rng = np.random.default_rng(7)
        pairs = mutual_nearest_pairs(matrix(rng.random((30, 20)))).pairs
        assert len({i for i, _ in pairs}) == len(pairs)
        assert len({j for _, j in pairs}) == len(pairs)


def random_pool(shape, seed):
    """Embeddings (with a zero-norm row in the pool), a CSR time matrix over
    more entities than the pool, and shuffled pool ids. Time scores are
    multiples of 1/8, so their sums are exact in any order and an alpha=1
    pool keeps its ties."""
    rng = np.random.default_rng(seed)
    n_src, n_tgt = shape
    g1 = rng.normal(size=(n_src + 3, 6))
    g2 = rng.normal(size=(n_tgt + 2, 6))
    src = rng.permutation(n_src + 3)[:n_src]
    tgt = rng.permutation(n_tgt + 2)[:n_tgt]
    g1[src[1]] = 0.0
    t = sp.random(n_src + 3, n_tgt + 2, density=0.3, format="csr", random_state=seed)
    t.data = rng.integers(1, 9, size=t.nnz) / 8.0
    full = SimilarityMatrix(np.arange(n_src + 3), np.arange(n_tgt + 2), t, "time")
    return g1, g2, src, tgt, stored_submatrix(full, src, tgt)


class TestBlockedScoring:
    """The row-blocked stages against the dense references: scores within
    1e-12, identical predictions, pseudo pairs and ranks, whatever the block
    size."""

    @pytest.mark.parametrize("block", [1, 3, 7, None])
    @pytest.mark.parametrize("k", [1, 4, 10, 100])
    @pytest.mark.parametrize("shape", [(13, 17), (17, 13)])
    @pytest.mark.parametrize("alpha", [0.0, 0.3, 1.0])
    def test_pipeline_matches_dense_oracle(self, monkeypatch, block, k, shape, alpha):
        g1, g2, src, tgt, tim = random_pool(shape, seed=shape[0] + k)
        use_block_rows(monkeypatch, block, shape[1])
        emb = pool_similarity(g1, g2, src, tgt)
        sim = csls_rescale(combine(emb, tim, alpha), k)

        a = g1[src] / np.maximum(np.linalg.norm(g1[src], axis=1, keepdims=True), 1e-300)
        b = g2[tgt] / np.linalg.norm(g2[tgt], axis=1, keepdims=True)
        expected = dense_csls(dense_combine(a @ b.T, tim.dense, alpha), k)
        assert sim.shape == shape
        assert np.allclose(sim.dense, expected, atol=1e-12, rtol=0)

        preds = predict(sim)
        pairs, scores = dense_predict(expected, src, tgt)
        assert preds.pairs == pairs
        assert np.allclose(preds.scores, scores, atol=1e-12, rtol=0)

        pseudo = mutual_nearest_pairs(sim)
        pairs, scores = dense_mutual(expected, src, tgt)
        assert pseudo.pairs == pairs
        assert np.allclose(pseudo.scores, scores, atol=1e-12, rtol=0)

        refs = AlignmentPairSet.from_pairs(list(zip(src[::2].tolist(), tgt[::2].tolist())))
        ranks = [rank_of_truth(expected[i], i) for i in range(0, min(shape), 2)]
        back = [rank_of_truth(expected[:, j], j) for j in range(0, min(shape), 2)]
        assert _row_ranks(sim, refs).ranks.tolist() == ranks
        assert _row_ranks(sim, refs).with_columns(sim, True).tolist() == ranks + back

    @pytest.mark.parametrize("block", [1, 3, 7, None])
    @pytest.mark.parametrize("k", [1, 4, 10, 100])
    @pytest.mark.parametrize("shape", [(11, 9), (9, 11)])
    def test_ties_match_dense_oracle(self, monkeypatch, block, k, shape):
        # small integers: ties in every row and column, straddling the block
        # boundaries, and CSLS means that are exact in any summation order
        s = np.random.default_rng(shape[0] * k).integers(0, 3, size=shape).astype(float)
        use_block_rows(monkeypatch, block, shape[1])
        sim = csls_rescale(matrix(s), k)
        expected = dense_csls(s, k)
        ids = (np.arange(shape[0]), np.arange(shape[1]))
        assert np.array_equal(sim.dense, expected)
        for blocked, dense in ((matrix(s), s), (sim, expected)):
            assert predict(blocked).pairs == dense_predict(dense, *ids)[0]
            assert mutual_nearest_pairs(blocked).pairs == dense_mutual(dense, *ids)[0]

    @pytest.mark.parametrize("block", [1, 3, 7, None])
    @pytest.mark.parametrize("k", [1, 4])
    @pytest.mark.parametrize("shape", [(11, 9), (9, 11)])
    def test_fused_decode_matches_dense_oracle(self, monkeypatch, block, k, shape):
        # small integers under CSLS: ties in every row and column, straddling
        # the block boundaries, with exact scores in any summation order
        rng = np.random.default_rng(shape[0] * k)
        s = rng.integers(0, 3, size=shape).astype(float)
        src, tgt = rng.permutation(shape[0]) + 100, rng.permutation(shape[1]) + 500
        refs = AlignmentPairSet.from_pairs(sorted(
            {(int(rng.choice(src)), int(rng.choice(tgt))) for _ in range(15)}, key=lambda p: -p[1]
        ))
        use_block_rows(monkeypatch, block, shape[1])
        sim = csls_rescale(matrix(s, source_ids=src, target_ids=tgt), k)
        expected = dense_csls(s, k)

        preds, ranked = predict_and_rank(sim, refs)
        pairs, scores = dense_predict(expected, src, tgt)
        assert preds.pairs == pairs and preds.scores.tolist() == scores
        row = {int(e): i for i, e in enumerate(src)}
        col = {int(e): j for j, e in enumerate(tgt)}
        ranks = [rank_of_truth(expected[row[a]], col[b]) for a, b in refs.pairs]
        back = [rank_of_truth(expected[:, col[b]], row[a]) for a, b in refs.pairs]
        assert ranked.ranks.tolist() == ranks
        assert ranked.with_columns(sim, True).tolist() == ranks + back
        for bidirectional in (False, True):
            fused = evaluate(sim, refs, (1, 5), bidirectional, row_ranks=ranked)
            alone = evaluate(sim, refs, (1, 5), bidirectional)
            assert (fused.hits_at, fused.mrr, fused.pool_size) == (
                alone.hits_at, alone.mrr, alone.pool_size
            )

    @pytest.mark.parametrize("pair", [(9, 0), (0, 9)])
    def test_fused_decode_rejects_a_missing_reference(self, pair):
        with pytest.raises(ValueError, match="9 missing"):
            predict_and_rank(matrix(np.eye(3)), AlignmentPairSet.from_pairs([pair]))

    @pytest.mark.parametrize("block", [1, 2, 3])
    def test_column_tie_across_a_block_boundary(self, monkeypatch, block):
        # column 0's maximum 0.9 sits in rows 0 and 2: never unique
        use_block_rows(monkeypatch, block, 2)
        s = np.array([[0.9, 0.1], [0.2, 0.3], [0.9, 0.4]])
        assert mutual_nearest_pairs(matrix(s)).pairs == []
        # a later block's strictly larger maximum replaces an earlier tie
        s = np.array([[0.5, 0.1], [0.5, 0.6], [0.9, 0.2]])
        assert mutual_nearest_pairs(matrix(s)).pairs == [(1, 1), (2, 0)]

    def test_time_given_as_csr_is_read_a_block_at_a_time(self, monkeypatch):
        t = sp.csr_matrix(np.array([[0.0, 0.5, 1.0], [0.25, 0.0, 0.0], [0.0, 0.0, 0.75]]))
        tim = SimilarityMatrix(np.arange(3), np.arange(3), t, "time")
        use_block_rows(monkeypatch, 2, 3)
        assert [(start, block.tolist()) for start, block in tim.row_blocks()] == [
            (0, [[0.0, 0.5, 1.0], [0.25, 0.0, 0.0]]),
            (2, [[0.0, 0.0, 0.75]]),
        ]
        assert np.array_equal(combine(matrix(np.zeros((3, 3))), tim, 1.0).dense, t.toarray())

    def test_row_blocks_of_wanted_rows_only(self, monkeypatch):
        s = np.arange(24.0).reshape(8, 3)
        use_block_rows(monkeypatch, 3, 3)
        sim, reads = counted(s)
        wanted = np.isin(np.arange(8), [4, 7])
        assert [(start, block.tolist()) for start, block in sim.row_blocks(wanted)] == [
            (3, s[3:6].tolist()), (6, s[6:].tolist())]
        assert reads == [(3, 6), (6, 8)]
        assert list(sim.row_blocks(np.zeros(8, dtype=bool))) == []
        assert [start for start, _ in sim.row_blocks()] == [0, 3, 6]

    @pytest.mark.parametrize("block", [1, 3, None])
    def test_submatrix_gathers_a_block_of_rows_at_a_time(self, monkeypatch, block):
        rng = np.random.default_rng(1)
        c1, c2 = (sp.csr_matrix(rng.integers(1, 3, (n, 5)) * (rng.random((n, 5)) < 0.4))
                  for n in (9, 8))
        full = build_time_similarity_matrix(c1, c2)
        r, c = np.array([7, 0, 3, 5]), np.array([6, 1, 2])
        use_block_rows(monkeypatch, block, len(c))
        sub = full.submatrix(r, c)
        assert sub.source_ids.tolist() == [7, 0, 3, 5]
        assert sub.target_ids.tolist() == [6, 1, 2]
        assert np.array_equal(sub.dense, full.dense[np.ix_(r, c)])

    def test_scoring_holds_no_pool_by_pool_array(self, monkeypatch):
        n = 2000  # one dense n x n float64 copy is 32 MB
        monkeypatch.setattr(timesim, "_BLOCK_BYTES", 1 << 20)
        rng = np.random.default_rng(0)
        g1, g2 = rng.normal(size=(2, n, 16))
        t = sp.random(n, n, density=0.01, format="csr", random_state=0)
        tim = SimilarityMatrix(np.arange(n), np.arange(n), t, "time")
        refs = AlignmentPairSet.from_pairs([(i, i) for i in range(n)])
        pool = np.vstack([g1, g2])
        tracemalloc.start()
        try:
            sim = csls_rescale(combine(embedding_similarity(pool, range(n), range(n)), tim, 0.3), 10)
            predict(sim)
            mutual_nearest_pairs(sim)
            evaluate(sim, refs, bidirectional=True)
            peak = tracemalloc.get_traced_memory()[1]
        finally:
            tracemalloc.stop()
        assert peak < 8 << 20

    def test_each_pass_holds_its_pool_and_two_blocks(self, monkeypatch):
        """A pass over a pool of four blocks holds the pool array, the block
        it reduces and the block in flight, and little else: every consumer
        drops its block before asking for the next, and the products read
        the pool in place. A third block would break the bound."""
        n_src, n_tgt = 1024, 2048
        block = 4 << 20  # 256 rows of 2048 scores
        monkeypatch.setattr(timesim, "_BLOCK_BYTES", block)
        refs = AlignmentPairSet.from_pairs([(i, 2 * i) for i in range(n_src)])
        rng = np.random.default_rng(0)
        peaks = {}

        def measured(name, fn, *args, **kwargs):
            tracemalloc.reset_peak()
            result = fn(*args, **kwargs)
            peaks[name] = tracemalloc.get_traced_memory()[1] - base
            return result

        tracemalloc.start()
        try:
            base = tracemalloc.get_traced_memory()[0]
            pool = rng.normal(size=(n_src + n_tgt, 8))
            emb = measured("embedding_similarity", embedding_similarity,
                           pool, range(n_src), range(n_tgt))
            measured("plain mutual_nearest_pairs", mutual_nearest_pairs, emb)
            sim = measured("csls_rescale", csls_rescale, emb, 1)  # k = 1 settles no row
            measured("predict_and_rank", predict_and_rank, sim, refs)
            measured("mutual_nearest_pairs", mutual_nearest_pairs, sim)
            measured("evaluate", evaluate, sim, refs, bidirectional=True)
        finally:
            tracemalloc.stop()
        limit = pool.nbytes + 2.5 * block
        assert {name: peak for name, peak in peaks.items() if peak > limit} == {}, limit


def counted(scores, **ids):
    """`matrix(scores)` and the list of the row ranges read from it."""
    base, reads = matrix(scores, **ids), []

    def rows(start, stop):
        reads.append((start, stop))
        return base.rows(start, stop)

    return BlockedScores(base.source_ids, base.target_ids, rows, base.kind), reads


def full_pass(sim):
    """`sim` with no first-pass candidates: every consumer reads its rows."""
    return BlockedScores(sim.source_ids, sim.target_ids, sim.rows, sim.kind)


def planted_pool(shape, seed):
    """Continuous scores with a clear best target per source row, at shuffled
    positions: each row's best beats its other cells by far more than the
    spread of the column means."""
    rng = np.random.default_rng(seed)
    s = 0.5 * rng.random(shape)
    s[np.arange(shape[0]), rng.permutation(shape[1])[: shape[0]]] = 0.9 + 0.1 * rng.random(shape[0])
    return s


class TestSettledScoring:
    """The decoders answer each row from what `csls_rescale`'s pass kept
    when a bound proves it, without reading the row; they read again only
    the row blocks that hold a row or reference the bound leaves unsettled.
    The answers match the dense references and a full pass's."""

    def check_against_oracles(self, sim, s, k, exact):
        src, tgt = sim.source_ids, sim.target_ids
        expected = dense_csls(s, k)
        close = (lambda a, b: np.array_equal(a, b)) if exact else (
            lambda a, b: np.allclose(a, b, atol=1e-12, rtol=0))
        preds = predict(sim)
        pairs, scores = dense_predict(expected, src, tgt)
        assert preds.pairs == pairs and close(preds.scores, scores)
        pseudo = mutual_nearest_pairs(sim)
        pairs, scores = dense_mutual(expected, src, tgt)
        assert pseudo.pairs == pairs and close(pseudo.scores, scores)
        refs = AlignmentPairSet(src[::2], tgt[np.argmax(s[::2], axis=1)], "gold")
        ranked_preds, ranked = predict_and_rank(sim, refs)
        assert ranked_preds.pairs == preds.pairs
        col = {int(e): j for j, e in enumerate(tgt)}
        ranks = [rank_of_truth(expected[2 * n], col[b]) for n, (_, b) in enumerate(refs.pairs)]
        assert ranked.ranks.tolist() == ranks
        # the settled answers are bit for bit those of a full pass
        plain = full_pass(sim)
        assert np.array_equal(preds.scores, predict(plain).scores)
        assert np.array_equal(pseudo.scores, mutual_nearest_pairs(plain).scores)
        _, full = predict_and_rank(plain, refs)
        assert np.array_equal(ranked.truth, full.truth)
        assert ranked.with_columns(sim, True).tolist() == full.with_columns(plain, True).tolist()

    @pytest.mark.parametrize("block", [1, 3, 7, None])
    @pytest.mark.parametrize("k", [3, 10])
    @pytest.mark.parametrize("shape", [(13, 17), (17, 17), (40, 50)])
    def test_settled_pools_read_no_row_after_the_first_pass(self, monkeypatch, block, k, shape):
        s = planted_pool(shape, seed=shape[0] * k)
        use_block_rows(monkeypatch, block, shape[1])
        rng = np.random.default_rng(k)
        blocked, reads = counted(s, source_ids=rng.permutation(shape[0]) + 100,
                                 target_ids=rng.permutation(shape[1]) + 500)
        sim = csls_rescale(blocked, k)
        assert len(reads) == len(range(0, shape[0], block or shape[0]))
        reads.clear()
        truth = AlignmentPairSet(sim.source_ids, sim.target_ids[np.argmax(s, axis=1)], "gold")
        predict(sim), mutual_nearest_pairs(sim), predict_and_rank(sim, truth)
        assert reads == []
        self.check_against_oracles(sim, s, k, exact=False)

    @pytest.mark.parametrize("block", [1, 7, None])
    def test_a_truth_at_or_below_the_bound_is_ranked_by_a_full_pass(self, monkeypatch, block):
        # each reference names its row's k-th best input: a candidate whose
        # score cannot beat the row's bound, so cells outside may outrank it
        s = planted_pool((40, 50), seed=8)
        use_block_rows(monkeypatch, block, 50)
        blocked, reads = counted(s)
        sim = csls_rescale(blocked, 3)
        reads.clear()
        predict(sim)
        assert reads == []  # the predictions settle
        kth = np.argsort(-s, axis=1, kind="stable")[:, 2]
        refs = AlignmentPairSet(np.arange(40), kth, "gold")
        preds, ranked = predict_and_rank(sim, refs)
        assert reads  # the ranks do not
        expected = dense_csls(s, 3)
        assert ranked.ranks.tolist() == [rank_of_truth(expected[i], kth[i]) for i in range(40)]
        assert max(ranked.ranks) > 3
        assert preds.pairs == predict(sim).pairs

    @pytest.mark.parametrize("unsettled", ["rows", "references"])
    def test_only_the_blocks_that_hold_an_unsettled_row_are_read_again(self, monkeypatch,
                                                                        unsettled):
        # 40 rows in blocks of 7. Either rows 10 and 12 have no planted best,
        # so no candidate beats their bound, or the references of rows 14 to
        # 20 name their row's k-th best input, which never does
        s = planted_pool((40, 50), seed=8)
        rng = np.random.default_rng(8)
        truth = np.argmax(s, axis=1)
        if unsettled == "rows":
            s[[10, 12]] = 0.5 * rng.random((2, 50))
            truth[[10, 12]] = np.argmax(s[[10, 12]], axis=1)
            again = {"predict": [(7, 14)], "mutual": [(7, 14)], "rank": [(7, 14)]}
        else:
            truth[14:21] = np.argsort(-s[14:21], axis=1, kind="stable")[:, 2]
            again = {"predict": [], "mutual": [], "rank": [(14, 21)]}
        use_block_rows(monkeypatch, 7, 50)
        blocked, reads = counted(s, source_ids=np.arange(40) + 100,
                                 target_ids=rng.permutation(50) + 500)
        sim = csls_rescale(blocked, 3)
        refs = AlignmentPairSet(sim.source_ids, sim.target_ids[truth], "gold")
        for name, decode in (("predict", predict), ("mutual", mutual_nearest_pairs),
                             ("rank", lambda sim: predict_and_rank(sim, refs))):
            reads.clear()
            decode(sim)
            assert reads == again[name], name
        plain = full_pass(sim)
        preds, ranked = predict_and_rank(sim, refs)
        full_preds, full = predict_and_rank(plain, refs)
        assert preds.pairs == full_preds.pairs and np.array_equal(preds.scores, full_preds.scores)
        assert np.array_equal(ranked.truth, full.truth)
        assert np.array_equal(ranked.ranks, full.ranks)
        expected = dense_csls(s, 3)
        assert ranked.ranks.tolist() == [rank_of_truth(expected[i], truth[i]) for i in range(40)]
        self.check_against_oracles(sim, s, 3, exact=False)

    def test_a_hub_column_defeats_the_bound(self, monkeypatch):
        # column 0 is every row's best input (a hub) and column 1 every
        # row's worst: r_tgt spreads further than any row's best stands out
        rng = np.random.default_rng(3)
        s = 0.2 * rng.random((12, 15))
        s[:, 0] = 0.9 + 0.05 * rng.random(12)
        s[:, 1] = -0.8 - 0.05 * rng.random(12)
        use_block_rows(monkeypatch, 5, 15)
        blocked, reads = counted(s)
        sim = csls_rescale(blocked, 2)
        reads.clear()
        predict(sim)
        assert len(reads) == 3  # the full pass
        self.check_against_oracles(sim, s, 2, exact=False)

    @pytest.mark.parametrize("block", [1, 3, None])
    def test_ties_at_the_kth_value_fall_back(self, monkeypatch, block):
        # a constant row: its best ties with cells outside its k best
        s = np.random.default_rng(4).integers(0, 4, size=(9, 11)).astype(float)
        s[4] = 2.0
        use_block_rows(monkeypatch, block, 11)
        blocked, reads = counted(s)
        sim = csls_rescale(blocked, 3)
        reads.clear()
        mutual_nearest_pairs(sim)
        assert reads  # the full pass
        self.check_against_oracles(sim, s, 3, exact=True)

    @pytest.mark.parametrize("block", [1, 3, None])
    @pytest.mark.parametrize("shape", [(11, 9), (9, 11), (1, 4), (4, 1)])
    def test_k_at_least_the_pool_settles(self, monkeypatch, block, shape):
        # small integers: ties everywhere, and every cell is a candidate
        s = np.random.default_rng(shape[0]).integers(0, 3, size=shape).astype(float)
        use_block_rows(monkeypatch, block, shape[1])
        blocked, reads = counted(s)
        sim = csls_rescale(blocked, 100)
        reads.clear()
        predict(sim), mutual_nearest_pairs(sim)
        assert reads == []
        self.check_against_oracles(sim, s, 100, exact=True)

    @pytest.mark.parametrize("block", [1, 2, 3])
    def test_column_best_across_a_block_boundary(self, monkeypatch, block):
        use_block_rows(monkeypatch, block, 3)
        # rows 0 and 2 are equal, so column 0's best 2*s - r_src ties across blocks
        s = np.array([[0.9, 0.1, 0.0], [0.2, 0.3, 0.8], [0.9, 0.1, 0.0]])
        blocked, reads = counted(s)
        sim = csls_rescale(blocked, 3)
        assert mutual_nearest_pairs(sim).pairs == [(1, 2)]
        # column 0's best in row 0 is replaced by row 2's strictly larger one
        s = np.array([[0.5, 0.1, 0.0], [0.1, 0.6, 0.0], [0.9, 0.0, 0.1]])
        sim = csls_rescale(matrix(s), 3)
        assert sim.col_max[0] == 2 * 0.9 - sim.r_src[2]
        assert sim.col_second[0] == 2 * 0.5 - sim.r_src[0]
        assert mutual_nearest_pairs(sim).pairs == [(1, 1), (2, 0)]
        for scores in (s, np.array([[0.9, 0.1, 0.0], [0.2, 0.3, 0.8], [0.9, 0.1, 0.0]])):
            assert mutual_nearest_pairs(csls_rescale(matrix(scores), 3)).pairs == dense_mutual(
                dense_csls(scores, 3), range(3), range(3))[0]

    @given(
        shape=st.tuples(st.integers(1, 12), st.integers(1, 12)),
        k=st.integers(1, 15),
        seed=st.integers(0, 2**32 - 1),
        ties=st.booleans(),
    )
    @settings(max_examples=60, deadline=None)
    def test_means_do_not_depend_on_the_block_size(self, shape, k, seed, ties):
        rng = np.random.default_rng(seed)
        s = rng.integers(0, 3, size=shape) / 3.0 if ties else rng.normal(size=shape)
        means = []
        for block in (1, 3, 7, None):
            with mock.patch.object(timesim, "_BLOCK_BYTES",
                                   timesim._BLOCK_BYTES if block is None else 8 * shape[1] * block):
                sim = csls_rescale(matrix(s), k)
            means.append((sim.r_src, sim.r_tgt))
        for r_src, r_tgt in means[1:]:
            assert np.array_equal(r_src, means[0][0]) and np.array_equal(r_tgt, means[0][1])


@pytest.fixture(scope="module")
def tiny_layout(tmp_path_factory):
    params = SynthParams(
        entities=60, relations=4, timestamps=15, quads_per_entity=5,
        edge_noise=0.05, time_noise=0.05, seed_pairs=10, rng_seed=5,
    )
    return write_benchmark(make_benchmark(params), tmp_path_factory.mktemp("bench"))


@pytest.fixture(scope="module")
def tiny_benchmark(tiny_layout):
    kg1, kg2, _, seeds, refs = load_dataset(tiny_layout)
    tm = build_time_similarity_matrix(build_time_dictionary(kg1), build_time_dictionary(kg2))
    return kg1, kg2, seeds, refs, tm


def run_iterate(tiny_benchmark, iterations, epochs=60, alpha=0.3):
    kg1, kg2, seeds, refs, tm = tiny_benchmark
    enc = EncoderConfig(dim=16, layers=2, init_seed=0)
    trn = TrainConfig(epochs=epochs, rng_seed=0)
    aln = AlignConfig(alpha=alpha, iterations=iterations)
    state = init_embeddings(enc, kg1.entity_count + kg2.entity_count,
                            kg1.relation_count + kg2.relation_count)
    return iterate(state, kg1, kg2, seeds, enc, trn, aln, tm, references=refs), refs


def iterate_with(layout, what, pair):
    """`iterate` on the dataset at `layout`, `pair` added to its seeds or to
    its references (`what`); training, if reached, fails the call."""
    kg1, kg2, _, seeds, refs = load_dataset(layout)
    pairs = {"seed": seeds, "reference": refs}
    pairs[what] = pairs[what].extended(AlignmentPairSet.from_pairs([pair]))
    tm = build_time_similarity_matrix(build_time_dictionary(kg1), build_time_dictionary(kg2))
    enc = EncoderConfig(dim=8)
    state = init_embeddings(enc, kg1.entity_count + kg2.entity_count,
                            kg1.relation_count + kg2.relation_count)
    with mock.patch.object(aligner, "train_on_union", side_effect=AssertionError("trained")):
        iterate(state, kg1, kg2, pairs["seed"], enc, TrainConfig(epochs=1), AlignConfig(), tm,
                references=pairs["reference"])


class TestIterate:
    @pytest.mark.parametrize("what", ["seed", "reference"])
    @pytest.mark.parametrize("pair", [(-1, 0), (0, -1), (60, 0), (0, 60)])
    def test_an_id_outside_its_graph_is_rejected_before_training(self, tiny_layout, what, pair):
        with pytest.raises(ValueError, match=rf"^{what} pair \({pair[0]}, {pair[1]}\) is "
                                             r"outside \[0, 60\) x \[0, 60\)$"):
            iterate_with(tiny_layout, what, pair)

    def test_single_iteration_equals_plain_training(self, tiny_benchmark):
        kg1, kg2, seeds, refs, tm = tiny_benchmark
        result, _ = run_iterate(tiny_benchmark, iterations=1)
        enc = EncoderConfig(dim=16, layers=2, init_seed=0)
        state = init_embeddings(enc, kg1.entity_count + kg2.entity_count,
                                kg1.relation_count + kg2.relation_count)
        trained, _ = train(state, kg1, kg2, seeds, enc, TrainConfig(epochs=60, rng_seed=0))
        assert np.array_equal(result.state.entity_table, trained.entity_table)
        assert len(result.report) == 1

    def test_pseudo_pairs_never_duplicate_seeds(self, tiny_benchmark):
        result, _ = run_iterate(tiny_benchmark, iterations=3)
        # extended() raises on duplicates, so reaching here proves the claim;
        # double-check provenance accounting anyway
        assert result.report[-1][2] <= 60

    def test_pseudo_counts_reported_per_iteration(self, tiny_benchmark):
        result, _ = run_iterate(tiny_benchmark, iterations=3)
        assert [r[0] for r in result.report] == [1, 2, 3]
        pools = [r[2] for r in result.report]
        assert pools == sorted(pools)

    def test_iteration_does_not_hurt_accuracy(self, tiny_benchmark):
        single, refs = run_iterate(tiny_benchmark, iterations=1)
        multi, _ = run_iterate(tiny_benchmark, iterations=2)
        h1 = evaluate(single.similarity, refs).hits_at[1]
        h2 = evaluate(multi.similarity, refs).hits_at[1]
        assert h2 >= h1

    def test_final_ranks_come_with_the_predictions(self, tiny_benchmark):
        result, refs = run_iterate(tiny_benchmark, iterations=2)
        assert result.predictions.pairs == predict(result.similarity).pairs
        assert np.array_equal(result.reference_ranks.ranks, _row_ranks(result.similarity, refs).ranks)

    @pytest.mark.parametrize("iterations", [1, 3])
    def test_each_scoring_call_runs_one_forward(self, tiny_benchmark, monkeypatch, iterations):
        """Each scoring call computes its pool's rows with its own forward
        pass, and the final scores equal, bit for bit, those built from the
        rows of a full forward pass."""
        calls, scored, pools = [], [], []
        monkeypatch.setattr(aligner, "forward", lambda *a, **kw: calls.append(1) or forward(*a, **kw))
        monkeypatch.setattr(aligner, "_scored_similarity",
                            lambda *a: scored.append(1) or _scored_similarity(*a))
        monkeypatch.setattr(aligner, "train_on_union",
                            lambda *a: pools.append(a[3]) or train_on_union(*a))
        result, refs = run_iterate(tiny_benchmark, iterations=iterations)
        kg1, kg2, _, _, tm = tiny_benchmark
        # an iteration scores when the pool it trained on leaves an entity
        # out on both sides; the final call always scores
        leaves_out = [len(np.setdiff1d(np.arange(kg1.entity_count), p.sources)) > 0
                      and len(np.setdiff1d(np.arange(kg2.entity_count), p.targets)) > 0
                      for p in pools]
        assert len(pools) == iterations and sum(leaves_out) >= 1
        assert len(calls) == len(scored) == sum(leaves_out) + 1
        g = forward(result.state, union_graph(kg1, kg2), EncoderConfig(dim=16, layers=2))
        n1, src, tgt = kg1.entity_count, np.unique(refs.sources), np.unique(refs.targets)
        cfg = AlignConfig(alpha=0.3)
        expected = csls_rescale(
            combine(pool_similarity(g[:n1], g[n1:], src, tgt), tm.submatrix(src, tgt), cfg.alpha),
            cfg.csls_k,
        )
        assert np.array_equal(result.similarity.rows(0, len(src)), expected.rows(0, len(src)))

    @pytest.mark.parametrize("iterations", [1, 3])
    def test_no_earlier_scores_alive_when_training_or_scoring_starts(
        self, tiny_benchmark, monkeypatch, iterations
    ):
        """A pseudo-pair call's CSLS scores, its read-ahead, its pool array
        (which every product reads) and every output array of its products
        are freed with the call: none is alive when the next training run or
        scoring call starts, the final one included. Checked by reference
        count alone, with no collection."""
        earlier, alive_at = [], []

        def owner(x):
            return x if x.base is None else x.base

        def wrapped(name, fn, track):
            def call(*args):
                if name in ("train_on_union", "_scored_similarity"):
                    alive_at.append((name, len(earlier), [r for r in earlier if r() is not None]))
                result = fn(*args)
                earlier.extend(weakref.ref(x) for x in track(args, result))
                return result
            return call

        for name, track in (
            ("train_on_union", lambda args, result: ()),
            # the read-ahead and the pool array
            ("embedding_similarity", lambda args, emb: (emb.rows, args[0])),
            ("_scored_similarity", lambda args, sim: (sim,)),
            ("_product", lambda args, out: map(owner, args)),  # the pool (a and b) and out
        ):
            monkeypatch.setattr(aligner, name, wrapped(name, getattr(aligner, name), track))
        result, _ = run_iterate(tiny_benchmark, iterations=iterations)
        names = [name for name, _, _ in alive_at]
        assert names.count("train_on_union") == iterations and names[-1] == "_scored_similarity"
        assert alive_at[-1][1] >= 5  # a pseudo call's read-ahead, pool, scores and out
        assert all(not alive for _, _, alive in alive_at)
        assert any(r() is result.similarity for r in earlier)  # the final scores stay

    def test_empty_seeds_rejected(self, tiny_benchmark):
        kg1, kg2, _, refs, tm = tiny_benchmark
        enc = EncoderConfig(dim=8)
        state = init_embeddings(enc, kg1.entity_count + kg2.entity_count,
                                kg1.relation_count + kg2.relation_count)
        with pytest.raises(ValueError, match="seed"):
            iterate(state, kg1, kg2, AlignmentPairSet.from_pairs([]), enc,
                    TrainConfig(epochs=1), AlignConfig(), tm)

    def test_non_finite_embedding_fails_fast(self, tiny_benchmark):
        kg1, kg2, seeds, refs, tm = tiny_benchmark
        enc = EncoderConfig(dim=8, layers=2, init_seed=0)
        state = init_embeddings(enc, kg1.entity_count + kg2.entity_count,
                                kg1.relation_count + kg2.relation_count)
        state.entity_table[0, 0] = np.nan
        with pytest.raises(FloatingPointError, match="iteration 1"):
            iterate(state, kg1, kg2, seeds, enc, TrainConfig(epochs=2),
                    AlignConfig(iterations=2), tm, references=refs)


class TestScoringThread:
    def test_traced_scoring_runs_on_the_main_thread(self, tiny_layout, tmp_path, monkeypatch):
        """Only the embedding products run on the helper thread; every
        function a tracer wraps, and the rank reducer, run on the main one."""
        monkeypatch.setattr(timesim, "_BLOCK_BYTES", 8)  # one row per block
        seen, rows = {}, []

        def wrap(name, fn):
            def wrapper(*args, **kwargs):
                seen.setdefault(name, set()).add(threading.current_thread())
                if name == "csls_rescale":
                    rows.append(args[0].shape[0])
                return fn(*args, **kwargs)
            return wrapper

        modules = [m for n, m in sys.modules.items() if n.startswith("tkgalign")]
        entry_points = [(aligner, n) for n in ("embedding_similarity", "combine", "csls_rescale",
                                               "mutual_nearest_pairs", "predict", "_product")]
        entry_points += [(sys.modules["tkgalign.evaluate"], "evaluate"),
                         (sys.modules["tkgalign.encoder"], "forward")]
        for module, name in entry_points:
            fn = getattr(module, name)
            for m in modules:
                if getattr(m, name, None) is fn:
                    monkeypatch.setattr(m, name, wrap(name, fn))
        monkeypatch.setattr(RowRanks, "update", wrap("RowRanks.update", RowRanks.update))
        # k = 1 settles no row, so the decoders and the ranks read every pool again
        cfg = {"dataset": str(tiny_layout.quads1.parent),
               "encoder": {"dim": 16, "layers": 2, "init_seed": 0},
               "train": {"epochs": 5, "rng_seed": 0},
               "align": {"iterations": 2, "csls_k": 1}}
        run_alignment(cfg, tmp_path)
        main = threading.main_thread()
        assert len(rows) == 3 and min(rows) >= 3
        assert main not in seen.pop("_product")
        assert set(seen) == {"embedding_similarity", "combine", "csls_rescale",
                             "mutual_nearest_pairs", "predict", "evaluate", "forward",
                             "RowRanks.update"}
        assert all(threads == {main} for threads in seen.values())
