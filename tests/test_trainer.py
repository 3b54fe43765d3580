import dataclasses
import os
import subprocess
import sys
import tracemalloc
from pathlib import Path

import numpy as np
import pytest
import scipy.sparse as sp
from scipy.stats import chi2

from tkgalign.encoder import (
    EncoderConfig,
    forward,
    init_embeddings,
    make_dropout_mask,
)
from tkgalign import encoder
from tkgalign.kg import AlignmentPairSet, TemporalKG, union_graph
from tkgalign.trainer import (
    OptimizerState,
    TrainConfig,
    TripletBatch,
    compute_gradients,
    optimizer_step,
    sample_negatives,
    train_on_union,
)

from test_encoder import global_embedding, list_forward_layers


def P(t):
    return (t, t)


def Quadruple(head, relation, tail, time):
    return [head, relation, tail, *time]


def random_instance(seed, layers=2, dropout=False, pairs=None):
    """Small random graph pair with a triplet batch, for gradient checks.
    `pairs` overrides the default seed pairs (i, i)."""
    rng = np.random.default_rng(seed)
    n1, n2 = (int(x) for x in rng.integers(4, 15, 2))
    m1, m2 = (int(x) for x in rng.integers(2, 5, 2))

    def quads(n, m, k):
        return [
            Quadruple(int(rng.integers(n)), int(rng.integers(m)), int(rng.integers(n)), P(1))
            for _ in range(k)
        ]

    kg1 = TemporalKG.build(quads(n1, m1, 3 * n1), n1, m1)
    kg2 = TemporalKG.build(quads(n2, m2, 3 * n2), n2, m2)
    d = int(rng.integers(2, 7))
    enc = EncoderConfig(
        dim=d,
        layers=layers,
        init_seed=seed,
        ablate_relation_fusion=bool(seed % 5 == 0),
        ablate_global_concat=bool(seed % 7 == 0),
    )
    trn = TrainConfig(margin=1.0, dropout_rate=0.3 if dropout else 0.0, rng_seed=seed)
    state = init_embeddings(enc, n1 + n2, m1 + m2)
    if pairs is None:
        pairs = [(i, i) for i in range(min(n1, n2, 4))]
    pairs = AlignmentPairSet.from_pairs(pairs)
    rng2 = np.random.default_rng(seed + 1000)
    negs = sample_negatives(pairs, (n1, n2), 3, rng2)
    batch = TripletBatch.build(pairs, negs, n1)
    ukg = union_graph(kg1, kg2)
    mask = (
        make_dropout_mask(rng2, (ukg.entity_count, 2 * d), trn.dropout_rate) if dropout else None
    )
    return state, ukg, batch, enc, trn, mask


def manhattan_distance(u, v):
    u = np.asarray(u, dtype=np.float64)
    v = np.asarray(v, dtype=np.float64)
    if u.shape != v.shape:
        raise ValueError("length mismatch")
    return float(np.abs(u - v).sum())


def triplet_loss(pos_dists, neg_dists, margin):
    pos_dists = np.asarray(pos_dists, dtype=np.float64)
    neg_dists = np.asarray(neg_dists, dtype=np.float64)
    if pos_dists.shape != neg_dists.shape:
        raise ValueError("length mismatch")
    return float(np.maximum(pos_dists - neg_dists + margin, 0.0).sum())


def batch_loss(state, union_kg, batch, enc_config, train_config, dropout_mask=None):
    """Loss only, via the same forward path (finite-difference reference)."""
    g = forward(state, union_kg, enc_config, dropout_mask)
    d_pos = np.abs(g[batch.pos_src] - g[batch.pos_tgt]).sum(axis=1)
    d_neg = np.abs(g[batch.neg_src] - g[batch.neg_tgt]).sum(axis=1)
    return triplet_loss(d_pos, d_neg, train_config.margin)


def list_oracle_gradients(state, union_kg, batch, enc_config, train_config, dropout_mask=None):
    """Reference gradients with a fresh array per step: the layer list and its
    concatenation, the pair differences, their absolute values and signs,
    and a separate running gradient through the layers."""
    layers = list_forward_layers(state, union_kg, enc_config, dropout_mask)
    g = global_embedding(layers, enc_config.ablate_global_concat)

    n = g.shape[0]
    keys, inv = np.unique(batch.pos_src * n + batch.pos_tgt, return_inverse=True)
    src = np.concatenate([keys // n, batch.neg_src])
    tgt = np.concatenate([keys % n, batch.neg_tgt])
    m = len(src)
    pair_diff = sp.csr_matrix(
        (np.tile([1.0, -1.0], m), np.column_stack([src, tgt]).ravel(), np.arange(0, 2 * m + 1, 2)),
        shape=(m, n),
    )
    diff = pair_diff @ g
    buf = np.abs(diff)
    dist = buf.sum(axis=1)
    slack = dist[inv] - dist[len(keys) :] + train_config.margin
    active = slack > 0
    loss = float(slack[active].sum())
    weight = np.concatenate([np.bincount(inv[active], minlength=len(keys)), -1 * active])
    incidence = pair_diff.T @ sp.diags(weight.astype(np.float64))
    d_global = incidence @ np.sign(diff, out=buf)

    width = layers[0].shape[1]
    if enc_config.ablate_global_concat:
        d_layers = [np.zeros_like(layers[0]) for _ in layers[:-1]] + [d_global]
    else:
        d_layers = [d_global[:, l * width : (l + 1) * width] for l in range(len(layers))]
    op_t = union_kg.mean_operator.T.tocsr()
    d_run = d_layers[-1]
    for l in range(len(layers) - 1, 0, -1):
        gated = d_run * (layers[l] > 0)
        d_run = d_layers[l - 1] + op_t @ gated
    if dropout_mask is not None:
        d_run = d_run * dropout_mask
    d = state.dim
    d_ent_half = d_run[:, :d]
    d_rel_half = d_run[:, d:]
    if enc_config.ablate_relation_fusion:
        d_ent_half = d_ent_half + d_rel_half
        grad_rel = np.zeros_like(state.relation_table)
    else:
        grad_rel = union_kg.relation_operator.T @ d_rel_half
    return loss, op_t @ d_ent_half, grad_rel


def oracle_optimizer_step(state, opt, grad_ent, grad_rel, config):
    """Reference RMSProp step with fresh temporaries; leaves the gradients
    untouched."""
    decay, lr, eps = config.optimizer_decay, config.learning_rate, config.optimizer_epsilon
    opt.acc_entity *= decay
    opt.acc_entity += (1.0 - decay) * grad_ent**2
    opt.acc_relation *= decay
    opt.acc_relation += (1.0 - decay) * grad_rel**2
    state.entity_table -= lr * grad_ent / (np.sqrt(opt.acc_entity) + eps)
    state.relation_table -= lr * grad_rel / (np.sqrt(opt.acc_relation) + eps)


def oracle_epochs(state, union_kg, kg_sizes, seeds, enc_config, train_config):
    """Reference epoch loop: a fresh mask, fresh layers and fresh gradients
    every epoch, drawn from the same generator stream as train_on_union."""
    rng = np.random.default_rng(train_config.rng_seed)
    opt = OptimizerState.zeros_like(state)
    losses = []
    for _ in range(train_config.epochs):
        mask = (
            make_dropout_mask(rng, (union_kg.entity_count, 2 * state.dim), train_config.dropout_rate)
            if train_config.dropout_rate > 0
            else None
        )
        negs = sample_negatives(seeds, kg_sizes, train_config.negatives_per_pair, rng)
        batch = TripletBatch.build(seeds, negs, entity_offset=kg_sizes[0])
        loss, ge, gr = list_oracle_gradients(state, union_kg, batch, enc_config, train_config, mask)
        oracle_optimizer_step(state, opt, ge, gr, train_config)
        losses.append(loss)
    return losses


def scatter_oracle_gradients(state, union_kg, batch, enc_config, train_config, dropout_mask=None):
    """Reference gradients: every triplet row scored on its own and its sign
    vectors scattered row by row with np.add.at."""
    layers = list_forward_layers(state, union_kg, enc_config, dropout_mask)
    g = global_embedding(layers, enc_config.ablate_global_concat)
    dp_vec = g[batch.pos_src] - g[batch.pos_tgt]
    dn_vec = g[batch.neg_src] - g[batch.neg_tgt]
    slack = np.abs(dp_vec).sum(axis=1) - np.abs(dn_vec).sum(axis=1) + train_config.margin
    active = slack > 0
    loss = float(slack[active].sum())

    d_global = np.zeros_like(g)
    sp_sign = np.sign(dp_vec[active])
    sn_sign = np.sign(dn_vec[active])
    np.add.at(d_global, batch.pos_src[active], sp_sign)
    np.add.at(d_global, batch.pos_tgt[active], -sp_sign)
    np.add.at(d_global, batch.neg_src[active], -sn_sign)
    np.add.at(d_global, batch.neg_tgt[active], sn_sign)

    width = layers[0].shape[1]
    if enc_config.ablate_global_concat:
        d_layers = [np.zeros_like(layers[0]) for _ in layers[:-1]] + [d_global]
    else:
        d_layers = [d_global[:, l * width : (l + 1) * width].copy() for l in range(len(layers))]
    op_t = union_kg.mean_operator.T.tocsr()
    d_run = d_layers[-1]
    for l in range(len(layers) - 1, 0, -1):
        d_run = d_layers[l - 1] + op_t @ (d_run * (layers[l] > 0))
    if dropout_mask is not None:
        d_run = d_run * dropout_mask
    d = state.dim
    d_ent_half, d_rel_half = d_run[:, :d], d_run[:, d:]
    if enc_config.ablate_relation_fusion:
        d_ent_half = d_ent_half + d_rel_half
        grad_rel = np.zeros_like(state.relation_table)
    else:
        grad_rel = union_kg.relation_operator.T @ d_rel_half
    return loss, op_t @ d_ent_half, grad_rel


def assert_matches_scatter_oracle(state, ukg, batch, enc, trn, mask):
    loss, ge, gr = compute_gradients(state, ukg, batch, enc, trn, mask)
    ref_loss, ref_ge, ref_gr = scatter_oracle_gradients(state, ukg, batch, enc, trn, mask)
    assert loss == ref_loss
    assert np.array_equal(ge, ref_ge)
    assert np.array_equal(gr, ref_gr)


def finite_difference(state, ukg, batch, enc, trn, mask, table, h=1e-4):
    fd = np.zeros_like(table)
    it = np.nditer(table, flags=["multi_index"])
    for _ in it:
        idx = it.multi_index
        orig = table[idx]
        table[idx] = orig + h
        lp = batch_loss(state, ukg, batch, enc, trn, mask)
        table[idx] = orig - h
        lm = batch_loss(state, ukg, batch, enc, trn, mask)
        table[idx] = orig
        fd[idx] = (lp - lm) / (2 * h)
    return fd


class TestManhattan:
    def test_identity(self):
        assert manhattan_distance([1.0, 2.0], [1.0, 2.0]) == 0.0

    def test_hand_case(self):
        assert manhattan_distance([1, 2], [4, 0]) == 5.0

    def test_length_mismatch(self):
        with pytest.raises(ValueError):
            manhattan_distance([1.0], [1.0, 2.0])

    def test_random_pairs_match_loop_oracle(self):
        rng = np.random.default_rng(0)
        for _ in range(100):
            u, v = rng.normal(size=(2, 7))
            expected = sum(abs(a - b) for a, b in zip(u, v))
            assert manhattan_distance(u, v) == pytest.approx(expected)


class TestNegativeSampling:
    def test_contract_single_pair(self):
        rng = np.random.default_rng(1)
        pairs = AlignmentPairSet.from_pairs([(2, 3)])
        (neg,) = sample_negatives(pairs, (5, 5), 1, rng)
        differs = (neg[0] != 2, neg[1] != 3)
        assert sum(differs) == 1

    def test_deterministic(self):
        pairs = AlignmentPairSet.from_pairs([(0, 0), (1, 1)])
        a = sample_negatives(pairs, (5, 6), 4, np.random.default_rng(7))
        b = sample_negatives(pairs, (5, 6), 4, np.random.default_rng(7))
        assert np.array_equal(a, b)

    def test_shape_and_row_alignment(self):
        pairs = AlignmentPairSet.from_pairs([(0, 4), (3, 0), (2, 2)])
        negs = sample_negatives(pairs, (5, 6), 7, np.random.default_rng(4))
        assert negs.shape == (21, 2) and negs.dtype == np.int64
        pos = np.repeat(np.array(pairs.pairs), 7, axis=0)
        # row p*count + c corrupts pair p in exactly one side, within range
        assert np.array_equal((negs != pos).sum(axis=1), np.ones(21))
        assert ((negs >= 0) & (negs < [5, 6])).all()

    @pytest.mark.parametrize("side", [0, 1])
    def test_replacement_uniform_over_other_ids(self, side):
        # the original id sits at both ends of the range and in the middle, so
        # the skip past it is checked everywhere; the bound is the chi-square
        # quantile at 1 - 1e-6, fixed before drawing
        sizes = (5, 7)
        n = sizes[side]
        pairs = AlignmentPairSet.from_pairs([(0, 6), (4, 0), (2, 3)])
        count = 30_000
        negs = sample_negatives(pairs, sizes, count, np.random.default_rng(5)).reshape(3, count, 2)
        for p, orig in enumerate(np.array(pairs.pairs)):
            changed = negs[p, :, side] != orig[side]
            assert (negs[p, changed, 1 - side] == orig[1 - side]).all()
            observed = np.bincount(negs[p, changed, side], minlength=n)
            assert observed[orig[side]] == 0
            observed = np.delete(observed, orig[side])
            expected = changed.sum() / (n - 1)
            stat = ((observed - expected) ** 2 / expected).sum()
            assert stat < chi2.ppf(1 - 1e-6, df=n - 2)

    @pytest.mark.parametrize("sizes,name", [((1, 5), "source"), ((5, 1), "target")])
    def test_one_entity_side_rejected(self, sizes, name):
        pairs = AlignmentPairSet.from_pairs([(0, 0)])
        with pytest.raises(ValueError, match=name):
            sample_negatives(pairs, sizes, 64, np.random.default_rng(6))

    def test_replacement_never_equals_original(self):
        rng = np.random.default_rng(2)
        pairs = AlignmentPairSet.from_pairs([(1, 1)])
        for i, j in sample_negatives(pairs, (3, 3), 200, rng):
            assert (i, j) != (1, 1)
            assert i == 1 or j == 1

    def test_side_frequencies_near_half(self):
        rng = np.random.default_rng(3)
        pairs = AlignmentPairSet.from_pairs([(0, 0)])
        draws = 100_000
        negs = sample_negatives(pairs, (50, 50), draws, rng)
        left = sum(1 for i, _ in negs if i != 0)
        sigma = 0.5 * np.sqrt(draws)
        assert abs(left - draws / 2) < 3 * sigma


class TestTripletBatch:
    def test_build_is_row_aligned_in_union_space(self):
        pairs = AlignmentPairSet.from_pairs([(0, 1), (2, 0)])
        negs = np.array([[3, 1], [0, 2], [2, 4], [1, 0]])
        batch = TripletBatch.build(pairs, negs, entity_offset=10)
        assert np.array_equal(batch.pos_src, [0, 0, 2, 2])
        assert np.array_equal(batch.pos_tgt, [11, 11, 10, 10])
        assert np.array_equal(batch.neg_src, [3, 0, 2, 1])
        assert np.array_equal(batch.neg_tgt, [11, 12, 14, 10])

    def test_partial_multiple_rejected(self):
        pairs = AlignmentPairSet.from_pairs([(0, 1), (2, 0)])
        with pytest.raises(ValueError, match="multiple"):
            TripletBatch.build(pairs, np.zeros((3, 2), dtype=np.int64), 10)


class TestTripletLoss:
    def test_inactive_hinge(self):
        assert triplet_loss([1.0], [5.0], 3.0) == 0.0

    def test_hand_case(self):
        assert triplet_loss([4.0], [2.0], 3.0) == 5.0

    def test_length_mismatch(self):
        with pytest.raises(ValueError):
            triplet_loss([1.0, 2.0], [1.0], 3.0)

    def test_batch_matches_elementwise_oracle(self):
        rng = np.random.default_rng(4)
        dp, dn = rng.uniform(0, 5, size=(2, 20))
        expected = sum(max(p - n + 1.5, 0.0) for p, n in zip(dp, dn))
        assert triplet_loss(dp, dn, 1.5) == pytest.approx(expected)


class TestGradients:
    def test_inactive_batch_gives_zero_gradients(self):
        state, ukg, batch, enc, _, _ = random_instance(2)
        trn = TrainConfig(margin=1e-9, dropout_rate=0.0)
        # positive distance 0 (entity paired with itself) against a distinct
        # negative: every hinge is inactive
        degenerate = TripletBatch(batch.pos_src, batch.pos_src, batch.pos_src, batch.pos_tgt)
        loss, ge, gr = compute_gradients(state, ukg, degenerate, enc, trn)
        assert loss == 0.0
        assert not ge.any() and not gr.any()

    def test_one_dimensional_closed_form(self):
        # two isolated entities per graph, one layer, width-1 tables: the
        # distance reduces to |E_i - E_j| and the gradient to routed signs
        kg1 = TemporalKG.build([], 2, 1)
        kg2 = TemporalKG.build([], 2, 1)
        enc = EncoderConfig(dim=1, layers=1, init_seed=0)
        trn = TrainConfig(margin=3.0, dropout_rate=0.0)
        state = init_embeddings(enc, 4, 2)
        a, _, c, d = state.entity_table.ravel()
        batch = TripletBatch(
            np.array([0]), np.array([2]), np.array([0]), np.array([3])
        )
        loss, ge, gr = compute_gradients(state, union_graph(kg1, kg2), batch, enc, trn)
        slack = abs(a - c) - abs(a - d) + 3.0
        assert loss == pytest.approx(max(slack, 0.0))
        assert not gr.any()
        if slack > 0:
            expected = np.zeros(4)
            expected[0] = np.sign(a - c) - np.sign(a - d)
            expected[2] = -np.sign(a - c)
            expected[3] = np.sign(a - d)
            assert np.allclose(ge.ravel(), expected)

    # seeds 0, 5, 10 ablate relation fusion and 0, 7, 14 the global concat
    @pytest.mark.parametrize("seed", range(15))
    @pytest.mark.parametrize("layers,dropout", [(1, False), (2, True), (3, False)])
    def test_incidence_product_equals_scatter_oracle(self, seed, layers, dropout):
        assert_matches_scatter_oracle(*random_instance(seed, layers, dropout))

    @pytest.mark.parametrize("seed", range(6))
    def test_pairs_sharing_entities_equal_scatter_oracle(self, seed):
        pairs = [(0, 0), (0, 1), (1, 0), (2, 2), (2, 0), (3, 1)]
        assert_matches_scatter_oracle(*random_instance(seed, 2, bool(seed % 2), pairs))

    def test_repeated_positives_with_different_hinge_counts(self):
        state, ukg, batch, enc, _, mask = random_instance(1, 2, True)
        g = forward(state, ukg, enc, mask)
        n1 = int(batch.pos_tgt[0] - batch.pos_src[0])
        rng = np.random.default_rng(8)
        # two positives repeated out of order, each against random negatives
        pos_src = np.array([0, 1, 0, 0, 1, 0, 1, 1, 0])
        pos_tgt = pos_src + n1 + 1
        neg_src = rng.integers(n1, size=9)
        neg_tgt = rng.integers(n1, ukg.entity_count, size=9)
        batch = TripletBatch(pos_src, pos_tgt, neg_src, neg_tgt)
        d_pos = np.abs(g[pos_src] - g[pos_tgt]).sum(axis=1)
        d_neg = np.abs(g[neg_src] - g[neg_tgt]).sum(axis=1)
        gaps = np.sort(d_neg - d_pos)
        # pick the margin splitting the hinges so the two positives end up
        # with different, non-zero counts of active hinges
        for margin in (gaps[1:] + gaps[:-1]) / 2:
            if margin <= 0:
                continue
            active = d_pos - d_neg + margin > 0
            counts = [active[pos_src == p].sum() for p in (0, 1)]
            if min(counts) > 0 and counts[0] != counts[1]:
                break
        else:
            pytest.fail("no margin gives distinct non-zero hinge counts")
        trn = TrainConfig(margin=float(margin), dropout_rate=0.3)
        assert_matches_scatter_oracle(state, ukg, batch, enc, trn, mask)

    # seeds 0, 5, 10 ablate relation fusion and 0, 7, 14 the global concat
    # hinge_rows: rows per block of the hinge pass (None: the default size,
    # which holds every pair here)
    @pytest.mark.parametrize("seed", range(15))
    @pytest.mark.parametrize("layers", [1, 2, 3])
    @pytest.mark.parametrize("dropout", [False, True])
    @pytest.mark.parametrize("hinge_rows", [None, 1, 3])
    def test_in_place_epoch_equals_list_oracle(self, seed, layers, dropout, hinge_rows,
                                               monkeypatch):
        state, ukg, batch, enc, trn, mask = random_instance(seed, layers, dropout)
        if hinge_rows is not None:
            width = 2 * enc.dim * (1 if enc.ablate_global_concat else enc.layers)
            monkeypatch.setattr(encoder, "_ROW_BLOCK_BYTES", hinge_rows * width * 8)
        loss, ge, gr = compute_gradients(state, ukg, batch, enc, trn, mask)
        ref_loss, ref_ge, ref_gr = list_oracle_gradients(state, ukg, batch, enc, trn, mask)
        assert loss == ref_loss
        assert np.array_equal(ge, ref_ge)
        assert np.array_equal(gr, ref_gr)

    # seed 0 ablates both, 5 relation fusion and 7 the global concat; "none"
    # leaves no hinge live and "all" makes every pair live
    @pytest.mark.parametrize("seed", [0, 5, 7, 1, 2])
    @pytest.mark.parametrize("layers", [1, 2, 3])
    @pytest.mark.parametrize("dropout", [False, True])
    @pytest.mark.parametrize("live", ["some", "none", "all"])
    def test_nan_filled_layer_buffer_equals_list_oracle(self, seed, layers, dropout, live):
        state, ukg, batch, enc, trn, mask = random_instance(seed, layers, dropout)
        if live == "none":
            # every positive pairs an entity with itself, at distance 0
            batch = TripletBatch(batch.pos_src, batch.pos_src, batch.pos_src, batch.pos_tgt)
            trn = dataclasses.replace(trn, margin=1e-9)
        elif live == "all":
            trn = dataclasses.replace(trn, margin=1e6)
        layers_out = np.full((ukg.entity_count, 2 * enc.dim * enc.layers), np.nan)
        loss, ge, gr = compute_gradients(state, ukg, batch, enc, trn, mask, layers_out=layers_out)
        ref_loss, ref_ge, ref_gr = list_oracle_gradients(state, ukg, batch, enc, trn, mask)
        assert loss == ref_loss
        assert np.array_equal(ge, ref_ge)
        assert np.array_equal(gr, ref_gr)
        if live == "none":
            assert loss == 0.0 and not ge.any() and not gr.any()
        elif live == "all":
            assert loss > 0 and ge.any()

    @pytest.mark.parametrize("seed", [0, 3, 7])
    def test_reused_buffers_across_pool_sizes_equal_list_oracle(self, seed):
        state, ukg, batch, enc, trn, _ = random_instance(seed, layers=3, dropout=True)
        n1 = int(batch.pos_tgt[0] - batch.pos_src[0])
        sizes = (n1, ukg.entity_count - n1)
        # NaN-filled, so a value the pass does not write shows in the result
        layers_out = np.full((ukg.entity_count, 2 * enc.dim * enc.layers), np.nan)
        mask_out = np.ones((ukg.entity_count, 2 * enc.dim), dtype=bool)
        opt = OptimizerState.zeros_like(state)
        rng = np.random.default_rng(seed)
        for count in (4, 1, 3, 2):
            pairs = AlignmentPairSet.from_pairs([(i, i) for i in range(count)])
            batch = TripletBatch.build(pairs, sample_negatives(pairs, sizes, 3, rng), n1)
            mask = make_dropout_mask(rng, mask_out.shape, trn.dropout_rate, out=mask_out)
            loss, ge, gr = compute_gradients(state, ukg, batch, enc, trn, mask, layers_out=layers_out)
            ref_loss, ref_ge, ref_gr = list_oracle_gradients(state, ukg, batch, enc, trn, mask)
            assert loss == ref_loss
            assert np.array_equal(ge, ref_ge)
            assert np.array_equal(gr, ref_gr)
            oracle_optimizer_step(state, opt, ref_ge, ref_gr, trn)  # the next pass sees new tables

    # np.take copies a source that is not C-contiguous whole before it
    # gathers; every gather of an epoch must read its array in place
    @pytest.mark.parametrize("layers", [1, 2, 3])
    @pytest.mark.parametrize("dropout", [False, True])
    @pytest.mark.parametrize("fusion,concat", [(False, False), (True, False), (False, True)])
    def test_every_gather_reads_contiguous_memory(self, layers, dropout, fusion, concat,
                                                  monkeypatch):
        state, ukg, batch, enc, trn, mask = random_instance(1, layers, dropout)
        enc = dataclasses.replace(enc, ablate_relation_fusion=fusion, ablate_global_concat=concat)
        trn = dataclasses.replace(trn, margin=1e6)  # every pair live
        take, strided = np.take, []

        def checked_take(a, *args, **kwargs):
            if not a.flags.c_contiguous:
                strided.append(a.shape)
            return take(a, *args, **kwargs)

        monkeypatch.setattr(np, "take", checked_take)
        loss, ge, gr = compute_gradients(state, ukg, batch, enc, trn, mask)
        monkeypatch.undo()
        assert not strided
        ref_loss, ref_ge, ref_gr = list_oracle_gradients(state, ukg, batch, enc, trn, mask)
        assert loss == ref_loss
        assert np.array_equal(ge, ref_ge)
        assert np.array_equal(gr, ref_gr)

    # the dropout draw, the hinge pass and RMSProp run in row blocks of
    # encoder._ROW_BLOCK_BYTES; "none" leaves no hinge live
    @pytest.mark.parametrize("layers", [1, 2, 3])
    @pytest.mark.parametrize("fusion,concat", [(False, False), (True, False), (False, True),
                                               (True, True)])
    @pytest.mark.parametrize("live", ["some", "none"])
    def test_epoch_is_invariant_to_the_row_block(self, layers, fusion, concat, live,
                                                 monkeypatch):
        state, ukg, batch, enc, trn, _ = random_instance(2, layers, dropout=True)
        enc = dataclasses.replace(enc, ablate_relation_fusion=fusion, ablate_global_concat=concat)
        if live == "none":
            batch = TripletBatch(batch.pos_src, batch.pos_src, batch.pos_src, batch.pos_tgt)
            trn = dataclasses.replace(trn, margin=1e-9)
        d = enc.dim
        width = 2 * d * (1 if concat else layers)
        # 1-row blocks in every pass, 3-row blocks in RMSProp, the dropout
        # draw and the hinge pass in turn, then the default
        sizes = [8, 3 * 8 * d, 3 * 8 * 2 * d, 3 * 8 * width, encoder._ROW_BLOCK_BYTES]
        acc_rng = np.random.default_rng(5)
        acc = OptimizerState(acc_rng.random(state.entity_table.shape),
                             acc_rng.random(state.relation_table.shape))
        results = []
        for size in sizes:
            monkeypatch.setattr(encoder, "_ROW_BLOCK_BYTES", size)
            st, opt = state.copy(), OptimizerState(acc.acc_entity.copy(), acc.acc_relation.copy())
            mask = make_dropout_mask(np.random.default_rng(9), (ukg.entity_count, 2 * d),
                                     trn.dropout_rate)
            loss, ge, gr = compute_gradients(st, ukg, batch, enc, trn, mask)
            grads = (ge.copy(), gr.copy())
            optimizer_step(st, opt, ge, gr, trn)
            results.append((loss, mask, *grads, st.entity_table, st.relation_table,
                            opt.acc_entity, opt.acc_relation))
        for result in results[:-1]:
            assert result[0] == results[-1][0]
            for got, want in zip(result[1:], results[-1][1:]):
                assert np.array_equal(got, want)
        assert (results[0][0] == 0.0) == (live == "none")

    @pytest.mark.parametrize("seed,layers,dropout", [(0, 1, False), (1, 2, False), (3, 2, True)])
    def test_finite_difference_agreement(self, seed, layers, dropout):
        state, ukg, batch, enc, trn, mask = random_instance(seed, layers, dropout)
        _, ge, gr = compute_gradients(state, ukg, batch, enc, trn, mask)
        for table, grad in ((state.entity_table, ge), (state.relation_table, gr)):
            fd = finite_difference(state, ukg, batch, enc, trn, mask, table)
            err = np.abs(grad - fd) / np.maximum(np.abs(grad) + np.abs(fd), 1e-3)
            assert err.max() <= 1e-3


def expect_batch_rejected(field, value):
    """compute_gradients on a batch whose first `field` id is `value` (the
    union's size for None) raises ValueError naming that pair."""
    state, ukg, batch, enc, trn, mask = random_instance(0)
    ids = getattr(batch, field).copy()
    ids[0] = ukg.entity_count if value is None else value
    batch = dataclasses.replace(batch, **{field: ids})
    side = field[:4]
    pair = (getattr(batch, side + "src")[0], getattr(batch, side + "tgt")[0])
    n = ukg.entity_count
    with pytest.raises(ValueError, match=rf"^batch pair \({pair[0]}, {pair[1]}\) is outside "
                                         rf"\[0, {n}\) x \[0, {n}\)$"):
        compute_gradients(state, ukg, batch, enc, trn, mask)


@pytest.mark.parametrize("field", ["pos_src", "pos_tgt", "neg_src", "neg_tgt"])
@pytest.mark.parametrize("value", [-1, None])
def test_a_batch_id_outside_the_union_is_rejected(field, value):
    if value is None:
        expect_batch_rejected(field, value)
        return
    # a negative id reaches scipy's product unchecked, which can corrupt
    # the heap and abort the interpreter: run it in a fresh one
    here = Path(__file__).resolve().parent
    env = dict(os.environ, PYTHONPATH=os.pathsep.join([str(here.parent / "src"), str(here)]))
    call = f"import test_trainer; test_trainer.expect_batch_rejected({field!r}, -1)"
    proc = subprocess.run([sys.executable, "-c", call], env=env, capture_output=True, text=True,
                          timeout=120)
    assert proc.returncode == 0, proc.stderr[-2000:]


class TestOptimizer:
    def make(self, value=1.0):
        enc = EncoderConfig(dim=2, init_scale=value)
        state = init_embeddings(enc, 3, 2)
        return state, OptimizerState.zeros_like(state)

    def test_zero_gradient_no_change(self):
        state, opt = self.make()
        before = state.copy()
        optimizer_step(state, opt, np.zeros((3, 2)), np.zeros((2, 2)), TrainConfig())
        assert np.array_equal(state.entity_table, before.entity_table)

    def test_first_step_closed_form(self):
        state, opt = self.make()
        before = state.copy()
        cfg = TrainConfig(learning_rate=0.005, optimizer_decay=0.9, optimizer_epsilon=1e-8)
        optimizer_step(state, opt, np.ones((3, 2)), np.zeros((2, 2)), cfg)
        step = 0.005 / (np.sqrt(0.1) + 1e-8)
        assert np.allclose(before.entity_table - state.entity_table, step)

    def test_trajectory_matches_scalar_oracle(self):
        cfg = TrainConfig(learning_rate=0.01, optimizer_decay=0.9, optimizer_epsilon=1e-8)
        state = init_embeddings(EncoderConfig(dim=1), 1, 1)
        state.entity_table[:] = 0.0
        opt = OptimizerState.zeros_like(state)
        rng = np.random.default_rng(5)
        grads = rng.normal(size=10)

        # independent scalar re-implementation
        p, acc = 0.0, 0.0
        for g in grads:
            acc = 0.9 * acc + 0.1 * g * g
            p -= 0.01 * g / (np.sqrt(acc) + 1e-8)

        for g in grads:
            optimizer_step(state, opt, np.array([[g]]), np.zeros((1, 1)), cfg)
        assert state.entity_table[0, 0] == pytest.approx(p, rel=1e-12)


class TestTrainConfig:
    @pytest.mark.parametrize("field,value", [
        ("epochs", -1),
        ("epochs", 2.5),
        ("epochs", True),
        ("negatives_per_pair", 0),
        ("negatives_per_pair", 5.0),
        ("rng_seed", 0.5),
        ("optimizer_decay", 1.5),
        ("optimizer_decay", 1.0),
        ("optimizer_decay", -0.1),
        ("optimizer_epsilon", -1.0),
        ("optimizer_epsilon", 0.0),
        ("optimizer_epsilon", float("nan")),
    ])
    def test_bad_value_rejected(self, field, value):
        with pytest.raises(ValueError, match=field):
            TrainConfig(**{field: value})

    def test_boundary_values_accepted(self):
        TrainConfig(epochs=0, negatives_per_pair=1, optimizer_decay=0.0, optimizer_epsilon=1e-300)

    @pytest.mark.parametrize("field,value", [
        ("margin", float("inf")),
        ("margin", "abc"),
        ("learning_rate", True),
        ("dropout_rate", "0.3"),
        ("optimizer_decay", np.bool_(False)),
        ("optimizer_epsilon", float("inf")),
    ])
    def test_wrong_type_rejected(self, field, value):
        with pytest.raises(ValueError, match=field):
            TrainConfig(**{field: value})

    def test_integer_and_numpy_floats_accepted(self):
        TrainConfig(margin=3, learning_rate=np.float32(0.01), dropout_rate=np.float64(0.0))


def random_union(n_per_side, seed):
    """A random graph pair of `n_per_side` entities each and its union."""
    rng = np.random.default_rng(seed)
    kgs = []
    for _ in range(2):
        facts = 4 * n_per_side
        quads = np.column_stack([
            rng.integers(n_per_side, size=facts), rng.integers(8, size=facts),
            rng.integers(n_per_side, size=facts), np.ones((facts, 2), dtype=np.int64),
        ])
        kgs.append(TemporalKG.build(quads, n_per_side, 8))
    return union_graph(*kgs)


def train(state, kg1, kg2, seeds, enc, trn):
    """Train the tables on a graph pair through `train_on_union`; returns
    (state, loss trajectory)."""
    losses = train_on_union(
        state, union_graph(kg1, kg2), (kg1.entity_count, kg2.entity_count), seeds, enc, trn
    )
    return state, losses


def toy_pair():
    kg1 = TemporalKG.build([Quadruple(0, 0, 1, P(1))], 2, 1)
    kg2 = TemporalKG.build([Quadruple(0, 0, 1, P(1))], 2, 1)
    return kg1, kg2


class TestTrain:
    def test_empty_seeds_rejected(self):
        kg1, kg2 = toy_pair()
        enc = EncoderConfig(dim=2)
        state = init_embeddings(enc, 4, 2)
        with pytest.raises(ValueError, match="seed"):
            train(state, kg1, kg2, AlignmentPairSet.from_pairs([]), enc, TrainConfig())

    @pytest.mark.parametrize("pair", [(60, 0), (0, 60), (-1, 0)], ids=["source", "target", "negative"])
    def test_seed_outside_its_graph_rejected(self, pair):
        # (60, 0) would pass as union id 60, entity 0 of the second graph
        ukg = random_union(60, seed=0)
        enc = EncoderConfig(dim=4, init_seed=0)
        state = init_embeddings(enc, 120, 8)
        before = state.copy()
        seeds = AlignmentPairSet.from_pairs([(1, 1), pair])
        with pytest.raises(ValueError, match=r"seed pair \(-?\d+, \d+\) is outside \[0, 60\) x \[0, 60\)"):
            train_on_union(state, ukg, (60, 60), seeds, enc, TrainConfig(epochs=2))
        assert np.array_equal(state.entity_table, before.entity_table)

    def test_zero_epochs_leaves_state_unchanged(self):
        kg1, kg2 = toy_pair()
        enc = EncoderConfig(dim=2, init_seed=0)
        state = init_embeddings(enc, 4, 2)
        before = state.copy()
        train(state, kg1, kg2, AlignmentPairSet.from_pairs([(0, 0)]), enc, TrainConfig(epochs=0))
        assert np.array_equal(state.entity_table, before.entity_table)

    def test_deterministic(self):
        kg1, kg2 = toy_pair()
        enc = EncoderConfig(dim=3, init_seed=1)
        cfg = TrainConfig(epochs=30, rng_seed=9)
        seeds = AlignmentPairSet.from_pairs([(0, 0)])
        s1, l1 = train(init_embeddings(enc, 4, 2), kg1, kg2, seeds, enc, cfg)
        s2, l2 = train(init_embeddings(enc, 4, 2), kg1, kg2, seeds, enc, cfg)
        assert np.array_equal(s1.entity_table, s2.entity_table)
        assert l1 == l2

    def test_losses_nonnegative(self):
        kg1, kg2 = toy_pair()
        enc = EncoderConfig(dim=3, init_seed=2)
        state = init_embeddings(enc, 4, 2)
        _, losses = train(state, kg1, kg2, AlignmentPairSet.from_pairs([(0, 0)]), enc,
                          TrainConfig(epochs=50))
        assert all(l >= 0 for l in losses)

    def test_toy_converges_to_zero_loss(self):
        kg1 = TemporalKG.build([], 2, 1)
        kg2 = TemporalKG.build([], 2, 1)
        enc = EncoderConfig(dim=4, init_seed=3)
        cfg = TrainConfig(epochs=200, learning_rate=0.05, dropout_rate=0.0, rng_seed=0)
        state = init_embeddings(enc, 4, 2)
        _, losses = train(state, kg1, kg2, AlignmentPairSet.from_pairs([(0, 0)]), enc, cfg)
        assert min(losses) == 0.0

    # seed 0 ablates both, 5 relation fusion and 7 the global concat
    @pytest.mark.parametrize("seed,layers,dropout", [
        (0, 2, True), (5, 3, True), (7, 3, False), (1, 1, True), (2, 2, False), (3, 3, True),
    ])
    def test_train_on_union_equals_oracle_epoch_loop(self, seed, layers, dropout):
        state, ukg, batch, enc, trn, _ = random_instance(seed, layers, dropout)
        n1 = int(batch.pos_tgt[0] - batch.pos_src[0])
        sizes = (n1, ukg.entity_count - n1)
        seeds = AlignmentPairSet.from_pairs([(i, i) for i in range(min(*sizes, 4))])
        trn = dataclasses.replace(trn, epochs=5)
        ref = state.copy()
        losses = train_on_union(state, ukg, sizes, seeds, enc, trn)
        assert losses == oracle_epochs(ref, ukg, sizes, seeds, enc, trn)
        assert np.array_equal(state.entity_table, ref.entity_table)
        assert np.array_equal(state.relation_table, ref.relation_table)

    def test_epoch_peaks_a_layer_buffer_below_the_oracle(self):
        n = 1000
        ukg = random_union(n, seed=0)
        enc = EncoderConfig(dim=32, layers=2, init_seed=0)
        trn = TrainConfig(epochs=1, rng_seed=0)
        seeds = AlignmentPairSet.from_pairs([(i, i) for i in range(300)])
        peaks = []
        for run in (train_on_union, oracle_epochs):
            state = init_embeddings(enc, 2 * n, 16)
            tracemalloc.start()
            try:
                run(state, ukg, (n, n), seeds, enc, trn)
                peaks.append(tracemalloc.get_traced_memory()[1])
            finally:
                tracemalloc.stop()
        layer_buffer = 2 * n * 2 * enc.dim * enc.layers * 8
        assert peaks[0] <= peaks[1] - layer_buffer, peaks

    def test_epochs_hold_one_entity_gradient(self):
        # an epoch's gradients are dropped once applied, so later epochs
        # peak where the first does, not one |E| x d array above it
        n = 1000
        ukg = random_union(n, seed=0)
        ukg.mean_operator, ukg.relation_operator  # cached by the first epoch otherwise
        enc = EncoderConfig(dim=32, layers=2, init_seed=0)
        seeds = AlignmentPairSet.from_pairs([(i, i) for i in range(300)])
        peaks = []
        for epochs in (1, 3):
            state = init_embeddings(enc, 2 * n, 16)
            tracemalloc.start()
            try:
                train_on_union(state, ukg, (n, n), seeds, enc, TrainConfig(epochs=epochs, rng_seed=0))
                peaks.append(tracemalloc.get_traced_memory()[1])
            finally:
                tracemalloc.stop()
        gradient = 2 * n * enc.dim * 8
        assert peaks[1] - peaks[0] < gradient / 2, peaks

    def test_parameter_count(self):
        kg1, kg2 = toy_pair()
        enc = EncoderConfig(dim=7)
        state = init_embeddings(enc, kg1.entity_count + kg2.entity_count,
                                kg1.relation_count + kg2.relation_count)
        n = kg1.entity_count + kg2.entity_count + kg1.relation_count + kg2.relation_count
        assert state.parameter_count == n * 7
