import numpy as np
import pytest
from scipy.stats import chi2

from tkgalign.encoder import (
    EncoderConfig,
    forward_layers,
    global_embedding,
    init_embeddings,
    make_dropout_mask,
)
from tkgalign.kg import AlignmentPairSet, TemporalKG, union_graph
from tkgalign.trainer import (
    OptimizerState,
    TrainConfig,
    TripletBatch,
    batch_loss,
    compute_gradients,
    manhattan_distance,
    optimizer_step,
    sample_negatives,
    train,
    triplet_loss,
)


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


def scatter_oracle_gradients(state, union_kg, batch, enc_config, train_config, dropout_mask=None):
    """Reference gradients: every triplet row scored on its own and its sign
    vectors scattered row by row with np.add.at."""
    layers = forward_layers(state, union_kg, enc_config, dropout_mask)
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
        g = global_embedding(forward_layers(state, ukg, enc, mask))
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

    @pytest.mark.parametrize("seed,layers,dropout", [(0, 1, False), (1, 2, False), (3, 2, True)])
    def test_finite_difference_agreement(self, seed, layers, dropout):
        state, ukg, batch, enc, trn, mask = random_instance(seed, layers, dropout)
        _, ge, gr = compute_gradients(state, ukg, batch, enc, trn, mask)
        for table, grad in ((state.entity_table, ge), (state.relation_table, gr)):
            fd = finite_difference(state, ukg, batch, enc, trn, mask, table)
            err = np.abs(grad - fd) / np.maximum(np.abs(grad) + np.abs(fd), 1e-3)
            assert err.max() <= 1e-3


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
        enc = EncoderConfig(dim=1, init_scale=0.0)
        state = init_embeddings(enc, 1, 1)
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

    def test_parameter_count(self):
        kg1, kg2 = toy_pair()
        enc = EncoderConfig(dim=7)
        state = init_embeddings(enc, kg1.entity_count + kg2.entity_count,
                                kg1.relation_count + kg2.relation_count)
        n = kg1.entity_count + kg2.entity_count + kg1.relation_count + kg2.relation_count
        assert state.parameter_count == n * 7
