import numpy as np
import pytest
import scipy.sparse as sp

from tkgalign import encoder
from tkgalign.encoder import (
    EmbeddingState,
    EncoderConfig,
    forward,
    forward_layers,
    init_embeddings,
    make_dropout_mask,
    product_into,
)
from tkgalign.kg import TemporalKG


def P(t):
    return (t, t)


def Quadruple(head, relation, tail, time):
    return [head, relation, tail, *time]


def naive_structure(kg):
    """Neighbor sets (self included) and incident relation multisets per
    entity, accumulated fact by fact from the graph's raw rows."""
    neighbors = [{e} for e in range(kg.entity_count)]
    relations = [[] for _ in range(kg.entity_count)]
    for head, relation, tail, _, _ in kg.quadruples.tolist():
        neighbors[head].add(tail)
        neighbors[tail].add(head)
        relations[head].append(relation)
        relations[tail].append(relation)
    return neighbors, relations


def global_embedding(layer_outputs, ablate_global_concat=False):
    """Concatenate all layer outputs row-wise; with the ablation flag only
    the last layer is returned."""
    if not layer_outputs:
        raise ValueError("need at least one layer output")
    if ablate_global_concat or len(layer_outputs) == 1:
        return layer_outputs[-1]
    return np.hstack(layer_outputs)


def fuse_features(state: EmbeddingState, kg: TemporalKG, config: EncoderConfig) -> np.ndarray:
    """Layer-1 features: [mean neighbor embedding || mean relation embedding]
    per entity, width 2d. Entities with no incident relations get a zero
    relational half. With ablate_relation_fusion the relational half is a
    second copy of the structural half (width preserved)."""
    d = state.dim
    out = np.empty((kg.entity_count, 2 * d))
    out[:, :d] = kg.mean_operator @ state.entity_table
    if config.ablate_relation_fusion:
        out[:, d:] = out[:, :d]
    else:
        out[:, d:] = kg.relation_operator @ state.relation_table
    return out


def aggregate_layer(prev: np.ndarray, kg: TemporalKG) -> np.ndarray:
    """One aggregation step: rectified neighborhood mean of the previous
    layer's rows (self included)."""
    return np.maximum(kg.mean_operator @ prev, 0.0)


def list_forward_layers(state, kg, config, dropout_mask=None):
    """Reference forward pass: each layer a fresh array, fused layer first."""
    h1 = fuse_features(state, kg, config)
    if dropout_mask is not None:
        h1 = h1 * dropout_mask
    layers = [h1]
    for _ in range(config.layers - 1):
        layers.append(aggregate_layer(layers[-1], kg))
    return layers


def random_kg(rng, n=15, m=4, edges=30):
    quads = [
        Quadruple(int(rng.integers(n)), int(rng.integers(m)), int(rng.integers(n)), P(1))
        for _ in range(edges)
    ]
    return TemporalKG.build(quads, n, m)


class TestInit:
    def test_same_seed_bit_identical(self):
        cfg = EncoderConfig(dim=8, init_seed=42)
        a = init_embeddings(cfg, 10, 3)
        b = init_embeddings(cfg, 10, 3)
        assert np.array_equal(a.entity_table, b.entity_table)
        assert np.array_equal(a.relation_table, b.relation_table)

    def test_sample_mean_near_zero(self):
        st = init_embeddings(EncoderConfig(dim=1000, init_seed=0, init_scale=0.5), 1000, 1)
        vals = st.entity_table.ravel()
        stderr = 0.5 / np.sqrt(3 * len(vals))  # uniform(-s, s) has sd s/sqrt(3)
        assert abs(vals.mean()) < 3 * stderr

    def test_bounds_respected(self):
        st = init_embeddings(EncoderConfig(dim=16, init_scale=0.1), 50, 5)
        assert np.abs(st.entity_table).max() <= 0.1


class TestEncoderConfig:
    @pytest.mark.parametrize("field,value", [
        ("dim", 0),
        ("dim", 8.5),
        ("dim", True),
        ("layers", 2.0),
        ("init_seed", 0.5),
        ("init_scale", 0.0),
        ("init_scale", -1),
        ("init_scale", float("nan")),
        ("init_scale", float("inf")),
    ])
    def test_bad_value_rejected(self, field, value):
        with pytest.raises(ValueError, match=field):
            EncoderConfig(**{field: value})

    def test_numpy_integers_accepted(self):
        EncoderConfig(dim=np.int64(4), layers=np.int32(1), init_seed=np.uint8(3), init_scale=1e-300)

    @pytest.mark.parametrize("field,value", [
        ("ablate_relation_fusion", "false"),
        ("ablate_relation_fusion", 0),
        ("ablate_global_concat", "false"),
        ("ablate_global_concat", 1.0),
        ("init_scale", True),
        ("init_scale", "0.1"),
    ])
    def test_wrong_type_rejected(self, field, value):
        with pytest.raises(ValueError, match=field):
            EncoderConfig(**{field: value})

    def test_numpy_bools_and_floats_accepted(self):
        config = EncoderConfig(ablate_relation_fusion=np.bool_(True), init_scale=np.float32(0.5))
        assert config.ablate_relation_fusion and not config.ablate_global_concat


class TestFusion:
    def test_isolated_entity(self):
        kg = TemporalKG.build([], 3, 2)
        st = init_embeddings(EncoderConfig(dim=4, init_seed=1), 3, 2)
        fused = fuse_features(st, kg, EncoderConfig(dim=4))
        assert np.allclose(fused[:, :4], st.entity_table)  # mean over {self}
        assert not fused[:, 4:].any()  # no incident relations

    def test_two_neighbor_mean(self):
        kg = TemporalKG.build([Quadruple(0, 0, 1, P(1))], 2, 1)
        st = init_embeddings(EncoderConfig(dim=3, init_seed=2), 2, 1)
        fused = fuse_features(st, kg, EncoderConfig(dim=3))
        expected = (st.entity_table[0] + st.entity_table[1]) / 2
        assert np.allclose(fused[0, :3], expected)
        assert np.allclose(fused[1, :3], expected)
        assert np.allclose(fused[0, 3:], st.relation_table[0])

    def test_matches_naive_loop(self):
        rng = np.random.default_rng(9)
        kg = random_kg(rng)
        cfg = EncoderConfig(dim=5, init_seed=3)
        st = init_embeddings(cfg, 15, 4)
        fused = fuse_features(st, kg, cfg)
        neighbors, relations = naive_structure(kg)
        for e in range(15):
            he = np.mean([st.entity_table[x] for x in neighbors[e]], axis=0)
            rels = relations[e]
            hr = (
                np.mean([st.relation_table[r] for r in rels], axis=0)
                if rels
                else np.zeros(5)
            )
            assert np.allclose(fused[e], np.concatenate([he, hr]), atol=1e-12)

    def test_relation_ablation_copies_structural_half(self):
        rng = np.random.default_rng(10)
        kg = random_kg(rng)
        cfg = EncoderConfig(dim=5, init_seed=4, ablate_relation_fusion=True)
        st = init_embeddings(cfg, 15, 4)
        fused = fuse_features(st, kg, cfg)
        assert np.array_equal(fused[:, :5], fused[:, 5:])


class TestAggregation:
    def test_self_loop_only(self):
        kg = TemporalKG.build([], 2, 1)
        x = np.array([[1.0, -2.0], [3.0, 0.5]])
        assert np.array_equal(aggregate_layer(x, kg), np.maximum(x, 0))

    def test_two_node_mean(self):
        kg = TemporalKG.build([Quadruple(0, 0, 1, P(1))], 2, 1)
        u, v = np.array([2.0, 4.0]), np.array([0.0, 2.0])
        out = aggregate_layer(np.stack([u, v]), kg)
        assert np.allclose(out[0], (u + v) / 2)
        assert np.allclose(out[1], (u + v) / 2)

    def test_matches_dense_oracle(self):
        rng = np.random.default_rng(11)
        kg = random_kg(rng)
        x = rng.normal(size=(15, 6))
        dense = np.maximum(np.diag(1.0 / kg.degree) @ kg.adjacency.toarray() @ x, 0)
        assert np.allclose(aggregate_layer(x, kg), dense, atol=1e-10)

    def test_convex_hull_row_property(self):
        # without the rectifier each output row is a mean of neighborhood rows
        rng = np.random.default_rng(12)
        kg = random_kg(rng)
        x = rng.uniform(1.0, 2.0, size=(15, 3))  # positive input: relu inactive
        out = aggregate_layer(x, kg)
        neighbors, _ = naive_structure(kg)
        for e in range(15):
            rows = x[sorted(neighbors[e])]
            assert np.all(out[e] >= rows.min(axis=0) - 1e-12)
            assert np.all(out[e] <= rows.max(axis=0) + 1e-12)


class TestGlobal:
    def test_single_layer_identity(self):
        x = np.random.default_rng(0).normal(size=(4, 6))
        assert global_embedding([x]) is x

    def test_width_arithmetic(self):
        layers = [np.zeros((5, 6)), np.zeros((5, 6))]
        assert global_embedding(layers).shape == (5, 12)

    def test_slices_reproduce_layers(self):
        rng = np.random.default_rng(13)
        layers = [rng.normal(size=(7, 4)) for _ in range(3)]
        g = global_embedding(layers)
        for l, x in enumerate(layers):
            assert np.array_equal(g[:, 4 * l : 4 * (l + 1)], x)

    def test_ablation_returns_last_layer(self):
        layers = [np.ones((3, 2)), np.full((3, 2), 5.0)]
        assert np.array_equal(global_embedding(layers, ablate_global_concat=True), layers[-1])


class TestForward:
    def test_pure_and_deterministic(self):
        rng = np.random.default_rng(14)
        kg = random_kg(rng)
        cfg = EncoderConfig(dim=4, layers=2, init_seed=5)
        st = init_embeddings(cfg, 15, 4)
        assert np.array_equal(forward(st, kg, cfg), forward(st, kg, cfg))

    @pytest.mark.parametrize("rate", [0.0, 0.1, 0.5, 0.9])
    def test_dropout_mask_equals_the_cast_and_divide_expression(self, rate):
        """The keep bits times the scale are the float mask of one draw,
        bit for bit, drawn into a buffer or not; the generator is left where
        that draw leaves it; and applying the bits then the scale multiplies
        by that mask bit for bit, signed zeros and infinities included."""
        shape = (400, 12)  # several row blocks of the draw
        expected = (np.random.default_rng(3).random(shape) >= rate).astype(np.float64) / (
            1.0 - rate)
        h = np.random.default_rng(4).normal(size=shape)
        h[::7, 3], h[1::7, 5], h[2::7, 8] = -0.0, np.inf, -np.inf
        for into in (False, True):
            rng, ref = np.random.default_rng(3), np.random.default_rng(3)
            out = np.ones(shape, dtype=bool) if into else None
            mask = make_dropout_mask(rng, shape, rate, out=out)
            assert mask.keep.dtype == np.bool_ and mask.keep.shape == shape
            assert mask.keep is out if into else True
            assert mask.scale == 1.0 / (1.0 - rate)
            for scaled in (mask.keep * mask.scale, np.asarray(mask)):
                assert np.array_equal(scaled.view(np.int64), expected.view(np.int64))
            ref.random(shape)
            assert np.array_equal(rng.random(17), ref.random(17))
            applied = h.copy()
            with np.errstate(invalid="ignore"):  # inf * 0
                applied *= mask.keep
                applied *= mask.scale
                assert np.array_equal(applied.view(np.int64), (h * expected).view(np.int64))

    # one row block of the draw is 163 rows of 200 columns
    @pytest.mark.parametrize("shape", [(1, 200), (163, 200), (2000, 200), (7, 3), (5, 1)])
    @pytest.mark.parametrize("rate", [0.0, 0.3])
    @pytest.mark.parametrize("into", [False, True])
    def test_blocked_dropout_draw_equals_one_draw(self, shape, rate, into):
        rng, ref = np.random.default_rng(11), np.random.default_rng(11)
        out = np.zeros(shape, dtype=bool) if into else None
        mask = make_dropout_mask(rng, shape, rate, out=out)
        assert mask.keep is out if into else mask.keep.shape == shape
        expected = (ref.random(shape) >= rate) * (1.0 / (1.0 - rate))
        assert mask.keep.dtype == np.bool_
        assert np.array_equal(np.asarray(mask), expected)
        assert rng.bit_generator.state == ref.bit_generator.state

    def test_dropout_buffer_of_another_shape_rejected(self):
        with pytest.raises(ValueError, match="shape"):
            make_dropout_mask(np.random.default_rng(0), (4, 3), 0.3, out=np.empty((3, 4)))
        # the keep bits are bool: a float64 buffer of the right shape is rejected too
        with pytest.raises(ValueError, match="not bool"):
            make_dropout_mask(np.random.default_rng(0), (4, 3), 0.3, out=np.empty((4, 3)))

    def test_zero_rate_mask_is_identity(self):
        rng = np.random.default_rng(15)
        kg = random_kg(rng)
        cfg = EncoderConfig(dim=4, layers=2, init_seed=6)
        st = init_embeddings(cfg, 15, 4)
        mask = make_dropout_mask(np.random.default_rng(0), (15, 8), 0.0)
        assert np.array_equal(forward(st, kg, cfg, mask), forward(st, kg, cfg))

    def test_composition_oracle(self):
        rng = np.random.default_rng(16)
        kg = random_kg(rng)
        cfg = EncoderConfig(dim=3, layers=2, init_seed=7)
        st = init_embeddings(cfg, 15, 4)
        h1 = fuse_features(st, kg, cfg)
        h2 = aggregate_layer(h1, kg)
        assert np.array_equal(forward(st, kg, cfg), np.hstack([h1, h2]))

    def test_output_shape_and_finite(self):
        rng = np.random.default_rng(17)
        kg = random_kg(rng)
        cfg = EncoderConfig(dim=6, layers=3, init_seed=8)
        st = init_embeddings(cfg, 15, 4)
        g = forward(st, kg, cfg)
        assert g.shape == (15, 2 * 6 * 3)
        assert np.isfinite(g).all()

    def test_permutation_equivariance(self):
        rng = np.random.default_rng(18)
        n, m = 10, 3
        quads = [
            Quadruple(int(rng.integers(n)), int(rng.integers(m)), int(rng.integers(n)), P(1))
            for _ in range(20)
        ]
        kg = TemporalKG.build(quads, n, m)
        cfg = EncoderConfig(dim=4, layers=2, init_seed=9)
        st = init_embeddings(cfg, n, m)
        g = forward(st, kg, cfg)

        perm = rng.permutation(n)
        pquads = [[int(perm[h]), r, int(perm[t]), tb, te] for h, r, t, tb, te in quads]
        pkg = TemporalKG.build(pquads, n, m)
        pst = init_embeddings(cfg, n, m)
        pst.entity_table[perm] = st.entity_table
        pg = forward(pst, pkg, cfg)
        assert np.allclose(pg[perm], g, atol=1e-12)

    def test_global_ablation_leaves_layers_bit_identical(self):
        rng = np.random.default_rng(19)
        kg = random_kg(rng)
        full = EncoderConfig(dim=4, layers=2, init_seed=10)
        abl = EncoderConfig(dim=4, layers=2, init_seed=10, ablate_global_concat=True)
        st = init_embeddings(full, 15, 4)
        lf = forward_layers(st, kg, full)
        la = forward_layers(st, kg, abl)
        assert np.array_equal(lf, la)
        assert np.array_equal(forward(st, kg, abl), lf[:, -8:])

    # every combination of 1-3 layers, dropout and the two ablations
    @pytest.mark.parametrize("layers", [1, 2, 3])
    @pytest.mark.parametrize("dropout", [False, True])
    @pytest.mark.parametrize("fusion,concat", [(False, False), (True, False), (False, True)])
    def test_layer_buffer_equals_list_oracle(self, layers, dropout, fusion, concat):
        rng = np.random.default_rng(20 + layers)
        kg = random_kg(rng)
        cfg = EncoderConfig(dim=3, layers=layers, init_seed=layers,
                            ablate_relation_fusion=fusion, ablate_global_concat=concat)
        st = init_embeddings(cfg, 15, 4)
        mask = make_dropout_mask(rng, (15, 6), 0.4) if dropout else None
        expected = list_forward_layers(st, kg, cfg, mask)
        out = np.full((15, 6 * layers), np.nan)  # stale contents must not leak
        assert forward_layers(st, kg, cfg, mask, out=out) is out
        assert np.array_equal(out, np.hstack(expected))
        assert np.array_equal(forward(st, kg, cfg, mask), global_embedding(expected, concat))

    # every combination of 1-3 layers, dropout and the two ablations, with
    # the products written into a workspace or into new arrays
    @pytest.mark.parametrize("layers", [1, 2, 3])
    @pytest.mark.parametrize("dropout", [False, True])
    @pytest.mark.parametrize("fusion,concat", [(False, False), (True, False), (False, True)])
    @pytest.mark.parametrize("workspace", [False, True])
    def test_layers_at_rows_fill_the_first_rows(self, layers, dropout, fusion, concat, workspace):
        rng = np.random.default_rng(30 + layers)
        kg = random_kg(rng)
        cfg = EncoderConfig(dim=3, layers=layers, init_seed=layers,
                            ablate_relation_fusion=fusion, ablate_global_concat=concat)
        st = init_embeddings(cfg, 15, 4)
        mask = make_dropout_mask(rng, (15, 6), 0.4) if dropout else None
        rows = np.array([0, 3, 4, 9, 14])
        full = np.hstack(list_forward_layers(st, kg, cfg, mask))
        out = np.full((15, 6 * layers), np.nan)  # rows past len(rows) must stay unwritten
        ws = np.full((2, 15, 3), np.nan) if workspace else None
        assert forward_layers(st, kg, cfg, mask, out=out, rows=rows, workspace=ws) is out
        assert np.array_equal(out[: len(rows)], full[rows])
        assert np.isnan(out[len(rows) :]).all()
        # a new array has the rows only
        assert np.array_equal(forward_layers(st, kg, cfg, mask, rows=rows), full[rows])

    # a scoring pool's rows: sources of G1 (ids < 7), then targets of G2
    # offset by |E1| = 7, each side ascending, as `aligner` asks for them
    @pytest.mark.parametrize("layers", [1, 2, 3])
    @pytest.mark.parametrize("dropout", [False, True])
    @pytest.mark.parametrize("fusion", [False, True])
    @pytest.mark.parametrize("concat", [False, True])
    def test_forward_at_rows_is_the_full_pass_at_those_rows(self, layers, dropout, fusion, concat):
        rng = np.random.default_rng(40 + layers)
        kg = random_kg(rng)
        cfg = EncoderConfig(dim=3, layers=layers, init_seed=layers,
                            ablate_relation_fusion=fusion, ablate_global_concat=concat)
        st = init_embeddings(cfg, 15, 4)
        mask = make_dropout_mask(rng, (15, 6), 0.4) if dropout else None
        rows = np.concatenate([[0, 2, 3, 6], 7 + np.array([1, 4, 5, 7])])
        full = forward(st, kg, cfg, mask)
        pool = forward(st, kg, cfg, mask, rows=rows)
        assert pool.flags.c_contiguous and pool.shape == (8, full.shape[1])
        assert np.array_equal(pool, full[rows])
        # any order, repeats included
        shuffled = np.array([14, 0, 9, 9, 3])
        assert np.array_equal(forward(st, kg, cfg, mask, rows=shuffled), full[shuffled])

    @pytest.mark.parametrize("rows", [[-1], [15], [0, 15]])
    def test_forward_rejects_a_row_outside_the_graph(self, rows):
        kg = random_kg(np.random.default_rng(0))
        cfg = EncoderConfig(dim=3)
        with pytest.raises(IndexError):
            forward(init_embeddings(cfg, 15, 4), kg, cfg, rows=np.array(rows))


class TestProductInto:
    # rows per product block: 1, 3 (a short last block), all 20, the default
    @pytest.mark.parametrize("block", [1, 3, 20, None])
    @pytest.mark.parametrize("add", [False, True])
    def test_equals_the_sparse_product(self, block, add, monkeypatch):
        rng = np.random.default_rng(3)
        dense = rng.normal(size=(20, 15)) * (rng.random((20, 15)) < 0.3)
        dense[5:7] = 0.0  # two empty rows
        op = sp.csr_matrix(dense)
        x = rng.normal(size=(15, 4))
        if block is not None:
            monkeypatch.setattr(encoder, "_PRODUCT_BLOCK_BYTES", block * 4 * 8)
        base = rng.normal(size=(20, 12))
        out = base.copy()
        # into a column slice of a wider array: its other columns stay
        product_into(op, x, out[:, 4:8], add=add)
        expected = base.copy()
        expected[:, 4:8] = base[:, 4:8] + op @ x if add else op @ x
        assert np.array_equal(out, expected)

