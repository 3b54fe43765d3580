import tracemalloc
from collections import Counter
from functools import lru_cache

import numpy as np
import pytest
import scipy.sparse as sp
from hypothesis import example, given, strategies as st

from tkgalign import timesim
from tkgalign.aligner import combine, csls_rescale, predict
from tkgalign.kg import TemporalKG
from tkgalign.seeds import generate_seeds
from tkgalign.timesim import (
    SimilarityMatrix,
    build_time_dictionary,
    build_time_similarity_matrix,
    time_similarity,
)

from test_aligner import matrix, stored_submatrix, use_block_rows


def Quadruple(head, relation, tail, time):
    return [head, relation, tail, *time]


def point(t):
    return (t, t)


def stamps(begin, end):
    """Time ids a fact contributes: a point once, an interval both ends, 0 never."""
    return [t for t in ((begin,) if begin == end else (begin, end)) if t != 0]


def counts(counters):
    """Entity x timestamp count matrix of a list of Counters."""
    width = 1 + max((t for c in counters for t in c), default=0)
    dense = np.zeros((len(counters), width), dtype=np.int64)
    for e, c in enumerate(counters):
        for t, a in c.items():
            dense[e, t] = a
    return sp.csr_matrix(dense)


def entry(dic, e):
    """Row e of a count matrix as a Counter."""
    row = dic[e]
    return Counter(dict(zip(row.indices.tolist(), row.data.tolist())))


def stored_scores(sim):
    """The whole time matrix as CSR: the kernel of every block of rows,
    `_score_product`, run over all rows at once."""
    return timesim._score_product(*sim._pool(sim.source_ids, sim.target_ids))


def naive_similarity(a, b):
    # brute-force multiset intersection
    a, b = list(a), list(b)
    c = 0
    pool = list(b)
    for x in a:
        if x in pool:
            pool.remove(x)
            c += 1
    total = len(a) + len(b)
    return 2 * c / total if total else 0.0


class TestDictionary:
    def test_point_quadruple(self):
        kg = TemporalKG.build([Quadruple(0, 0, 1, point(5))], 2, 1)
        dic = build_time_dictionary(kg)
        assert entry(dic, 0) == Counter({5: 1})
        assert entry(dic, 1) == Counter({5: 1})

    def test_interval_contributes_both_ends(self):
        kg = TemporalKG.build([Quadruple(0, 0, 1, (5, 9))], 2, 1)
        dic = build_time_dictionary(kg)
        assert entry(dic, 0) == Counter({5: 1, 9: 1})
        assert entry(dic, 1) == Counter({5: 1, 9: 1})

    def test_reserved_id_excluded(self):
        kg = TemporalKG.build([Quadruple(0, 0, 1, (0, 9))], 2, 1)
        dic = build_time_dictionary(kg)
        assert entry(dic, 0) == Counter({9: 1})

    def test_shared_head_accumulates(self):
        quads = [
            Quadruple(0, 0, 1, point(5)),
            Quadruple(0, 0, 2, (5, 7)),
        ]
        kg = TemporalKG.build(quads, 3, 1)
        dic = build_time_dictionary(kg)
        # brute-force accumulation over incident quadruples
        expected = Counter()
        for head, _, tail, begin, end in quads:
            if head == 0 or tail == 0:
                expected.update(stamps(begin, end))
        assert entry(dic, 0) == expected == Counter({5: 2, 7: 1})


def coo_reference(data, rows, cols, shape):
    """scipy's COO -> CSR construction of the given entries, duplicates summed."""
    return sp.coo_matrix((data, (rows, cols)), shape=shape).tocsr()


def assert_same_csr(built, reference):
    """data, indices and indptr equal byte for byte, in the same dtypes, and
    both matrices equally canonical."""
    for name in ("data", "indices", "indptr"):
        a, b = getattr(built, name), getattr(reference, name)
        assert a.dtype == b.dtype and a.tobytes() == b.tobytes(), name
    assert built.shape == reference.shape
    assert built.has_canonical_format == reference.has_canonical_format


facts = st.lists(st.tuples(st.integers(0, 5), st.integers(0, 5), st.integers(0, 4),
                           st.integers(0, 4)), max_size=12)


class TestKeyPassBuilders:
    """The count matrix, the (timestamp, occurrence) sets and the adjacency,
    each built from one sorted-key pass, equal scipy's COO -> CSR build of
    the same entries."""

    @given(facts, st.integers(0, 3), st.integers(0, 4), st.integers(0, 2))
    @example([], 0, 0, 0)  # no facts
    @example([(0, 1, 0, 0), (2, 2, 0, 0)], 1, 0, 0)  # only unknown stamps
    @example([(0, 1, 3, 3)] * 3 + [(1, 0, 0, 2), (1, 2, 4, 0)], 2, 2, 1)  # counts of 5
    def test_builders_equal_the_coo_build(self, quads, extra, repeats, k_extra):
        # entities beyond the largest id have no facts; the first `repeats`
        # facts occur twice
        quads = quads + quads[:repeats]
        n = 1 + max((max(h, t) for h, t, _, _ in quads), default=0) + extra
        kg = TemporalKG.build([(h, 0, t, b, e) for h, t, b, e in quads], n, 1)

        entries = [(x, s) for h, t, b, e in quads for x in (h, t) for s in stamps(b, e)]
        width = 1 + max((max(b, e) for _, _, b, e in quads), default=0)
        dic = build_time_dictionary(kg)
        assert_same_csr(dic, coo_reference(np.ones(len(entries), dtype=np.int64),
                                           [x for x, _ in entries], [s for _, s in entries],
                                           (n, width)))

        # canonical count rows, some empty, with counts of 1 to 5 and more
        k = int(dic.data.max(initial=1)) + k_extra
        sets = [(i, t * k + j) for i in range(n)
                for t, a in zip(dic[i].indices.tolist(), dic[i].data.tolist()) for j in range(a)]
        assert_same_csr(timesim._occurrence_sets(dic, k, width),
                        coo_reference(np.ones(len(sets)), [i for i, _ in sets],
                                      [c for _, c in sets], (n, width * k)))

        # both directions and the self-loops; a parallel edge adds one entry
        ends = [(h, t) for h, t, _, _ in quads] + [(t, h) for h, t, _, _ in quads]
        adj = coo_reference(np.ones(len(ends) + n), [h for h, _ in ends] + list(range(n)),
                            [t for _, t in ends] + list(range(n)), (n, n))
        adj.data[:] = 1.0
        assert_same_csr(kg.adjacency, adj)


class TestSimilarity:
    def test_identical_singletons(self):
        assert time_similarity({2005}, {2005}) == 1.0

    def test_hand_case(self):
        assert time_similarity([2005, 2008, 2010], [2005, 2011]) == pytest.approx(0.4)

    def test_multiset_intersection(self):
        assert time_similarity([5, 5, 8], [5, 9]) == pytest.approx(0.4)

    def test_empty_vs_nonempty(self):
        assert time_similarity([], [2005]) == 0.0
        assert time_similarity([], []) == 0.0

    @given(
        st.lists(st.integers(1, 8), max_size=12),
        st.lists(st.integers(1, 8), max_size=12),
    )
    def test_symmetry_bounds_and_oracle(self, a, b):
        s = time_similarity(a, b)
        assert s == time_similarity(b, a)
        assert 0.0 <= s <= 1.0
        assert s == pytest.approx(naive_similarity(a, b))
        if s == 1.0:
            assert Counter(a) == Counter(b)

    @given(st.lists(st.integers(1, 20), min_size=1, max_size=12))
    def test_equal_multisets_score_one(self, a):
        assert time_similarity(a, list(reversed(a))) == 1.0


def random_dict(rng, n, max_stamps=6, vocab=10):
    return [
        Counter(rng.integers(1, vocab + 1, size=rng.integers(0, max_stamps)).tolist()) for _ in range(n)
    ]


class TestMatrix:
    def test_identical_sides_have_unit_diagonal(self):
        rng = np.random.default_rng(0)
        dic = random_dict(rng, 8)
        sim = build_time_similarity_matrix(counts(dic), counts(dic))
        nonempty = [i for i, c in enumerate(dic) if c]
        assert all(sim.dense[i, i] == 1.0 for i in nonempty)

    def test_matches_pairwise_oracle(self):
        rng = np.random.default_rng(1)
        cases = [
            (random_dict(rng, 10), random_dict(rng, 10)),
            # multiplicities up to 5: more than one occurrence level per timestamp
            ([Counter([5] * 5), Counter([5, 5, 2]), Counter()],
             [Counter([5] * 3), Counter([2, 5, 5, 5, 5, 5]), Counter([9])]),
            # a side with no timestamped facts at all
            (random_dict(rng, 4), [Counter()] * 3),
        ]
        for d1, d2 in cases:
            sim = build_time_similarity_matrix(counts(d1), counts(d2))
            assert sim.nnz == np.count_nonzero(sim.dense)
            for i in range(len(d1)):
                for j in range(len(d2)):
                    assert sim.dense[i, j] == pytest.approx(
                        time_similarity(d1[i], d2[j]), abs=1e-15
                    )
        multi = build_time_similarity_matrix(counts(cases[1][0]), counts(cases[1][1]))
        assert multi.dense[0, 0] == 0.75
        assert sim.scores.nnz == 0 and len(generate_seeds(sim)) == 0


def long_row_case(length):
    """Source row 0 shares timestamp 1 with all `length` targets; row 1 is
    empty."""
    kinds = [Counter({1: 1}), Counter({1: 2, 2: 1}), Counter({1: 5, 3: 1}), Counter({1: 1, 2: 4})]
    return ([Counter({1: 2, 2: 1}), Counter(), Counter({1: 1, 2: 5})],
            [kinds[j % 4] for j in range(length)])


def bits(x):
    return np.asarray(x, dtype=np.float64).view(np.int64)


class TestExactScores:
    """Every score of the kernel is bit for bit `time_similarity` of its two
    rows and the whole-array 2c / (m + n) with integer denominators,
    whatever the number of entries it is finished in per step."""

    @pytest.mark.parametrize("chunk", [1, 3, None])
    def test_stored_scores_equal_both_oracles(self, monkeypatch, chunk):
        if chunk is not None:
            monkeypatch.setattr(timesim, "_CHUNK_ENTRIES", chunk)
        rng = np.random.default_rng(3)
        cases = [
            (random_dict(rng, 30, max_stamps=8, vocab=6), random_dict(rng, 25, max_stamps=8, vocab=6)),
            # multiplicities up to 5, and empty rows on both sides
            ([Counter([5] * 5), Counter([5, 5, 2]), Counter(), Counter([2] * 4 + [7])],
             [Counter([5] * 3), Counter(), Counter([2, 5, 5, 5, 5, 5]), Counter([9]), Counter([7] * 5)]),
            # a side with no timestamps
            (random_dict(rng, 4), [Counter()] * 3),
            # no pair shares a timestamp: nothing is stored
            ([Counter([1, 2]), Counter([3])], [Counter([4]), Counter([5, 5])]),
            long_row_case(timesim._CHUNK_ENTRIES + 2),
        ]
        for d1, d2 in cases:
            a, b = counts(d1), counts(d2)
            built = stored_scores(build_time_similarity_matrix(a, b))
            width = max(a.shape[1], b.shape[1])
            a, b = (np.pad(x.toarray(), ((0, 0), (0, width - x.shape[1]))) for x in (a, b))
            c = np.minimum(a[:, None, :], b[None, :, :]).sum(axis=2)
            with np.errstate(invalid="ignore"):  # 0 / 0 where both rows are empty, never stored
                whole = 2.0 * c / (a.sum(axis=1)[:, None] + b.sum(axis=1)[None, :])
            stored = built.tocoo()
            assert sorted(zip(stored.row.tolist(), stored.col.tolist())) == list(zip(*np.nonzero(c)))
            assert np.array_equal(bits(stored.data), bits(whole[stored.row, stored.col]))
            key2 = [frozenset(t.items()) for t in d2]
            pairwise = lru_cache(maxsize=None)(lambda i, k: time_similarity(d1[i], Counter(dict(k))))
            oracle = [pairwise(i, key2[j]) for i, j in zip(stored.row.tolist(), stored.col.tolist())]
            assert np.array_equal(bits(stored.data), bits(oracle))
        assert built.shape[0] == 3 and built.indptr[1] == timesim._CHUNK_ENTRIES + 2


def random_pair(n=2500, vocab=16, seed=0):
    """Count matrices of two sides whose rows nearly all share a timestamp:
    about 5.5M stored scores, and a few thousand unique exact matches."""
    rng = np.random.default_rng(seed)
    rows = np.repeat(np.arange(n), rng.integers(4, 9, n))
    cols = rng.integers(1, vocab, len(rows))
    a = sp.csr_matrix((np.ones(len(rows), dtype=np.int64), (rows, cols)), shape=(n, vocab))
    return a, a[rng.permutation(n)]


def traced_peak(fn, *args):
    """fn(*args) and the bytes its traced peak rose above what was live before."""
    tracemalloc.start()
    try:
        before = tracemalloc.get_traced_memory()[0]
        out = fn(*args)
        return out, tracemalloc.get_traced_memory()[1] - before
    finally:
        tracemalloc.stop()


class TestMemory:
    """The build holds only the count matrices, and no transient of the
    kernel, of a row read or of the seed join grows with the scores
    (tracemalloc sees numpy's and scipy's buffers)."""

    def test_build_holds_little_beside_its_result(self):
        a, b = random_pair()
        built, peak = traced_peak(build_time_similarity_matrix, a, b)
        count_bytes = sum(m.data.nbytes + m.indices.nbytes + m.indptr.nbytes for m in (a, b))
        assert built.nbytes == count_bytes and peak < 2 * count_bytes

    def test_dictionary_holds_little_beside_its_result(self):
        # points and 20% intervals, a few with an open end: about 1.2 known
        # stamps per fact, each keyed at the head and at the tail
        rng = np.random.default_rng(0)
        n, vocab = 4000, 500
        begin = rng.integers(1, vocab, 8 * n)
        end = np.where(rng.random(8 * n) < 0.2, rng.integers(0, vocab, 8 * n), begin)
        heads, tails = rng.integers(0, n, (2, 8 * n))
        kg = TemporalKG.build(np.column_stack([heads, 0 * heads, tails, begin, end]), n, 1)
        dic, peak = traced_peak(build_time_dictionary, kg)
        result = dic.data.nbytes + dic.indices.nbytes + dic.indptr.nbytes
        assert peak - result < 2 * kg.quadruples.nbytes

    def test_kernel_holds_little_beside_the_whole_matrix(self):
        # the eager build's bound, kept by the kernel run over all rows at once
        sim = build_time_similarity_matrix(*random_pair())
        s, peak = traced_peak(stored_scores, sim)
        assert s.nnz > 5_000_000
        assert peak - (s.data.nbytes + s.indices.nbytes + s.indptr.nbytes) < 3 << 20

    def test_reading_rows_holds_their_product(self, monkeypatch):
        monkeypatch.setattr(timesim, "_BLOCK_BYTES", 1 << 20)
        sim = build_time_similarity_matrix(*random_pair())
        nnz, peak = traced_peak(lambda: sim.nnz)
        assert nnz == stored_scores(sim).nnz and peak < 3 << 20
        block, peak = traced_peak(sim.rows, 0, 32)
        assert peak - block.nbytes < 3 << 20

    def test_seed_scan_holds_little(self):
        sim = build_time_similarity_matrix(*random_pair())
        seeds, peak = traced_peak(generate_seeds, sim)
        assert len(seeds) and peak < 512 << 10

    def test_stored_score_scan_holds_little(self):
        tm = build_time_similarity_matrix(*random_pair())
        sim = SimilarityMatrix(tm.source_ids, tm.target_ids, stored_scores(tm), "time")
        seeds, peak = traced_peak(generate_seeds, sim)
        assert seeds.pairs == generate_seeds(tm).pairs and peak < 512 << 10


class TestTimeRows:
    """Every way of reading `TimeScores` rows (`rows`, `.dense`,
    `[positions]`, a submatrix's row blocks) gives bit for bit the rows of
    the whole matrix the kernel stores, and `time_similarity` of the two
    rows, over shuffled pools and any block height."""

    @pytest.mark.parametrize("block", [1, 3, None])
    def test_rows_equal_the_stored_rows_and_the_scalar_oracle(self, monkeypatch, block):
        rng = np.random.default_rng(11)
        d1 = random_dict(rng, 40, max_stamps=8, vocab=6) + [Counter([5] * 5), Counter()]
        d2 = [d1[i] for i in rng.permutation(40)] + random_dict(rng, 12, max_stamps=8, vocab=9)
        sim = build_time_similarity_matrix(counts(d1), counts(d2))
        whole = stored_scores(sim).toarray()
        oracle = np.array([[time_similarity(x, y) for y in d2] for x in d1])
        assert np.array_equal(bits(whole), bits(oracle))

        use_block_rows(monkeypatch, block, len(d2))
        assert np.array_equal(bits(sim.dense), bits(whole))
        for start, stop in ((0, 1), (3, 17), (41, 42), (0, 42)):
            assert np.array_equal(bits(sim.rows(start, stop)), bits(whole[start:stop]))
        r, c = rng.permutation(42)[:30], rng.permutation(len(d2))[:25]
        assert np.array_equal(bits(sim[r]), bits(whole[r]))
        sub = sim.submatrix(r, c)
        use_block_rows(monkeypatch, block, len(c))
        blocks = list(sub.row_blocks())
        assert [start for start, _ in blocks] == list(range(0, 30, block or 30))
        assert np.array_equal(bits(np.concatenate([x for _, x in blocks])),
                              bits(whole[np.ix_(r, c)]))
        assert np.array_equal(sub.source_ids, r) and np.array_equal(sub.target_ids, c)


def shuffled_rows(m, rng):
    """CSR `m` with the stored entries of each row in a random order."""
    data, indices = m.data.copy(), m.indices.copy()
    for lo, hi in zip(m.indptr[:-1], m.indptr[1:]):
        perm = lo + rng.permutation(hi - lo)
        data[lo:hi], indices[lo:hi] = m.data[perm], m.indices[perm]
    return sp.csr_matrix((data, indices, m.indptr.copy()), shape=m.shape)


class TestColumnOrder:
    """The time matrix leaves each row's column order unspecified: every
    reader gives the same result for any order."""

    @pytest.mark.parametrize("block", [1, 3, None])
    def test_readers_ignore_the_column_order(self, monkeypatch, block):
        rng = np.random.default_rng(7)
        d1 = random_dict(rng, 40, max_stamps=5, vocab=30)
        d2 = [d1[i] for i in rng.permutation(40)] + random_dict(rng, 5, vocab=30)
        built = build_time_similarity_matrix(counts(d1), counts(d2))
        ordered = stored_scores(built)
        ordered.sort_indices()
        shuffled = shuffled_rows(ordered, rng)
        assert not shuffled.has_sorted_indices
        a, b = (SimilarityMatrix(built.source_ids, built.target_ids, m, "time")
                for m in (ordered, shuffled))

        seeds = generate_seeds(a)
        assert len(seeds) and generate_seeds(b).pairs == seeds.pairs
        assert np.array_equal(a.dense, b.dense) and np.array_equal(a.dense, built.dense)
        for start, stop in ((0, 1), (3, 17), (39, 40), (0, 40)):
            assert np.array_equal(a.rows(start, stop), b.rows(start, stop))

        r, c = rng.permutation(40)[:25], rng.permutation(45)[:20]
        use_block_rows(monkeypatch, block, len(c))
        sa, sb = stored_submatrix(a, r, c), stored_submatrix(b, r, c)
        assert all(ia == ib and np.array_equal(xa, xb)
                   for (ia, xa), (ib, xb) in zip(sa.row_blocks(), sb.row_blocks()))
        emb = matrix(rng.random((25, 20)), "embedding", sa.source_ids, sa.target_ids)
        pa, pb = (predict(csls_rescale(combine(emb, s, 0.3), 4)) for s in (sa, sb))
        assert (pa.pairs, pa.scores.tolist()) == (pb.pairs, pb.scores.tolist())
