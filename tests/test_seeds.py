from collections import Counter

import numpy as np
import pytest
import scipy.sparse as sp

from tkgalign.seeds import generate_seeds
from tkgalign.timesim import SimilarityMatrix, build_time_similarity_matrix

from test_timesim import stored_scores


def time_matrix(scores):
    scores = np.asarray(scores, dtype=np.float64)
    return SimilarityMatrix(
        source_ids=np.arange(scores.shape[0]),
        target_ids=np.arange(scores.shape[1]),
        scores=sp.csr_matrix(scores),
        kind="time",
    )


def brute_force(scores, tol=1e-12):
    # direct implementation of both selection criteria
    out = set()
    ns, nt = scores.shape
    for i in range(ns):
        exact = [j for j in range(nt) if abs(scores[i, j] - 1.0) <= tol]
        if len(exact) != 1:
            continue
        j = exact[0]
        back = [a for a in range(ns) if abs(scores[a, j] - 1.0) <= tol]
        if back == [i]:
            out.add((i, j))
    return out


def test_unique_exact_matches_both_ways():
    assert generate_seeds(time_matrix([[1, 0], [0, 1]])).as_set() == {(0, 0), (1, 1)}


def test_row_with_two_exact_matches_excluded():
    assert generate_seeds(time_matrix([[1, 1], [0, 1]])).as_set() == set()
    # and target 1 is also blocked column-wise in the first case; an
    # unambiguous second row alone survives
    assert generate_seeds(time_matrix([[1, 1, 0], [0, 0, 1]])).as_set() == {(1, 2)}


def test_submaximal_rows_excluded():
    assert generate_seeds(time_matrix([[0.8, 0], [0, 1]])).as_set() == {(1, 1)}


def test_requires_time_kind():
    m = time_matrix([[1.0]])
    m.kind = "embedding"
    with pytest.raises(ValueError):
        generate_seeds(m)


def test_rejects_a_time_matrix_of_another_type():
    rows = build_time_similarity_matrix(*planted_counts(0)).submatrix(np.arange(3), np.arange(3))
    with pytest.raises(ValueError, match="TimeScores or SimilarityMatrix, got BlockedScores"):
        generate_seeds(rows)


def test_tolerance_absorbs_rounding():
    score = 2 * 3 / (3 + 3)  # exactly 1 in this case, perturb slightly
    m = time_matrix([[score - 1e-13]])
    assert generate_seeds(m).as_set() == {(0, 0)}


def test_matches_brute_force_with_planted_matches():
    rng = np.random.default_rng(0)
    for trial in range(100):
        s = np.round(rng.random((40, 40)) * 0.9, 3)
        # plant exact matches, some ambiguous on purpose
        for i in rng.choice(40, size=10, replace=False):
            s[i, rng.integers(40)] = 1.0
        if trial % 3 == 0:
            s[:2, :2] = 1.0  # ambiguous block
        got = generate_seeds(time_matrix(s)).as_set()
        assert got == brute_force(s)
        # partial matching both ways
        assert len({i for i, _ in got}) == len(got)
        assert len({j for _, j in got}) == len(got)
        assert all(s[i, j] == 1.0 for i, j in got)


def test_id_mapping_respected():
    m = SimilarityMatrix(
        source_ids=np.array([5, 9]),
        target_ids=np.array([7, 3]),
        scores=sp.csr_matrix([[1.0, 0.0], [0.0, 1.0]]),
        kind="time",
    )
    assert generate_seeds(m).as_set() == {(5, 7), (9, 3)}


def signature_pairs(a, b):
    """Pairs whose non-empty (timestamp, count) signatures are equal and
    occur exactly once on each side, read from the count rows: the seed
    rule by brute force."""
    def keys(m):
        return [frozenset(zip(m[i].indices.tolist(), m[i].data.tolist())) for i in range(m.shape[0])]

    key1, key2 = keys(a), keys(b)
    count1, count2 = Counter(key1), Counter(key2)
    pos2 = {k: j for j, k in enumerate(key2)}
    return {(i, pos2[k]) for i, k in enumerate(key1) if k and count1[k] == 1 and count2[k] == 1}


def random_counts(rng, n, vocab):
    rows = np.repeat(np.arange(n), rng.integers(0, 4, n))
    cols = rng.integers(1, vocab, len(rows))
    return sp.csr_matrix((np.ones(len(rows), dtype=np.int64), (rows, cols)), shape=(n, vocab))


def planted_counts(trial):
    """Two random count matrices with planted equal signatures
    (multiplicities up to 3) and a signature repeated on each side."""
    rng = np.random.default_rng(trial)
    a = random_counts(rng, 60, 8).tolil()
    b = random_counts(rng, 50, 8).tolil()
    for i, j in zip(rng.choice(60, 15, replace=False), rng.choice(50, 15, replace=False)):
        a[i] = 0
        a[i, rng.choice(np.arange(1, 8), 3, replace=False)] = rng.integers(1, 4, 3)
        b[j] = a[i]
    for side, n in ((a, 60), (b, 50)):
        src, dst = rng.choice(n, 2, replace=False)
        side[dst] = side[src]
    return a.tocsr(), b.tocsr()


def both_paths(a, b):
    """The join's seeds and the stored-score scan's, as sets."""
    tm = build_time_similarity_matrix(a, b)
    stored = SimilarityMatrix(tm.source_ids, tm.target_ids, stored_scores(tm), "time")
    return generate_seeds(tm).as_set(), generate_seeds(stored).as_set()


def varied_counts(trial):
    """Two count matrices of many row lengths, heavy-tailed up to a few
    hundred entries, with counts far above 3: planted equal rows of every
    length, signatures held twice on one side only, and rows that a packing
    of 32 bits per count would merge."""
    rng = np.random.default_rng(100 + trial)
    vocab, big = 400, 2**40 + 1
    lengths = np.minimum(rng.zipf(1.6, 80), vocab - 1)

    def row(stamps, counts):
        out = np.zeros(vocab, dtype=np.int64)
        out[stamps] = counts
        return out

    def random_row(n):
        return row(rng.choice(np.arange(1, vocab), n, replace=False), rng.integers(1, 1000, n))

    a = [random_row(n) for n in lengths]
    b = [random_row(n) for n in rng.permutation(lengths)[:60]]
    # planted seeds, one of them with a count near 2**40
    a[0][[3, 257]] = big
    for i, j in zip(range(25), rng.permutation(50)[:25]):
        b[j] = a[i].copy()
    # held twice in a and nowhere in b; held twice in b and once in a
    a[30] = a[31] = random_row(5)
    b[50] = b[51] = a[32].copy()
    # equal only under 32-bit packing: (t << 32) + c or c mod 2**32
    a[33], b[52], b[53] = row(1, big), row(257, 1), row(1, 1)
    return sp.csr_matrix(np.array(a)), sp.csr_matrix(np.array(b))


@pytest.mark.parametrize("trial", range(20))
def test_seeds_equal_the_unique_signatures_of_the_counts(trial):
    for a, b in (planted_counts(trial), varied_counts(trial)):
        expected = signature_pairs(a, b)
        got = generate_seeds(build_time_similarity_matrix(a, b)).as_set()
        assert got == expected and len(expected) > 3


def seed_copies(a, b, copies):
    """a with the signature of one of its seeds copied over `copies` more of
    its rows (None: none), so the signature is held more than once in a."""
    if copies is None:
        return a
    i = min(signature_pairs(a, b))[0]
    free = [r for r in range(a.shape[0]) if r != i][:copies]
    a = a.tolil()
    a[free] = a[[i] * copies]
    return a.tocsr()


@pytest.mark.parametrize("trial", range(5))
@pytest.mark.parametrize("swap", [False, True])
@pytest.mark.parametrize("copies", [1, 3, None])
def test_join_equals_the_stored_score_scan(trial, swap, copies):
    a, b = planted_counts(trial)
    a = seed_copies(a, b, copies)
    if swap:
        a, b = b, a
    join, scan = both_paths(a, b)
    assert join == scan == signature_pairs(a, b)


@pytest.mark.parametrize("swap", [False, True])
def test_join_edge_rows(swap):
    a = sp.csr_matrix(np.array([
        [0, 0, 0, 0],  # empty on both sides: never a seed
        [0, 2, 1, 0],  # equal length and timestamps as b's row 2, other counts
        [0, 1, 2, 0],  # a unique match of b's row 2
        [0, 0, 0, 3],  # repeated in a, once in b
        [0, 0, 0, 3],
        [1, 0, 0, 0],  # a unique match of b's row 0
    ]))
    b = sp.csr_matrix(np.array([
        [1, 0, 0, 0],
        [0, 0, 0, 0],
        [0, 1, 2, 0],
        [0, 0, 0, 3],
        [0, 0, 1, 0],
    ]))
    expected = {(2, 2), (5, 0)}
    # one row a side: empty, other counts, another timestamp
    one_row = [(a[:1], b[1:2]), (a[1:2], b[2:3]), (a[5:6], b[4:5])]
    if swap:
        a, b, expected = b, a, {(j, i) for i, j in expected}
        one_row = [(y, x) for x, y in one_row]
    join, scan = both_paths(a, b)
    assert join == scan == signature_pairs(a, b) == expected
    for rows_a, rows_b in one_row:
        assert both_paths(rows_a, rows_b) == (set(), set())
