"""Acceptance suite: one test per criterion, one printed pass/fail line each.

Criteria 1-5 and 9 are oracle/property checks that run in seconds.  Criteria
6-8 share a single 1,000-entity-per-side synthetic benchmark (5% edge noise,
5% timestamp noise, 50 gold seeds, 300 epochs, 2 bootstrap iterations) and
take under two minutes combined on one BLAS thread, most of it criterion 7's
ablation runs.  Criterion 10 is an optional hours-scale dataset
reproduction that only runs when TKGALIGN_DICEWS_DIR points at the dataset.

Run with ``pytest tests/test_acceptance.py -v``; the per-criterion verdict
lines are echoed in an "acceptance criteria" section of the terminal summary.
"""

import os
import time
from contextlib import contextmanager
from types import SimpleNamespace

import numpy as np
import pytest
import scipy.sparse as sp

from conftest import ACCEPTANCE_VERDICTS

from tkgalign.aligner import AlignConfig, csls_rescale, iterate
from tkgalign.encoder import EncoderConfig, init_embeddings
from tkgalign.evaluate import evaluate, rank_of_truth
from tkgalign.io import DatasetLayout, load_dataset
from tkgalign.kg import AlignmentPairSet, TemporalKG
from tkgalign.seeds import generate_seeds
from tkgalign.synth import SynthParams, make_benchmark, write_benchmark
from tkgalign.timesim import (
    SimilarityMatrix,
    build_time_dictionary,
    build_time_similarity_matrix,
)
from tkgalign.trainer import TrainConfig, compute_gradients

# brute-force oracles already exercised by the unit suites
from test_aligner import naive_csls
from test_seeds import brute_force as brute_force_seeds
from test_aligner import matrix
from test_timesim import naive_similarity
from test_trainer import finite_difference, random_instance


def verdict(num, status, detail):
    line = f"criterion {num:2d}: {status} — {detail}"
    ACCEPTANCE_VERDICTS.append(line)  # echoed in the terminal summary
    print(line, flush=True)


@contextmanager
def criterion(num, detail):
    try:
        yield
    except BaseException:
        verdict(num, "FAIL", detail)
        raise
    verdict(num, "PASS", detail)


# --------------------------------------------------------------------------
# shared benchmark for criteria 6-8 (parameters fixed by the acceptance gate)

BENCH = SynthParams(
    entities=1000,
    relations=10,
    timestamps=50,
    quads_per_entity=8,
    edge_noise=0.05,
    time_noise=0.05,
    seed_pairs=50,
    unique_times=True,
    rng_seed=0,
)

EPOCHS = 300
ITERATIONS = 2


@pytest.fixture(scope="module")
def bench(tmp_path_factory):
    layout = write_benchmark(make_benchmark(BENCH), tmp_path_factory.mktemp("bench"))
    kg1, kg2, vocab, seeds, refs = load_dataset(layout)
    tm = build_time_similarity_matrix(build_time_dictionary(kg1), build_time_dictionary(kg2))
    return SimpleNamespace(
        kg1=kg1, kg2=kg2, seeds=seeds, refs=refs, time_matrix=tm, runs={}
    )


def bench_run(bench, rng_seed, *, alpha=0.3, seeds=None, **encoder_overrides):
    """Train + iterate on the shared benchmark, memoised per configuration."""
    key = (rng_seed, alpha, seeds is not None, tuple(sorted(encoder_overrides.items())))
    if key not in bench.runs:
        enc = EncoderConfig(dim=100, layers=2, init_seed=rng_seed, **encoder_overrides)
        trn = TrainConfig(epochs=EPOCHS, rng_seed=rng_seed)
        aln = AlignConfig(alpha=alpha, csls_k=10, iterations=ITERATIONS)
        state = init_embeddings(
            enc,
            bench.kg1.entity_count + bench.kg2.entity_count,
            bench.kg1.relation_count + bench.kg2.relation_count,
        )
        result = iterate(
            state, bench.kg1, bench.kg2, seeds or bench.seeds,
            enc, trn, aln, bench.time_matrix, references=bench.refs,
        )
        bench.runs[key] = evaluate(result.similarity, bench.refs).hits_at[1]
    return bench.runs[key]


# --------------------------------------------------------------------------


def test_criterion_1_gradients_match_finite_differences():
    started = time.time()
    with criterion(1, "manual gradients match central finite differences (rel err ≤ 1e-3)"):
        worst = 0.0
        for seed in range(20):
            layers = 1 + seed % 2
            state, ukg, batch, enc, trn, mask = random_instance(seed, layers=layers)
            assert ukg.entity_count <= 30 and enc.dim <= 6
            _, g_ent, g_rel = compute_gradients(state, ukg, batch, enc, trn, mask)
            for grad, table in ((g_ent, state.entity_table), (g_rel, state.relation_table)):
                fd = finite_difference(state, ukg, batch, enc, trn, mask, table)
                rel = np.abs(grad - fd) / np.maximum(np.abs(grad) + np.abs(fd), 1e-3)
                worst = max(worst, float(rel.max()))
        assert worst <= 1e-3, worst
        assert time.time() - started < 60


def test_criterion_2_time_similarity_matrix_equals_naive_oracle():
    with criterion(2, "sparse-product time-similarity matrix equals naive pairwise oracle"):
        rng = np.random.default_rng(0)
        for _ in range(50):
            n1, n2 = (int(x) for x in rng.integers(20, 201, size=2))
            dicts, lists = [], []
            for n in (n1, n2):
                quads = [
                    [
                        int(rng.integers(n)),
                        0,
                        int(rng.integers(n)),
                        *(
                            (int(rng.integers(0, 16)), int(rng.integers(0, 16)))
                            if rng.random() < 0.3
                            else (int(rng.integers(0, 16)),) * 2
                        ),
                    ]
                    for _ in range(3 * n)
                ]
                dicts.append(build_time_dictionary(TemporalKG.build(quads, n, 1)))
                # timestamp lists straight from the rows: a point once, an
                # interval both ends, the unknown id 0 never
                stamps = [[] for _ in range(n)]
                for h, _, t, tb, te in quads:
                    for x in (tb,) if tb == te else (tb, te):
                        if x != 0:
                            stamps[h].append(x)
                            stamps[t].append(x)
                lists.append([sorted(s) for s in stamps])
            d1, d2 = dicts
            sim = build_time_similarity_matrix(d1, d2).dense
            lists1, lists2 = lists
            for i in range(n1):
                for j in range(n2):
                    assert sim[i, j] == naive_similarity(lists1[i], lists2[j]), (i, j)


def test_criterion_3_seed_generation_equals_brute_force():
    with criterion(3, "seed generation equals brute-force two-criteria oracle; partial matching"):
        rng = np.random.default_rng(1)
        for trial in range(100):
            s = np.round(rng.random((40, 40)) * 0.9, 3)
            for i in rng.choice(40, size=12, replace=False):
                s[i, rng.integers(40)] = 1.0
            if trial % 4 == 0:
                s[:3, :3] = 1.0  # deliberately ambiguous block
            sim = SimilarityMatrix(np.arange(40), np.arange(40), sp.csr_matrix(s), kind="time")
            got = generate_seeds(sim).as_set()
            assert got == brute_force_seeds(s)
            assert len({i for i, _ in got}) == len(got)
            assert len({j for _, j in got}) == len(got)


def test_criterion_4_csls_matches_naive_and_shift_invariance():
    with criterion(4, "CSLS equals naive k=10 implementation to 1e-10; row-shift argmax stable"):
        rng = np.random.default_rng(2)
        for _ in range(10):
            s = rng.random((50, 50))
            sim = matrix(s)
            out = csls_rescale(sim, 10).dense
            expected = naive_csls(s, 10)
            assert np.allclose(out, expected, atol=1e-10)
            assert np.array_equal(np.argmax(out, axis=1), np.argmax(expected, axis=1))
            # shifting one row by a constant leaves that row's argmax unchanged
            shifted = s.copy()
            shifted[11] += rng.uniform(0.5, 3.0)
            sim2 = matrix(shifted)
            out2 = csls_rescale(sim2, 10).dense
            assert int(np.argmax(out[11])) == int(np.argmax(out2[11]))


def test_criterion_5_metrics_match_sort_oracle_and_hand_case():
    with criterion(5, "Hits@k/MRR match sort oracle; ranks {1,2,4} → MRR 0.5833, Hits@1 1/3"):
        # hand case: three sources whose truths rank 1, 2 and 4
        s = np.zeros((3, 5))
        for i, r in enumerate((1, 2, 4)):
            s[i, : r - 1] = np.linspace(0.9, 0.8, r - 1)
            s[i, 4] = 0.5
        sim = matrix(s)
        refs = AlignmentPairSet.from_pairs([(i, 4) for i in range(3)])
        report = evaluate(sim, refs, ks=(1, 2, 10))
        assert report.hits_at[1] == pytest.approx(1 / 3)
        assert report.hits_at[2] == pytest.approx(2 / 3)
        assert report.mrr == pytest.approx(0.5833, abs=5e-5)

        # random matrices against a per-pair sort oracle
        rng = np.random.default_rng(3)
        for _ in range(10):
            s = np.round(rng.random((30, 30)), 2)  # rounding provokes ties
            sim = matrix(s)
            refs = AlignmentPairSet.from_pairs([(i, int(rng.integers(30))) for i in range(30)])
            report = evaluate(sim, refs, ks=(1, 10))
            ranks = []
            for a, b in refs.pairs:
                order = sorted(s[a], reverse=True)
                ranks.append(max(k for k, v in enumerate(order) if v == s[a, b]) + 1)
                assert rank_of_truth(s[a], b) == ranks[-1]
            assert report.hits_at[1] == pytest.approx(np.mean([r <= 1 for r in ranks]))
            assert report.hits_at[10] == pytest.approx(np.mean([r <= 10 for r in ranks]))
            assert report.mrr == pytest.approx(np.mean([1 / r for r in ranks]))


def test_criterion_6_supervised_benchmark_hits(bench):
    started = time.time()
    with criterion(6, "supervised Hits@1 ≥ 0.95 on the 1,000-entity benchmark in ≤ 5 min"):
        hits1 = bench_run(bench, 0)
        elapsed = time.time() - started
        assert hits1 >= 0.95, hits1
        assert elapsed <= 300, elapsed


def test_criterion_7_ablation_directions(bench):
    with criterion(7, "α=0 strictly lowers Hits@1; relation-fusion/global-concat ablations never beat full"):
        full, tsm, gar, rff = [], [], [], []
        for seed in range(3):
            full.append(bench_run(bench, seed))
            tsm.append(bench_run(bench, seed, alpha=0.0))
            gar.append(bench_run(bench, seed, ablate_global_concat=True))
            rff.append(bench_run(bench, seed, ablate_relation_fusion=True))
        noise = 0.02
        assert np.mean(tsm) < np.mean(full), (tsm, full)
        assert all(t <= f for t, f in zip(tsm, full))
        assert np.mean(gar) <= np.mean(full) + noise, (gar, full)
        assert np.mean(rff) <= np.mean(full) + noise, (rff, full)


def test_criterion_8_unsupervised_matches_supervised(bench):
    with criterion(8, "generated seed precision 1.0; unsupervised Hits@1 within 0.05 of supervised"):
        generated = generate_seeds(bench.time_matrix)
        gold = dict(bench.seeds.pairs + bench.refs.pairs)
        assert len(generated) > 0
        precision = np.mean([gold.get(a) == b for a, b in generated.pairs])
        assert precision == 1.0, precision

        supervised = bench_run(bench, 0)
        unsupervised = bench_run(bench, 0, seeds=generated)
        assert unsupervised >= supervised - 0.05, (unsupervised, supervised)


def test_criterion_9_parameter_count(bench):
    with criterion(9, "trainable parameter count equals (|E1|+|E2|+|R1|+|R2|)·d exactly"):
        entities = bench.kg1.entity_count + bench.kg2.entity_count
        relations = bench.kg1.relation_count + bench.kg2.relation_count
        for dim in (7, 100):
            state = init_embeddings(EncoderConfig(dim=dim, init_seed=0), entities, relations)
            assert state.parameter_count == (entities + relations) * dim
            assert state.entity_table.size + state.relation_table.size == state.parameter_count


DICEWS_DIR = os.environ.get("TKGALIGN_DICEWS_DIR")


@pytest.mark.skipif(
    not DICEWS_DIR,
    reason="optional hours-scale dataset reproduction; set TKGALIGN_DICEWS_DIR to enable",
)
def test_criterion_10_optional_dataset_reproduction():
    with criterion(10, "published-dataset Hits@1 within ±0.02 of 0.943 (iterative) / 0.927 (single pass)"):
        kg1, kg2, vocab, seeds, refs = load_dataset(DatasetLayout.from_dir(DICEWS_DIR))
        tm = build_time_similarity_matrix(
            build_time_dictionary(kg1), build_time_dictionary(kg2)
        )
        enc = EncoderConfig(dim=100, layers=2, init_seed=0)
        trn = TrainConfig(epochs=1200, rng_seed=0)
        results = {}
        for label, iters in (("iterative", 5), ("single", 1)):
            state = init_embeddings(
                enc,
                kg1.entity_count + kg2.entity_count,
                kg1.relation_count + kg2.relation_count,
            )
            res = iterate(
                state, kg1, kg2, seeds, enc, trn,
                AlignConfig(alpha=0.3, csls_k=10, iterations=iters), tm, references=refs,
            )
            results[label] = evaluate(res.similarity, refs).hits_at[1]
        assert abs(results["iterative"] - 0.943) <= 0.02, results
        assert abs(results["single"] - 0.927) <= 0.02, results


def test_criterion_10_skip_notice():
    if not DICEWS_DIR:
        verdict(10, "SKIP", "optional long run; set TKGALIGN_DICEWS_DIR to enable")
