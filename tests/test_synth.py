from collections import Counter

import numpy as np
import pytest

from tkgalign.io import load_dataset
from tkgalign.synth import SynthParams, make_benchmark, write_benchmark


def params(**kw):
    base = dict(entities=40, relations=4, timestamps=12, quads_per_entity=4,
                seed_pairs=8, rng_seed=3)
    base.update(kw)
    return SynthParams(**base)


def test_noise_free_counterpart_is_relabeled_copy():
    ds = make_benchmark(params(edge_noise=0.0, time_noise=0.0))
    perm, rperm = ds.entity_perm, ds.relation_perm
    mapped = sorted((int(perm[h]), int(rperm[r]), int(perm[t]), tb, te) for h, r, t, tb, te in ds.quads1)
    assert mapped == sorted(ds.quads2)
    # gold map recovers the permutation
    gold = dict(ds.sup_pairs + ds.ref_pairs)
    assert all(gold[i] == int(perm[i]) for i in range(40))


def test_deterministic_output(tmp_path):
    a = write_benchmark(make_benchmark(params(edge_noise=0.1, time_noise=0.1)), tmp_path / "a")
    b = write_benchmark(make_benchmark(params(edge_noise=0.1, time_noise=0.1)), tmp_path / "b")
    for name in ("triples_1", "triples_2", "sup_pairs", "ref_pairs"):
        assert (tmp_path / "a" / name).read_bytes() == (tmp_path / "b" / name).read_bytes()


def test_statistics_match_request(tmp_path):
    p = params(entities=50, seed_pairs=7, edge_noise=0.05, time_noise=0.05, unique_times=False)
    layout = write_benchmark(make_benchmark(p), tmp_path)
    kg1, kg2, vocab, seeds, refs = load_dataset(layout)
    assert kg1.entity_count == kg2.entity_count == 50
    assert len(kg1.quadruples) == len(kg2.quadruples) == 50 * 4
    assert len(seeds) == 7 and len(refs) == 43
    assert vocab.size <= p.timestamps
    heads = set(kg1.quadruples[:, 0].tolist())
    assert heads == set(range(50))


def test_unique_times_deduplicates_signatures():
    ds = make_benchmark(params(entities=60, timestamps=6, quads_per_entity=2, unique_times=True))
    sigs = [Counter() for _ in range(60)]
    for h, _, t, tb, te in ds.quads1:
        stamps = (tb,) if tb == te else (tb, te)
        for e in (h, t):
            sigs[e].update(stamps)
    keys = [tuple(sorted(c.items())) for c in sigs]
    assert len(set(keys)) == 60


def test_seed_and_reference_split_is_a_partition():
    ds = make_benchmark(params())
    sup = set(ds.sup_pairs)
    ref = set(ds.ref_pairs)
    assert not sup & ref
    assert len(sup | ref) == 40


@pytest.mark.parametrize("field,value", [
    ("seed_pairs", -1), ("seed_pairs", 41), ("edge_noise", -3.0), ("time_noise", 7.0),
    ("interval_fraction", 1.5), ("edge_noise", float("nan")), ("entities", 1),
    ("relations", 0), ("timestamps", 0), ("quads_per_entity", -1), ("entities", 40.0),
    ("seed_pairs", True), ("unique_times", 1),
])
def test_out_of_range_or_mistyped_parameters_rejected(field, value):
    with pytest.raises(ValueError, match=field):
        params(**{field: value})


def test_an_interval_needs_two_timestamps():
    with pytest.raises(ValueError, match="timestamps must be >= 2"):
        params(timestamps=1)
    ds = make_benchmark(params(timestamps=1, interval_fraction=0.0, unique_times=False))
    assert {(tb, te) for *_, tb, te in ds.quads1} == {("1", "1")}


@pytest.mark.parametrize("kw", [
    dict(seed_pairs=0), dict(seed_pairs=40), dict(edge_noise=1.0, time_noise=1.0),
    dict(entities=2, relations=1, timestamps=2, interval_fraction=1.0, unique_times=False,
         seed_pairs=1),
])
def test_range_edges_accepted(kw):
    ds = make_benchmark(params(**kw))
    assert len(ds.sup_pairs) + len(ds.ref_pairs) == ds.entity_perm.size
