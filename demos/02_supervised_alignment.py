"""Supervised alignment end to end, with and without bootstrapping.

Creates a 150-entity synthetic benchmark (a noisy permuted copy), trains the
weightless encoder from a handful of gold seeds, and compares a single
training round against two bootstrap iterations.
"""

import tempfile

from tkgalign import (
    AlignConfig,
    EncoderConfig,
    SynthParams,
    TrainConfig,
    build_time_dictionary,
    build_time_similarity_matrix,
    evaluate,
    init_embeddings,
    iterate,
    load_dataset,
    make_benchmark,
    write_benchmark,
)

params = SynthParams(
    entities=150, relations=6, timestamps=25, quads_per_entity=6,
    edge_noise=0.05, time_noise=0.05, seed_pairs=15, rng_seed=0,
)
layout = write_benchmark(make_benchmark(params), tempfile.mkdtemp())
kg1, kg2, vocab, seeds, refs = load_dataset(layout)
print(f"{kg1.entity_count} entities/side, {len(seeds)} seeds, {len(refs)} references")

time_matrix = build_time_similarity_matrix(
    build_time_dictionary(kg1), build_time_dictionary(kg2)
)

enc = EncoderConfig(dim=48, layers=2, init_seed=0)
trn = TrainConfig(epochs=150, rng_seed=0)

for iterations in (1, 2):
    state = init_embeddings(
        enc,
        kg1.entity_count + kg2.entity_count,
        kg1.relation_count + kg2.relation_count,
    )
    result = iterate(
        state, kg1, kg2, seeds, enc, trn,
        AlignConfig(alpha=0.3, csls_k=10, iterations=iterations),
        time_matrix, references=refs,
    )
    report = evaluate(result.similarity, refs, row_ranks=result.reference_ranks)
    label = "bootstrapped" if iterations > 1 else "single round"
    print(f"\n{label}: Hits@1 = {report.hits_at[1]:.3f}, MRR = {report.mrr:.3f}")
    for it, added, pool in result.report:
        print(f"  iteration {it}: +{added} pseudo seeds, pool = {pool}")
