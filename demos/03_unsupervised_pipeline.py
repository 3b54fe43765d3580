"""Seed-free alignment: generate seeds from exact time matches, then train.

When enough entities carry distinctive timestamp multisets, mutually unique
exact matches are reliable enough to replace gold supervision entirely.
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
    generate_seeds,
    init_embeddings,
    iterate,
    load_dataset,
    make_benchmark,
    write_benchmark,
)

params = SynthParams(
    entities=150, relations=6, timestamps=25, quads_per_entity=6,
    edge_noise=0.05, time_noise=0.05, seed_pairs=15,
    unique_times=True,  # every entity gets a distinct timestamp signature
    rng_seed=1,
)
layout = write_benchmark(make_benchmark(params), tempfile.mkdtemp())
kg1, kg2, vocab, gold_seeds, refs = load_dataset(layout)

time_matrix = build_time_similarity_matrix(
    build_time_dictionary(kg1), build_time_dictionary(kg2)
)

# Step 1: generate seeds without touching the gold ones.
generated = generate_seeds(time_matrix)
gold = dict(gold_seeds.pairs + refs.pairs)
correct = sum(gold.get(a) == b for a, b in generated.pairs)
print(f"generated {len(generated)} seeds, {correct} correct "
      f"(precision {correct / len(generated):.3f})")

# Step 2: run the ordinary supervised pipeline on the generated seeds.
enc = EncoderConfig(dim=48, layers=2, init_seed=0)
trn = TrainConfig(epochs=150, rng_seed=0)
state = init_embeddings(
    enc,
    kg1.entity_count + kg2.entity_count,
    kg1.relation_count + kg2.relation_count,
)
result = iterate(
    state, kg1, kg2, generated, enc, trn,
    AlignConfig(alpha=0.3, csls_k=10, iterations=2),
    time_matrix, references=refs,
)
report = evaluate(result.similarity, refs, row_ranks=result.reference_ranks)
print(f"unsupervised Hits@1 = {report.hits_at[1]:.3f}, MRR = {report.mrr:.3f}")
