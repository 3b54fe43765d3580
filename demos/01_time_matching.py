"""Temporal matching from first principles.

Builds two tiny temporal KGs by hand, assembles each entity's timestamp
multiset, and shows how the Dice-style similarity and the exact-match seed
generator behave.
"""

import numpy as np

from tkgalign import (
    TemporalKG,
    build_time_dictionary,
    build_time_similarity_matrix,
    generate_seeds,
    time_similarity,
)

# Quadruple rows: head, relation, tail, time_begin, time_end. A point in time
# repeats its id; id 0 means unknown.
# Graph 1: three entities. Entity 0 is active in 2005 and 2008-2010,
# entity 1 only in 2005, entity 2 has an unknown-time fact.
quads1 = [
    [0, 0, 1, 2005, 2005],
    [0, 1, 2, 2008, 2010],
    [2, 0, 1, 0, 0],
]
kg1 = TemporalKG.build(quads1, entity_count=3, relation_count=2)

# Graph 2: a relabeled copy of graph 1 with entities permuted (0,1,2)->(2,0,1).
quads2 = [
    [2, 0, 0, 2005, 2005],
    [2, 1, 1, 2008, 2010],
    [1, 0, 0, 0, 0],
]
kg2 = TemporalKG.build(quads2, entity_count=3, relation_count=2)

# Each dictionary is a sparse entity x timestamp-id count matrix.
d1 = build_time_dictionary(kg1)
d2 = build_time_dictionary(kg2)


def multisets(counts):
    return [np.repeat(row.indices, row.data).tolist() for row in counts]


m1, m2 = multisets(d1), multisets(d2)
print("timestamp multisets, graph 1:", m1)
print("timestamp multisets, graph 2:", m2)

# Pairwise score: 2 * |intersection| / (m + n), multiset semantics.
print("\nsim(entity0_g1, entity2_g2) =", time_similarity(m1[0], m2[2]))
print("sim(entity0_g1, entity0_g2) =", time_similarity(m1[0], m2[0]))

sim = build_time_similarity_matrix(d1, d2)
print("\nfull similarity matrix:\n", np.round(sim.dense, 3))

# Seed generation keeps a pair only when both sides are each other's unique
# exact match. All three multisets are distinctive here, so the full
# permutation (0,1,2) -> (2,0,1) is recovered without any supervision.
seeds = generate_seeds(sim)
print("\ngenerated seeds:", seeds.pairs)  # [(0, 2), (1, 0), (2, 1)]
