"""Entity alignment across temporal knowledge graphs.

A weightless mean-aggregation graph encoder learns entity embeddings from
structure and relations; exact timestamp matching supplies a second
similarity signal; predictions combine both with hubness-corrected scaling.
Seeds can be supervised, bootstrapped iteratively, or generated from
timestamps alone.
"""
from .aligner import (
    AlignConfig,
    IterationResult,
    combine,
    csls_rescale,
    iterate,
    mutual_nearest_pairs,
    predict,
    predict_and_rank,
)
from .encoder import (
    EmbeddingState,
    EncoderConfig,
    forward,
    init_embeddings,
)
from .evaluate import EvalConfig, EvalReport, RowRanks, evaluate, rank_of_truth
from .io import DatasetLayout, load_dataset, read_predictions, write_pairs, write_predictions
from .kg import (
    AlignmentPairSet,
    MergedTimeVocabulary,
    TemporalKG,
    build_merged_time_vocabulary,
    union_graph,
)
from .seeds import generate_seeds
from .synth import SynthParams, make_benchmark, write_benchmark
from .timesim import (
    SimilarityMatrix,
    TimeScores,
    build_time_dictionary,
    build_time_similarity_matrix,
    time_similarity,
)
from .trainer import (
    OptimizerState,
    TrainConfig,
    TripletBatch,
    compute_gradients,
    optimizer_step,
    sample_negatives,
)

__all__ = [name for name in dir() if not name.startswith("_")]
__version__ = "0.1.0"
