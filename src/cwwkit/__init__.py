"""cwwkit: computing-with-words evaluation of examination strategies.

Four methods turn per-parameter linguistic feedback into a numeric score
plus a word: triangular extension-principle matching, symbolic index
recursion, the 2-tuple representation, and perceptual computing on
interval type-2 word models.
"""

from .codebook import (Codebook, CodebookEntry, StoredCentroid,
                       default_codebook, default_feedback_path, load_codebook,
                       verify_stored_centroids)
from .errors import (ConfigurationError, CwwError, CodebookError,
                     DegenerateInputError, SchemaError, WordResolutionError)
from .extension import (TriTuple, aggregate_tri_tuples,
                        linguistic_approximation, uniform_triangular_partition,
                        weighted_distance)
from .it2 import (CentroidInterval, DiscretizationGrid, SampledFOU,
                  TrapezoidIT2, centroid, centroid_brute_force,
                  jaccard_similarity, lwa_exact, lwa_paper)
from .pipeline import (EvalOptions, EvaluationReport, Method, Recommendation,
                       evaluate_batch, evaluate_student, rank_students,
                       uniqueness_report)
from .symbolic import sm2, sm_aggregate
from .two_tuple import TwoTuple, aggregate_beta, to_two_tuple
from .vocabulary import (FeedbackRecord, LinguisticTerm, ParameterSchema,
                         RawFeedback, TermSet, build_default_schema,
                         read_feedback_file, resolve_feedback)

__version__ = "0.1.0"

__all__ = [
    "Codebook", "CodebookEntry", "StoredCentroid", "default_codebook",
    "default_feedback_path", "load_codebook",
    "verify_stored_centroids",
    "ConfigurationError", "CwwError", "CodebookError", "DegenerateInputError",
    "SchemaError", "WordResolutionError",
    "TriTuple", "aggregate_tri_tuples",
    "linguistic_approximation", "uniform_triangular_partition",
    "weighted_distance",
    "CentroidInterval", "DiscretizationGrid", "SampledFOU", "TrapezoidIT2",
    "centroid", "centroid_brute_force", "jaccard_similarity",
    "lwa_exact", "lwa_paper",
    "EvalOptions", "EvaluationReport", "Method",
    "evaluate_batch", "evaluate_student", "rank_students", "uniqueness_report",
    "sm2", "sm_aggregate",
    "TwoTuple", "aggregate_beta", "to_two_tuple",
    "FeedbackRecord", "LinguisticTerm", "ParameterSchema", "RawFeedback",
    "Recommendation", "TermSet", "build_default_schema", "read_feedback_file",
    "resolve_feedback",
]
