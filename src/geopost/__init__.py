"""Text-based geolocation of short posts within a known region.

The region is partitioned into a g x g grid; one smoothed bigram language
model is trained per cell, and a query post is placed at the center of
the cell maximizing a geo-smoothed Bayesian posterior.
"""

from .errors import (
    DataError,
    EstimationError,
    GeopostError,
    OutOfRegionError,
    UndefinedContextError,
    ValidationError,
)
from .estimator import (
    Estimate,
    GeoEnsemble,
    PosteriorField,
    SmoothingConfig,
    build_ensemble,
    estimate,
    estimate_batch,
    estimates_csv,
    geo_smooth,
    posterior_field,
)
from .evaluation import (
    ErrorReport,
    SplitSpec,
    SyntheticSpec,
    error_report,
    estimation_error_km,
    evaluate,
    generate_synthetic,
    split,
)
from .grid import (
    CellId,
    GeoBounds,
    GeoPoint,
    GridPartition,
    geo_distance_km,
    partition,
)
from .lm import (
    BaselineInterpolation,
    CellLanguageModel,
    CountTables,
    Discounts,
    compute_discounts,
    train_cell,
)
from .pipeline import (
    MISC,
    PipelineArtifacts,
    RawPost,
    TokenizedPost,
    build_training_corpus,
    clean_and_tokenize,
    fold_hapax,
    induce_stopwords,
    preprocess,
)
from .storage import load_model, save_model
from .tuning import SearchSpace, TuneResult, error_vs_d, grid_search

__version__ = "0.1.0"

__all__ = [
    "BaselineInterpolation",
    "CellId",
    "CellLanguageModel",
    "CountTables",
    "DataError",
    "Discounts",
    "ErrorReport",
    "Estimate",
    "EstimationError",
    "GeoBounds",
    "GeoEnsemble",
    "GeoPoint",
    "GeopostError",
    "GridPartition",
    "MISC",
    "OutOfRegionError",
    "PipelineArtifacts",
    "PosteriorField",
    "RawPost",
    "SearchSpace",
    "SmoothingConfig",
    "SplitSpec",
    "SyntheticSpec",
    "TokenizedPost",
    "TuneResult",
    "UndefinedContextError",
    "ValidationError",
    "build_ensemble",
    "build_training_corpus",
    "clean_and_tokenize",
    "compute_discounts",
    "estimate",
    "estimate_batch",
    "estimates_csv",
    "estimation_error_km",
    "evaluate",
    "error_report",
    "error_vs_d",
    "fold_hapax",
    "generate_synthetic",
    "geo_distance_km",
    "geo_smooth",
    "grid_search",
    "induce_stopwords",
    "load_model",
    "partition",
    "posterior_field",
    "preprocess",
    "save_model",
    "split",
    "train_cell",
]
