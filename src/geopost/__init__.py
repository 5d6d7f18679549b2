"""Text-based geolocation of short posts within a known region.

The region is partitioned into a g x g grid; one smoothed bigram language
model is trained per cell, and a query post is placed at the center of
the cell maximizing a geo-smoothed Bayesian posterior.
"""

from .errors import (
    DataError,
    GeopostError,
    OutOfRegionError,
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
    CellCounts,
    CountTables,
    Discounts,
    compute_discounts,
)
from .pipeline import (
    MISC,
    PipelineArtifacts,
    RawCorpus,
    RawPost,
    TokenizedPost,
    TrainingCorpus,
    build_training_corpus,
    clean_and_tokenize,
    preprocess,
)
from .storage import load_model, save_model
from .tuning import SearchSpace, TuneResult, error_vs_d, grid_search

__version__ = "0.1.0"

__all__ = [
    "BaselineInterpolation",
    "CellCounts",
    "CellId",
    "CountTables",
    "DataError",
    "Discounts",
    "ErrorReport",
    "Estimate",
    "GeoBounds",
    "GeoEnsemble",
    "GeoPoint",
    "GeopostError",
    "GridPartition",
    "MISC",
    "OutOfRegionError",
    "PipelineArtifacts",
    "PosteriorField",
    "RawCorpus",
    "RawPost",
    "SearchSpace",
    "SmoothingConfig",
    "SplitSpec",
    "SyntheticSpec",
    "TokenizedPost",
    "TrainingCorpus",
    "TuneResult",
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
    "generate_synthetic",
    "geo_distance_km",
    "geo_smooth",
    "grid_search",
    "load_model",
    "partition",
    "posterior_field",
    "preprocess",
    "save_model",
    "split",
]
