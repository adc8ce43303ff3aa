"""Offline top-N recommender benchmark.

Load interaction and item-content data, hide part of each evaluation user's
profile, produce ranked lists with collaborative and content-based
algorithms, and score them with ranking-quality and coverage metrics across
cross-validation folds.

The names exported here are the ones README's "Library use" documents; the
rest is reached through the submodules.
"""

from .corpus import InteractionDataset, load_content, load_interactions, materialize_split, plan_splits
from .errors import (
    ColdStartError,
    ConfigurationError,
    EmptyDatasetError,
    ParseError,
    ProtocolError,
    RecbenchError,
    UndefinedMetricError,
)
from .harness import ExperimentConfig, ExperimentResult, ReportRecord, run_experiment, summarize, write_run_dir
from .metrics import evaluate, hit_intersection, jaccard_list_similarity
from .recommenders import (
    ALGORITHMS,
    UserProfile,
    fit_cf,
    fit_sup,
    fit_upa,
    recommend_cf,
    recommend_sup,
    recommend_upa,
)
from .textproc import build_index, default_stopwords, tokenize

__version__ = "0.1.0"

__all__ = [
    "ALGORITHMS",
    "ColdStartError",
    "ConfigurationError",
    "EmptyDatasetError",
    "ExperimentConfig",
    "ExperimentResult",
    "InteractionDataset",
    "ParseError",
    "ProtocolError",
    "RecbenchError",
    "ReportRecord",
    "UndefinedMetricError",
    "UserProfile",
    "build_index",
    "default_stopwords",
    "evaluate",
    "fit_cf",
    "fit_sup",
    "fit_upa",
    "hit_intersection",
    "jaccard_list_similarity",
    "load_content",
    "load_interactions",
    "materialize_split",
    "plan_splits",
    "recommend_cf",
    "recommend_sup",
    "recommend_upa",
    "run_experiment",
    "summarize",
    "tokenize",
    "write_run_dir",
]
