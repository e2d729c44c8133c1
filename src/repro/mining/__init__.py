"""Web-log mining substrate: popularity, bundles, navigation prediction."""

from .adaptive import IndexPageSuggestion, IndexPageSynthesizer, cooccurrence_counts
from .association import AprioriMiner, AssociationPredictor, AssociationRule
from .bundles import BundleAccumulator, BundleMiner, BundleTable
from .categorize import (
    Categorization,
    CategoryAccumulator,
    CategoryProfile,
    UserCategorizer,
)
from .depgraph import DependencyGraph, Prediction
from .evaluation import NextPagePredictor, PredictorReport, evaluate_predictor
from .fold import StreamingModelFold, models_equal, models_fingerprint
from .modelcache import ModelCache, cached_mine_models, mining_fingerprint
from .popularity import PopularityTracker, RankTable
from .ppm import PPMPredictor
from .prefetch import PrefetchDecision, PrefetchPredictor, PrefetchStats
from .reports import SiteUsageReport, analyze_log
from .sequences import SequenceMiner, SequencePredictor, SequenceRule

__all__ = [
    "IndexPageSuggestion", "IndexPageSynthesizer", "cooccurrence_counts",
    "AprioriMiner", "AssociationPredictor", "AssociationRule",
    "BundleAccumulator", "BundleMiner", "BundleTable",
    "Categorization", "CategoryAccumulator", "CategoryProfile",
    "UserCategorizer",
    "DependencyGraph", "Prediction",
    "NextPagePredictor", "PredictorReport", "evaluate_predictor",
    "StreamingModelFold", "models_equal", "models_fingerprint",
    "ModelCache", "cached_mine_models", "mining_fingerprint",
    "PopularityTracker", "RankTable",
    "PPMPredictor",
    "PrefetchDecision", "PrefetchPredictor", "PrefetchStats",
    "SiteUsageReport", "analyze_log",
    "SequenceMiner", "SequencePredictor", "SequenceRule",
]
