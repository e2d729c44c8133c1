"""Web-log mining substrate: popularity, bundles, navigation prediction."""

from .bundles import BundleAccumulator, BundleMiner, BundleTable
from .depgraph import DependencyGraph, Prediction
from .fold import StreamingModelFold, models_equal, models_fingerprint
from .modelcache import ModelCache, cached_mine_models, mining_fingerprint
from .popularity import PopularityTracker, RankTable
from .ppm import PPMPredictor
from .prefetch import PrefetchDecision, PrefetchPredictor, PrefetchStats

__all__ = [
    "BundleAccumulator", "BundleMiner", "BundleTable",
    "DependencyGraph", "Prediction",
    "StreamingModelFold", "models_equal", "models_fingerprint",
    "ModelCache", "cached_mine_models", "mining_fingerprint",
    "PopularityTracker", "RankTable",
    "PPMPredictor",
    "PrefetchDecision", "PrefetchPredictor", "PrefetchStats",
]
