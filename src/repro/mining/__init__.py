"""Web-log mining substrate: popularity, bundles, navigation prediction."""

from typing import TYPE_CHECKING

from .. import _lazy_exports

if TYPE_CHECKING:  # pragma: no cover - the names __getattr__ resolves
    from .bundles import BundleAccumulator, BundleMiner, BundleTable
    from .depgraph import DependencyGraph, Prediction
    from .fold import StreamingModelFold, models_equal, models_fingerprint
    from .modelcache import (
        ModelCache, cached_mine_models, mining_fingerprint,
    )
    from .popularity import PopularityTracker, RankTable
    from .ppm import PPMPredictor
    from .prefetch import PrefetchDecision, PrefetchPredictor, PrefetchStats

_EXPORTS = {
    "bundles": ("BundleAccumulator", "BundleMiner", "BundleTable"),
    "depgraph": ("DependencyGraph", "Prediction"),
    "fold": ("StreamingModelFold", "models_equal", "models_fingerprint"),
    "modelcache": ("ModelCache", "cached_mine_models", "mining_fingerprint"),
    "popularity": ("PopularityTracker", "RankTable"),
    "ppm": ("PPMPredictor",),
    "prefetch": ("PrefetchDecision", "PrefetchPredictor", "PrefetchStats"),
}

__all__ = [name for names in _EXPORTS.values() for name in names]
__getattr__, __dir__ = _lazy_exports(globals(), _EXPORTS)
