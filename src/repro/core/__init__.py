"""Core PRORD system: parameters and the end-to-end pipeline.

``config`` is imported eagerly (it has no intra-package dependencies);
the ``system`` entry points are loaded lazily on first attribute access
so that low-level packages (sim, policies) can import
``repro.core.config`` without pulling the whole pipeline in — which
would be an import cycle.
"""

from typing import TYPE_CHECKING

from .. import _lazy_exports
from .config import KB, MB, SimulationParams

if TYPE_CHECKING:  # pragma: no cover - the names __getattr__ resolves
    from .system import (
        MINING_POLICY_NAMES,
        POLICY_NAMES,
        MinedModels,
        MiningResult,
        PRORDSystem,
        build_policy,
        cache_bytes_for_fraction,
        mine_components,
        mine_models,
        run_policy,
    )

_EXPORTS = {
    "system": ("POLICY_NAMES", "MINING_POLICY_NAMES", "MinedModels",
               "MiningResult", "PRORDSystem", "build_policy",
               "cache_bytes_for_fraction", "mine_components", "mine_models",
               "run_policy"),
}

__all__ = ["KB", "MB", "SimulationParams", *_EXPORTS["system"]]
__getattr__, __dir__ = _lazy_exports(globals(), _EXPORTS)
