"""Core PRORD system: parameters and the end-to-end pipeline.

``config`` is imported eagerly (it has no intra-package dependencies);
the ``system`` entry points are loaded lazily on first attribute access
so that low-level packages (sim, policies) can import
``repro.core.config`` without pulling the whole pipeline in — which
would be an import cycle.
"""

from .config import KB, MB, SimulationParams

_SYSTEM_EXPORTS = (
    "POLICY_NAMES", "MINING_POLICY_NAMES", "MinedModels", "MiningResult",
    "PRORDSystem", "build_policy", "cache_bytes_for_fraction",
    "mine_components", "mine_models", "run_policy",
)

__all__ = ["KB", "MB", "SimulationParams", *_SYSTEM_EXPORTS]


def __getattr__(name: str):
    if name in _SYSTEM_EXPORTS:
        from . import system
        return getattr(system, name)
    raise AttributeError(f"module {__name__!r} has no attribute {name!r}")
