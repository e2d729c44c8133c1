"""PRORD reproduction: proactive request distribution via web log mining.

An implementation of Lee et al., "A PROactive Request Distribution
(PRORD) Using Web Log Mining in a Cluster-Based Web Server" (ICPP 2006),
together with every substrate its evaluation depends on.

Package map
-----------
``repro.logs``
    Web-log substrate: Common Log Format, sessions, website models,
    synthetic workload generators, persistence.
``repro.mining``
    Web-usage mining: dependency graphs (Alg. 1), prefetch prediction
    (Alg. 2), bundles, popularity, the PPM comparator predictor.
``repro.sim``
    Discrete-event cluster simulator: engine, caches, servers,
    dispatcher, metrics, tracing, closed-loop clients.
``repro.policies``
    WRR, LARD, Ext-LARD-PHTTP, PRORD, replication (Alg. 3).
``repro.core``
    Table-1 parameters and the end-to-end mine -> build -> run pipeline.
``repro.experiments``
    One module per paper table/figure plus a combined report.

Quick start::

    from repro.core import PRORDSystem, SimulationParams
    from repro.logs import synthetic_workload

    system = PRORDSystem(synthetic_workload(),
                         SimulationParams(n_backends=8))
    results = system.compare(("wrr", "lard", "prord"), cache_fraction=0.3)

The subpackages above and ``repro.obs`` resolve their exported names
on first access (PEP 562, :func:`_lazy_exports`), so importing one
module loads what that module imports, not a whole package.
"""

from __future__ import annotations

from importlib import import_module
from typing import Callable

__version__ = "1.0.0"

__all__ = ["__version__"]


def _lazy_exports(
    namespace: dict[str, object], exports: dict[str, tuple[str, ...]]
) -> tuple[Callable[[str], object], Callable[[], list[str]]]:
    """The ``__getattr__`` and ``__dir__`` of a package whose names load
    on first access.

    ``namespace`` is the package's ``globals()``; ``exports`` maps each
    submodule to the names the package re-exports from it.  A name is
    imported from its submodule when first read and then stored in the
    package, so later reads never reach the hook.
    """
    package = namespace["__name__"]
    owner = {name: module for module, names in exports.items()
             for name in names}

    def __getattr__(name: str) -> object:
        module = owner.get(name)
        if module is None:
            raise AttributeError(
                f"module {package!r} has no attribute {name!r}")
        value = getattr(import_module(f"{package}.{module}"), name)
        namespace[name] = value
        return value

    def __dir__() -> list[str]:
        return sorted(namespace.keys() | owner.keys())

    return __getattr__, __dir__
