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
    (Alg. 2), bundles, popularity, PPM/association/sequence predictors,
    user categorization.
``repro.sim``
    Discrete-event cluster simulator: engine, caches, servers,
    dispatcher, metrics, power, tracing, closed-loop clients.
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
"""

__version__ = "1.0.0"

__all__ = ["__version__"]
