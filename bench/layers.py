"""Charge profiled host time to the repository's code layers.

A traced benchmark rep runs each pipeline stage under its own
``cProfile.Profile``.  This module turns one profile's pstats table into
per-layer self time and per-entry-point call statistics.

Self time of a ``repro`` function is its own ``tt``.  Time spent in code
outside ``repro`` (C builtins, the standard library, numpy) is charged to
the nearest ``repro`` caller, using pstats' per-caller entries: a callee's
self time is split over its caller edges by the edge's own ``tt``, and a
non-``repro`` caller passes its share on to its own callers in proportion
to their inclusive time.  Time with no ``repro`` ancestor is ``other``.

Only the standard library is used here, so the tests can exercise the
attribution on hand-made tables without importing ``repro``.
"""

from __future__ import annotations

import os
from collections import defaultdict
from typing import Callable, Mapping

#: The layers, named after the package's modules.
LAYERS = (
    "logs", "mining", "policies", "replication", "sim.engine", "sim.pump",
    "sim.frontend", "sim.server", "sim.cache", "sim.stats", "core", "other",
)

# Longest prefix wins; a module matching none of these is ``other``.
_MODULE_LAYERS = {
    "repro.logs": "logs",
    "repro.mining": "mining",
    "repro.policies": "policies",
    "repro.policies.replication": "replication",
    "repro.sim.engine": "sim.engine",
    "repro.sim.cluster": "sim.pump",
    "repro.sim.kernel": "sim.pump",
    "repro.sim.soa": "sim.pump",
    "repro.sim.frontend": "sim.frontend",
    "repro.sim.server": "sim.server",
    "repro.sim.cache": "sim.cache",
    "repro.sim.gdsf": "sim.cache",
    "repro.sim.stats": "sim.stats",
    "repro.core": "core",
}

#: Public entry points, as ``<layer>.<function>``: every function of that
#: name in the layer's modules counts (``Policy.route`` is overridden per
#: policy, and the cache may be LRU or GDSF).
ENTRY_POINTS = (
    "policies.route", "mining.observe_many", "mining.record",
    "replication.run_round", "sim.cache.access", "sim.cache.insert",
    "sim.frontend.lookup", "sim.server.start_flow", "sim.server.prefetch",
    "logs.parse_line", "logs.request_from_row",
)

#: A pstats key: (filename, first line, function name).
Func = tuple[str, int, str]


def layer_of(module: str | None) -> str:
    """The layer a dotted module name belongs to (``other`` if none)."""
    best, layer = "", "other"
    for prefix, name in _MODULE_LAYERS.items():
        if (module == prefix or (module or "").startswith(prefix + ".")) \
                and len(prefix) > len(best):
            best, layer = prefix, name
    return layer


def module_resolver(package_dir: str) -> Callable[[str], str | None]:
    """Map a code filename to its ``repro`` module name, or None.

    ``package_dir`` is the directory of the imported ``repro`` package;
    files outside it (builtins are ``~``) are not ``repro`` code.
    """
    root = os.path.normpath(package_dir) + os.sep
    top = os.path.basename(os.path.normpath(package_dir))

    def resolve(filename: str) -> str | None:
        path = os.path.normpath(filename)
        if not path.startswith(root) or not path.endswith(".py"):
            return None
        parts = [top, *path[len(root):-3].split(os.sep)]
        if parts[-1] == "__init__":
            parts.pop()
        return ".".join(parts)

    return resolve


def charged_self_times(
    stats: Mapping[Func, tuple],
    module_of: Callable[[str], str | None],
) -> dict[Func | None, float]:
    """Self time per ``repro`` function, non-``repro`` callees included.

    ``stats`` is ``pstats.Stats(...).stats``: ``func -> (cc, nc, tt, ct,
    callers)`` with ``callers[caller] = (nc, cc, tt, ct)``.  The key
    ``None`` collects time with no ``repro`` ancestor.

    Recursive non-``repro`` code (``copy.deepcopy``, ``json``) forms call
    cycles; each cycle is charged as one unit, by the edges that enter it.
    """
    def is_repro(func: Func) -> bool:
        return module_of(func[0]) is not None

    owners = _owner_shares(stats, is_repro)
    charged: dict[Func | None, float] = defaultdict(float)
    for func, (_cc, _nc, tt, _ct, callers) in stats.items():
        if is_repro(func):
            charged[func] += tt
            continue
        placed = 0.0
        for caller, edge in callers.items():
            for owner, weight in owners(caller).items():
                charged[owner] += edge[2] * weight
            placed += edge[2]
        # Calls made before the profiler was enabled have no caller edge.
        charged[None] += max(tt - placed, 0.0)
    return dict(charged)


def _owner_shares(
    stats: Mapping[Func, tuple], is_repro: Callable[[Func], bool],
) -> Callable[[Func], Mapping[Func | None, float]]:
    """``owners(func)``: the ``repro`` functions a call made from ``func``
    is charged to, as shares summing to 1.

    A ``repro`` function owns its own calls.  A non-``repro`` function's
    calls belong to its callers, weighted by their inclusive time; the
    strongly connected components of the non-``repro`` caller graph are
    weighted as one unit by the edges entering them.  Tarjan's algorithm
    emits a component only after every component that calls into it, so
    each one's shares are built from finished ones.
    """
    def up(func: Func) -> list[Func]:
        return [c for c in stats[func][4] if c in stats and not is_repro(c)]

    index: dict[Func, int] = {}
    low: dict[Func, int] = {}
    stack: list[Func] = []
    on_stack: set[Func] = set()
    component: dict[Func, int] = {}
    shares: list[dict[Func | None, float]] = []

    def owners(func: Func) -> Mapping[Func | None, float]:
        if is_repro(func):
            return {func: 1.0}
        if func in component:
            return shares[component[func]]
        return {None: 1.0}

    def close(root: Func) -> None:
        members = []
        while True:
            func = stack.pop()
            on_stack.discard(func)
            component[func] = len(shares)
            members.append(func)
            if func == root:
                break
        acc: dict[Func | None, float] = defaultdict(float)
        total = 0.0
        for func in members:
            for caller, edge in stats[func][4].items():
                if component.get(caller) == len(shares) or edge[3] <= 0:
                    continue
                total += edge[3]
                for owner, weight in owners(caller).items():
                    acc[owner] += edge[3] * weight
        shares.append({o: w / total for o, w in acc.items()}
                      if total > 0 else {None: 1.0})

    for start in stats:
        if is_repro(start) or start in index:
            continue
        index[start] = low[start] = len(index)
        stack.append(start)
        on_stack.add(start)
        work = [(start, iter(up(start)))]
        while work:
            func, callers = work[-1]
            for caller in callers:
                if caller not in index:
                    index[caller] = low[caller] = len(index)
                    stack.append(caller)
                    on_stack.add(caller)
                    work.append((caller, iter(up(caller))))
                    break
                if caller in on_stack:
                    low[func] = min(low[func], index[caller])
            else:
                work.pop()
                if work:
                    low[work[-1][0]] = min(low[work[-1][0]], low[func])
                if low[func] == index[func]:
                    close(func)
    return owners


def layer_self_times(
    charged: Mapping[Func | None, float],
    module_of: Callable[[str], str | None],
) -> dict[str, float]:
    """Sum charged function self times per layer (every layer present)."""
    out = dict.fromkeys(LAYERS, 0.0)
    for func, seconds in charged.items():
        module = module_of(func[0]) if func is not None else None
        out[layer_of(module)] += seconds
    return out


def entry_point_stats(
    stats: Mapping[Func, tuple],
    module_of: Callable[[str], str | None],
) -> dict[str, tuple[int, float]]:
    """``(calls, inclusive seconds)`` per entry point.

    Calls between functions of the same entry point (a policy's
    ``route`` delegating to its parent's) are not counted twice.
    """
    out: dict[str, tuple[int, float]] = {}
    for name in ENTRY_POINTS:
        layer, function = name.rsplit(".", 1)
        matched = {func for func in stats if func[2] == function
                   and layer_of(module_of(func[0])) == layer}
        calls, inclusive = 0, 0.0
        for func in matched:
            callers = stats[func][4]
            outside = [edge for caller, edge in callers.items()
                       if caller not in matched]
            if not callers:  # a root frame of the profile
                calls += stats[func][1]
                inclusive += stats[func][3]
            calls += sum(edge[0] for edge in outside)
            inclusive += sum(edge[3] for edge in outside)
        out[name] = (calls, inclusive)
    return out


def top_functions(
    charged: Mapping[Func | None, float],
    module_of: Callable[[str], str | None],
    n: int = 15,
) -> list[dict]:
    """The ``n`` functions with the most charged self time."""
    ranked = sorted(
        ((s, f) for f, s in charged.items() if f is not None),
        key=lambda item: -item[0],
    )[:n]
    return [
        {"function": f"{module_of(f[0])}:{f[1]}:{f[2]}",
         "layer": layer_of(module_of(f[0])), "self_s": s}
        for s, f in ranked
    ]
