"""Pool-safety family: state that crosses ``--jobs`` must pickle.

Grid cells, mined models, telemetry mergers, and the bench children
all ship across a ``ProcessPoolExecutor`` boundary.  An instance that
captured a lambda, a local closure, an open file handle, a lock, or a
live generator pickles late (or not at all) and fails far from the
line that stored it.  These rules scan every class known to cross the
boundary — the built-in registry below plus any class carrying a
``# reprolint: pool-boundary`` marker comment — and flag the store.
"""

from __future__ import annotations

import ast
from collections.abc import Iterator

from .core import Diagnostic, FileContext
from .registry import rule

__all__ = ["POOL_BOUNDARY_CLASSES"]

#: Classes known to cross the process-pool boundary today: the grid
#: runner's shipped context and results, the mined-model artifact, and
#: everything embedded in them.  New pool-crossing classes either get
#: added here or carry ``# reprolint: pool-boundary`` on their def line.
POOL_BOUNDARY_CLASSES = frozenset({
    "Cell",
    "CellResult",
    "_GridContext",
    "MinedModels",
    "SimulationResult",
    "SimulationParams",
    "SimulationReport",
    "Workload",
    "ExperimentScale",
    "Telemetry",
    "TelemetrySummary",
    "MergedTelemetry",
    "PhaseProfiler",
    "AuditSummary",
    "TraceEvent",
})

#: Callables whose result is an OS-level resource (unpicklable).
_RESOURCE_CALLS = frozenset({
    "open",
    "io.open",
    "gzip.open",
    "bz2.open",
    "lzma.open",
    "socket.socket",
    "tempfile.TemporaryFile",
    "tempfile.NamedTemporaryFile",
    "threading.Lock",
    "threading.RLock",
    "threading.Condition",
    "threading.Event",
    "threading.Semaphore",
    "threading.BoundedSemaphore",
    "multiprocessing.Lock",
    "multiprocessing.RLock",
})

#: Builtins returning one-shot iterators (pickle failures or — worse —
#: silently exhausted state on the far side).
_ITERATOR_CALLS = frozenset({
    "map", "filter", "zip", "iter", "enumerate", "reversed",
})


def _pool_classes(ctx: FileContext) -> Iterator[ast.ClassDef]:
    for node in ast.walk(ctx.tree):
        if not isinstance(node, ast.ClassDef):
            continue
        if (
            node.name in POOL_BOUNDARY_CLASSES
            or node.lineno in ctx.pool_marker_lines
        ):
            yield node


def _instance_stores(
    cls: ast.ClassDef,
) -> Iterator[tuple[ast.AST, str, ast.expr, frozenset[str]]]:
    """(assignment node, target description, stored value, names of
    functions defined locally in the storing method) for every
    ``self.x = ...`` in a method and every class-body default."""
    no_locals: frozenset[str] = frozenset()
    for item in cls.body:
        if isinstance(item, ast.Assign):
            for target in item.targets:
                if isinstance(target, ast.Name):
                    yield item, f"{cls.name}.{target.id}", item.value, \
                        no_locals
        elif isinstance(item, ast.AnnAssign) and item.value is not None:
            if isinstance(item.target, ast.Name):
                yield item, f"{cls.name}.{item.target.id}", item.value, \
                    no_locals
        elif isinstance(item, (ast.FunctionDef, ast.AsyncFunctionDef)):
            if not item.args.args:
                continue
            self_name = item.args.args[0].arg
            local_defs = frozenset(
                n.name
                for n in ast.walk(item)
                if isinstance(n, (ast.FunctionDef, ast.AsyncFunctionDef))
                and n is not item
            )
            for node in ast.walk(item):
                value: ast.expr | None = None
                target_expr: ast.Attribute | None = None
                if isinstance(node, ast.Assign):
                    value = node.value
                    for t in node.targets:
                        if (
                            isinstance(t, ast.Attribute)
                            and isinstance(t.value, ast.Name)
                            and t.value.id == self_name
                        ):
                            target_expr = t
                elif isinstance(node, ast.AnnAssign) and node.value:
                    value = node.value
                    t = node.target
                    if (
                        isinstance(t, ast.Attribute)
                        and isinstance(t.value, ast.Name)
                        and t.value.id == self_name
                    ):
                        target_expr = t
                if value is not None and target_expr is not None:
                    yield node, f"self.{target_expr.attr}", value, local_defs


_BAD_CALLABLE = (
    "class Cell:\n"
    "    def __init__(self, policy):\n"
    "        self.make = lambda: policy()\n"
)

_GOOD_POOL = (
    "class Cell:\n"
    "    def __init__(self, policy_name):\n"
    "        self.policy_name = policy_name\n"
)


@rule(
    "pool-callable-state",
    "pools",
    "a pool-crossing class must not store lambdas or local closures in "
    "instance state; store names/specs and rebuild in the worker",
    bad_example=_BAD_CALLABLE,
    bad_lines=(3,),
    good_example=_GOOD_POOL,
)
def check_pool_callable_state(ctx: FileContext) -> Iterator[Diagnostic]:
    for cls in _pool_classes(ctx):
        for node, desc, value, local_defs in _instance_stores(cls):
            for sub in ast.walk(value):
                if isinstance(sub, ast.Lambda):
                    yield ctx.diagnostic(
                        node, "pool-callable-state",
                        f"{desc} stores a lambda; lambdas do not "
                        "pickle across the --jobs pool",
                    )
                elif isinstance(sub, ast.Name) and sub.id in local_defs:
                    yield ctx.diagnostic(
                        node, "pool-callable-state",
                        f"{desc} stores local closure {sub.id}(); "
                        "closures do not pickle across the --jobs pool",
                    )


@rule(
    "pool-resource-state",
    "pools",
    "a pool-crossing class must not hold open handles, sockets, or "
    "locks in instance state; store paths/specs and open in the worker",
    bad_example=(
        "class Cell:\n"
        "    def __init__(self, path):\n"
        "        self.fp = open(path)\n"
    ),
    bad_lines=(3,),
    good_example=_GOOD_POOL,
)
def check_pool_resource_state(ctx: FileContext) -> Iterator[Diagnostic]:
    for cls in _pool_classes(ctx):
        for node, desc, value, _locals in _instance_stores(cls):
            for sub in ast.walk(value):
                if not isinstance(sub, ast.Call):
                    continue
                name = ctx.canonical_call(sub)
                if name in _RESOURCE_CALLS:
                    yield ctx.diagnostic(
                        node, "pool-resource-state",
                        f"{desc} stores {name}(...); OS handles and "
                        "locks do not pickle across the --jobs pool",
                    )


@rule(
    "pool-generator-state",
    "pools",
    "a pool-crossing class must not hold generators or one-shot "
    "iterators in instance state; materialize (tuple/list) first",
    bad_example=(
        "class Cell:\n"
        "    def __init__(self, paths):\n"
        "        self.paths = (p for p in paths)\n"
    ),
    bad_lines=(3,),
    good_example=(
        "class Cell:\n"
        "    def __init__(self, paths):\n"
        "        self.paths = tuple(paths)\n"
    ),
)
def check_pool_generator_state(ctx: FileContext) -> Iterator[Diagnostic]:
    for cls in _pool_classes(ctx):
        for node, desc, value, _locals in _instance_stores(cls):
            offenders: list[str] = []
            if isinstance(value, ast.GeneratorExp):
                offenders.append("a generator expression")
            for sub in ast.walk(value):
                if sub is value:
                    continue
                if isinstance(sub, ast.GeneratorExp) and not isinstance(
                    ctx.parents.get(sub), ast.Call
                ):
                    # A generator fed straight into a call
                    # (tuple(x for ...)) is consumed, not stored.
                    offenders.append("a generator expression")
            if isinstance(value, ast.Call):
                name = ctx.canonical_call(value)
                if name in _ITERATOR_CALLS:
                    offenders.append(f"a one-shot {name}(...) iterator")
            for what in offenders:
                yield ctx.diagnostic(
                    node, "pool-generator-state",
                    f"{desc} stores {what}; it will not pickle (or "
                    "arrives exhausted) across the --jobs pool",
                )
