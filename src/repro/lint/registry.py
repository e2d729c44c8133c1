"""Rule registry: the ~50-line-per-rule extension point.

A rule is a named check over one parsed file.  Registering one takes a
:func:`rule` decorator around a ``check(ctx) -> list[Diagnostic]``
function plus a scope predicate and a pair of self-test snippets; the
CLI, the pragma machinery, ``--self-test`` and the fixture tests all
discover it through this registry, so a new rule is one function in
one module.
"""

from __future__ import annotations

from collections.abc import Callable, Iterable
from dataclasses import dataclass, field
from typing import TYPE_CHECKING

if TYPE_CHECKING:  # pragma: no cover - import cycle guard
    from .core import Diagnostic, FileContext

__all__ = [
    "Rule",
    "all_rules",
    "families",
    "get_rule",
    "in_packages",
    "everywhere",
    "rule",
]

#: The checker families a rule may belong to.  ``pragma`` is the meta
#: family enforcing the disable-comment contract itself.
FAMILIES = ("determinism", "hooks", "pools", "pragma")


def everywhere(relpath: str) -> bool:
    """Scope predicate: the whole tree."""
    return True


def in_packages(*packages: str) -> Callable[[str], bool]:
    """Scope predicate: only files under ``repro/<package>/`` (or the
    top-level module ``repro/<package>.py``)."""

    prefixes = tuple(f"repro/{p}/" for p in packages)
    modules = tuple(f"repro/{p}.py" for p in packages)

    def scope(relpath: str) -> bool:
        return relpath.startswith(prefixes) or relpath in modules

    return scope


@dataclass(frozen=True)
class Rule:
    """One named static check.

    ``bad_example`` must trip the rule at ``bad_lines`` (1-indexed into
    the snippet) and ``good_example`` must pass — ``repro lint
    --self-test`` executes both for every registered rule, so a rule
    whose checker silently stopped firing fails CI rather than rotting.
    """

    name: str
    family: str
    summary: str
    check: "Callable[[FileContext], Iterable[Diagnostic]]"
    scope: Callable[[str], bool] = field(default=everywhere)
    bad_example: str = ""
    bad_lines: tuple[int, ...] = ()
    good_example: str = ""


_RULES: dict[str, Rule] = {}


def rule(
    name: str,
    family: str,
    summary: str,
    *,
    scope: Callable[[str], bool] = everywhere,
    bad_example: str = "",
    bad_lines: tuple[int, ...] = (),
    good_example: str = "",
) -> Callable[
    ["Callable[[FileContext], Iterable[Diagnostic]]"],
    "Callable[[FileContext], Iterable[Diagnostic]]",
]:
    """Register ``check`` under ``name``; returns it unchanged."""

    if family not in FAMILIES:
        raise ValueError(f"unknown rule family {family!r} (have {FAMILIES})")

    def register(
        check: "Callable[[FileContext], Iterable[Diagnostic]]",
    ) -> "Callable[[FileContext], Iterable[Diagnostic]]":
        if name in _RULES:
            raise ValueError(f"duplicate rule name {name!r}")
        _RULES[name] = Rule(
            name=name,
            family=family,
            summary=summary,
            check=check,
            scope=scope,
            bad_example=bad_example,
            bad_lines=bad_lines,
            good_example=good_example,
        )
        return check

    return register


def all_rules() -> tuple[Rule, ...]:
    """Every registered rule, in a stable (name-sorted) order."""
    return tuple(_RULES[name] for name in sorted(_RULES))


def get_rule(name: str) -> Rule:
    try:
        return _RULES[name]
    except KeyError:
        raise KeyError(
            f"unknown rule {name!r}; known: {', '.join(sorted(_RULES))}"
        ) from None


def families() -> dict[str, tuple[Rule, ...]]:
    """Rules grouped by family, families and rules name-sorted."""
    grouped: dict[str, list[Rule]] = {f: [] for f in FAMILIES}
    for r in all_rules():
        grouped[r.family].append(r)
    return {f: tuple(rs) for f, rs in grouped.items() if rs}
