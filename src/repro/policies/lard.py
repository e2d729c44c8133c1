"""Locality-Aware Request Distribution — Pai et al. (ASPLOS'98).

:class:`LARDPolicy` is the original single-target LARD.  Every request
is analysed and dispatched (one dispatcher contact per request); each
target path has one assigned backend, rebalanced when it saturates.
Connection semantics are HTTP/1.0-style (the setting LARD was designed
for): every request pays connection setup and a handoff — precisely the
per-request overhead the paper's §2.1 discussion turns on.
"""

from __future__ import annotations

from ..logs.records import Request
from .base import Policy, RoutingDecision

__all__ = ["LARDPolicy"]


class LARDPolicy(Policy):
    """Classic single-target LARD.

    Routing per Pai et al.: first request for a target goes to the
    least-loaded backend and binds the target there.  A later request
    moves the target when the bound backend is badly loaded — load above
    ``2*T_high``, or above ``T_high`` while some backend sits below
    ``T_low`` — otherwise locality wins.
    """

    name = "lard"
    persistent_connections = False

    def __init__(self) -> None:
        super().__init__()
        self._assignment: dict[str, int] = {}

    def route(self, request: Request) -> RoutingDecision:
        path = request.path
        target = self._assignment.get(path)
        if target is None or self.overloaded(target):
            target = self.least_loaded()
            self._assignment[path] = target
        cached = self._dispatch_decisions
        if cached is not None:
            return cached[target]
        return RoutingDecision(server_id=target, dispatched=True)

    @property
    def assignments(self) -> int:
        """Number of targets currently bound (for tests/reports)."""
        return len(self._assignment)
