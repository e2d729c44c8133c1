"""Table 1 — the simulation parameter set.

Not a result, but part of the reproduction: prints the parameter table
the simulator actually runs with, in the paper's layout, and documents
which entries were garbled in the source scan (DESIGN.md §3).
"""

from __future__ import annotations

from ..core.config import SimulationParams
from .common import format_table

__all__ = ["run_table1", "main"]

#: Entries whose numeric values were unreadable in the paper scan and
#: therefore default to the LARD-paper-derived cost model.
DEFAULTED_ENTRIES = ("Disk latency",)


def run_table1(params: SimulationParams | None = None) -> list[tuple[str, str]]:
    params = params or SimulationParams()
    return params.table1_rows()


def main(params: SimulationParams | None = None) -> str:
    rows = run_table1(params)
    table = format_table(
        "Table 1 - System Parameters",
        ["parameter", "value"],
        [[name, value] for name, value in rows],
    )
    notes = "\n".join(
        f"note: {name!r} was garbled in the paper scan; value follows "
        "the Pai et al. (ASPLOS'98) cost model (see DESIGN.md)"
        for name in DEFAULTED_ENTRIES
    )
    out = table + "\n" + notes
    print(out)
    return out


if __name__ == "__main__":
    raise SystemExit(
        "error: python -m repro.experiments.table1 runs nothing; "
        "use `repro table1`")
