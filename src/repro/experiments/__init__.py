"""Experiment harness: one module per paper table/figure.

* :mod:`repro.experiments.table1` — the parameter table;
* :mod:`repro.experiments.fig6` — frequency of dispatches;
* :mod:`repro.experiments.fig7` — policy throughput comparison;
* :mod:`repro.experiments.fig8` — memory-fraction sweep;
* :mod:`repro.experiments.fig9` — per-enhancement ablation;
* :mod:`repro.experiments.report` — run everything.
"""

from typing import TYPE_CHECKING

from .. import _lazy_exports

if TYPE_CHECKING:  # pragma: no cover - the names __getattr__ resolves
    from .charts import bar_chart, grouped_bar_chart, sparkline
    from .common import (
        FULL,
        QUICK,
        ExperimentScale,
        format_table,
        gain,
        loaded_workload,
    )
    from .fig6 import Fig6Row, run_fig6
    from .fig7 import Fig7Row, run_fig7, run_fig7_backend_sweep
    from .fig8 import Fig8Row, run_fig8
    from .fig9 import Fig9Row, run_fig9
    from .report import run_all
    from .runner import Cell, CellResult, run_grid
    from .table1 import run_table1

_EXPORTS = {
    "charts": ("bar_chart", "grouped_bar_chart", "sparkline"),
    "common": ("FULL", "QUICK", "ExperimentScale", "format_table", "gain",
               "loaded_workload"),
    "runner": ("Cell", "CellResult", "run_grid"),
    "fig6": ("Fig6Row", "run_fig6"),
    "fig7": ("Fig7Row", "run_fig7", "run_fig7_backend_sweep"),
    "fig8": ("Fig8Row", "run_fig8"),
    "fig9": ("Fig9Row", "run_fig9"),
    "report": ("run_all",),
    "table1": ("run_table1",),
}

__all__ = [name for names in _EXPORTS.values() for name in names]
__getattr__, __dir__ = _lazy_exports(globals(), _EXPORTS)
