"""Run every experiment and emit a combined report.

``repro report [--full]`` regenerates all the paper's tables and
figures at the chosen scale and prints them; the output is the basis of
EXPERIMENTS.md.
"""

from __future__ import annotations

import time

from . import fig6, fig7, fig8, fig9, table1
from .common import QUICK, ExperimentScale

__all__ = ["run_all"]


def run_all(
    scale: ExperimentScale = QUICK,
    *,
    jobs: int = 0,
    audit: bool = False,
    model_cache=None,
) -> str:
    """Run Table 1 + Figs. 6–9; returns the combined report text.

    ``jobs`` fans each figure's grid out over that many worker
    processes (``0`` = serial) without changing any number in the
    report.  ``audit`` attaches the strict simulation auditor to every
    run — also without changing any number (the hook is pure
    observation).  ``model_cache`` (a directory path or
    :class:`~repro.mining.modelcache.ModelCache`) persists the mining
    pass across invocations — again without changing any number.
    """
    sections: list[str] = []
    t0 = time.monotonic()
    sections.append(table1.main())
    for module in (fig6, fig7, fig8, fig9):
        start = time.monotonic()
        sections.append(module.main(scale, jobs=jobs, audit=audit,
                                    model_cache=model_cache))
        timing = f"[{module.__name__} took {time.monotonic() - start:.1f} s]"
        print(timing)
        sections.append(timing)
    footer = (
        f"All experiments at scale {scale.name!r} took "
        f"{time.monotonic() - t0:.1f} s."
    )
    print(footer)
    sections.append(footer)
    return "\n\n".join(sections)


if __name__ == "__main__":
    raise SystemExit(
        "error: python -m repro.experiments.report runs nothing; "
        "use `repro report`")
