"""Compare two benchmark results files.

    python3 bench/compare.py A.json B.json

``A`` is the reference (the parent commit, or a first run) and ``B`` the
candidate; both are ``bench/out/results.json`` files.  For each workload
and end-to-end metric it prints both medians and interquartile ranges
(IQR, the gap between the quartiles) and a verdict against the metric's
bound in ``BENCHMARK.json``:

* ``unresolved`` -- either side's IQR is wider than the bound, so the
  runs cannot tell a change of that size from noise;
* ``regressed`` / ``improved`` -- ``B``'s median is worse / better than
  ``A``'s by more than the bound;
* ``within`` -- otherwise.

The exact counters and ``report_sha256`` must be equal; a workload whose
``input_sha256`` differs was run on other inputs, and its comparison is
``invalid``.  Exit code: 0 if every verdict is ``within`` or ``improved``
and every check holds, 2 if any comparison is invalid, 1 otherwise.
"""

from __future__ import annotations

import json
import sys
from pathlib import Path

BENCHMARK = Path(__file__).resolve().parent.parent / "BENCHMARK.json"


def verdict(a: dict, b: dict, bound: float, better: str) -> str:
    """Verdict for one metric; ``a``/``b`` carry median, q1 and q3."""
    for side in (a, b):
        if (side["q3"] - side["q1"]) > bound * abs(side["median"]):
            return "unresolved"
    change = (b["median"] - a["median"]) / a["median"]
    worse = change if better == "lower" else -change
    if worse > bound:
        return "regressed"
    if worse < -bound:
        return "improved"
    return "within"


def compare(a: dict, b: dict, metrics: list[dict]) -> tuple[list[str], int]:
    """Report lines and the exit code for results ``a`` against ``b``."""
    lines, code = [], 0
    for name in sorted(set(a["workloads"]) | set(b["workloads"])):
        wa, wb = a["workloads"].get(name), b["workloads"].get(name)
        if wa is None or wb is None:
            lines.append(f"{name}: only in {'B' if wa is None else 'A'}")
            code = max(code, 1)
            continue
        if wa["input_sha256"] != wb["input_sha256"]:
            lines.append(f"{name}: invalid, the inputs differ "
                         f"(input_sha256 {wa['input_sha256'][:12]} vs "
                         f"{wb['input_sha256'][:12]})")
            code = 2
            continue
        for metric in metrics:
            ma = wa["end_to_end"][metric["name"]]
            mb = wb["end_to_end"][metric["name"]]
            v = verdict(ma, mb, metric["bound"], metric["better"])
            if v not in ("within", "improved"):
                code = max(code, 1)
            change = (mb["median"] - ma["median"]) / ma["median"]
            lines.append(
                f"{name} {metric['name']}: "
                f"A {ma['median']:.4g} (IQR {ma['q3'] - ma['q1']:.3g}) "
                f"B {mb['median']:.4g} (IQR {mb['q3'] - mb['q1']:.3g}) "
                f"{change:+.1%} bound {metric['bound']:.0%} -> {v}")
        if wa["report_sha256"] != wb["report_sha256"]:
            lines.append(f"{name}: report_sha256 differs")
            code = max(code, 1)
        differ = sorted(k for k in wa["counters"].keys() | wb["counters"]
                        if wa["counters"].get(k) != wb["counters"].get(k))
        if differ:
            lines.append(f"{name}: counters differ: {', '.join(differ)}")
            code = max(code, 1)
        else:
            lines.append(f"{name}: report and {len(wa['counters'])} "
                         "counters identical")
    return lines, code


def main(argv: list[str]) -> int:
    if len(argv) != 2:
        print(__doc__.strip().splitlines()[2].strip(), file=sys.stderr)
        return 2
    a, b = (json.loads(Path(p).read_text()) for p in argv)
    metrics = json.loads(BENCHMARK.read_text())["end_to_end"]
    lines, code = compare(a, b, metrics)
    print("\n".join(lines))
    return code


if __name__ == "__main__":
    sys.exit(main(sys.argv[1:]))
