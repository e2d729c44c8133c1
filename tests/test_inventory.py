"""The module inventory (DESIGN.md §2) covers ``src/repro`` exactly.

A module stays only for a reason the inventory gives.  A new module
without a row, a module with two rows, or a row naming a module that is
gone fails here, and so does a row whose reason is not one of the four
(or "marked") or whose last column names a missing file.
"""

import re
from pathlib import Path

ROOT = Path(__file__).resolve().parents[1]
SRC = ROOT / "src"
REASONS = ("pipeline", "EXPERIMENTS row", "correctness tool",
           "observability", "marked")
_ROW = re.compile(r"^\| `(repro(?:\.\w+)*)` \| ([^|]+) \| ([^|]+) \|$")
_PATH = re.compile(r"`((?:tests|benchmarks|examples)/[\w/]+\.py)`")


def inventory() -> dict[str, tuple[str, str]]:
    """``module -> (reason, exercised by)`` from DESIGN.md §2."""
    text = (ROOT / "DESIGN.md").read_text()
    section = text.split("\n## 2. ", 1)[1].split("\n## ", 1)[0]
    rows: dict[str, tuple[str, str]] = {}
    for line in section.splitlines():
        match = _ROW.match(line)
        if match:
            name, reason, exercised = match.groups()
            assert name not in rows, f"two rows name {name}"
            rows[name] = (reason.strip(), exercised.strip())
    return rows


def modules() -> list[str]:
    """Every module under src/repro but ``__init__`` and ``__main__``."""
    return sorted(
        ".".join(path.relative_to(SRC).with_suffix("").parts)
        for path in (SRC / "repro").rglob("*.py")
        if path.stem not in ("__init__", "__main__")
    )


def test_every_module_has_exactly_one_row():
    rows = inventory()
    problems = []
    for module in modules():
        covering = [name for name in rows
                    if module == name or module.startswith(name + ".")]
        if len(covering) != 1:
            problems.append(f"{module}: rows {covering}")
    assert not problems, problems


def test_every_row_names_a_module_or_package():
    missing = []
    for name in inventory():
        path = SRC.joinpath(*name.split("."))
        if not (path.with_suffix(".py").is_file()
                or (path / "__init__.py").is_file()):
            missing.append(name)
    assert not missing, missing


def test_every_row_gives_a_reason_and_what_exercises_it():
    problems = []
    for name, (reason, exercised) in inventory().items():
        if not reason.startswith(REASONS):
            problems.append(f"{name}: reason {reason!r}")
        for path in _PATH.findall(exercised):
            if not (ROOT / path).is_file():
                problems.append(f"{name}: {path} does not exist")
    assert not problems, problems
