"""The module inventory (DESIGN.md §2) covers ``src/repro`` exactly.

A module stays only for a reason the inventory gives.  A new module
without a row, a module with two rows, or a row naming a module that is
gone fails here, and so does a row whose reason is not one of the four
(or "marked") or whose last column names a missing file.
"""

import ast
import importlib
import re
from pathlib import Path

import pytest

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


#: Packages whose exports resolve on first access (DESIGN.md §10,
#: "Import layering").
LAZY_PACKAGES = ("repro.core", "repro.experiments", "repro.logs",
                 "repro.mining", "repro.obs", "repro.policies", "repro.sim")


def declared_exports(package: str) -> dict[str, str]:
    """``name -> defining submodule`` from the package's relative
    imports, those under ``if TYPE_CHECKING:`` included: the view mypy
    checks."""
    init = SRC.joinpath(*package.split("."), "__init__.py")
    owners: dict[str, str] = {}
    for node in ast.parse(init.read_text()).body:
        block = node.body if isinstance(node, ast.If) else [node]
        for stmt in block:
            if isinstance(stmt, ast.ImportFrom) and stmt.level == 1:
                for alias in stmt.names:
                    owners[alias.name] = f"{package}.{stmt.module}"
    return owners


@pytest.mark.parametrize("package", LAZY_PACKAGES)
class TestLazyExports:
    def test_each_name_is_its_submodules_object(self, package):
        module = importlib.import_module(package)
        owners = declared_exports(package)
        assert sorted(owners) == sorted(module.__all__)
        wrong = [name for name in module.__all__
                 if getattr(module, name) is not getattr(
                     importlib.import_module(owners[name]), name)]
        assert not wrong, wrong

    def test_dir_lists_every_name(self, package):
        module = importlib.import_module(package)
        assert set(module.__all__) <= set(dir(module))

    def test_unknown_name_raises_naming_the_package(self, package):
        module = importlib.import_module(package)
        with pytest.raises(AttributeError, match=repr(package)):
            getattr(module, "no_such_name")

    def test_star_import_binds_every_name(self, package):
        namespace: dict[str, object] = {}
        exec(f"from {package} import *", namespace)
        module = importlib.import_module(package)
        assert all(namespace[name] is getattr(module, name)
                   for name in module.__all__)
