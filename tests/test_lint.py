"""Tests for reprolint, the repo's AST-based contract checker.

Fixture protocol: every ``tests/lint_fixtures/**/*_bad.py`` file marks each
violating line with a trailing ``# expect: <rule>`` comment; the test asserts
the linter reports exactly that set of ``(line, rule)`` pairs. Every
``*_good.py`` sibling must lint clean. Pragma semantics and CLI exit codes
get their own tests below.
"""

from __future__ import annotations

import os
import re
import subprocess
import sys
import textwrap
from pathlib import Path

import pytest

from repro.lint import Linter, all_rules, families, get_rule
from repro.lint.cli import main as lint_main
from repro.lint.selftest import run_selftest

FIXTURES = Path(__file__).parent / "lint_fixtures"
REPO_ROOT = Path(__file__).resolve().parents[1]
SRC = REPO_ROOT / "src"

_EXPECT_RE = re.compile(r"#\s*expect:\s*(?P<rules>[a-z0-9-]+(?:\s*,\s*[a-z0-9-]+)*)")


def expected_findings(path: Path) -> set[tuple[int, str]]:
    out: set[tuple[int, str]] = set()
    for lineno, line in enumerate(path.read_text().splitlines(), start=1):
        m = _EXPECT_RE.search(line)
        if m:
            for rule in m.group("rules").split(","):
                out.add((lineno, rule.strip()))
    return out


def lint_fixture(path: Path) -> set[tuple[int, str]]:
    # Fixtures live outside src/repro, so scope predicates are bypassed.
    linter = Linter(respect_scope=False)
    diags = linter.lint_file(path)
    return {(d.line, d.rule) for d in diags}


BAD_FIXTURES = sorted(p for p in FIXTURES.glob("*/*_bad.py") if p.parent.name != "pragma")
GOOD_FIXTURES = sorted(FIXTURES.glob("*/*_good.py")) + sorted(FIXTURES.glob("*/*_ok.py"))


@pytest.mark.parametrize("path", BAD_FIXTURES, ids=lambda p: f"{p.parent.name}/{p.stem}")
def test_bad_fixture_flags_expected_lines(path: Path) -> None:
    expected = expected_findings(path)
    assert expected, f"{path} has no '# expect:' markers"
    assert lint_fixture(path) == expected


@pytest.mark.parametrize("path", GOOD_FIXTURES, ids=lambda p: f"{p.parent.name}/{p.stem}")
def test_good_fixture_is_clean(path: Path) -> None:
    assert lint_fixture(path) == set()


def test_every_rule_has_a_failing_fixture() -> None:
    covered = {rule for path in BAD_FIXTURES for (_, rule) in expected_findings(path)}
    checkable = {r.name for r in all_rules() if r.family != "pragma"}
    assert checkable <= covered, f"rules without a bad fixture: {sorted(checkable - covered)}"


def test_three_rules_per_family() -> None:
    by_family = families()
    for family in ("determinism", "hooks", "pools"):
        assert len(by_family[family]) >= 3, family


# ---------------------------------------------------------------------------
# Pragma semantics
# ---------------------------------------------------------------------------


def _lint_snippet(source: str, name: str = "snippet.py") -> list[tuple[int, str]]:
    linter = Linter(respect_scope=False)
    diags = linter.lint_source(textwrap.dedent(source), name)
    return sorted((d.line, d.rule) for d in diags)


def test_justified_pragma_suppresses() -> None:
    findings = _lint_snippet(
        """
        import time

        t = time.time()  # reprolint: disable=wall-clock -- provenance stamp only
        """
    )
    assert findings == []


def test_unjustified_pragma_is_an_error_and_silences_nothing() -> None:
    findings = _lint_snippet(
        """
        import time

        t = time.time()  # reprolint: disable=wall-clock
        """
    )
    assert (4, "wall-clock") in findings
    assert (4, "pragma-justification") in findings


def test_unknown_rule_in_pragma_is_flagged() -> None:
    findings = _lint_snippet(
        """
        x = 1  # reprolint: disable=no-such-rule -- misremembered the name
        """
    )
    assert findings == [(2, "pragma-unknown-rule")]


def test_pragma_only_covers_its_own_line() -> None:
    findings = _lint_snippet(
        """
        import time

        a = time.time()  # reprolint: disable=wall-clock -- measured separately
        b = time.time()
        """
    )
    assert findings == [(5, "wall-clock")]


def test_pragma_fixture_files() -> None:
    assert lint_fixture(FIXTURES / "pragma" / "justified_ok.py") == set()
    assert lint_fixture(FIXTURES / "pragma" / "unjustified.py") == {
        (7, "wall-clock"),
        (7, "pragma-justification"),
    }


def test_pragma_in_docstring_is_inert() -> None:
    findings = _lint_snippet(
        '''
        """Docs may discuss `# reprolint: disable=wall-clock` without effect."""

        x = 1
        '''
    )
    assert findings == []


# ---------------------------------------------------------------------------
# Scope predicates
# ---------------------------------------------------------------------------


def test_sim_scoped_rule_skips_out_of_scope_paths(tmp_path: Path) -> None:
    source = "table = {}\ntable[id(object())] = 1\n"
    scoped = Linter(respect_scope=True)
    tools = tmp_path / "repro" / "tools"
    sim = tmp_path / "repro" / "sim"
    tools.mkdir(parents=True)
    sim.mkdir(parents=True)
    (tools / "helper.py").write_text(source)
    (sim / "engine.py").write_text(source)
    assert scoped.lint_file(tools / "helper.py") == []
    assert [(d.line, d.rule) for d in scoped.lint_file(sim / "engine.py")] == [(2, "id-key")]


# ---------------------------------------------------------------------------
# Tree cleanliness + seeded-violation gate
# ---------------------------------------------------------------------------


def test_tree_is_lint_clean() -> None:
    linter = Linter()
    diags = linter.lint_paths([SRC / "repro"])
    assert diags == [], "\n".join(d.format() for d in diags)


def test_seeded_wall_clock_in_engine_fails_with_location(tmp_path: Path) -> None:
    engine = SRC / "repro" / "sim" / "engine.py"
    lines = engine.read_text().splitlines()
    # Seed the violation right after the import block so the file still parses.
    insert_at = max(i for i, ln in enumerate(lines) if ln.startswith(("import ", "from "))) + 1
    lines.insert(insert_at, "import time")
    lines.insert(insert_at + 1, "_T0 = time.time()")
    seeded = tmp_path / "repro" / "sim" / "engine.py"
    seeded.parent.mkdir(parents=True)
    seeded.write_text("\n".join(lines) + "\n")
    diags = Linter().lint_file(seeded)
    hits = [d for d in diags if d.rule == "wall-clock"]
    assert hits, "seeded time.time() was not caught"
    assert hits[0].line == insert_at + 2
    assert re.match(r".+engine\.py:\d+ wall-clock ", hits[0].format())


# ---------------------------------------------------------------------------
# Self-test and registry
# ---------------------------------------------------------------------------


def test_selftest_passes() -> None:
    report = run_selftest()
    assert report.failures == []
    assert report.checked >= 9


def test_get_rule_and_registry_shape() -> None:
    rule = get_rule("wall-clock")
    assert rule.family == "determinism"
    assert rule.bad_example and rule.good_example
    with pytest.raises(KeyError):
        get_rule("definitely-not-a-rule")


# ---------------------------------------------------------------------------
# CLI
# ---------------------------------------------------------------------------


def test_cli_exit_codes(tmp_path: Path) -> None:
    clean = tmp_path / "clean.py"
    clean.write_text("x = 1\n")
    dirty = tmp_path / "dirty.py"
    dirty.write_text("import time\nt = time.time()\n")
    assert lint_main([str(clean)]) == 0
    assert lint_main([str(dirty)]) == 1
    assert lint_main(["--rule", "no-such-rule", str(clean)]) == 2


def test_cli_list_rules(capsys: pytest.CaptureFixture[str]) -> None:
    assert lint_main(["--list-rules"]) == 0
    out = capsys.readouterr().out
    for name in ("wall-clock", "hook-state-write", "pool-callable-state"):
        assert name in out


def test_cli_self_test() -> None:
    assert lint_main(["--self-test"]) == 0


def test_module_entrypoint_runs() -> None:
    proc = subprocess.run(
        [sys.executable, "-m", "repro.lint", "--list-rules"],
        capture_output=True,
        text=True,
        env={"PYTHONPATH": str(SRC), "PATH": "/usr/bin:/bin",
             # The caller's bytecode setting passes through.
             **{k: v for k, v in os.environ.items()
                if k == "PYTHONDONTWRITEBYTECODE"}},
    )
    assert proc.returncode == 0
    assert "determinism" in proc.stdout


# ---------------------------------------------------------------------------
# Tooling config presence (mypy/ruff run in CI; only the config is local)
# ---------------------------------------------------------------------------


def test_pyproject_wires_mypy_and_ruff() -> None:
    text = (REPO_ROOT / "pyproject.toml").read_text()
    assert "[tool.mypy]" in text
    assert "[tool.ruff" in text
    assert 'repro = ["py.typed"]' in text
    assert (SRC / "repro" / "py.typed").exists()
