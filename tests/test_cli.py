"""Tests for the command-line interface."""

import gzip
import os
import subprocess
import sys
from pathlib import Path

import pytest

import repro
from repro.cli import build_parser, main
from repro.experiments import FULL, QUICK


@pytest.fixture(scope="module")
def workload_dir(tmp_path_factory):
    d = tmp_path_factory.mktemp("clitest")
    rc = main(["workload", "synthetic", "--scale", "0.02",
               "--out-dir", str(d)])
    assert rc == 0
    return d


class TestParser:
    def test_requires_subcommand(self):
        with pytest.raises(SystemExit):
            build_parser().parse_args([])

    def test_unknown_policy_rejected(self):
        with pytest.raises(SystemExit):
            build_parser().parse_args(["simulate", "x.log",
                                       "--policy", "bogus"])

    def test_all_subcommands_registered(self):
        parser = build_parser()
        for cmd in ("workload", "mine", "simulate", "compare",
                    "report", "table1"):
            args = parser.parse_args(
                [cmd] + (["synthetic"] if cmd == "workload" else
                         ["x.log"] if cmd in ("mine", "simulate",
                                              "compare") else []))
            assert args.command == cmd


class TestWorkloadCommand:
    def test_writes_both_logs(self, workload_dir, capsys):
        assert (workload_dir / "training.log").exists()
        assert (workload_dir / "access.log").exists()
        lines = (workload_dir / "access.log").read_text().splitlines()
        assert len(lines) > 100
        assert '"GET /' in lines[0]


class TestMineCommand:
    def test_report_contents(self, workload_dir, capsys):
        rc = main(["mine", str(workload_dir / "training.log"),
                   "--top", "3"])
        out = capsys.readouterr().out
        assert rc == 0
        assert "dependency graph" in out
        assert "bundles:" in out
        assert "top files by hits:" in out

    def test_missing_file_fails(self, tmp_path):
        with pytest.raises(FileNotFoundError):
            main(["mine", str(tmp_path / "nope.log")])

    def test_garbage_log_fails(self, tmp_path):
        bad = tmp_path / "bad.log"
        bad.write_text("this is not a log\n")
        with pytest.raises(SystemExit, match="no parsable"):
            main(["mine", str(bad)])

    @pytest.mark.parametrize("mode", [[], ["--stream"]],
                             ids=["collected", "stream"])
    @pytest.mark.parametrize("flag,value", [
        ("--session-timeout", "0"),
        ("--session-timeout", "-1"),
        ("--session-timeout", "nan"),
        ("--order", "0"),
        ("--top", "0"),
        ("--top", "-1"),
    ])
    def test_bad_argument_rejected_before_reading(self, tmp_path, flag,
                                                   value, mode):
        # The log does not exist: reading it would raise FileNotFoundError.
        log = str(tmp_path / "never-read.log")
        with pytest.raises(SystemExit, match=f"^error: {flag} must be"):
            main(["mine", log, flag, value, *mode])

    def test_undecodable_byte_is_replaced(self, workload_dir, tmp_path,
                                          capsys):
        lines = (workload_dir / "training.log").read_bytes().splitlines()
        lines[1] += b' "-" "caf\xe9"'
        log = tmp_path / "latin1.log"
        log.write_bytes(b"\n".join(lines) + b"\n")
        for extra in ([], ["--stream"]):
            assert main(["mine", str(log), *extra]) == 0
            assert f"log: {len(lines)} requests" in capsys.readouterr().out


class TestGzipLogs:
    @pytest.fixture()
    def gz_dir(self, workload_dir, tmp_path):
        for name in ("training.log", "access.log"):
            with gzip.open(tmp_path / f"{name}.gz", "wb") as fp:
                fp.write((workload_dir / name).read_bytes())
        return tmp_path

    def test_mine_reads_gzip(self, workload_dir, gz_dir, capsys):
        assert main(["mine", str(workload_dir / "training.log")]) == 0
        plain = capsys.readouterr().out
        assert main(["mine", str(gz_dir / "training.log.gz")]) == 0
        assert capsys.readouterr().out == plain

    def test_simulate_reads_gzip(self, workload_dir, gz_dir, capsys):
        args = ["--policy", "lard", "--backends", "4", "--cache-mb", "1"]
        assert main(["simulate", str(workload_dir / "access.log"),
                     *args]) == 0
        plain = capsys.readouterr().out
        assert main(["simulate", str(gz_dir / "access.log.gz"), *args]) == 0
        gz = capsys.readouterr().out
        assert "completed" in gz
        # The run is named after the log file.
        assert gz.replace("access.log.gz", "access.log") == plain


class TestSimulateCommand:
    def test_simulate_prord(self, workload_dir, capsys):
        rc = main(["simulate", str(workload_dir / "access.log"),
                   "--policy", "prord", "--backends", "4",
                   "--cache-mb", "1"])
        out = capsys.readouterr().out
        assert rc == 0
        assert "prord" in out
        assert "completed" in out

    def test_too_short_log_fails(self, tmp_path):
        log = tmp_path / "one.log"
        log.write_text(
            '1.2.3.4 - - [10/Oct/2000:13:55:36 +0000] '
            '"GET /a HTTP/1.1" 200 100\n')
        with pytest.raises(SystemExit, match="too short"):
            main(["simulate", str(log)])


class TestCompareCommand:
    def test_compare_two_policies(self, workload_dir, capsys):
        rc = main(["compare", str(workload_dir / "access.log"),
                   "--policies", "wrr", "lard", "--backends", "4",
                   "--cache-mb", "1"])
        out = capsys.readouterr().out
        assert rc == 0
        assert "wrr" in out and "lard" in out


_CLUSTER_COMMANDS = ("simulate", "compare", "replay", "capacity")


class TestNumericOptions:
    @pytest.mark.parametrize("command,flag,value", [
        ("simulate", "--train-fraction", "0"),
        ("simulate", "--train-fraction", "-1"),
        ("simulate", "--train-fraction", "nan"),
        ("compare", "--train-fraction", "1"),
        *[(command, "--backends", "0") for command in _CLUSTER_COMMANDS],
        *[(command, "--cache-mb", value) for command in _CLUSTER_COMMANDS
          for value in ("-1", "nan")],
        ("replay", "--cache-fraction", "0"),
        ("replay", "--cache-fraction", "5"),
        ("replay", "--cache-fraction", "nan"),
        ("capacity", "--duration", "0"),
        ("capacity", "--concurrency", "0"),
    ])
    def test_bad_value_rejected_before_reading(self, tmp_path, command,
                                               flag, value):
        # The log or workload directory does not exist, so reading it
        # would raise FileNotFoundError; capacity would build a preset.
        target = ("synthetic" if command == "capacity"
                  else str(tmp_path / "never-read"))
        with pytest.raises(SystemExit, match=f"^error: {flag} must be"):
            main([command, target, flag, value])


class TestTable1Command:
    def test_prints_table(self, capsys):
        rc = main(["table1"])
        out = capsys.readouterr().out
        assert rc == 0
        assert "TCP handoff latency" in out


class TestExperimentCommands:
    """``repro report`` and ``repro figN`` are the one entry point to the
    paper's results: their options reach the runners unchanged."""

    @pytest.mark.parametrize("command,target", [
        ("report", "repro.experiments.report.run_all"),
        ("fig7", "repro.experiments.fig7.main"),
    ], ids=["report", "fig7"])
    @pytest.mark.parametrize("options,scale,kwargs", [
        ([], QUICK, {"jobs": 0, "audit": False, "model_cache": None}),
        (["--full", "--jobs", "3", "--audit", "--model-cache", "mc"],
         FULL, {"jobs": 3, "audit": True, "model_cache": "mc"}),
    ], ids=["defaults", "all-options"])
    def test_options_passed_through(self, monkeypatch, command, target,
                                    options, scale, kwargs):
        calls = []
        monkeypatch.setattr(target,
                            lambda *args, **kw: calls.append((args, kw)))
        assert main([command, *options]) == 0
        assert calls == [((scale,), kwargs)]

    def test_csv_dir_is_a_usage_error(self, capsys):
        with pytest.raises(SystemExit) as exc:
            main(["report", "--csv-dir", "x"])
        assert exc.value.code == 2
        assert "unrecognized arguments: --csv-dir" in capsys.readouterr().err

    @pytest.mark.parametrize("command", [
        "report", "fig6", "fig7", "fig8", "fig9", "table1",
    ])
    def test_module_entry_point_names_the_command(self, command):
        # ``python -m repro.experiments.<command>`` used to run the
        # experiment; now it must fail and point at the one entry point.
        proc = subprocess.run(
            [sys.executable, "-m", f"repro.experiments.{command}"],
            capture_output=True, text=True, timeout=120,
            env={"PYTHONPATH": str(Path(repro.__file__).parents[1]),
                 "PATH": "/usr/bin:/bin",
                 # The caller's bytecode setting passes through.
                 **{k: v for k, v in os.environ.items()
                    if k == "PYTHONDONTWRITEBYTECODE"}},
        )
        assert proc.returncode != 0
        assert proc.stdout == ""
        assert proc.stderr.splitlines()[-1] == (
            f"error: python -m repro.experiments.{command} runs nothing; "
            f"use `repro {command}`"
        )
