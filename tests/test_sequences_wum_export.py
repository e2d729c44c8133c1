"""Tests for the experiments' CSV export.  (The file keeps its old name so
the kept tests keep their IDs.)"""

import dataclasses

import pytest

from repro.experiments.export import rows_to_csv, write_rows


@dataclasses.dataclass(frozen=True)
class _Row:
    name: str
    value: float


class TestCsvExport:
    def test_round_trip(self):
        text = rows_to_csv([_Row("a", 1.5), _Row("b", 2.0)])
        lines = text.splitlines()
        assert lines[0] == "name,value"
        assert lines[1] == "a,1.5"
        assert len(lines) == 3

    def test_empty(self):
        assert rows_to_csv([]) == ""

    def test_non_dataclass_rejected(self):
        with pytest.raises(TypeError):
            rows_to_csv([{"a": 1}])

    def test_mixed_types_rejected(self):
        @dataclasses.dataclass(frozen=True)
        class Other:
            name: str
        with pytest.raises(TypeError):
            rows_to_csv([_Row("a", 1.0), Other("b")])

    def test_write_rows(self, tmp_path):
        out = write_rows([_Row("x", 3.0)], tmp_path / "sub" / "r.csv")
        assert out.exists()
        assert "x,3.0" in out.read_text()

    def test_fig_rows_export(self, tmp_path):
        from repro.experiments.fig7 import Fig7Row
        rows = [Fig7Row(workload="w", policy="p", throughput_rps=1.0,
                        mean_response_ms=2.0, hit_rate=0.5)]
        text = rows_to_csv(rows)
        assert "workload,policy,throughput_rps" in text
