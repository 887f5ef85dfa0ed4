"""Tests for the markdown experiments report generator."""

from __future__ import annotations

import pytest

from repro.core.experiment import run_runtime_prediction_experiment
from repro.core.paper_reference import (
    SCHEDULING_TABLES,
    TABLE4_ACTUAL,
    TABLE10_ACTUAL,
    WAIT_TIME_TABLES,
)
from repro.core.parallel import run_grid
from repro.core.registry import PREDICTOR_NAMES
from repro.core.report import generate_experiments_report, markdown_table
from repro.workloads.archive import load_paper_workload
from repro.workloads.stats import summarize


def _printed_tables(report: str) -> list[list[dict[str, str]]]:
    """Each section's markdown table as header -> printed-cell dicts."""
    tables = []
    for section in report.split("\n## ")[1:]:
        lines = [ln for ln in section.splitlines() if ln.startswith("| ")]
        if lines:
            header, *body = ([c.strip() for c in ln.strip("|").split("|")] for ln in lines)
            tables.append([dict(zip(header, cells)) for cells in body])
    return tables


class TestMarkdownTable:
    def test_shape(self):
        text = markdown_table(["a", "b"], [[1, 2], [3, 4]])
        lines = text.splitlines()
        assert lines[0] == "| a | b |"
        assert lines[1] == "|---|---|"
        assert lines[2] == "| 1 | 2 |"
        assert len(lines) == 4

    def test_empty_rows(self):
        text = markdown_table(["x"], [])
        assert text.splitlines() == ["| x |", "|---|"]


class TestPaperReference:
    def test_wait_tables_complete(self):
        for name, (no, ref) in WAIT_TIME_TABLES.items():
            expected = 8 if name == "actual" else 12  # Table 4 omits FCFS
            assert len(ref) == expected, name
            assert 4 <= no <= 9

    def test_scheduling_tables_complete(self):
        for name, (no, ref) in SCHEDULING_TABLES.items():
            assert len(ref) == 8, name
            assert 10 <= no <= 15

    def test_spot_values_from_paper(self):
        assert TABLE4_ACTUAL[("ANL", "LWF")].mean_error_minutes == 37.14
        assert TABLE4_ACTUAL[("SDSC96", "Backfill")].percent_of_mean_wait == 3
        assert TABLE10_ACTUAL[("CTC", "LWF")].mean_wait_minutes == 11.15
        assert TABLE10_ACTUAL[("ANL", "Backfill")].utilization_percent == 71.04


class TestGenerateReport:
    @pytest.fixture(scope="class")
    def report(self):
        return generate_experiments_report(40)

    def test_all_sections_present(self, report):
        for table_no in [1, 4, 5, 6, 7, 8, 9, 10, 11, 12, 13, 14, 15]:
            assert f"## Table {table_no} " in report, table_no
        assert "## §3 text" in report
        assert "## Shape checklist" in report

    def test_paper_numbers_embedded(self, report):
        assert "97.75" in report  # ANL mean run time, Table 1
        assert "37.14" in report  # Table 4 ANL/LWF

    def test_all_workloads_in_every_table(self, report):
        for w in ("ANL", "CTC", "SDSC95", "SDSC96"):
            assert report.count(f"| {w} |") >= 13

    def test_scale_note(self, report):
        assert "40 jobs per workload" in report

    def test_every_printed_cell_is_its_cells_as_row(self, report):
        """Table 1, Tables 4-15 and §3 print exactly ``as_row()`` of
        independently computed cells — one rounding rule everywhere."""
        traces = [load_paper_workload(w, n_jobs=40) for w in ("ANL", "CTC", "SDSC95", "SDSC96")]
        expected = [[summarize(t).as_row() for t in traces]]
        for kind in ("wait-time", "scheduling"):
            for predictor in WAIT_TIME_TABLES:
                full = kind == "wait-time" and predictor != "actual"
                algorithms = ("fcfs", "lwf", "backfill") if full else ("lwf", "backfill")
                cells = run_grid(
                    kind, workloads=traces, algorithms=algorithms, predictors=(predictor,)
                )
                expected.append([c.as_row() for c in cells])
        expected.append(
            [
                run_runtime_prediction_experiment(t, p).as_row()
                for t in traces
                for p in PREDICTOR_NAMES
            ]
        )
        printed = _printed_tables(report)
        assert len(printed) == len(expected)
        for rows, want in zip(printed, expected):
            assert len(rows) == len(want)
            for row, cell_row in zip(rows, want):
                assert {k: row.get(k) for k in cell_row} == {
                    k: str(v) for k, v in cell_row.items()
                }

    def test_progress_callback(self):
        messages = []
        generate_experiments_report(30, progress=messages.append)
        assert any("table 1" in m for m in messages)
        assert any("scheduling table" in m for m in messages)
