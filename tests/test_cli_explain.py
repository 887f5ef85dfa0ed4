"""CLI smoke tests for ``repro-sched explain`` and ``timeline``."""

from __future__ import annotations

import json

import pytest

from repro.cli import main
from repro.obs import read_jsonl


@pytest.fixture(scope="module")
def detail_trace(tmp_path_factory):
    out = tmp_path_factory.mktemp("explain") / "trace.jsonl"
    code = main([
        "trace", "--workload", "ANL", "--n-jobs", "100",
        "--algorithms", "backfill", "--predictor", "max",
        "--detail", "--wait-pred", "state", "-o", str(out),
    ])
    assert code == 0
    return out


def _started_job_ids(trace_path, n):
    events = read_jsonl(str(trace_path))
    ids = [
        e["job_id"] for e in events
        if e["type"] == "job_started" and e.get("wait_s", 0.0) > 0.0
    ]
    return ids[:n]


def test_explain_text_output(detail_trace, capsys):
    job_id = _started_job_ids(detail_trace, 1)[0]
    code = main(["explain", str(detail_trace), "--job", str(job_id)])
    out = capsys.readouterr().out
    assert code == 0
    assert f"job {job_id}" in out
    assert "wait decomposition" in out
    assert "timeline" in out


def test_explain_multiple_jobs_json(detail_trace, capsys):
    ids = _started_job_ids(detail_trace, 3)
    code = main([
        "explain", str(detail_trace), "--json",
        "--job", *[str(i) for i in ids],
    ])
    out = capsys.readouterr().out
    assert code == 0
    payload = json.loads(out)
    assert [exp["job_id"] for exp in payload] == ids
    for exp in payload:
        decomposition = exp["decomposition"]
        assert sum(decomposition.values()) == pytest.approx(
            exp["wait_s"], abs=1e-6
        )


def test_explain_no_timeline(detail_trace, capsys):
    job_id = _started_job_ids(detail_trace, 1)[0]
    code = main([
        "explain", str(detail_trace), "--job", str(job_id), "--no-timeline",
    ])
    out = capsys.readouterr().out
    assert code == 0
    assert "timeline" not in out


def test_explain_unknown_job_fails(detail_trace, capsys):
    code = main(["explain", str(detail_trace), "--job", "999999"])
    assert code == 1
    assert "explain FAILED" in capsys.readouterr().err


def test_explain_empty_trace_fails(tmp_path, capsys):
    empty = tmp_path / "empty.jsonl"
    empty.write_text("")
    code = main(["explain", str(empty), "--job", "1"])
    assert code == 1
    assert "empty trace (0 events)" in capsys.readouterr().err


def test_timeline_renders_sparklines(detail_trace, capsys):
    code = main([
        "timeline", str(detail_trace), "--metric", "util", "queue",
        "--width", "40",
    ])
    out = capsys.readouterr().out
    assert code == 0
    assert "util over simulated time" in out
    assert "queue over simulated time" in out


def test_timeline_writes_points(detail_trace, tmp_path, capsys):
    out_file = tmp_path / "points.jsonl"
    code = main(["timeline", str(detail_trace), "-o", str(out_file)])
    captured = capsys.readouterr()
    assert code == 0
    points = [json.loads(line) for line in out_file.read_text().splitlines()]
    assert points
    assert {"t", "queued", "running", "util"} <= set(points[0])
    assert f"wrote {out_file}" in captured.err


def test_timeline_empty_trace_fails(tmp_path, capsys):
    empty = tmp_path / "empty.jsonl"
    empty.write_text("")
    code = main(["timeline", str(empty)])
    assert code == 1
    assert "empty trace (0 events)" in capsys.readouterr().err


@pytest.mark.parametrize(
    "argv",
    [
        ["report", "{trace}", "--window", "0"],
        ["timeline", "{trace}", "--width", "0"],
        ["timeline", "{trace}", "--total-nodes", "0"],
        ["timeline", "{trace}", "--width", "-3"],
    ],
    ids=["report-window", "timeline-width", "timeline-total-nodes",
         "timeline-negative-width"],
)
def test_non_positive_sizes_are_usage_errors(detail_trace, argv, capsys):
    """A zero drift window, sparkline width or machine size is refused
    by argparse — not a ValueError traceback, and not an all-zero
    utilization series."""
    with pytest.raises(SystemExit) as exc:
        main([arg.format(trace=detail_trace) for arg in argv])
    assert exc.value.code == 2
    assert "must be positive" in capsys.readouterr().err


@pytest.mark.parametrize(
    "argv", [["explain", "--job", "1"], ["timeline"], ["report"]],
    ids=["explain", "timeline", "report"],
)
def test_offline_commands_refuse_empty_and_missing_traces(argv, tmp_path, capsys):
    """Every command that reads a trace file names itself and the file
    when that file is empty or unreadable."""
    command, *flags = argv
    empty = tmp_path / "empty.jsonl"
    empty.write_text("")
    assert main([command, str(empty), *flags]) == 1
    assert (f"{command} FAILED: empty trace (0 events): {empty}"
            in capsys.readouterr().err)
    missing = tmp_path / "nope.jsonl"
    assert main([command, str(missing), *flags]) == 1
    err = capsys.readouterr().err
    assert f"{command} FAILED" in err and str(missing) in err
