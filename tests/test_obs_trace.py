"""Tracer, spans, sinks, and the trace event schema."""

import io
import json
import os
import subprocess
import sys
import time

import pytest

from repro.obs import (
    NULL_TRACER,
    Histogram,
    JsonlSink,
    ListSink,
    NullSink,
    Tracer,
    TraceSchemaError,
    read_jsonl,
    summarize_events,
    validate_event,
    validate_events,
    validate_jsonl,
)


class TestEmit:
    def test_events_carry_type_and_wall_time(self):
        sink = ListSink()
        tracer = Tracer(sink)
        tracer.emit("job_submitted", sim_time=1.0, job_id=7, policy="FCFS")
        (event,) = sink.events
        assert event["type"] == "job_submitted"
        assert event["job_id"] == 7
        assert event["policy"] == "FCFS"
        assert "wall_time" in event

    def test_extra_fields_pass_through(self):
        sink = ListSink()
        Tracer(sink).emit("job_started", sim_time=0.0, job_id=1, wait_s=3.0, nodes=4)
        assert sink.events[0]["nodes"] == 4

    def test_null_sink_emits_nothing(self):
        tracer = Tracer(NullSink())
        assert tracer.enabled is False
        tracer.emit("job_submitted", sim_time=0.0, job_id=1)  # no-op, no error


class TestSpans:
    def test_span_times_and_emits(self):
        sink = ListSink()
        tracer = Tracer(sink)
        with tracer.span("outer", policy="FCFS") as span:
            span.annotate(started=2)
        (event,) = sink.events
        assert event["type"] == "span"
        assert event["name"] == "outer"
        assert event["duration_s"] >= 0.0
        assert event["started"] == 2
        assert span.duration_s == event["duration_s"]

    def test_nested_spans_record_parent(self):
        sink = ListSink()
        tracer = Tracer(sink)
        with tracer.span("outer"):
            with tracer.span("inner"):
                tracer.emit("replan_triggered", sim_time=0.0, cause="test")
        inner_event, inner_span, outer_span = sink.events
        assert inner_event["parent"] == "inner"
        assert inner_span["name"] == "inner"
        assert inner_span["parent"] == "outer"
        assert "parent" not in outer_span
        assert tracer._stack == []

    def test_span_exception_safe(self):
        sink = ListSink()
        tracer = Tracer(sink)
        with pytest.raises(RuntimeError):
            with tracer.span("boom"):
                raise RuntimeError("kaput")
        (event,) = sink.events
        assert event["ok"] is False
        assert event["error"] == "RuntimeError"
        assert tracer._stack == []  # stack unwound despite the raise

    def test_disabled_span_is_shared_noop(self):
        s1 = NULL_TRACER.span("a")
        s2 = NULL_TRACER.span("b")
        assert s1 is s2  # no allocation on the disabled path
        with s1 as span:
            span.annotate(anything=1)

    def test_disabled_span_still_feeds_histogram(self):
        hist = Histogram("h", (10.0,))
        with NULL_TRACER.span("timed", histogram=hist):
            pass
        assert hist.count == 1


class TestJsonlRoundTrip:
    def test_file_round_trip_validates(self, tmp_path):
        path = tmp_path / "trace.jsonl"
        with JsonlSink(str(path)) as sink:
            tracer = Tracer(sink)
            tracer.emit("job_submitted", sim_time=0.0, job_id=1, nodes=2)
            with tracer.span("schedule_pass", sim_time=0.0, policy="LWF"):
                tracer.emit(
                    "job_started", sim_time=0.0, job_id=1, wait_s=0.0, depth=0
                )
        assert sink.events_written == 3
        events = read_jsonl(str(path))
        assert validate_events(events) == 3
        assert validate_jsonl(str(path)) == 3
        assert [e["type"] for e in events] == [
            "job_submitted",
            "job_started",
            "span",
        ]
        # events emitted inside a span are attributed to it
        assert events[1]["parent"] == "schedule_pass"

    def test_file_object_sink_flushes_not_closes(self):
        buf = io.StringIO()
        sink = JsonlSink(buf)
        Tracer(sink).emit("replan_triggered", sim_time=0.0, cause="x")
        sink.close()
        assert not buf.closed
        assert validate_events(read_jsonl(io.StringIO(buf.getvalue()))) == 1

    def test_invalid_json_line_raises(self):
        with pytest.raises(TraceSchemaError, match="line 1"):
            read_jsonl(io.StringIO("{not json}\n"))

    def test_line_bytes_are_pinned(self):
        """One encoder on every host: the exact line for a fixed event,
        exponents included (stdlib json would write ``1e-06``/``1e+20``)."""
        buf = io.BytesIO()
        with JsonlSink(buf) as sink:
            sink.emit(
                {
                    "type": "span",
                    "wall_time": 0.1,
                    "name": "x",
                    "duration_s": 1e-06,
                    "work": 1e20,
                    "job_id": 7,
                }
            )
        assert buf.getvalue() == (
            b'{"duration_s":1e-6,"job_id":7,"name":"x",'
            b'"type":"span","wall_time":0.1,"work":1e20}\n'
        )


class TestJsonlBuffering:
    def test_holds_until_buffer_full_then_writes_whole_chunk(self):
        buf = io.StringIO()
        sink = JsonlSink(buf, buffer_lines=3)
        tracer = Tracer(sink)
        tracer.emit("replan_triggered", sim_time=0.0, cause="a")
        tracer.emit("replan_triggered", sim_time=1.0, cause="b")
        assert buf.getvalue() == ""  # below the threshold: nothing on disk
        assert sink.events_written == 2
        tracer.emit("replan_triggered", sim_time=2.0, cause="c")
        lines = buf.getvalue().splitlines()
        assert len(lines) == 3  # third emit flushed the whole chunk
        assert all(json.loads(line)["type"] == "replan_triggered" for line in lines)

    def test_explicit_flush_drains_partial_buffer(self):
        buf = io.StringIO()
        sink = JsonlSink(buf, buffer_lines=100)
        sink.emit({"type": "span", "wall_time": 0.0, "name": "x", "duration_s": 0.1})
        sink.flush()
        assert len(buf.getvalue().splitlines()) == 1
        sink.flush()  # idempotent on an empty buffer
        assert len(buf.getvalue().splitlines()) == 1

    def test_buffer_lines_below_one_rejected(self):
        with pytest.raises(ValueError, match="buffer_lines"):
            JsonlSink(io.StringIO(), buffer_lines=0)

    def test_context_manager_flushes_on_exit(self, tmp_path):
        path = tmp_path / "trace.jsonl"
        with JsonlSink(str(path), buffer_lines=100) as sink:
            Tracer(sink).emit("job_submitted", sim_time=0.0, job_id=1, nodes=2)
            assert path.read_text() == ""  # still buffered inside the block
        assert validate_jsonl(str(path)) == 1

    def test_killed_writer_leaves_only_whole_valid_lines(self, tmp_path):
        """SIGKILL mid-replay must not leave truncated JSONL lines.

        The sink owns its handle unbuffered, so each flush is one whole-
        lines ``os.write`` — the pre-fix sink routed chunks through
        Python's buffered text layer, whose ~8 KiB blocks spill without
        respect for line boundaries.  The payload is padded to ~800
        bytes/line so every 7-line chunk (~5.6 KiB) spans those block
        boundaries, which is exactly where the old sink could tear.

        One tear remains beyond userland control: the kernel's write
        path checks for fatal signals at page boundaries, so SIGKILL can
        truncate the single in-flight write itself, leaving a partial
        *final* line with no trailing newline.  The hard guarantee —
        every newline-terminated line parses, validates, and the job ids
        are gap-free 1..N — is asserted on every attempt and never
        relaxed; only the kernel-tear signature (an unterminated tail
        fragment) triggers a bounded rerun, as does a slow runner that
        produced no output before the deadline.
        """
        import repro

        script = (
            "import sys\n"
            "from repro.obs import JsonlSink, Tracer\n"
            "tracer = Tracer(JsonlSink(sys.argv[1], buffer_lines=7))\n"
            "pad = 'x' * 700\n"
            "i = 0\n"
            "while True:\n"
            "    i += 1\n"
            "    tracer.emit('job_submitted', sim_time=float(i), job_id=i,\n"
            "                nodes=1, note=pad)\n"
        )
        src = os.path.dirname(os.path.dirname(os.path.abspath(repro.__file__)))
        env = dict(os.environ)
        env["PYTHONPATH"] = src + os.pathsep + env.get("PYTHONPATH", "")
        torn_tails = 0
        for attempt in range(3):
            path = tmp_path / f"killed-{attempt}.jsonl"
            proc = subprocess.Popen(
                [sys.executable, "-c", script, str(path)], env=env
            )
            try:
                deadline = time.time() + 20.0
                produced = False
                while time.time() < deadline:
                    if path.exists() and path.stat().st_size > 64 * 1024:
                        produced = True
                        break
                    time.sleep(0.01)
            finally:
                proc.kill()
                proc.wait()
            if not produced:
                continue
            raw = path.read_bytes()
            *whole, tail = raw.split(b"\n")
            # Hard assertions — every complete line must be flawless no
            # matter where the kill landed.
            events = read_jsonl(io.StringIO(b"\n".join(whole).decode("utf-8")))
            assert validate_events(events) == len(events) >= 1
            assert [e["job_id"] for e in events] == list(range(1, len(events) + 1))
            if tail == b"":
                break  # clean kill: the file is whole lines, nothing else
            torn_tails += 1  # kernel tore the final write mid-page: rerun
        else:
            raise AssertionError(
                f"no clean attempt in 3 tries ({torn_tails} kernel-torn tails)"
            )


class TestSchema:
    def test_unknown_type_rejected(self):
        with pytest.raises(TraceSchemaError, match="unknown event type"):
            validate_event({"type": "job_teleported", "wall_time": 0.0})

    def test_missing_required_field_rejected(self):
        with pytest.raises(TraceSchemaError, match="wait_s"):
            validate_event(
                {"type": "job_started", "wall_time": 0.0, "job_id": 1, "sim_time": 0.0}
            )

    def test_missing_wall_time_rejected(self):
        with pytest.raises(TraceSchemaError, match="wall_time"):
            validate_event({"type": "job_submitted", "job_id": 1, "sim_time": 0.0})

    def test_reservation_needs_an_id(self):
        base = {"type": "reservation_placed", "wall_time": 0.0, "sim_time": 0.0,
                "start_s": 5.0}
        with pytest.raises(TraceSchemaError, match="job_id or res_id"):
            validate_event(base)
        validate_event(dict(base, job_id=3))
        validate_event(dict(base, res_id=1))

    def test_field_type_checks(self):
        with pytest.raises(TraceSchemaError, match="must be a number"):
            validate_event(
                {"type": "job_submitted", "wall_time": 0.0, "job_id": 1,
                 "sim_time": "soon"}
            )
        with pytest.raises(TraceSchemaError, match="must be an int"):
            validate_event(
                {"type": "job_submitted", "wall_time": 0.0, "job_id": True,
                 "sim_time": 0.0}
            )
        with pytest.raises(TraceSchemaError, match="must be a string"):
            validate_event(
                {"type": "job_submitted", "wall_time": 0.0, "job_id": 1,
                 "sim_time": 0.0, "policy": 7}
            )

    def test_non_dict_rejected(self):
        with pytest.raises(TraceSchemaError):
            validate_event([1, 2, 3])

    def test_runtime_predicted_requires_prediction_fields(self):
        base = {"type": "runtime_predicted", "wall_time": 0.0, "sim_time": 0.0,
                "job_id": 1}
        with pytest.raises(TraceSchemaError, match="predicted_run_s"):
            validate_event(base)
        validate_event(
            dict(base, predicted_run_s=120.0, predictor="smith", source="u/e")
        )

    def test_prediction_resolved_requires_known_kind(self):
        base = {"type": "prediction_resolved", "wall_time": 0.0, "sim_time": 9.0,
                "job_id": 1, "predictor": "smith", "predicted_s": 10.0,
                "actual_s": 12.0}
        with pytest.raises(TraceSchemaError, match="kind"):
            validate_event(base)
        with pytest.raises(TraceSchemaError, match="kind"):
            validate_event(dict(base, kind="walk_time"))
        validate_event(dict(base, kind="run_time", error_s=-2.0))
        validate_event(dict(base, kind="wait_time"))


class TestSummarize:
    def test_counts_by_policy_and_type(self):
        events = [
            {"type": "job_started", "policy": "FCFS"},
            {"type": "job_started", "policy": "FCFS"},
            {"type": "job_started", "policy": "LWF"},
            {"type": "span"},
        ]
        rows = summarize_events(events)
        assert rows == [
            {"Policy": "-", "Event": "span", "Count": 1},
            {"Policy": "FCFS", "Event": "job_started", "Count": 2},
            {"Policy": "LWF", "Event": "job_started", "Count": 1},
        ]
