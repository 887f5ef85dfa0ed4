"""Command-line interface: run any of the paper's experiments directly.

Installed as the ``repro-sched`` console script::

    repro-sched scheduling --workloads ANL --predictors actual max smith
    repro-sched wait-time --algorithms backfill --n-jobs 500
    repro-sched misprediction --workloads ANL --levels 0 0.5 1 --parallel 2
    repro-sched runtime-error
    repro-sched summarize --n-jobs 2000
    repro-sched report --n-jobs 1000 -o EXPERIMENTS.md
    repro-sched trace --workload ANL --n-jobs 300 -o trace.jsonl --summary
    repro-sched trace --wait-pred state -o trace.jsonl --metrics > metrics.json
    repro-sched report trace.jsonl --metrics metrics.json --check
    repro-sched scheduling --parallel 4 --progress --journal campaign.jsonl
    repro-sched campaign campaign.jsonl --summary
    repro-sched campaign campaign.jsonl --check
    repro-sched trace --detail -o trace.jsonl
    repro-sched explain trace.jsonl --job 42
    repro-sched timeline trace.jsonl --metric util queue backlog
    repro-sched serve --workload SDSC96 --algorithm backfill --port 7099
    repro-sched query --replay 80 --workload SDSC96 --all-queued --stats
"""

from __future__ import annotations

import argparse
import math
import os
import sys
from typing import Sequence

from repro.core.experiment import load_trace, run_runtime_prediction_experiment
from repro.core.registry import POLICY_NAMES, PREDICTOR_NAMES
from repro.core.tables import format_table
from repro.workloads.archive import PAPER_WORKLOADS, load_paper_workload

__all__ = ["main", "build_parser", "run_trace",
           "run_report_from_trace", "run_misprediction", "run_campaign",
           "run_explain", "run_timeline", "run_serve", "run_query"]


def job_count(text: str) -> int | None:
    """``--n-jobs``: jobs per workload; 0 (or less) means the full paper
    size, which the workload loaders spell ``None``."""
    n = int(text)
    return None if n <= 0 else n


def worker_count(text: str) -> int:
    """``--parallel``: worker processes; 0 (or less) means one per CPU."""
    n = int(text)
    return (os.cpu_count() or 1) if n <= 0 else n


def positive_float(text: str) -> float:
    """``--compress``: a factor that must be > 0 and finite."""
    value = float(text)
    if not 0.0 < value < math.inf:
        raise argparse.ArgumentTypeError(f"must be positive and finite, got {text!r}")
    return value


def error_level(text: str) -> float:
    """``misprediction --levels``: an injected error level, finite and >= 0."""
    value = float(text)
    if not 0.0 <= value < math.inf:
        raise argparse.ArgumentTypeError(f"must be finite and >= 0, got {text!r}")
    return value


def positive_int(text: str) -> int:
    """A count or size that must be > 0 (``--window``, ``--width``,
    ``--total-nodes``, ``--generations``)."""
    value = int(text)
    if value <= 0:
        raise argparse.ArgumentTypeError(f"must be positive, got {text!r}")
    return value


def port_number(text: str, *, lowest: int = 0) -> int:
    """``serve --port``: a TCP port in ``lowest``-65535; the default 0
    asks the OS for one."""
    value = int(text)
    if not lowest <= value <= 65535:
        raise argparse.ArgumentTypeError(f"must be in {lowest}-65535, got {text!r}")
    return value


def server_port(text: str) -> int:
    """``query --port``: the port of a listening server, 1-65535."""
    return port_number(text, lowest=1)


def ga_population(text: str) -> int:
    """``ga-search --population``: an even number >= 4, as
    :class:`~repro.predictors.ga.GAConfig` requires (pairs of parents,
    two elites)."""
    value = int(text)
    if value < 4 or value % 2:
        raise argparse.ArgumentTypeError(f"must be an even number >= 4, got {text!r}")
    return value


def build_parser() -> argparse.ArgumentParser:
    # Imported here, not at module level, so `import repro.cli` stays light.
    from repro.experiments.misprediction import DEFAULT_ERROR_LEVELS, ERROR_KINDS
    from repro.obs.accuracy import DEFAULT_DRIFT_WINDOW
    from repro.obs.timeseries import TIMESERIES_METRICS

    parser = argparse.ArgumentParser(
        prog="repro-sched",
        description=(
            "Reproduction of Smith/Taylor/Foster (IPPS 1999): run-time "
            "prediction for queue wait-time estimation and scheduling."
        ),
    )
    sub = parser.add_subparsers(dest="command", required=True)

    def add_grid_args(p: argparse.ArgumentParser, *, replay: bool) -> None:
        """The grid options; ``replay=False`` (``runtime-error``) scores
        predictors without a scheduler, so it has no algorithm axis and
        runs serially: no ``--algorithms``, ``--parallel`` or campaign
        flags."""
        p.add_argument(
            "--workloads",
            nargs="+",
            default=list(PAPER_WORKLOADS),
            choices=sorted(PAPER_WORKLOADS),
            metavar="W",
        )
        if replay:
            p.add_argument(
                "--algorithms",
                nargs="+",
                default=["lwf", "backfill"],
                choices=POLICY_NAMES,
                metavar="A",
            )
        p.add_argument(
            "--predictors",
            nargs="+",
            default=["actual", "max", "smith"],
            choices=PREDICTOR_NAMES,
            metavar="P",
        )
        p.add_argument("--n-jobs", type=job_count, default=1000,
                       help="jobs per workload (0 = full paper size)")
        p.add_argument("--seed", type=int, default=None)
        p.add_argument("--compress", type=positive_float, default=1.0,
                       help="divide interarrival gaps by this factor")
        if replay:
            p.add_argument("--parallel", type=worker_count, default=1,
                           metavar="N",
                           help="fan the grid's cells across N worker "
                           "processes (1 = serial; 0 = one per CPU)")
            add_campaign_args(p)

    def add_campaign_args(p: argparse.ArgumentParser) -> None:
        p.add_argument("--progress", action="store_true",
                       help="(parallel runs) live campaign status line on "
                       "stderr: cells done, throughput, ETA, stragglers")
        p.add_argument("--journal", default=None, metavar="FILE",
                       help="(parallel runs) write the campaign event "
                       "journal (kill-safe JSONL) for `repro-sched "
                       "campaign` to inspect")

    p_sched = sub.add_parser("scheduling", help="Tables 10-15 style grid")
    add_grid_args(p_sched, replay=True)
    p_wait = sub.add_parser("wait-time", help="Tables 4-9 style grid")
    add_grid_args(p_wait, replay=True)
    p_rt = sub.add_parser("runtime-error", help="§3 run-time accuracy grid")
    add_grid_args(p_rt, replay=False)

    p_mis = sub.add_parser(
        "misprediction",
        help="error -> schedule-degradation curves (noisy run-time oracle)",
    )
    p_mis.add_argument(
        "--workloads",
        nargs="+",
        default=["ANL"],
        choices=sorted(PAPER_WORKLOADS),
        metavar="W",
    )
    p_mis.add_argument(
        "--algorithms",
        nargs="+",
        default=["backfill", "easy"],
        choices=POLICY_NAMES,
        metavar="A",
    )
    p_mis.add_argument(
        "--levels",
        nargs="+",
        type=error_level,
        default=list(DEFAULT_ERROR_LEVELS),
        metavar="L",
        help="injected error levels (sorted ascending; include 0 to anchor "
        "the curve at the exact oracle)",
    )
    p_mis.add_argument("--error-kind", default="multiplicative",
                       choices=ERROR_KINDS)
    p_mis.add_argument("--noise-seed", type=int, default=0,
                       help="seed of the per-job error draws")
    p_mis.add_argument("--base-predictor", default="actual",
                       choices=PREDICTOR_NAMES,
                       help="predictor the noise wraps (default: the oracle)")
    p_mis.add_argument("--n-jobs", type=job_count, default=300,
                       help="jobs per workload (0 = full paper size)")
    p_mis.add_argument("--seed", type=int, default=None)
    p_mis.add_argument("--compress", type=positive_float, default=1.0,
                       help="divide interarrival gaps by this factor")
    p_mis.add_argument("--parallel", type=worker_count, default=1, metavar="N",
                       help="fan the (workload x policy x level) cells "
                       "across N worker processes (1 = serial; 0 = one "
                       "per CPU)")
    add_campaign_args(p_mis)

    p_cam = sub.add_parser(
        "campaign",
        help="inspect a campaign journal written by --journal: replay it "
        "into a summary (completed/dispatched/failed cells, throughput, "
        "stragglers) or validate it",
    )
    p_cam.add_argument("journal", help="campaign JSONL journal file")
    p_cam.add_argument("--summary", action="store_true",
                       help="print the replayed campaign summary (default; "
                       "tolerates the torn final line a SIGKILL can leave)")
    p_cam.add_argument("--check", action="store_true",
                       help="strictly validate every journal line against "
                       "the event schema and cross-check cell consistency; "
                       "fails cleanly on truncated or incomplete journals")
    p_cam.add_argument("--json", action="store_true",
                       help="emit the summary as JSON")

    p_sum = sub.add_parser("summarize", help="Table 1 style characterization")
    p_sum.add_argument("--n-jobs", type=job_count, default=1000,
                       help="jobs per workload (0 = full paper size)")

    p_rep = sub.add_parser(
        "report",
        help="write the EXPERIMENTS.md grid, or — given a recorded JSONL "
        "trace — a self-contained run report (schedule outcomes, "
        "prediction accuracy, instrumentation overhead)",
    )
    p_rep.add_argument(
        "trace", nargs="?", default=None,
        help="JSONL trace from `repro-sched trace`; when given, build a "
        "run report from it instead of the EXPERIMENTS.md grid",
    )
    p_rep.add_argument("--n-jobs", type=job_count, default=1000,
                       help="(grid mode) jobs per workload (0 = full paper "
                       "size)")
    p_rep.add_argument("-o", "--output", default=None,
                       help="output file (grid mode default: EXPERIMENTS.md; "
                       "run-report mode default: stdout)")
    p_rep.add_argument("--metrics", default=None,
                       help="(run-report mode) metrics snapshot JSON, e.g. "
                       "captured from `repro-sched trace --metrics`")
    p_rep.add_argument("--json", action="store_true",
                       help="(run-report mode) emit the report as JSON")
    p_rep.add_argument("--check", action="store_true",
                       help="(run-report mode) validate the report against "
                       "the minimal report schema")
    p_rep.add_argument("--window", type=positive_int, default=None,
                       help="(run-report mode) rolling window for the drift "
                       f"signal (default {DEFAULT_DRIFT_WINDOW})")

    p_tr = sub.add_parser(
        "trace", help="replay with structured event tracing (repro.obs)"
    )
    p_tr.add_argument("--workload", default="ANL", choices=sorted(PAPER_WORKLOADS))
    p_tr.add_argument(
        "--algorithms",
        nargs="+",
        default=["backfill"],
        choices=POLICY_NAMES,
        metavar="A",
    )
    p_tr.add_argument("--predictor", default="max", choices=PREDICTOR_NAMES)
    p_tr.add_argument("--n-jobs", type=job_count, default=300,
                      help="jobs to replay (0 = full paper size)")
    p_tr.add_argument("--seed", type=int, default=None)
    p_tr.add_argument("--compress", type=positive_float, default=1.0,
                      help="divide interarrival gaps by this factor")
    p_tr.add_argument("-o", "--out", default="trace.jsonl",
                      help="JSONL event file to write")
    p_tr.add_argument("--detail", action="store_true",
                      help="also emit per-estimate cache_hit/cache_miss "
                      "events and decision provenance (start_blocked / "
                      "reservation_binding / backfill_hole_used)")
    p_tr.add_argument("--from", dest="from_file", default=None, metavar="FILE",
                      help="inspect an existing trace instead of replaying: "
                      "--summary/--check read FILE and nothing is written")
    p_tr.add_argument("--wait-pred", default="none",
                      choices=["none", "forward", "state"],
                      help="also attach a wait-time predictor observer, so "
                      "the audit trail pairs wait predictions with realized "
                      "waits (forward simulation or state-based)")
    p_tr.add_argument("--summary", action="store_true",
                      help="print a per-policy event-type breakdown")
    p_tr.add_argument("--check", action="store_true",
                      help="validate the written trace against the event schema "
                      "and the started/finished counts against the job count")
    p_tr.add_argument("--metrics", action="store_true",
                      help="print the merged metrics registry as JSON")

    p_ex = sub.add_parser(
        "explain",
        help="explain why a job waited: decision timeline and wait "
        "decomposition from a recorded trace (best with `trace --detail`)",
    )
    p_ex.add_argument("trace", help="JSONL trace from `repro-sched trace`")
    p_ex.add_argument("--job", type=int, nargs="+", required=True,
                      metavar="ID", help="job id(s) to explain")
    p_ex.add_argument("--policy", default=None,
                      help="policy name when the trace interleaves several "
                      "replays (e.g. Backfill, FCFS)")
    p_ex.add_argument("--json", action="store_true",
                      help="emit the explanation(s) as JSON")
    p_ex.add_argument("--no-timeline", action="store_true",
                      help="omit the per-event timeline from text output")

    p_tl = sub.add_parser(
        "timeline",
        help="render scheduler state over simulated time (sparklines) "
        "rebuilt from a recorded trace",
    )
    p_tl.add_argument("trace", help="JSONL trace from `repro-sched trace`")
    p_tl.add_argument("--metric", nargs="+", default=["util"],
                      choices=sorted(TIMESERIES_METRICS), metavar="M",
                      help="metrics to render: "
                      + ", ".join(sorted(TIMESERIES_METRICS)))
    p_tl.add_argument("--policy", default=None,
                      help="policy name when the trace interleaves several "
                      "replays")
    p_tl.add_argument("--total-nodes", type=positive_int, default=None,
                      help="machine size (default: inferred from peak "
                      "concurrent allocation)")
    p_tl.add_argument("--width", type=positive_int, default=60,
                      help="sparkline width in columns")
    p_tl.add_argument("--max-points", type=int, default=2048,
                      help="reservoir size of the rebuilt series")
    p_tl.add_argument("-o", "--out", default=None, metavar="FILE",
                      help="also write the raw points as JSONL")

    p_srv = sub.add_parser(
        "serve",
        help="run the online wait-time prediction service: a JSON-lines "
        "TCP server fed scheduler events, answering wait queries from "
        "epoch-cached analytic predictions (repro.service)",
    )
    p_srv.add_argument("--host", default="127.0.0.1")
    p_srv.add_argument("--port", type=port_number, default=7099,
                       help="TCP port (0 = ask the OS; the bound port is "
                       "printed on stderr)")
    p_srv.add_argument("--workload", default="ANL",
                       choices=sorted(PAPER_WORKLOADS),
                       help="workload whose machine size and job history "
                       "shape the service (nodes, predictor warm-up)")
    p_srv.add_argument("--algorithm", default="backfill", choices=POLICY_NAMES,
                       help="scheduling policy the predictions assume")
    p_srv.add_argument("--predictor", default="max", choices=PREDICTOR_NAMES,
                       help="run-time predictor supplying believed durations")
    p_srv.add_argument("--n-jobs", type=job_count, default=300,
                       help="jobs used to size/warm the predictor "
                       "(0 = full paper size)")

    p_q = sub.add_parser(
        "query",
        help="client for `repro-sched serve`: stream replay events to the "
        "server and/or ask it for predicted waits",
    )
    p_q.add_argument("--host", default="127.0.0.1")
    p_q.add_argument("--port", type=server_port, default=7099)
    p_q.add_argument("--replay", type=int, default=None, metavar="N",
                     help="replay the workload's first N jobs locally, "
                     "streaming each submit/start/finish to the server; "
                     "stops at the last submission so a live queue remains")
    p_q.add_argument("--workload", default="ANL",
                     choices=sorted(PAPER_WORKLOADS),
                     help="(--replay) workload to replay")
    p_q.add_argument("--algorithm", default="backfill", choices=POLICY_NAMES,
                     help="(--replay) policy driving the local replay — "
                     "use the one the server was started with")
    p_q.add_argument("--predictor", default="max", choices=PREDICTOR_NAMES,
                     help="(--replay) estimator driving the local replay")
    p_q.add_argument("--compress", type=positive_float, default=1.0,
                     help="(--replay) divide interarrival gaps by this "
                     "factor — raises contention so a queue builds up")
    p_q.add_argument("--drain", action="store_true",
                     help="(--replay) run the replay to completion instead "
                     "of stopping at the last submission")
    p_q.add_argument("--job", type=int, nargs="+", default=None, metavar="ID",
                     help="predict the wait of these job ids")
    p_q.add_argument("--all-queued", action="store_true",
                     help="predict the wait of every queued job")
    p_q.add_argument("--state", action="store_true",
                     help="print the server's mirrored state")
    p_q.add_argument("--stats", action="store_true",
                     help="print the server's metrics snapshot as JSON")
    p_q.add_argument("--shutdown", action="store_true",
                     help="stop the server after the other actions")

    p_ga = sub.add_parser("ga-search", help="genetic template search (§2.1)")
    p_ga.add_argument("--workload", default="ANL", choices=sorted(PAPER_WORKLOADS))
    p_ga.add_argument("--n-jobs", type=job_count, default=800,
                      help="jobs of the workload (0 = full paper size)")
    p_ga.add_argument("--population", type=ga_population, default=16)
    p_ga.add_argument("--generations", type=positive_int, default=8)
    p_ga.add_argument("--eval-jobs", type=positive_int, default=400)
    p_ga.add_argument("--seed", type=int, default=0)
    p_ga.add_argument(
        "--algorithm",
        default=None,
        choices=POLICY_NAMES,
        help="fit against a recorded per-algorithm prediction workload "
        "instead of the submit-time replay",
    )
    return parser


def _make_telemetry(args: argparse.Namespace):
    """Build the campaign telemetry a grid command asked for, or ``None``.

    ``--progress``/``--journal`` only make sense on the parallel path
    (``--parallel`` > 1); a serial run gets a stderr note and no
    telemetry, so serial output (and the absence of a journal file)
    stays bit-identical to a run without the flags.
    """
    progress, journal = args.progress, args.journal
    if not progress and journal is None:
        return None
    if args.parallel <= 1:
        print(
            "note: --progress/--journal apply to parallel runs only "
            "(--parallel > 1); ignoring",
            file=sys.stderr,
        )
        return None
    from repro.obs.campaign import CampaignTelemetry, ProgressRenderer

    return CampaignTelemetry(
        journal, progress=ProgressRenderer() if progress else None
    )


def run_misprediction(args: argparse.Namespace) -> int:
    """The ``misprediction`` subcommand: degradation curves per policy."""
    from repro.experiments.misprediction import run_misprediction_campaign

    traces = [
        load_trace(w, args.n_jobs, args.seed, args.compress)
        for w in args.workloads
    ]
    telemetry = _make_telemetry(args)
    try:
        curves = run_misprediction_campaign(
            workloads=traces,
            algorithms=tuple(args.algorithms),
            levels=tuple(args.levels),
            kind=args.error_kind,
            noise_seed=args.noise_seed,
            base_predictor=args.base_predictor,
            max_workers=args.parallel,
            telemetry=telemetry,
        )
    finally:
        if telemetry is not None:
            telemetry.close()
    for curve in curves:
        print(
            format_table(
                curve.rows(),
                title=(
                    f"misprediction degradation ({curve.workload}, "
                    f"{curve.algorithm}, {curve.error_kind}, "
                    f"base={args.base_predictor})"
                ),
            )
        )
    return 0


def _format_trace_summary(events: list, *, title: str, source: str) -> str:
    """The ``--summary`` rendering — an explicit message for an empty
    trace instead of a contentless zero-row table."""
    from repro.obs import summarize_events

    if not events:
        return f"empty trace (0 events): {source}"
    return format_table(summarize_events(events), title=title)


def _read_trace(
    path: str, command: str, *, validate: bool = False, empty_ok: bool = False
) -> list | None:
    """The events of the JSONL trace at ``path``, schema-checked when
    ``validate``; ``None`` once ``<command> FAILED: ...`` is on stderr
    because the file is unreadable, invalid or (unless ``empty_ok``)
    empty."""
    from repro.obs import TraceSchemaError, read_jsonl, validate_events

    try:
        events = read_jsonl(path)
        if validate:
            validate_events(events)
    except (OSError, TraceSchemaError) as exc:
        print(f"{command} FAILED: cannot use trace {path}: {exc}", file=sys.stderr)
        return None
    if not events and not empty_ok:
        print(f"{command} FAILED: empty trace (0 events): {path}", file=sys.stderr)
        return None
    return events


def _inspect_trace_file(args: argparse.Namespace) -> int:
    """``trace --from FILE``: check/summarize an existing trace."""
    events = _read_trace(args.from_file, "trace", validate=args.check, empty_ok=True)
    if events is None:
        return 1
    if args.check:
        print(f"trace check OK: {len(events)} events schema-valid", file=sys.stderr)
    if args.summary or not args.check:
        print(
            _format_trace_summary(
                events,
                title=f"trace summary ({args.from_file})",
                source=args.from_file,
            )
        )
    return 0


def run_trace(args: argparse.Namespace) -> int:
    """The ``trace`` subcommand: replay under a tracer, then inspect."""
    import json

    from repro.core.registry import make_policy, make_predictor
    from repro.obs import Instrumentation, JsonlSink, Tracer, merge_snapshots
    from repro.predictors.base import PointEstimator
    from repro.scheduler.simulator import Simulator

    if args.from_file:
        return _inspect_trace_file(args)

    wl = load_trace(args.workload, args.n_jobs, args.seed, args.compress)

    job_counts: dict[str, int] = {}
    snapshots = []
    with JsonlSink(args.out) as sink:
        tracer = Tracer(sink)
        for algorithm in args.algorithms:
            policy = make_policy(algorithm)
            # Fresh bundle (registry + audit) per algorithm, sharing the
            # sink: pending predictions never leak across replays.
            inst = Instrumentation(
                tracer=tracer, detail=args.detail, audit=True
            )
            estimator = PointEstimator(
                make_predictor(args.predictor, wl), instrumentation=inst
            )
            sim = Simulator(
                policy, estimator, wl.total_nodes, instrumentation=inst
            )
            if args.wait_pred == "forward":
                from repro.waitpred.predictor import WaitTimePredictor

                sim.add_observer(
                    WaitTimePredictor(
                        policy,
                        make_predictor(args.predictor, wl),
                        scheduler_estimator=estimator,
                        instrumentation=inst,
                    )
                )
            elif args.wait_pred == "state":
                from repro.waitpred.statebased import StateBasedWaitPredictor

                # Its own estimator copy: the observer feeds completions
                # into its history itself, and sharing the scheduler's
                # instance would ingest each completion twice.
                sim.add_observer(
                    StateBasedWaitPredictor(
                        PointEstimator(make_predictor(args.predictor, wl)),
                        instrumentation=inst,
                    )
                )
            result = sim.run(wl)
            job_counts[policy.name] = job_counts.get(policy.name, 0) + len(result)
            snapshots.append(sim.metrics_snapshot())
            print(
                f"  {policy.name}: {len(result)} jobs replayed, "
                f"{sink.events_written} events so far",
                file=sys.stderr,
            )
    print(f"wrote {args.out} ({sink.events_written} events)", file=sys.stderr)

    if args.check or args.summary:
        events = _read_trace(args.out, "trace", validate=args.check, empty_ok=True)
        if events is None:
            return 1
    if args.check:
        for policy_name, jobs in job_counts.items():
            for etype in ("job_started", "job_finished"):
                got = sum(
                    1
                    for e in events
                    if e["type"] == etype and e.get("policy") == policy_name
                )
                if got != jobs:
                    print(
                        f"trace check FAILED: {policy_name} has {got} "
                        f"{etype} events for {jobs} jobs",
                        file=sys.stderr,
                    )
                    return 1
        print(
            f"trace check OK: {len(events)} events schema-valid, started/finished "
            f"counts match job counts",
            file=sys.stderr,
        )
    if args.summary:
        print(
            _format_trace_summary(
                events,
                title=f"trace summary ({args.workload}, {args.predictor})",
                source=args.out,
            )
        )
    if args.metrics:
        print(json.dumps(merge_snapshots(*snapshots), indent=2, sort_keys=True))
    return 0


def run_campaign(args: argparse.Namespace) -> int:
    """The ``campaign`` subcommand: inspect a ``--journal`` file."""
    import json

    from repro.obs.campaign import (
        CampaignCheckError,
        check_campaign_journal,
        format_campaign_summary,
        read_campaign_journal,
        summarize_campaign,
    )
    from repro.obs.schema import TraceSchemaError

    if args.check:
        try:
            events = read_campaign_journal(args.journal, strict=True)
            stats = check_campaign_journal(events)
        except (OSError, TraceSchemaError, CampaignCheckError) as exc:
            print(f"campaign check FAILED: {exc}", file=sys.stderr)
            return 1
        print(
            f"campaign check OK: {stats['events']} events, "
            f"{stats['cells_done']}/{stats['cells_total']} cells done, "
            f"{stats['cells_failed']} failed",
            file=sys.stderr,
        )
        return 0
    try:
        events = read_campaign_journal(args.journal)
    except (OSError, TraceSchemaError) as exc:
        print(f"campaign summary FAILED: {exc}", file=sys.stderr)
        return 1
    if not events:
        # An all-zero summary of nothing reads like a finished campaign;
        # say what actually happened instead.
        print(f"empty campaign journal (0 events): {args.journal}")
        return 0
    summary = summarize_campaign(events)
    if args.json:
        print(json.dumps(summary, indent=2, sort_keys=True))
    else:
        print(format_campaign_summary(summary))
    return 0


def run_explain(args: argparse.Namespace) -> int:
    """The ``explain`` subcommand: per-job wait decomposition."""
    import json

    from repro.obs import explain_job, format_explanation

    events = _read_trace(args.trace, "explain")
    if events is None:
        return 1
    explanations = []
    for job_id in args.job:
        try:
            explanations.append(explain_job(events, job_id, policy=args.policy))
        except ValueError as exc:
            print(f"explain FAILED: {exc}", file=sys.stderr)
            return 1
    if args.json:
        payload = explanations[0] if len(explanations) == 1 else explanations
        print(json.dumps(payload, indent=2, sort_keys=True))
    else:
        print(
            "\n\n".join(
                format_explanation(exp, timeline=not args.no_timeline)
                for exp in explanations
            )
        )
    return 0


def run_timeline(args: argparse.Namespace) -> int:
    """The ``timeline`` subcommand: state series rebuilt from a trace."""
    from repro.obs import StateSeries, format_timeseries

    events = _read_trace(args.trace, "timeline")
    if events is None:
        return 1
    try:
        series = StateSeries.from_events(
            events,
            policy=args.policy,
            total_nodes=args.total_nodes,
            max_points=args.max_points,
        )
    except ValueError as exc:
        print(f"timeline FAILED: {exc}", file=sys.stderr)
        return 1
    if not series.points:
        print(
            f"timeline FAILED: no job life-cycle events in {args.trace}",
            file=sys.stderr,
        )
        return 1
    if args.out:
        n = series.to_jsonl(args.out)
        print(f"wrote {args.out} ({n} points)", file=sys.stderr)
    print(
        "\n\n".join(
            format_timeseries(series, metric, width=args.width)
            for metric in args.metric
        )
    )
    return 0


def run_report_from_trace(args: argparse.Namespace) -> int:
    """The ``report <trace.jsonl>`` mode: trace (+ metrics) -> run report."""
    import json

    from repro.obs import (
        DEFAULT_DRIFT_WINDOW,
        ReportSchemaError,
        build_report,
        format_report,
        report_to_json,
        validate_report,
    )

    events = _read_trace(args.trace, "report", validate=True)
    if events is None:
        return 1
    metrics = None
    if args.metrics:
        with open(args.metrics, "r", encoding="utf-8") as fh:
            metrics = json.load(fh)
    window = DEFAULT_DRIFT_WINDOW if args.window is None else args.window
    report = build_report(events, metrics, window=window)
    if args.check:
        try:
            validate_report(report)
        except ReportSchemaError as exc:
            print(f"report check FAILED: {exc}", file=sys.stderr)
            return 1
        print(
            f"report check OK: {len(events)} events -> "
            f"{len(report['schedule'])} policies, "
            f"{len(report['accuracy']['groups'])} accuracy groups",
            file=sys.stderr,
        )
    body = (
        report_to_json(report) if args.json else format_report(report)
    ) + "\n"
    if args.output:
        with open(args.output, "w", encoding="utf-8") as fh:
            fh.write(body)
        print(f"wrote {args.output}", file=sys.stderr)
    else:
        print(body, end="")
    return 0


def run_serve(args: argparse.Namespace) -> int:
    """The ``serve`` subcommand: bind the prediction service on TCP."""
    from repro.core.registry import make_policy, make_predictor
    from repro.predictors.base import PointEstimator
    from repro.service import PredictionServer, PredictionService

    wl = load_paper_workload(args.workload, n_jobs=args.n_jobs)
    policy = make_policy(args.algorithm)
    estimator = PointEstimator(make_predictor(args.predictor, wl))
    service = PredictionService(policy, estimator, wl.total_nodes)
    with PredictionServer((args.host, args.port), service) as server:
        print(
            f"serving on {args.host}:{server.port} "
            f"({args.workload}, {wl.total_nodes} nodes, "
            f"policy={policy.name}, predictor={args.predictor})",
            file=sys.stderr,
            flush=True,
        )
        try:
            server.serve_forever()
        except KeyboardInterrupt:  # pragma: no cover - interactive only
            pass
    print("server stopped", file=sys.stderr)
    return 0


def run_query(args: argparse.Namespace) -> int:
    """The ``query`` subcommand: replay into / interrogate a server."""
    import json

    from repro.service import ServiceClient, UnknownJobError

    actions = (args.replay is not None, args.job, args.all_queued,
               args.state, args.stats, args.shutdown)
    if not any(actions):
        print("query: nothing to do (see --replay/--job/--all-queued/"
              "--state/--stats/--shutdown)", file=sys.stderr)
        return 2
    try:
        client = ServiceClient(args.host, args.port)
    except OSError as exc:
        print(f"query FAILED: cannot connect to {args.host}:{args.port}: "
              f"{exc}", file=sys.stderr)
        return 1
    with client:
        if args.replay is not None:
            from repro.core.registry import make_policy, make_predictor
            from repro.predictors.base import PointEstimator
            from repro.scheduler.simulator import Simulator
            from repro.service import SimulatorFeed

            wl = load_trace(
                args.workload, None if args.replay <= 0 else args.replay,
                compress=args.compress,
            )
            sim = Simulator(
                make_policy(args.algorithm),
                PointEstimator(make_predictor(args.predictor, wl)),
                wl.total_nodes,
            )
            sim.add_observer(SimulatorFeed(client))
            last_submit = max(job.submit_time for job in wl.jobs)
            sim.run(wl, until_time=None if args.drain else last_submit)
            state = client.state()
            print(
                f"replayed {len(wl.jobs)} jobs ({args.workload}) into "
                f"{args.host}:{args.port}: server now at epoch "
                f"{state['epoch']}, {len(state['queued'])} queued, "
                f"{len(state['running'])} running",
                file=sys.stderr,
            )
        if args.job:
            for job_id in args.job:
                try:
                    wait = client.predict(job_id)
                except UnknownJobError as exc:
                    print(f"job {job_id}: unknown ({exc})")
                    continue
                print(f"job {job_id}: predicted wait {wait:.1f}s")
        if args.all_queued:
            waits = client.predict_batch()
            if not waits:
                print("no queued jobs")
            for job_id in sorted(waits):
                print(f"job {job_id}: predicted wait {waits[job_id]:.1f}s")
        if args.state:
            state = client.state()
            print(json.dumps(
                {k: v for k, v in state.items() if k != "ok"},
                indent=2, sort_keys=True,
            ))
        if args.stats:
            print(json.dumps(client.stats(), indent=2, sort_keys=True))
        if args.shutdown:
            client.shutdown()
            print("server shut down", file=sys.stderr)
    return 0


def main(argv: Sequence[str] | None = None) -> int:
    parser = build_parser()
    args = parser.parse_args(argv)
    if args.command == "summarize":
        from repro.workloads.stats import summarize

        rows = [
            summarize(load_paper_workload(w, n_jobs=args.n_jobs)).as_row()
            for w in PAPER_WORKLOADS
        ]
        print(format_table(rows, title="Workload characteristics (Table 1)"))
        return 0
    if args.command == "trace":
        return run_trace(args)
    if args.command == "campaign":
        return run_campaign(args)
    if args.command == "explain":
        return run_explain(args)
    if args.command == "timeline":
        return run_timeline(args)
    if args.command == "misprediction":
        return run_misprediction(args)
    if args.command == "serve":
        return run_serve(args)
    if args.command == "query":
        return run_query(args)
    if args.command == "ga-search":
        from repro.predictors.ga import GAConfig, TemplateSearch
        from repro.predictors.replay import replay_prediction_error
        from repro.predictors.smith import SmithPredictor

        trace = load_paper_workload(args.workload, n_jobs=args.n_jobs)
        cfg = GAConfig(
            population=args.population,
            generations=args.generations,
            eval_jobs=args.eval_jobs,
            seed=args.seed,
        )
        workload = None
        if args.algorithm is not None:
            from repro.predictors.prediction_workload import (
                record_prediction_workload,
            )

            workload = record_prediction_workload(trace, args.algorithm)
        search = TemplateSearch(trace, config=cfg, prediction_workload=workload)
        templates, history = search.run()
        print(
            format_table(
                [{"Template": t.describe()} for t in templates],
                title=f"Best template set ({args.workload}"
                + (f"/{args.algorithm}" if args.algorithm else "")
                + ")",
            )
        )
        report = replay_prediction_error(trace, SmithPredictor(templates))
        print(
            f"\nbest-per-generation error (min): "
            f"{[round(e / 60, 1) for e in history.best_errors]}"
        )
        print(
            f"full-replay error: {report.mean_abs_error_minutes:.1f} min "
            f"({100 * report.error_fraction_of_mean_run_time:.0f}% of mean run time)"
        )
        return 0
    if args.command == "report":
        if args.trace is not None:
            return run_report_from_trace(args)
        run_report_flags = [
            flag for flag, given in (
                ("--metrics", args.metrics is not None), ("--json", args.json),
                ("--check", args.check), ("--window", args.window is not None),
            ) if given
        ]
        if run_report_flags:
            parser.error(
                f"report: {', '.join(run_report_flags)} given without a "
                "trace; they apply only to a run report"
            )
        from repro.core.report import generate_experiments_report

        output = args.output if args.output is not None else "EXPERIMENTS.md"
        body = generate_experiments_report(
            args.n_jobs,
            progress=lambda msg: print(f"  {msg}", file=sys.stderr),
        )
        with open(output, "w", encoding="utf-8") as fh:
            fh.write(body)
        print(f"wrote {output}")
        return 0

    # The grid commands: runtime-error (serial, no scheduler), and the
    # scheduling and wait-time replay grids.
    if args.command == "runtime-error":
        rows = []
        for workload in args.workloads:
            trace = load_trace(workload, args.n_jobs, args.seed, args.compress)
            for predictor in args.predictors:
                rows.append(
                    run_runtime_prediction_experiment(trace, predictor).as_row()
                )
    else:
        from repro.core.parallel import run_grid

        telemetry = _make_telemetry(args)
        try:
            cells = run_grid(
                args.command,
                workloads=args.workloads,
                algorithms=args.algorithms,
                predictors=args.predictors,
                n_jobs=args.n_jobs,
                seed=args.seed,
                compress=args.compress,
                max_workers=args.parallel,
                telemetry=telemetry,
            )
        finally:
            if telemetry is not None:
                telemetry.close()
        rows = [dict(cell.as_row(), Predictor=cell.predictor) for cell in cells]
    print(format_table(rows, title=f"{args.command} experiment"))
    return 0

if __name__ == "__main__":  # pragma: no cover - exercised via console script
    sys.exit(main())
