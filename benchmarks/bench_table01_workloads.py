"""Table 1 — characteristics of the four workloads.

Regenerates the paper's workload-characterization table from the
synthetic traces and checks the calibrated parameters (machine sizes,
request counts at full scale, mean run times) against Table 1.
"""

from __future__ import annotations

from repro.core.paper_reference import TABLE1_WORKLOADS
from repro.core.tables import format_table
from repro.workloads.archive import PAPER_WORKLOADS
from repro.workloads.stats import summarize

from _common import bench_traces, print_paper_table


def _characterize():
    return [summarize(t) for t in bench_traces()]


def test_table01_workload_characteristics(benchmark):
    summaries = benchmark.pedantic(_characterize, rounds=1, iterations=1)
    print_paper_table(summaries)

    for s in summaries:
        nodes, requests, mean_rt = TABLE1_WORKLOADS[s.name]
        assert s.total_nodes == nodes
        # Full-scale specs carry the exact request counts.
        assert PAPER_WORKLOADS[s.name].n_jobs == requests
        # Mean run time within a factor ~1.5 of Table 1 after clipping.
        assert 0.6 * mean_rt <= s.mean_run_time_minutes <= 1.5 * mean_rt

    # Relative ordering of machine loads: ANL is the hot machine.
    loads = {s.name: s.offered_load for s in summaries}
    assert loads["ANL"] == max(loads.values())


def test_table02_recorded_fields(benchmark):
    """Table 2 — every trace records exactly its column of characteristics."""
    from repro.workloads.fields import WORKLOAD_FIELDS

    def check():
        report = []
        for trace in bench_traces():
            catalog = WORKLOAD_FIELDS[trace.name]
            job = trace[0]
            observed = {
                "t": job.job_type is not None,
                "q": job.queue is not None,
                "c": job.job_class is not None,
                "u": job.user is not None,
                "s": job.script is not None,
                "e": job.executable is not None,
                "a": job.arguments is not None or "a" not in catalog,
                "na": job.network_adaptor is not None,
            }
            for abbr, present in observed.items():
                if abbr == "a":
                    continue  # arguments sampled per-job; checked in tests
                assert present == (abbr in catalog), (trace.name, abbr)
            report.append(
                {
                    "Workload": trace.name,
                    "Fields": ", ".join(sorted(catalog.available)),
                    "Max run time": "Y" if catalog.has_max_run_time else "",
                }
            )
        return report

    report = benchmark.pedantic(check, rounds=1, iterations=1)
    print()
    print(format_table(report, title="Table 2 — recorded characteristics"))
