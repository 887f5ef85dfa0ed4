"""Tests for repro.cli: argument parsing and the grid commands."""

from __future__ import annotations

import os

import pytest

from repro.cli import build_parser, main


def _printed_rows(out: str) -> list[dict[str, str]]:
    """Parse the one ``format_table`` block a grid command prints.

    The dash rule under the header gives each column's span.
    """
    lines = out.rstrip("\n").splitlines()
    spans, start = [], 0
    for dashes in lines[2].split("  "):
        spans.append((start, start + len(dashes)))
        start += len(dashes) + 2
    header = [lines[1][a:b].strip() for a, b in spans]
    return [
        dict(zip(header, (line[a:b].strip() for a, b in spans)))
        for line in lines[3:]
    ]


def _run(capsys, argv: list[str]) -> str:
    assert main(argv) == 0
    return capsys.readouterr().out


class TestGridArgs:
    """Names, counts and factors are checked once, by argparse."""

    def test_defaults_valid(self):
        args = build_parser().parse_args(["scheduling"])
        assert args.command == "scheduling"
        assert args.n_jobs == 1000
        assert args.workloads == ["ANL", "CTC", "SDSC95", "SDSC96"]
        assert (args.compress, args.parallel) == (1.0, 1)

    @pytest.mark.parametrize(
        "argv",
        [
            ["throughput"],
            ["scheduling", "--workloads", "LANL"],
            ["scheduling", "--algorithms", "sjf"],
            ["wait-time", "--predictors", "oracle"],
        ],
        ids=["kind", "workload", "algorithm", "predictor"],
    )
    def test_unknown_name(self, argv, capsys):
        with pytest.raises(SystemExit) as exc:
            build_parser().parse_args(argv)
        assert exc.value.code == 2
        assert "invalid choice" in capsys.readouterr().err

    def test_bad_n_jobs(self):
        with pytest.raises(SystemExit) as exc:
            build_parser().parse_args(["scheduling", "--n-jobs", "many"])
        assert exc.value.code == 2

    @pytest.mark.parametrize(
        "command",
        ["scheduling", "wait-time", "runtime-error", "misprediction",
         "summarize", "report", "trace", "serve", "ga-search"],
    )
    def test_zero_n_jobs_means_full_paper_size(self, command):
        parser = build_parser()
        assert parser.parse_args([command, "--n-jobs", "0"]).n_jobs is None
        assert parser.parse_args([command, "--n-jobs", "-3"]).n_jobs is None
        assert parser.parse_args([command, "--n-jobs", "7"]).n_jobs == 7

    def test_bad_parallel(self):
        with pytest.raises(SystemExit) as exc:
            build_parser().parse_args(["scheduling", "--parallel", "two"])
        assert exc.value.code == 2

    @pytest.mark.parametrize("command", ["scheduling", "misprediction"])
    def test_zero_parallel_means_one_worker_per_cpu(self, command):
        args = build_parser().parse_args([command, "--parallel", "0"])
        assert args.parallel == (os.cpu_count() or 1)

    @pytest.mark.parametrize(
        "flags",
        [["--parallel", "2"], ["--progress"], ["--journal", "rt.jsonl"]],
        ids=["parallel", "progress", "journal"],
    )
    def test_runtime_error_has_no_parallel_path(
        self, flags, capsys, tmp_path, monkeypatch
    ):
        """``runtime-error`` scores predictors serially; a parallel-only
        flag is a usage error, not silently ignored."""
        monkeypatch.chdir(tmp_path)
        with pytest.raises(SystemExit) as exc:
            main(["runtime-error", "--workloads", "ANL", "--predictors",
                  "actual", "--n-jobs", "30", *flags])
        assert exc.value.code == 2
        assert "unrecognized arguments" in capsys.readouterr().err
        assert not (tmp_path / "rt.jsonl").exists()

    @pytest.mark.parametrize("population", ["0", "2", "-4", "7", "17", "six"])
    def test_bad_ga_population(self, population, capsys):
        """A population GAConfig would reject is a usage error, not a
        traceback."""
        with pytest.raises(SystemExit) as exc:
            main(["ga-search", "--population", population])
        assert exc.value.code == 2
        assert "--population" in capsys.readouterr().err

    @pytest.mark.parametrize(
        "argv",
        [["serve", "--port", "99999"], ["serve", "--port", "-1"],
         ["query", "--port", "70000", "--state"], ["query", "--port", "0", "--state"],
         ["query", "--port", "http", "--state"]],
        ids=["serve-high", "serve-negative", "query-high", "query-zero", "query-text"],
    )
    def test_bad_port_is_usage_error(self, argv, capsys):
        """An impossible port is refused by the parser, before a bind
        overflows or a connect is refused."""
        with pytest.raises(SystemExit) as exc:
            main(argv)
        assert exc.value.code == 2
        assert "--port" in capsys.readouterr().err

    def test_port_bounds(self):
        parser = build_parser()
        assert parser.parse_args(["serve", "--port", "0"]).port == 0
        assert parser.parse_args(["serve", "--port", "65535"]).port == 65535
        assert parser.parse_args(["query", "--port", "1"]).port == 1
        assert parser.parse_args(["query", "--port", "65535"]).port == 65535

    def test_bad_ga_generations(self, capsys):
        with pytest.raises(SystemExit) as exc:
            main(["ga-search", "--generations", "0"])
        assert exc.value.code == 2
        assert "--generations" in capsys.readouterr().err

    @pytest.mark.parametrize("eval_jobs", ["0", "-5"])
    def test_bad_ga_eval_jobs(self, eval_jobs, capsys):
        """A non-positive evaluation trace size is a usage error, not a
        search over a 0-job trace or a traceback."""
        with pytest.raises(SystemExit) as exc:
            main(["ga-search", "--eval-jobs", eval_jobs])
        assert exc.value.code == 2
        assert "--eval-jobs" in capsys.readouterr().err

    @pytest.mark.parametrize("level", ["nan", "inf", "-1"])
    def test_bad_misprediction_level(self, level, capsys):
        """A NaN, infinite or negative error level is a usage error, not a
        silent ``nan`` row or a traceback."""
        with pytest.raises(SystemExit) as exc:
            main(["misprediction", "--levels", level, "0"])
        assert exc.value.code == 2
        err = capsys.readouterr().err
        assert "--levels: must be finite and >= 0" in err
        assert "Traceback" not in err

    def test_ga_population_accepts_even_from_four(self):
        parser = build_parser()
        for population in (4, 6, 24):
            args = parser.parse_args(["ga-search", "--population", str(population)])
            assert args.population == population

    def test_bad_compress(self, capsys):
        """A non-positive factor is a usage error, not a traceback."""
        for argv in (
            ["scheduling", "--compress", "0"],
            ["wait-time", "--compress", "-2"],
            ["runtime-error", "--compress", "0"],
            ["misprediction", "--compress", "-1"],
            ["trace", "--compress", "0"],
            ["query", "--compress", "nan"],
        ):
            with pytest.raises(SystemExit) as exc:
                main(argv)
            assert exc.value.code == 2, argv
            err = capsys.readouterr().err
            assert "--compress: must be positive" in err, argv
            assert "Traceback" not in err

    @pytest.mark.parametrize("value", ["inf", "nan"])
    @pytest.mark.parametrize(
        "command",
        ["scheduling", "wait-time", "runtime-error", "misprediction", "trace", "query"],
    )
    def test_non_finite_compress(self, capsys, command, value):
        """An infinite factor would submit every job at once under a
        workload named ``ANLxinf``; it is a usage error like NaN."""
        with pytest.raises(SystemExit) as exc:
            main([command, "--compress", value])
        assert exc.value.code == 2
        err = capsys.readouterr().err
        assert "--compress: must be positive and finite" in err
        assert "Traceback" not in err


class TestRunConfig:
    """The grid commands' printed rows, end to end through ``main``."""

    def test_scheduling_grid(self, capsys):
        rows = _printed_rows(_run(capsys, [
            "scheduling", "--workloads", "ANL", "--algorithms", "lwf",
            "--predictors", "actual", "--n-jobs", "120",
        ]))
        assert len(rows) == 1
        assert rows[0]["Workload"] == "ANL"
        assert "Utilization (percent)" in rows[0]

    def test_runtime_error_grid(self, capsys):
        rows = _printed_rows(_run(capsys, [
            "runtime-error", "--workloads", "SDSC95",
            "--predictors", "actual", "max", "--n-jobs", "120",
        ]))
        assert len(rows) == 2
        assert {r["Predictor"] for r in rows} == {"actual", "max"}

    def test_wait_time_grid(self, capsys):
        rows = _printed_rows(_run(capsys, [
            "wait-time", "--workloads", "ANL", "--algorithms", "fcfs",
            "--predictors", "actual", "--n-jobs", "120",
        ]))
        assert float(rows[0]["Mean Error (minutes)"]) == pytest.approx(0.0, abs=1e-6)

    def test_parallel_rows_equal_serial(self, capsys):
        argv = ["scheduling", "--workloads", "ANL", "--algorithms", "lwf",
                "backfill", "--predictors", "actual", "max", "--n-jobs", "120"]
        serial = _run(capsys, argv)
        assert _run(capsys, [*argv, "--parallel", "2"]) == serial

    def test_parallel_wait_time_rows_equal_serial(self, capsys):
        argv = ["wait-time", "--workloads", "ANL", "--algorithms", "fcfs",
                "--predictors", "actual", "--n-jobs", "120"]
        serial = _run(capsys, argv)
        assert _run(capsys, [*argv, "--parallel", "2"]) == serial

    def test_compress_applied(self, capsys):
        argv = ["scheduling", "--workloads", "SDSC95", "--algorithms", "lwf",
                "--predictors", "actual", "--n-jobs", "300"]
        [base] = _printed_rows(_run(capsys, argv))
        [hard] = _printed_rows(_run(capsys, [*argv, "--compress", "4"]))
        key = "Utilization (percent)"
        assert float(hard[key]) > float(base[key])


class TestCLI:
    def test_parser_subcommands(self):
        parser = build_parser()
        args = parser.parse_args(
            ["scheduling", "--workloads", "ANL", "--n-jobs", "50"]
        )
        assert args.command == "scheduling"
        assert args.workloads == ["ANL"]
        assert args.parallel == 1

    def test_parallel_flag_parsed(self):
        args = build_parser().parse_args(["scheduling", "--parallel", "4"])
        assert args.parallel == 4

    def test_main_scheduling_parallel(self, capsys):
        rc = main(
            [
                "scheduling",
                "--workloads", "ANL",
                "--algorithms", "lwf",
                "--predictors", "actual",
                "--n-jobs", "120",
                "--parallel", "2",
            ]
        )
        assert rc == 0
        out = capsys.readouterr().out
        assert "ANL" in out
        assert "Utilization" in out

    def test_requires_command(self):
        with pytest.raises(SystemExit):
            build_parser().parse_args([])

    def test_main_scheduling(self, capsys):
        rc = main(
            [
                "scheduling",
                "--workloads", "ANL",
                "--algorithms", "lwf",
                "--predictors", "actual",
                "--n-jobs", "120",
            ]
        )
        assert rc == 0
        out = capsys.readouterr().out
        assert "ANL" in out
        assert "Utilization" in out

    def test_main_summarize(self, capsys):
        rc = main(["summarize", "--n-jobs", "100"])
        assert rc == 0
        out = capsys.readouterr().out
        assert "SDSC96" in out

    def test_main_ga_search(self, capsys):
        rc = main(
            [
                "ga-search",
                "--workload", "ANL",
                "--n-jobs", "120",
                "--population", "4",
                "--generations", "2",
                "--eval-jobs", "60",
            ]
        )
        assert rc == 0
        out = capsys.readouterr().out
        assert "Best template set (ANL)" in out
        assert "full-replay error" in out

    def test_main_ga_search_with_algorithm_workload(self, capsys):
        rc = main(
            [
                "ga-search",
                "--workload", "SDSC95",
                "--algorithm", "lwf",
                "--n-jobs", "100",
                "--population", "4",
                "--generations", "1",
                "--eval-jobs", "50",
            ]
        )
        assert rc == 0
        assert "SDSC95/lwf" in capsys.readouterr().out

    def test_main_report(self, tmp_path, capsys, monkeypatch):
        out_file = tmp_path / "EXP.md"

        # Patch the heavy generator: the CLI's wiring is what's under test.
        import repro.core.report as report_mod

        monkeypatch.setattr(
            report_mod,
            "generate_experiments_report",
            lambda n_jobs, progress=None: "# stub\n",
        )
        rc = main(["report", "--n-jobs", "10", "-o", str(out_file)])
        assert rc == 0
        assert out_file.read_text() == "# stub\n"

    @pytest.mark.parametrize(
        "flags",
        [["--json"], ["--check"], ["--metrics", "m.json"], ["--window", "200"],
         ["--json", "--metrics", "m.json", "--check"]],
        ids=["json", "check", "metrics", "window", "all"],
    )
    def test_report_run_flags_without_trace_are_usage_errors(
        self, flags, tmp_path, capsys, monkeypatch
    ):
        """The grid mode has no use for the run-report flags, so it refuses
        them before generating (and overwriting) anything."""
        import repro.core.report as report_mod

        calls = []
        monkeypatch.setattr(
            report_mod,
            "generate_experiments_report",
            lambda n_jobs, progress=None: calls.append(n_jobs) or "# stub\n",
        )
        out_file = tmp_path / "EXP.md"
        with pytest.raises(SystemExit) as exc:
            main(["report", "--n-jobs", "10", "-o", str(out_file), *flags])
        assert exc.value.code == 2
        assert calls == []
        assert not out_file.exists()
        assert flags[0] in capsys.readouterr().err

    def test_serve_has_no_slow_path(self, capsys):
        with pytest.raises(SystemExit) as exc:
            build_parser().parse_args(["serve", "--slow"])
        assert exc.value.code == 2
        assert "--slow" in capsys.readouterr().err
