"""Keep the documentation synchronized with the code.

These tests fail when a bench, example, or documented module is added or
removed without updating the corresponding document — cheap insurance
against the docs rotting.
"""

from __future__ import annotations

import re
from pathlib import Path

ROOT = Path(__file__).resolve().parent.parent


class TestBenchmarkDocs:
    def test_every_bench_listed_in_benchmarks_md(self):
        doc = (ROOT / "docs" / "benchmarks.md").read_text()
        benches = sorted(p.name for p in (ROOT / "benchmarks").glob("bench_*.py"))
        missing = [b for b in benches if b not in doc]
        assert not missing, f"benches missing from docs/benchmarks.md: {missing}"

    def test_no_phantom_benches_in_docs(self):
        doc = (ROOT / "docs" / "benchmarks.md").read_text()
        # (?<!\w) keeps names embedded in longer ones — e.g. the
        # scripts/check_bench_regression.py checker — from matching.
        referenced = set(re.findall(r"(?<!\w)bench_\w+\.py", doc))
        existing = {p.name for p in (ROOT / "benchmarks").glob("bench_*.py")}
        phantom = referenced - existing
        assert not phantom, f"docs reference non-existent benches: {phantom}"


class TestReadme:
    def test_examples_listed(self):
        readme = (ROOT / "README.md").read_text()
        for example in (ROOT / "examples").glob("*.py"):
            assert example.name in readme, f"{example.name} not in README"

    def test_quickstart_snippet_runs(self):
        """The README's quickstart code must actually work."""
        from repro import load_paper_workload, run_scheduling_experiment

        trace = load_paper_workload("ANL", n_jobs=60)
        cell, result = run_scheduling_experiment(trace, "backfill", "smith")
        assert cell.utilization_percent > 0


class TestDesignInventory:
    def test_design_module_references_exist(self):
        """Every `repro.x.y` module path DESIGN.md names must import."""
        import importlib

        design = (ROOT / "DESIGN.md").read_text()
        for match in sorted(set(re.findall(r"`(repro(?:\.\w+)+)`", design))):
            importlib.import_module(match)

    def test_design_bench_references_exist(self):
        design = (ROOT / "DESIGN.md").read_text()
        for match in sorted(set(re.findall(r"benchmarks/(bench_\w+\.py)", design))):
            assert (ROOT / "benchmarks" / match).exists(), match

    def test_experiments_md_exists_and_fresh_format(self):
        text = (ROOT / "EXPERIMENTS.md").read_text()
        assert "# EXPERIMENTS" in text
        for no in (1, 4, 5, 6, 7, 8, 9, 10, 11, 12, 13, 14, 15):
            assert f"## Table {no} " in text


def _api_texts() -> tuple[str, str]:
    """``gen_api_docs.render()`` and the committed ``docs/api.md``."""
    import importlib.util

    spec = importlib.util.spec_from_file_location(
        "gen_api_docs", ROOT / "scripts" / "gen_api_docs.py"
    )
    gen = importlib.util.module_from_spec(spec)
    spec.loader.exec_module(gen)
    return gen.render(), (ROOT / "docs" / "api.md").read_text()


class TestApiReference:
    def test_constants_not_described_by_their_types_docstring(self):
        """A module constant's line names its type, never the type's own
        docstring ("dict() -> new empty dictionary" says nothing true
        about a table of published numbers)."""
        import inspect

        builtin_docs = {
            inspect.getdoc(t).splitlines()[0].rstrip(".")
            for t in (dict, list, tuple, set, frozenset, str, bytes, int,
                      float, bool)
        }
        for text in _api_texts():
            bad = [
                line for line in text.splitlines()
                if any(doc in line for doc in builtin_docs)
            ]
            assert not bad, bad

    def test_no_doubly_quoted_annotations(self):
        """A quoted annotation in a ``from __future__ import annotations``
        module is a string of a string, and prints as ``"'Trace'"``."""
        for text in _api_texts():
            bad = [line for line in text.splitlines() if "\"'" in line]
            assert not bad, bad
