"""Tests for the benchmark harness (runner, results, experiment registry)."""

from __future__ import annotations

import pytest

from repro.bench.experiments import EXPERIMENTS, run_experiment
from repro.bench.results import ExperimentResult, format_table
from repro.bench.runner import BENCH_PRESETS, measure_cycles, measure_method
from repro.engines.registry import build_system
from repro.errors import ConfigurationError
from repro.motion import RandomWalkModel, make_dataset, make_queries


class TestExperimentResult:
    def test_add_row_validates_width(self):
        result = ExperimentResult("figX", "t", ["a", "b"])
        result.add_row(1, 2)
        with pytest.raises(ValueError):
            result.add_row(1)

    def test_column(self):
        result = ExperimentResult("figX", "t", ["a", "b"])
        result.add_row(1, 2)
        result.add_row(3, 4)
        assert result.column("b") == [2, 4]

    def test_render_contains_everything(self):
        result = ExperimentResult(
            "figX", "Title", ["a"], expectation="paper says"
        )
        result.add_row(0.123456)
        result.findings.append("it held")
        text = result.render()
        assert "figX" in text
        assert "Title" in text
        assert "paper says" in text
        assert "it held" in text

    def test_render_markdown_is_a_table(self):
        result = ExperimentResult("figX", "Title", ["a", "b"])
        result.add_row(1, 0.5)
        md = result.render_markdown()
        assert "| a | b |" in md
        assert "|---|---|" in md
        assert md.count("|") >= 9

    def test_render_csv(self):
        result = ExperimentResult("figX", "Title", ["a", "b"])
        result.add_row(1, 0.5)
        result.add_row(2, 1.5)
        lines = result.render_csv().strip().splitlines()
        assert lines[0] == "figure,a,b"
        assert lines[1] == "figX,1,0.5"
        assert lines[2] == "figX,2,1.5"

    def test_to_records(self):
        result = ExperimentResult("figX", "Title", ["a", "b"])
        result.add_row(1, 2)
        assert result.to_records() == [{"a": 1, "b": 2}]


class TestFormatTable:
    def test_alignment(self):
        table = format_table(["name", "v"], [["x", 1], ["longer", 22]])
        lines = table.splitlines()
        assert len(lines) == 4
        assert all(len(line) == len(lines[0]) for line in lines[1:])

    def test_float_formatting(self):
        table = format_table(["v"], [[0.00001], [123456.0], [0.5]])
        assert "e-05" in table
        assert "e+05" in table.lower() or "1.235e" in table


class TestRunner:
    def test_unknown_method(self):
        with pytest.raises(ConfigurationError):
            build_system("nope", 5, make_queries(3, seed=1))

    def test_every_factory_builds(self):
        queries = make_queries(3, seed=1)
        for method in BENCH_PRESETS:
            with build_system(method, 2, queries) as system:
                assert system.k == 2

    def test_measure_cycles(self):
        positions = make_dataset("uniform", 200, seed=2)
        queries = make_queries(3, seed=3)
        system = build_system("object_overhaul", 2, queries)
        motion = RandomWalkModel(vmax=0.01, seed=4)
        timing = measure_cycles(system, positions, motion, cycles=2)
        assert timing.cycles == 2
        assert timing.total_time == timing.index_time + timing.answer_time
        assert timing.total_time > 0.0

    def test_measure_cycles_requires_cycles(self):
        positions = make_dataset("uniform", 50, seed=5)
        system = build_system("brute_force", 2, make_queries(2, seed=6))
        with pytest.raises(ConfigurationError):
            measure_cycles(system, positions, RandomWalkModel(seed=7), cycles=0)

    def test_measure_method_one_call(self):
        timing = measure_method(
            "query_indexing", n_objects=300, n_queries=5, k=2, cycles=1
        )
        assert timing.total_time > 0.0


class TestRegistry:
    def test_unknown_experiment(self):
        with pytest.raises(ConfigurationError):
            run_experiment("fig99")

    def test_registry_covers_every_paper_figure(self):
        for figure in (
            "fig09", "fig10", "fig11a", "fig11b", "fig12", "fig13", "fig14",
            "fig15", "fig16", "fig17", "fig18a", "fig18b", "fig19a",
            "fig19b", "fig20", "fig21a", "fig21b", "fig22a", "fig22b",
            "fig22c",
        ):
            assert figure in EXPERIMENTS

    def test_every_experiment_has_doc_and_callable(self):
        for name, experiment in EXPERIMENTS.items():
            assert callable(experiment)
            assert experiment.__doc__, name

    def test_fastgrid_breakdown_is_the_stage_spans(self):
        result = run_experiment("fastgrid", scale=0.02)
        breakdown = result.stage_breakdown["fast_grid"]
        assert list(breakdown) == [
            "maintain.csr_snapshot",
            "answer.radii",
            "answer.gather",
            "answer.select",
        ]
        assert all(seconds > 0.0 for seconds in breakdown.values())

    @pytest.mark.parametrize("figure", ["fig09", "fig21a", "fig21b"])
    def test_cheap_experiments_run_tiny(self, figure):
        result = run_experiment(figure, scale=0.02)
        assert result.rows
        assert result.columns
        assert result.figure == figure
