"""Experiment registry and the theorem/resource experiments."""

import pytest

from repro.errors import ReproError
from repro.experiments.registry import (
    EXPERIMENTS,
    get_experiment,
    run_experiment,
    run_instrumented,
)


class TestRegistry:
    def test_all_paper_artifacts_registered(self):
        for name in ("figure4a", "figure4b", "figure4c", "figure4d",
                     "table1", "figure5", "theorems", "resources"):
            assert name in EXPERIMENTS

    def test_get_unknown_raises(self):
        with pytest.raises(ReproError):
            get_experiment("figure9")

    def test_descriptions_nonempty(self):
        for exp in EXPERIMENTS.values():
            assert exp.description


class TestEngineForwarding:
    def test_flow_level_experiments_are_engine_aware(self):
        for name in ("figure4a", "figure4b", "figure4c", "figure4d", "ratios"):
            assert get_experiment(name).engine_aware, name

    def test_flit_experiments_are_not_engine_aware(self):
        # table1/figure5 always run FlitSimulator: --engine is the flow
        # evaluator's knob, so a non-reference one is an error there.
        for name in ("table1", "figure5"):
            assert not get_experiment(name).engine_aware, name
            with pytest.raises(ReproError, match="does not support"):
                run_instrumented(name, engine="compiled")

    def test_exact_experiments_are_not_engine_aware(self):
        for name in ("theorems", "resources", "exact-ratios"):
            assert not get_experiment(name).engine_aware, name

    def test_unaware_experiment_rejects_compiled_engine(self):
        with pytest.raises(ReproError, match="does not support"):
            run_instrumented("resources", engine="compiled")

    def test_unaware_experiment_accepts_reference_engine(self):
        run = run_instrumented("resources", engine="reference")
        assert run.result is not None


class TestTheoremsExperiment:
    def test_runs_and_holds(self):
        result = run_experiment("theorems", samples=2)
        assert result.all_hold
        assert "ALL HOLD" in result.render()


class TestResourcesExperiment:
    def test_runs_and_reports_infeasibility(self):
        result = run_experiment("resources")
        text = result.render()
        assert "144" in text
        assert "NO" in text  # at least one infeasible row
        assert "distinct paths" in text
