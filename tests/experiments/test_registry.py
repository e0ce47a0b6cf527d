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
    """No experiment takes an evaluator option: flow studies always run
    the stacked closed-form evaluator, flit sweeps the native kernel."""

    def test_flow_level_experiments_take_no_engine(self):
        for name in ("figure4a", "figure4b", "figure4c", "figure4d", "ratios",
                     "fault-sweep", "churn-sweep"):
            assert not hasattr(get_experiment(name), "engine_aware"), name
            with pytest.raises(TypeError, match="engine"):
                run_experiment(name, fidelity_name="fast", engine="reference")

    def test_flit_experiments_are_not_engine_aware(self):
        for name in ("table1", "figure5"):
            assert not hasattr(get_experiment(name), "engine_aware"), name
            with pytest.raises(TypeError, match="engine"):
                run_instrumented(name, engine="compiled")

    def test_exact_experiments_are_not_engine_aware(self):
        for name in ("theorems", "resources", "exact-ratios"):
            assert not hasattr(get_experiment(name), "engine_aware"), name

    def test_unaware_experiment_rejects_compiled_engine(self):
        for engine in ("compiled", "reference"):
            with pytest.raises(TypeError, match="engine"):
                run_instrumented("resources", engine=engine)


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
