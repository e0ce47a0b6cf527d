"""Self-tests of the benchmark's own machinery.

Run from the root of the repository::

    python3 e2ebench/selftest.py

They check that the metric names the benchmark emits are exactly those
of ``BENCHMARK.json``, that a wrong stored digest counts as a failure,
that every wrapper is removed after tracing (also when the traced call
raises), and that the tracer's counts agree with the program's own.
"""

from __future__ import annotations

import importlib
import json
import os
import subprocess
import sys
import time
import tracemalloc
import unittest

BENCH_DIR = os.path.dirname(os.path.abspath(__file__))
ROOT = os.path.dirname(BENCH_DIR)
sys.path[:0] = [os.path.join(ROOT, "src"), BENCH_DIR]

import run  # noqa: E402
import tracing  # noqa: E402
import workloads  # noqa: E402

# Kernel builds stay inside the benchmark's own directory.
os.environ.setdefault("REPRO_KERNEL_CACHE",
                      os.path.join(run.WORK_DIR, "kernel"))


def _spec() -> dict:
    with open(os.path.join(ROOT, "BENCHMARK.json"), encoding="utf-8") as fh:
        return json.load(fh)


def _record(digest: str, problems=()) -> dict:
    return {"digest": digest, "problems": list(problems)}


def _bindings() -> dict:
    """Every attribute of every loaded ``repro`` module and class."""
    out = {}
    for mod in list(sys.modules.values()):
        if not getattr(mod, "__name__", "").startswith("repro"):
            continue
        for key, value in vars(mod).items():
            out[(mod.__name__, key)] = value
            if isinstance(value, type):
                for attr, v in vars(value).items():
                    out[(mod.__name__, key, attr)] = v
    return out


class MetricNames(unittest.TestCase):
    def test_end_to_end_names_match(self):
        runs = [{"wall_s": 2.0, "cpu_s": 1.9, "peak_rss_mb": 50.0,
                 "work": 10, "host_factor": 1.0}]
        values = run.end_to_end(runs, [0.5])
        metrics = run.emit(values, _spec()["end_to_end"])
        self.assertEqual(list(metrics),
                         [m["name"] for m in _spec()["end_to_end"]])

    def test_per_layer_names_match(self):
        traced = {"layers": tracing.Tracer().metrics(1.0), "counts": {},
                  "wall_s": 1.0, "host_factor": 1.0, "active_share": 1.0}
        mem = {"layers": tracing.Tracer({}).metrics(1.0)}
        runs = [{"wall_s": 1.0, "host_factor": 1.0}]
        values = run.per_layer(runs, traced, mem, compiler=True)
        metrics = run.emit(values, _spec()["per_layer"])
        self.assertEqual(list(metrics),
                         [m["name"] for m in _spec()["per_layer"]])

    def test_emit_rejects_unknown_and_missing_names(self):
        specs = _spec()["end_to_end"]
        values = {m["name"]: 1.0 for m in specs}
        with self.assertRaises(ValueError):
            run.emit({**values, "bogus": 1.0}, specs)
        values.pop("wall_s")
        with self.assertRaises(ValueError):
            run.emit(values, specs)

    def test_workloads_match(self):
        self.assertEqual([w["name"] for w in _spec()["workloads"]],
                         list(workloads.WORKLOADS))


class Judge(unittest.TestCase):
    def test_wrong_stored_digest_is_a_failure(self):
        verdicts = run.judge([_record("aa"), _record("aa")], stored="bb")
        self.assertTrue(all(v != "ok" for v in verdicts))

    def test_matching_stored_digest_passes(self):
        self.assertEqual(run.judge([_record("aa")], stored="aa"), ["ok"])

    def test_without_stored_digest_the_odd_run_fails(self):
        verdicts = run.judge([_record("aa"), _record("bb"), _record("aa")],
                             stored=None)
        self.assertEqual([v == "ok" for v in verdicts], [True, False, True])

    def test_crash_and_sanity_problem_fail(self):
        verdicts = run.judge([None, _record("aa", ["bad"])], stored="aa")
        self.assertEqual(verdicts[0], "raised or killed")
        self.assertEqual(verdicts[1], "bad")

    def test_stored_digests_cover_default_and_held_out_seed(self):
        with open(run.DIGESTS, encoding="utf-8") as fh:
            store = json.load(fh)
        for name in workloads.WORKLOADS:
            seeds = store["digests"][name]
            self.assertIn(str(store["default_seed"]), seeds)
            self.assertIn(str(store["held_out_seed"]), seeds)


class Wrappers(unittest.TestCase):
    def setUp(self):
        import repro.experiments.churn_sweep  # noqa: F401  binds link_loads

        for target in tracing.TARGETS:
            importlib.import_module(target[1])

    def test_wrappers_installed_then_removed(self):
        from repro.flit import engine

        before = _bindings()
        original = engine.compile_routes
        with tracing.Tracer() as tracer:
            self.assertIsNot(engine.compile_routes, original)
            self.assertTrue(tracer.leftovers())
        self.assertIs(engine.compile_routes, original)
        self.assertEqual(tracer.leftovers(), [])
        self.assertEqual(_bindings(), before)

    def test_wrappers_removed_when_the_run_raises(self):
        from repro.flit.engine import FlitSimulator

        before = _bindings()
        with self.assertRaises(TypeError):
            with tracing.Tracer({"flit.build": 1}):
                FlitSimulator()  # missing arguments
        self.assertEqual(_bindings(), before)
        self.assertFalse(tracemalloc.is_tracing())


    def test_removed_callable_is_skipped_and_listed(self):
        before = _bindings()
        gone = ("flit.gone", "repro.flit.engine", "FlitSimulator",
                "no_such_method", None)
        saved = tracing.TARGETS
        tracing.TARGETS = saved + (gone,)
        try:
            with tracing.Tracer() as tracer:
                pass
        finally:
            tracing.TARGETS = saved
        self.assertEqual(tracer.missing,
                         ["repro.flit.engine.FlitSimulator.no_such_method"])
        self.assertEqual(_bindings(), before)


class Counts(unittest.TestCase):
    def test_tracer_counts_match_the_program(self):
        from repro.flit import FlitConfig, UniformRandom
        from repro.flit.batched import make_flit_simulator
        from repro.routing import make_scheme
        from repro.topology import m_port_n_tree

        xgft = m_port_n_tree(4, 2)
        cfg = FlitConfig(warmup_cycles=100, measure_cycles=300)
        with tracing.Tracer() as tracer:
            sim = make_flit_simulator("batched", xgft,
                                      make_scheme(xgft, "d-mod-k"), cfg)
            results = [sim.run(UniformRandom(load)) for load in (0.2, 0.4)]
        metrics = tracer.metrics(1.0)
        self.assertEqual(metrics["flit.events"],
                         sum(r.events for r in results))
        self.assertEqual(metrics["routing.compile_routes_calls"], 1)
        self.assertEqual(tracer.calls["flit.run"], 2)
        self.assertIn(metrics["flit.native_share"], (0.0, 1.0))
        self.assertLessEqual(metrics["flit.kernel_s"], metrics["flit.run_s"])

    def test_memory_pass_measures_sampled_calls(self):
        from repro.routing import make_scheme, vectorized
        from repro.topology import m_port_n_tree

        xgft = m_port_n_tree(4, 2)
        scheme = make_scheme(xgft, "d-mod-k")
        with tracing.Tracer({"routing.compile_routes": 1}) as tracer:
            vectorized.compile_routes(xgft, scheme)
        self.assertGreater(tracer.peak_mb["routing.compile_routes"], 0.0)
        self.assertFalse(tracemalloc.is_tracing())

    def test_sample_indices(self):
        self.assertEqual(tracing.sample_indices(3, 5), {0, 1, 2})
        picked = tracing.sample_indices(72, 5)
        self.assertEqual(len(picked), 5)
        self.assertTrue({0, 71} <= picked)


class Knobs(unittest.TestCase):
    def test_engine_passed_only_when_accepted(self):
        class Bare:  # an Experiment whose flags were removed
            pass

        w = workloads.WORKLOADS["flit-table1"]
        kwargs, engine = workloads.experiment_kwargs(w, Bare(), 3, None)
        self.assertEqual(kwargs, {"fidelity_name": "fast", "seed": 3})
        self.assertIsNone(engine)

    def test_registry_flags_today(self):
        from repro.experiments.registry import get_experiment

        w = workloads.WORKLOADS["faults-churn"]
        kwargs, engine = workloads.experiment_kwargs(
            w, get_experiment(w.experiment), 5, None)
        self.assertEqual(kwargs["churn_seed"], 5)
        self.assertEqual(kwargs["n_events"], workloads.CHURN_EVENTS)
        self.assertIsNone(engine)


class Probe(unittest.TestCase):
    def test_child_is_stopped_only_while_sampled_and_finishes(self):
        speedo = run.Speedometer()
        proc = subprocess.Popen([sys.executable, "-c",
                                 "import time; time.sleep(0.35)"])
        start = time.monotonic()
        self.assertTrue(speedo.watch(proc, start + 30.0))
        end = time.monotonic()
        self.assertEqual(proc.returncode, 0)
        self.assertGreaterEqual(len(speedo.samples), 2)
        factor, stopped = speedo.window(start, end)
        self.assertGreater(factor, 0.0)
        self.assertAlmostEqual(
            stopped, sum(b - a for a, b, _ in speedo.samples), places=9)
        self.assertLess(stopped, (end - start) / 2)

    def test_window_counts_only_the_stopped_time_inside_it(self):
        speedo = run.Speedometer()
        speedo.samples = [(0.0, 0.5, 2 * speedo.REF_UNIT_S),
                          (1.0, 1.5, 4 * speedo.REF_UNIT_S)]
        factor, stopped = speedo.window(0.25, 1.25)
        self.assertEqual(factor, 4.0)  # only the sample taken inside
        self.assertEqual(stopped, 0.5)


if __name__ == "__main__":
    unittest.main()
