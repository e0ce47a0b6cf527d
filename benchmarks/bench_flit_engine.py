"""Microbenchmark of the flit simulator and its reference event loop.

Times a fixed-window run on the paper's 8-port 3-tree at moderate load
and reports the event-processing rate — the figure that bounds how long
Table 1 / Figure 5 regeneration takes — for both the reference event
loop (:class:`ReferenceFlitSimulator`) and the native kernel behind
:class:`FlitSimulator` (which must produce bit-identical results while
clearing the >= 5x speedup gate).
"""

from repro.flit.config import FlitConfig
from repro.flit.engine import FlitSimulator, ReferenceFlitSimulator
from repro.flit.workload import UniformRandom
from repro.routing.factory import make_scheme
from repro.topology.variants import m_port_n_tree


def _setup():
    xgft = m_port_n_tree(8, 3)
    cfg = FlitConfig(warmup_cycles=200, measure_cycles=1500, drain_cycles=500)
    return xgft, make_scheme(xgft, "disjoint:4"), cfg


def test_engine_event_rate(benchmark):
    xgft, scheme, cfg = _setup()
    sim = ReferenceFlitSimulator(xgft, scheme, cfg)

    result = benchmark(sim.run, UniformRandom(0.6), seed=1)
    assert result.events > 10_000
    benchmark.extra_info["events"] = result.events
    benchmark.extra_info["events_per_sec"] = (
        result.events / benchmark.stats.stats.mean
    )


def test_batched_engine_event_rate(benchmark):
    xgft, scheme, cfg = _setup()
    reference = ReferenceFlitSimulator(xgft, scheme, cfg)
    sim = FlitSimulator(xgft, scheme, cfg)
    workload = UniformRandom(0.6)
    # Parity first (also absorbs the one-time native-kernel compile).
    assert sim.run(workload, seed=1) == reference.run(workload, seed=1)

    result = benchmark(sim.run, workload, seed=1)
    assert result.events > 10_000
    benchmark.extra_info["events"] = result.events
    benchmark.extra_info["events_per_sec"] = (
        result.events / benchmark.stats.stats.mean
    )
