"""Differential suite: the flit simulator vs the reference oracle.

:class:`FlitSimulator`'s contract is *bit-identical* results to
:class:`ReferenceFlitSimulator` (the event loop) — every
``FlitRunResult`` field equal (NaN-tolerant for the no-traffic
statistics) across scheme families, tree shapes, switch models, VC
counts, path-selection modes, traces, degraded fabrics and telemetry.
Each case runs twice via the ``kernel`` fixture: once on the compiled
C kernel (skipped when no compiler is present) and once with the
kernel reported unavailable, where the simulator must hand the run to
the reference event loop.  ``test_fallback_without_kernel`` covers the
real failure modes (no compiler, a failing build).
"""

from __future__ import annotations

import logging
import math

import pytest

from repro.errors import SimulationError
from repro.faults import DegradedScheme, FaultSpec
from repro.flit import (
    FixedPermutation,
    FlitConfig,
    FlitSimulator,
    HotspotWorkload,
    ReferenceFlitSimulator,
    UniformRandom,
)
from repro.flit import engine, native
from repro.flit.batched import make_flit_simulator
from repro.flit.engine import kernel_runs
from repro.flit.traces import TraceEntry, synthesize_trace
from repro.obs.recorder import Recorder
from repro.routing import make_scheme
from repro.topology import XGFT, m_port_n_tree
from tests.flit.helpers import FixedMapping


@pytest.fixture(params=["native", "python"])
def kernel(request, monkeypatch):
    """Run the test body once per execution path of FlitSimulator."""
    if request.param == "python":
        # No kernel: the simulator runs the reference event loop.
        monkeypatch.setattr(native, "available", lambda: False)
    elif not native.available():
        pytest.skip("no C compiler available for the native kernel")
    return request.param


def assert_bit_identical(a, b):
    """Field-by-field equality, treating NaN == NaN as equal."""
    for f in a.__dataclass_fields__:
        va, vb = getattr(a, f), getattr(b, f)
        if isinstance(va, float) and math.isnan(va):
            assert isinstance(vb, float) and math.isnan(vb), (f, va, vb)
        else:
            assert va == vb, (f, va, vb)


def both(xgft, spec, config, **kwargs):
    scheme = make_scheme(xgft, spec)
    return (ReferenceFlitSimulator(xgft, scheme, config, **kwargs),
            FlitSimulator(xgft, scheme, config, **kwargs))


TREES = {
    "4x2": lambda: m_port_n_tree(4, 2),
    "xgft-3;2,2,2": lambda: XGFT(3, (2, 2, 2), (1, 2, 2)),
}


@pytest.mark.parametrize("tree", sorted(TREES))
@pytest.mark.parametrize("spec", ["d-mod-k", "disjoint:2", "random:2",
                                  "shift-1:2"])
@pytest.mark.parametrize("model", ["output-queued", "input-fifo"])
@pytest.mark.parametrize("vcs", [1, 2])
def test_grid_parity(kernel, tree, spec, model, vcs):
    xgft = TREES[tree]()
    cfg = FlitConfig(warmup_cycles=150, measure_cycles=500,
                     drain_cycles=700, switch_model=model,
                     virtual_channels=vcs, seed=77)
    ref, bat = both(xgft, spec, cfg)
    workload = UniformRandom(0.7)
    assert_bit_identical(ref.run(workload), bat.run(workload))


@pytest.mark.parametrize("selection", ["per-packet", "per-message",
                                       "round-robin"])
def test_path_selection_parity(kernel, selection):
    xgft = m_port_n_tree(4, 2)
    cfg = FlitConfig(warmup_cycles=150, measure_cycles=500,
                     drain_cycles=700, path_selection=selection, seed=77)
    ref, bat = both(xgft, "disjoint:2", cfg)
    workload = UniformRandom(0.6)
    assert_bit_identical(ref.run(workload), bat.run(workload))


@pytest.mark.parametrize("model", ["output-queued", "input-fifo"])
def test_trace_parity(kernel, model):
    xgft = m_port_n_tree(4, 2)
    cfg = FlitConfig(warmup_cycles=100, measure_cycles=400,
                     drain_cycles=600, switch_model=model, seed=5)
    trace = synthesize_trace(UniformRandom(0.5), xgft.n_procs,
                             cfg.message_flits, cfg.end_of_window, seed=9)
    ref, bat = both(xgft, "d-mod-k", cfg)
    assert_bit_identical(ref.run_trace(trace), bat.run_trace(trace))


def test_zero_delay_parity(kernel):
    xgft = m_port_n_tree(4, 2)
    cfg = FlitConfig(warmup_cycles=100, measure_cycles=300,
                     drain_cycles=500, wire_delay=0, routing_delay=0, seed=3)
    ref, bat = both(xgft, "disjoint:2", cfg)
    workload = UniformRandom(0.6)
    assert_bit_identical(ref.run(workload), bat.run(workload))


def test_degraded_parity(kernel):
    xgft = m_port_n_tree(8, 2)
    fabric = None
    for attempt in range(50):
        candidate = FaultSpec(link_rate=0.15, seed=attempt).sample(xgft)
        if candidate.is_connected and not candidate.is_pristine:
            fabric = candidate
            break
    assert fabric is not None
    cfg = FlitConfig(warmup_cycles=150, measure_cycles=400,
                     drain_cycles=600, seed=11)
    scheme = DegradedScheme(make_scheme(xgft, "umulti"), fabric)
    ref = ReferenceFlitSimulator(xgft, scheme, cfg, degraded=fabric)
    bat = FlitSimulator(xgft, scheme, cfg, degraded=fabric)
    workload = UniformRandom(0.4)
    assert_bit_identical(ref.run(workload), bat.run(workload))


@pytest.mark.parametrize("model", ["output-queued", "input-fifo"])
@pytest.mark.parametrize("vcs", [1, 2])
def test_recorder_parity(kernel, model, vcs):
    """With telemetry on, counters, events and histograms must match
    too (the kernel flushes intervals per bucket, the reference per
    event — same cycles, same values, input-FIFO occupancy included)."""
    xgft = m_port_n_tree(4, 2)
    cfg = FlitConfig(warmup_cycles=100, measure_cycles=400,
                     drain_cycles=600, switch_model=model,
                     virtual_channels=vcs, obs_interval=50, seed=21)
    ref, bat = both(xgft, "random:2", cfg)
    r_ref, r_bat = Recorder(), Recorder()
    a = ref.run(UniformRandom(0.7), recorder=r_ref)
    b = bat.run(UniformRandom(0.7), recorder=r_bat)
    assert_bit_identical(a, b)
    assert r_ref.counters == r_bat.counters
    assert r_ref.events == r_bat.events
    intervals = r_bat.events_of("flit_interval")
    assert len(intervals) >= cfg.end_of_window // cfg.obs_interval
    if model == "input-fifo":
        assert any(e["occupancy"] for e in intervals)
    assert ({k: h.to_dict() for k, h in r_ref.hists.items()}
            == {k: h.to_dict() for k, h in r_bat.hists.items()})


def test_workload_family_parity(kernel):
    xgft = m_port_n_tree(4, 2)
    cfg = FlitConfig(warmup_cycles=100, measure_cycles=400,
                     drain_cycles=600, seed=31)
    for workload in (HotspotWorkload(0.5, (0, 1), hot_fraction=0.2),
                     FixedPermutation(0.5, [(i + 5) % 8 for i in range(8)])):
        ref, bat = both(xgft, "d-mod-k", cfg)
        assert_bit_identical(ref.run(workload), bat.run(workload))


def test_empty_trace_and_tiny_load(kernel):
    xgft = m_port_n_tree(4, 2)
    cfg = FlitConfig(warmup_cycles=50, measure_cycles=100,
                     drain_cycles=150, seed=1)
    ref, bat = both(xgft, "d-mod-k", cfg)
    assert_bit_identical(ref.run_trace([]), bat.run_trace([]))
    assert_bit_identical(ref.run(UniformRandom(0.0005)),
                         bat.run(UniformRandom(0.0005)))


def test_sixteen_port_smoke(kernel):
    """CI smoke point: a 16-port tree (128 hosts) end to end."""
    xgft = m_port_n_tree(16, 2)
    cfg = FlitConfig(warmup_cycles=100, measure_cycles=400,
                     drain_cycles=500, seed=7)
    ref, bat = both(xgft, "disjoint:4", cfg)
    workload = UniformRandom(0.4)
    a, b = ref.run(workload), bat.run(workload)
    assert_bit_identical(a, b)
    assert a.messages_completed > 0
    assert a.throughput > 0


@pytest.mark.parametrize("load", [0.3, 0.5])
def test_injection_rate_unbiased(kernel, load):
    """Regression for the per-draw truncation bias: with 2-flit
    messages the old ``int(gap) + 1`` per draw injected ~11 % below the
    offered load; the float-accumulated clock stays within ~2 %."""
    xgft = m_port_n_tree(4, 2)
    cfg = FlitConfig(warmup_cycles=500, measure_cycles=6000,
                     drain_cycles=1000, packet_flits=2,
                     packets_per_message=1, seed=13)
    ref, bat = both(xgft, "d-mod-k", cfg)
    workload = UniformRandom(load)
    a, b = ref.run(workload), bat.run(workload)
    assert_bit_identical(a, b)
    assert abs(a.injected_load - load) / load < 0.05


def test_engine_selector():
    xgft = m_port_n_tree(4, 2)
    cfg = FlitConfig(warmup_cycles=50, measure_cycles=100, drain_cycles=150)
    scheme = make_scheme(xgft, "d-mod-k")
    sim = make_flit_simulator("batched", xgft, scheme, cfg)
    assert type(sim) is FlitSimulator
    sim = make_flit_simulator("reference", xgft, scheme, cfg)
    assert type(sim) is ReferenceFlitSimulator
    with pytest.raises(SimulationError, match="unknown flit engine 'turbo'"):
        make_flit_simulator("turbo", xgft, scheme, cfg)


def assert_handed_off(bat, ref, workload, reason, caplog):
    """Two runs of ``bat`` go to the reference event loop: same bits,
    both counted under ``reason``, and the reason logged once."""
    before = kernel_runs()
    with caplog.at_level(logging.WARNING, logger=engine.__name__):
        for _ in range(2):
            assert_bit_identical(ref.run(workload), bat.run(workload))
    ran = kernel_runs() - before
    assert ran[f"reference: {reason}"] == 2 and "native" not in ran
    logged = [r.getMessage() for r in caplog.records
              if r.name == engine.__name__]
    assert len(logged) == 1 and reason in logged[0]


def test_dense_horizon_fallback(monkeypatch, caplog):
    """Past the calendar-size limit the simulator must fall back to the
    reference event loop (still exact), and say so once."""
    monkeypatch.setattr(engine, "_DENSE_HORIZON_LIMIT", 100)
    monkeypatch.setattr(engine, "_logged", set())
    if not native.available():
        pytest.skip("no C compiler available for the native kernel")
    xgft = m_port_n_tree(4, 2)
    cfg = FlitConfig(warmup_cycles=100, measure_cycles=300,
                     drain_cycles=400, seed=19)
    ref, bat = both(xgft, "disjoint:2", cfg)
    assert_handed_off(
        bat, ref, UniformRandom(0.5),
        "horizon of 800 cycles is past the 100-cycle calendar limit", caplog)


class PickyUniform(UniformRandom):
    """Overrides the draw a built-in rule describes: no native form."""

    def pick_destination(self, src, n_procs, rng):
        return (super().pick_destination(src, n_procs, rng)
                if rng.random() < 0.5 else -1)


@pytest.mark.parametrize("workload", [
    FixedMapping(0.6, {0: 5, 3: 5, 6: 1}),
    PickyUniform(0.6),
], ids=["custom-subclass", "overridden-built-in"])
def test_workload_without_native_form_fallback(workload, monkeypatch,
                                               caplog):
    """A custom ``Workload`` draws in Python only: the simulator hands
    the run to the reference event loop (same bits) and logs why."""
    monkeypatch.setattr(engine, "_logged", set())
    if not native.available():
        pytest.skip("no C compiler available for the native kernel")
    xgft = m_port_n_tree(4, 2)
    cfg = FlitConfig(warmup_cycles=100, measure_cycles=300,
                     drain_cycles=400, seed=23)
    ref, bat = both(xgft, "disjoint:2", cfg)
    assert_handed_off(
        bat, ref, workload,
        f"workload {type(workload).__name__} has no native form", caplog)


def test_native_runs_are_counted(kernel):
    xgft = m_port_n_tree(4, 2)
    cfg = FlitConfig(warmup_cycles=50, measure_cycles=100,
                     drain_cycles=150, seed=2)
    ref, bat = both(xgft, "d-mod-k", cfg)
    before = kernel_runs()
    bat.run(UniformRandom(0.3))
    bat.run_trace([])
    ref.run(UniformRandom(0.3))
    label = ("native" if kernel == "native"
             else "reference: native kernel unavailable")
    assert kernel_runs() - before == {
        label: 2, "reference: ReferenceFlitSimulator": 1}


def test_unrouted_pair_raises_like_the_reference(kernel):
    """A message between hosts without a route is a KeyError naming the
    pair key on both paths."""
    cfg = FlitConfig(warmup_cycles=0, measure_cycles=100, drain_cycles=100)
    routes = {1: [(0,)]}  # 0 -> 1 only; 1 -> 0 (key 2) is unrouted
    trace = [TraceEntry(5, 0, 1), TraceEntry(9, 1, 0)]
    for cls in (ReferenceFlitSimulator, FlitSimulator):
        sim = cls.from_tables(2, 2, routes, cfg)
        with pytest.raises(KeyError, match="2"):
            sim.run_trace(trace)


@pytest.mark.parametrize("failure", ["missing", "failing"])
def test_fallback_without_kernel(failure, monkeypatch, tmp_path, caplog):
    """No compiler, or a compiler that fails: the kernel is unavailable,
    the reason is kept and logged once, and the simulator still returns
    the reference's bits."""
    bindir = tmp_path / "bin"
    bindir.mkdir()
    if failure == "failing":
        cc = bindir / "cc"
        cc.write_text("#!/bin/sh\necho 'kernel.c: error: no luck' >&2\n"
                      "exit 1\n")
        cc.chmod(0o755)
    monkeypatch.setenv("PATH", str(bindir))
    monkeypatch.setenv("REPRO_KERNEL_CACHE", str(tmp_path / "cache"))
    monkeypatch.setattr(native, "_lib", None)
    monkeypatch.setattr(native, "_load_attempted", False)
    monkeypatch.setattr(native, "_reason", None)

    with caplog.at_level(logging.WARNING, logger=native.__name__):
        assert not native.available()
        assert not native.available()
    reason = native.unavailable_reason()
    if failure == "missing":
        assert reason.startswith("no C compiler")
    else:
        assert "failed to build kernel.c" in reason and "no luck" in reason
    logged = [r for r in caplog.records if r.name == native.__name__]
    assert len(logged) == 1 and reason in logged[0].getMessage()

    xgft = m_port_n_tree(4, 2)
    cfg = FlitConfig(warmup_cycles=100, measure_cycles=300,
                     drain_cycles=400, switch_model="input-fifo", seed=4)
    ref, bat = both(xgft, "disjoint:2", cfg)
    r_ref, r_bat = Recorder(), Recorder()
    workload = UniformRandom(0.5)
    assert_bit_identical(ref.run(workload, recorder=r_ref),
                         bat.run(workload, recorder=r_bat))
    assert r_ref.events == r_bat.events
