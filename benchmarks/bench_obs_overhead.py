"""Overhead of the observability layer (:mod:`repro.obs`).

The recorder must be near-free when disabled: the flow hot path
(``FlowSimulator.max_load``, called hundreds of times per Figure 4
study) goes through one ``get_recorder()`` lookup and an ``enabled``
check, and the flit event loop pays a single integer comparison per
event.  This bench measures both against an uninstrumented baseline and
**asserts** the disabled-recorder cost stays under the 5 % budget on
the flow path; the enabled-recorder cost is reported for reference.

The measurement core is shared with ``repro bench`` (:func:`repro.obs.
bench.measure_obs_overhead`), which surfaces the same numbers —
including the measured overhead fraction and the budget verdict — in
the committed ``BENCH_obs.json`` snapshot.
"""

from __future__ import annotations

from time import perf_counter

from repro.flit.config import FlitConfig
from repro.flit.engine import ReferenceFlitSimulator
from repro.flit.workload import UniformRandom
from repro.obs import Recorder
from repro.obs.bench import OBS_OVERHEAD_BUDGET, measure_obs_overhead
from repro.routing.factory import make_scheme
from repro.topology.variants import m_port_n_tree


def _best_of(fn, *, rounds: int = 7, reps: int = 5) -> float:
    """Minimum per-call time over several interleaved rounds — robust to
    scheduler noise, which a 5 % bound cannot absorb."""
    best = float("inf")
    for _ in range(rounds):
        t0 = perf_counter()
        for _ in range(reps):
            fn()
        best = min(best, (perf_counter() - t0) / reps)
    return best


def test_flow_hot_path_disabled_recorder_under_5_percent():
    # quick=False measures on mport:8x3 — the paper's flit topology.
    m = measure_obs_overhead(quick=False)
    print(f"\nflow max_load: raw={m['raw_s'] * 1e3:.3f}ms "
          f"noop={m['disabled_s'] * 1e3:.3f}ms "
          f"({m['disabled_overhead']:+.1%}) "
          f"enabled={m['enabled_s'] * 1e3:.3f}ms "
          f"({m['enabled_overhead']:+.1%})")
    assert m["budget"] == OBS_OVERHEAD_BUDGET
    assert m["within_budget"], (
        f"disabled recorder costs {m['disabled_overhead']:.1%} on the flow "
        f"hot path (budget {OBS_OVERHEAD_BUDGET:.0%})"
    )


def test_flit_short_run_overhead_reported():
    xgft = m_port_n_tree(4, 2)
    scheme = make_scheme(xgft, "d-mod-k")
    cfg = FlitConfig(warmup_cycles=200, measure_cycles=800, drain_cycles=500)
    # The per-event cost of the recorder check lives in the event loop.
    sim = ReferenceFlitSimulator(xgft, scheme, cfg)
    load = UniformRandom(0.5)

    def disabled():
        return sim.run(load, seed=1)

    def enabled():
        rec = Recorder()
        return sim.run(load, seed=1, recorder=rec)

    base = disabled()
    with_rec = enabled()
    # Telemetry must not perturb the simulation itself.
    assert with_rec.throughput == base.throughput
    assert with_rec.events == base.events

    t_off = _best_of(disabled, rounds=5, reps=3)
    t_on = _best_of(enabled, rounds=5, reps=3)
    print(f"\nflit run: disabled={t_off * 1e3:.1f}ms "
          f"enabled={t_on * 1e3:.1f}ms ({t_on / t_off - 1.0:+.1%})")
    # Even fully enabled, per-interval tracing should stay modest.
    assert t_on <= t_off * 2.0
