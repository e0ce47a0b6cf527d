"""Batched flit engine: the whole run in one native kernel call.

``BatchedFlitSimulator`` produces exactly the event sequence of
:class:`repro.flit.engine.FlitSimulator` — same results, same telemetry,
bit for bit — in two phases, both in ``kernel.c`` (compiled on demand
by :mod:`repro.flit.native`) and both run by one
:func:`repro.flit.native.run_oq` call:

* **Injection plan (phase A, C).**  Every RNG draw in the reference
  happens while processing an ``_INJECT`` event, and the relative order
  of inject events is independent of the network simulation (each
  host's next arrival depends only on its own Poisson clock).  The plan
  therefore pre-walks the injection process alone — per-host clocks
  and a ``(cycle, event id)`` heap, replicating the reference's draw
  order exactly (destination, path choices, arrival clock, per pop) —
  with a C copy of CPython's MT19937 seeded from
  ``random.Random(seed).getstate()``.  Each built-in workload hands the
  kernel its destination rule as data (``Workload._native_rule``:
  uniform, a destination table, or a hotspot set); a trace hands over
  its entries and their stable cycle order.

* **Event processing (phase B, C).**  Phase B is RNG-free integer
  work: a calendar queue with one bucket per cycle that reproduces the
  reference heap's ``(time, seq)`` order, intrusive request queues and
  input buffers, both switch models, any VC count, and the
  per-interval telemetry rows, which :meth:`run` re-emits as
  ``flit_interval`` events.  Packets read their channels straight from
  the :class:`~repro.routing.table.RouteTable`.  Whether a recorder is
  enabled therefore never changes which code runs.

The kernel has exactly one alternative, the reference engine itself:
:meth:`run` hands a run to the reference event loop when the kernel is
unavailable (no C compiler, or its generator does not match this
interpreter's :mod:`random`; :func:`repro.flit.native.
unavailable_reason` says why), when the horizon is too long for a
per-cycle calendar (:data:`_DENSE_HORIZON_LIMIT`), or when a custom
:class:`~repro.flit.workload.Workload` subclass has no native form.
The last two are logged once per process, and every run's path is
counted by label (:func:`repro.flit.engine.kernel_runs`), which flit
experiments record in their run manifest as ``flit_kernel``.

Parity contract: every :class:`~repro.flit.stats.FlitRunResult` field,
the ``flit.*`` recorder counters, the message-delay histogram, and the
per-interval ``flit_interval`` telemetry are bit-identical to the
reference for any seed, config, scheme, workload, or trace;
``tests/flit/test_batched_parity.py`` enforces this differentially.
"""

from __future__ import annotations

import logging
import random

import numpy as np

from repro.errors import SimulationError
from repro.flit import native
from repro.flit.config import FlitConfig
from repro.flit.engine import FlitSimulator, _kernel_runs
from repro.flit.stats import FlitRunResult, delay_stats
from repro.flit.workload import Workload
from repro.obs.recorder import get_recorder

#: Densest calendar the engine will allocate (one bucket per cycle up
#: front); configs past this fall back to the reference's sparse heap,
#: where a per-cycle structure would dwarf the event set.
_DENSE_HORIZON_LIMIT = 262_144

#: Hand-off reasons already logged by this process.
_logged: set[str] = set()

#: Registered flit engines, mirroring the flow layer's selector.
ENGINES = ("reference", "batched")


def flit_engine_class(engine: str) -> type[FlitSimulator]:
    """The simulator class for ``engine`` (see :data:`ENGINES`)."""
    if engine == "reference":
        return FlitSimulator
    if engine == "batched":
        return BatchedFlitSimulator
    raise SimulationError(
        f"unknown flit engine {engine!r}; choose from {ENGINES}")


def make_flit_simulator(engine: str, xgft, scheme, config: FlitConfig, *,
                        compiled=None, degraded=None) -> FlitSimulator:
    """Build the selected engine's simulator (shared ``--engine`` path)."""
    return flit_engine_class(engine)(
        xgft, scheme, config, compiled=compiled, degraded=degraded)


class BatchedFlitSimulator(FlitSimulator):
    """Drop-in, bit-identical, faster :class:`FlitSimulator`.

    Construction (route compilation, degraded-fabric validation,
    :meth:`from_tables`) is inherited unchanged; only :meth:`run` is
    replaced by the plan/kernel split described in the module docstring.

    >>> from repro.topology import m_port_n_tree
    >>> from repro.routing import make_scheme
    >>> from repro.flit import FlitConfig, FlitSimulator, UniformRandom
    >>> xgft = m_port_n_tree(4, 2)
    >>> cfg = FlitConfig(warmup_cycles=200, measure_cycles=500)
    >>> ref = FlitSimulator(xgft, make_scheme(xgft, "d-mod-k"), cfg)
    >>> fast = BatchedFlitSimulator(xgft, make_scheme(xgft, "d-mod-k"), cfg)
    >>> fast.run(UniformRandom(0.2)) == ref.run(UniformRandom(0.2))
    True
    """

    def _initial_credits(self) -> list[int]:
        n_vcs = self.config.virtual_channels
        credits = [self.config.buffer_packets] * (self._n_channels * n_vcs)
        if self.degraded is not None and not self.degraded.is_pristine:
            for c, ok in enumerate(self.degraded.link_ok):
                if not ok:
                    base = c * n_vcs
                    for v in range(n_vcs):
                        credits[base + v] = 0
        return credits

    # ------------------------------------------------------------------
    def run(self, workload: Workload | None, *, seed: int | None = None,
            recorder=None, _trace=None) -> FlitRunResult:
        """Simulate ``workload``; see :meth:`FlitSimulator.run`.

        Same contract, same bits; only the clock time differs.
        """
        if workload is None and _trace is None:
            raise SimulationError("need a workload or a trace")
        cfg = self.config
        rule = None
        if not native.available():
            reason = "native kernel unavailable"  # logged by native
        elif cfg.horizon > _DENSE_HORIZON_LIMIT:
            # Past the limit a per-cycle calendar would be bigger than
            # the event set, and the sparse reference heap is the right
            # structure.
            reason = (f"horizon of {cfg.horizon} cycles is past the "
                      f"{_DENSE_HORIZON_LIMIT}-cycle calendar limit")
        else:
            rule = (_trace_rule(_trace) if _trace is not None
                    else _workload_rule(workload, self._n_procs,
                                        cfg.message_flits))
            reason = (f"workload {type(workload).__name__} has no native "
                      f"form")
        if rule is None:
            _hand_off(reason)
            return self._simulate(workload, seed, recorder, _trace)
        _kernel_runs["native"] += 1
        rec = recorder if recorder is not None else get_recorder()
        state = random.Random(cfg.seed if seed is None else seed).getstate()
        stats, intervals = native.run_oq(
            rule, state[1], self.routes, cfg, self._n_procs,
            self._n_channels, self._initial_credits(), rec.enabled)
        for t, injected, delivered, stalls, occupancy in intervals:
            rec.event("flit_interval", t=t, injected=injected,
                      delivered=delivered, credit_stalls=stalls,
                      occupancy=occupancy)
        return self._finish(rec, workload, *stats)

    # ------------------------------------------------------------------
    def _finish(self, rec, workload, delays, messages_measured,
                messages_completed, flits_created, flits_delivered,
                credit_stalls, events, sim_cycles) -> FlitRunResult:
        cfg = self.config
        if rec.enabled:
            rec.count("flit.runs", 1)
            rec.count("flit.events", events)
            rec.count("flit.flits_injected", flits_created)
            rec.count("flit.flits_delivered", flits_delivered)
            rec.count("flit.credit_stalls", credit_stalls)
            rec.count("flit.messages_measured", messages_measured)
            rec.count("flit.messages_completed", messages_completed)
            for d in delays:
                rec.observe("flit.message_delay", d)
        mean_delay, p95_delay, max_delay = delay_stats(delays)
        denom = cfg.measure_cycles * self._n_procs
        injected = flits_created / denom if denom else 0.0
        return FlitRunResult(
            offered_load=workload.load if workload is not None else injected,
            injected_load=injected,
            throughput=flits_delivered / denom if denom else 0.0,
            mean_delay=mean_delay,
            p95_delay=p95_delay,
            max_delay=max_delay,
            messages_measured=messages_measured,
            messages_completed=messages_completed,
            sim_cycles=min(sim_cycles, cfg.horizon),
            events=events,
        )


def _hand_off(reason: str) -> None:
    """Count a run handed to the reference engine; log each new reason
    once per process (an unavailable kernel is logged by
    :func:`repro.flit.native.available`)."""
    _kernel_runs[f"reference: {reason}"] += 1
    if reason not in _logged and native.available():
        _logged.add(reason)
        logging.getLogger(__name__).warning(
            "batched flit engine runs the reference engine: %s", reason)


def _workload_rule(workload: Workload, n_procs: int, message_flits: int):
    """The kernel's plan input for a stochastic workload, or ``None``
    when it has no native form.  A subclass that overrides
    ``pick_destination`` below the class describing the rule draws
    differently, so it has none either."""
    cls = type(workload)
    owner = next(c for c in cls.__mro__ if "_native_rule" in vars(c))
    if cls.pick_destination is not owner.pick_destination:
        return None
    form = workload._native_rule(n_procs)
    if form is None:
        return None
    name, data, hot_fraction = form
    rate = 1.0 / workload.mean_interarrival(message_flits)
    return name, data, rate, float(hot_fraction)


def _trace_rule(trace):
    """The kernel's plan input for a trace: cycle, src and dst rows, plus
    the stable cycle order (the reference heap's ``(cycle, push seq)``
    tie-break)."""
    n = len(trace)
    data = np.empty((4, n), dtype=np.int64)
    data[0] = np.fromiter((e.cycle for e in trace), dtype=np.int64, count=n)
    data[1] = np.fromiter((e.src for e in trace), dtype=np.int64, count=n)
    data[2] = np.fromiter((e.dst for e in trace), dtype=np.int64, count=n)
    if n and data[0].min() < 0:
        raise SimulationError("trace entries need cycles >= 0")
    data[3] = np.argsort(data[0], kind="stable")
    return "trace", data, 0.0, 0.0
