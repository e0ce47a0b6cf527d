"""Flit-level simulation: virtual cut-through with credit flow control.

Event-driven, packet-granular with flit-time arithmetic (see
:mod:`repro.flit.engine`).  Workloads inject Poisson message streams;
sweeps reproduce the paper's delay-vs-load curves and maximum-throughput
tables.
"""

from repro.flit.config import FlitConfig, PATH_SELECTION_MODES
from repro.flit.engine import FlitSimulator, ReferenceFlitSimulator
from repro.flit.message import Message, Packet
from repro.flit.stats import FlitRunResult, delay_stats
from repro.flit.sweep import SweepResult, default_loads, load_sweep
from repro.flit.traces import (
    TraceEntry,
    TraceWorkload,
    phased_trace,
    synthesize_trace,
)
from repro.flit.workload import (
    FixedPermutation,
    HotspotWorkload,
    UniformRandom,
    Workload,
)

__all__ = [
    "FlitConfig",
    "PATH_SELECTION_MODES",
    "FlitSimulator",
    "ReferenceFlitSimulator",
    "Message",
    "Packet",
    "FlitRunResult",
    "delay_stats",
    "SweepResult",
    "default_loads",
    "load_sweep",
    "Workload",
    "UniformRandom",
    "FixedPermutation",
    "HotspotWorkload",
    "TraceEntry",
    "TraceWorkload",
    "synthesize_trace",
    "phased_trace",
]
