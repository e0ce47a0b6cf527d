"""Fault injection and degraded-fabric routing (``repro.faults``).

The layer has three pieces, composed left to right::

    FaultSpec --sample--> DegradedFabric --DegradedScheme--> routing stack

* :class:`~repro.faults.spec.FaultSpec` — a seeded, reproducible
  description of what fails (random cables/switches, explicit lists);
* :class:`~repro.faults.degraded.DegradedFabric` — the concrete link
  liveness mask every consumer reads;
* :class:`~repro.faults.scheme.DegradedScheme` — any routing scheme
  filtered through the mask, with per-pair fraction renormalization and
  typed :class:`~repro.errors.DisconnectedPairError` on stranded pairs.

The flow evaluator, the flit simulator and the LFT compiler accept the
wrapped scheme transparently; see ``docs/architecture.md``.

For *streaming* faults — rolling fail/repair event streams applied in
place with per-event incremental re-routing — see
:mod:`repro.faults.churn` (:class:`ChurnSpec` / :func:`generate_trace`
/ :class:`IncrementalDegradedScheme`).
"""

from repro.errors import DisconnectedPairError, FaultError
from repro.faults.churn import (
    ChurnEvent,
    ChurnSpec,
    ChurnTrace,
    IncrementalDegradedScheme,
    RerouteStats,
    generate_trace,
)
from repro.faults.degraded import DegradedFabric, cable_links, switch_links
from repro.faults.scheme import DegradedScheme, select_surviving
from repro.faults.spec import FaultSpec, samplable_cables, samplable_switches

__all__ = [
    "ChurnEvent",
    "ChurnSpec",
    "ChurnTrace",
    "DegradedFabric",
    "DegradedScheme",
    "DisconnectedPairError",
    "FaultError",
    "FaultSpec",
    "IncrementalDegradedScheme",
    "RerouteStats",
    "cable_links",
    "generate_trace",
    "samplable_cables",
    "samplable_switches",
    "select_surviving",
    "switch_links",
]
