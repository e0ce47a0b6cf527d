"""Simulator selector for differential tests and benchmarks.

Flit results come from one simulator,
:class:`repro.flit.engine.FlitSimulator` (the native kernel, with the
reference event loop as its counted fallback).  Tests and benchmarks
that compare or time it against its oracle name the two sides by
string: ``"reference"`` is :class:`~repro.flit.engine.
ReferenceFlitSimulator` (always the event loop) and ``"batched"`` is
:class:`~repro.flit.engine.FlitSimulator`.
"""

from __future__ import annotations

from repro.errors import SimulationError
from repro.flit.config import FlitConfig
from repro.flit.engine import FlitSimulator, ReferenceFlitSimulator

_SIMULATORS = {"reference": ReferenceFlitSimulator, "batched": FlitSimulator}


def make_flit_simulator(engine: str, xgft, scheme,
                        config: FlitConfig) -> FlitSimulator:
    """The oracle (``"reference"``) or the product simulator
    (``"batched"``) for ``scheme`` on ``xgft``."""
    try:
        cls = _SIMULATORS[engine]
    except KeyError:
        raise SimulationError(
            f"unknown flit engine {engine!r}; choose from "
            f"{tuple(_SIMULATORS)}") from None
    return cls(xgft, scheme, config)
