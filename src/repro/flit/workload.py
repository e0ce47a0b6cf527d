"""Workload models for the flit-level simulator.

Message arrivals are Poisson (exponential inter-arrival times) with a
mean set by the *offered load*, expressed as flits per cycle per node
normalized to link capacity — offered load 1.0 means every host tries to
inject one flit every cycle.
"""

from __future__ import annotations

import random
from abc import ABC, abstractmethod

import numpy as np

from repro.errors import SimulationError


class Workload(ABC):
    """Destination model + offered load for one run."""

    def __init__(self, load: float):
        if not 0.0 < load <= 1.0:
            raise SimulationError(f"offered load must be in (0, 1], got {load}")
        self.load = load

    def mean_interarrival(self, message_flits: int) -> float:
        """Mean cycles between message creations at one host."""
        return message_flits / self.load

    @abstractmethod
    def pick_destination(self, src: int, n_procs: int, rng: random.Random) -> int:
        """Destination of the next message from ``src`` (never ``src``)."""

    def _native_rule(self, n_procs: int):
        """Internal: :meth:`pick_destination` as data for the native flit
        kernel — ``(rule, int data, hot fraction)`` — or ``None`` when
        only Python can draw it (the simulator then runs the reference
        event loop)."""
        return None


class UniformRandom(Workload):
    """Uniform random traffic (the paper's flit-level workload): every
    other node is an equally likely destination."""

    name = "uniform"

    def pick_destination(self, src: int, n_procs: int, rng: random.Random) -> int:
        d = rng.randrange(n_procs - 1)
        return d + 1 if d >= src else d

    def _native_rule(self, n_procs: int):
        return ("uniform", (), 0.0) if n_procs > 1 else None


class FixedPermutation(Workload):
    """Permutation traffic at the flit level: host ``i`` always sends to
    ``perm[i]`` (fixed points inject no traffic)."""

    name = "permutation"

    def __init__(self, load: float, perm):
        super().__init__(load)
        self.perm = np.asarray(perm, dtype=np.int64)
        if sorted(self.perm.tolist()) != list(range(len(self.perm))):
            raise SimulationError("perm is not a permutation")

    def pick_destination(self, src: int, n_procs: int, rng: random.Random) -> int:
        if len(self.perm) != n_procs:
            raise SimulationError(
                f"permutation is over {len(self.perm)} nodes, network has {n_procs}"
            )
        dst = int(self.perm[src])
        return -1 if dst == src else dst  # -1: host stays silent

    def _native_rule(self, n_procs: int):
        if len(self.perm) != n_procs:
            return None  # pick_destination raises the size mismatch
        return ("table", np.where(self.perm == np.arange(n_procs), -1,
                                  self.perm), 0.0)


class HotspotWorkload(Workload):
    """Uniform traffic with a fraction of messages redirected to a small
    hot set — used by ablation benches to stress ejection links."""

    name = "hotspot"

    def __init__(self, load: float, hot_nodes, hot_fraction: float = 0.2):
        super().__init__(load)
        self.hot_nodes = sorted(set(int(x) for x in hot_nodes))
        if not self.hot_nodes:
            raise SimulationError("need at least one hot node")
        if not 0.0 <= hot_fraction <= 1.0:
            raise SimulationError("hot_fraction must be in [0, 1]")
        self.hot_fraction = hot_fraction

    def pick_destination(self, src: int, n_procs: int, rng: random.Random) -> int:
        if rng.random() < self.hot_fraction:
            choices = [h for h in self.hot_nodes if h != src]
            if choices:
                return rng.choice(choices)
        d = rng.randrange(n_procs - 1)
        return d + 1 if d >= src else d

    def _native_rule(self, n_procs: int):
        if n_procs < 2 or not (0 <= self.hot_nodes[0]
                               and self.hot_nodes[-1] < n_procs):
            return None
        return ("hotspot", self.hot_nodes, self.hot_fraction)
