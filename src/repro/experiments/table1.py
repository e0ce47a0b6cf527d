"""Table 1: maximum throughput under uniform traffic (flit level).

On the 8-port 3-tree (``XGFT(3; 4,4,8; 1,4,4)``), sweep the offered load
per scheme and report the maximum aggregate throughput achieved, for
``K in {1, 2, 4, 8}``.  Surviving paper numbers at K=8: shift-1 67.65 %,
random 69.75 %, disjoint 70.35 %; expected shape: throughput rises with
K for every heuristic, disjoint leads, random(1) trails d-mod-k.
"""

from __future__ import annotations

from dataclasses import dataclass

import numpy as np

from repro.experiments.common import Fidelity, fidelity
from repro.flit.config import FlitConfig
from repro.flit.engine import FlitSimulator
from repro.flit.sweep import load_sweep
from repro.routing.factory import make_scheme
from repro.topology.variants import m_port_n_tree
from repro.topology.xgft import XGFT
from repro.util.tables import format_table

K_VALUES = (1, 2, 4, 8)
HEURISTICS = ("shift-1", "random", "disjoint")
DEFAULT_LOADS = (0.5, 0.6, 0.7, 0.8, 0.9, 1.0)


@dataclass(frozen=True)
class Table1Result:
    """Max throughput (fraction of capacity) per scheme and K."""

    topology: str
    ks: tuple[int, ...]
    dmodk: float
    cells: dict[str, tuple[float, ...]]  # heuristic -> per-K max throughput

    def rows(self) -> list[list]:
        return [
            [k, self.dmodk] + [self.cells[h][i] for h in HEURISTICS]
            for i, k in enumerate(self.ks)
        ]

    def render(self) -> str:
        return format_table(
            ["Num-Path", "d-mod-k", *HEURISTICS], self.rows(),
            title=f"Table 1: max throughput, uniform traffic, {self.topology}",
            floatfmt=".4f",
        )


def run(
    *,
    fidelity_name: str | Fidelity = "normal",
    topology: XGFT | None = None,
    loads: tuple[float, ...] = DEFAULT_LOADS,
    config: FlitConfig | None = None,
    ks: tuple[int, ...] = K_VALUES,
    random_seeds: tuple[int, ...] = (0, 1),
    seed: int | None = None,
    n_jobs: int = 1,
    cache=None,
) -> Table1Result:
    """Regenerate Table 1.

    The random heuristic is averaged over ``random_seeds`` routing seeds
    (the paper uses five; two keep the default run affordable — pass more
    for the full protocol).  ``seed`` overrides the workload RNG seed
    (ignored when an explicit ``config`` already carries one).
    ``n_jobs > 1`` fans every (scheme x K x load x repeat) cell out over
    one process pool and ``cache`` (a
    :class:`~repro.runner.cache.ResultCache`) replays completed points
    from disk; the table is bit-identical to the serial run either way.
    """
    fid = fidelity(fidelity_name)
    xgft = topology if topology is not None else m_port_n_tree(8, 3)
    cfg = config if config is not None else FlitConfig(
        warmup_cycles=fid.warmup_cycles,
        measure_cycles=fid.measure_cycles,
        drain_cycles=fid.drain_cycles,
        seed=seed if seed is not None else 0,
    )

    if n_jobs > 1 or cache is not None:
        # Build the entire cell grid up front and sweep it through one
        # pool.  Keys disambiguate random(K)'s routing seeds ("@s" —
        # the scheme label repeats across seeds, the key must not).
        from repro.runner.sweep import run_sweeps

        def sim_for(spec: str, seed: int = 0):
            return FlitSimulator(
                xgft, make_scheme(xgft, spec, seed=seed), cfg)

        sims = {"d-mod-k": sim_for("d-mod-k")}
        for k in ks:
            for h in HEURISTICS:
                if h == "random":
                    for s in random_seeds:
                        sims[f"random:{k}@{s}"] = sim_for(f"random:{k}", seed=s)
                else:
                    sims[f"{h}:{k}"] = sim_for(f"{h}:{k}")
        sweeps = run_sweeps(sims, loads=loads, repeats=fid.flit_repeats,
                            n_jobs=n_jobs, cache=cache)

        def max_thr(spec: str, seed: int = 0) -> float:
            key = f"{spec}@{seed}" if spec.startswith("random:") else spec
            return sweeps[key].max_throughput
    else:
        def max_thr(spec: str, seed: int = 0) -> float:
            scheme = make_scheme(xgft, spec, seed=seed)
            sweep = load_sweep(xgft, scheme, cfg, loads=loads,
                               repeats=fid.flit_repeats)
            return sweep.max_throughput

    dmodk = max_thr("d-mod-k")
    cells: dict[str, list[float]] = {h: [] for h in HEURISTICS}
    for k in ks:
        for h in HEURISTICS:
            if h == "random":
                vals = [max_thr(f"random:{k}", seed=s) for s in random_seeds]
                cells[h].append(float(np.mean(vals)))
            else:
                cells[h].append(max_thr(f"{h}:{k}"))
    return Table1Result(
        topology=repr(xgft),
        ks=ks,
        dmodk=dmodk,
        cells={h: tuple(v) for h, v in cells.items()},
    )
