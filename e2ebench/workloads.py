"""The benchmark's workloads: which experiment each runs, with what
arguments, and how its result is reduced to a digest and a work count.

Every workload goes through the public entry point
``repro.experiments.registry.run_experiment`` at ``--fidelity fast`` with
one process (``n_jobs=1``).  Keyword arguments are passed only when the
registry says the experiment accepts them (``engine_aware``,
``runner_aware``, ``churn_aware``), so a later change that drops one of
those knobs leaves the benchmark working unchanged.
"""

from __future__ import annotations

import dataclasses
import hashlib
import json
import math
import os
from dataclasses import dataclass

#: churn events per run of ``faults-churn``
CHURN_EVENTS = 32


@dataclass(frozen=True)
class Workload:
    name: str
    experiment: str            # registry name
    module: str                # module imported during set-up
    engine: str | None = None  # flit engine requested (when accepted)
    profiled: bool = False     # run under an enabled Recorder (--profile)
    cached: bool = False       # run with a fresh, empty ResultCache
    churn: bool = False        # pass n_events / churn_seed

    @property
    def flit(self) -> bool:
        """Whether the workload runs the flit simulator."""
        return self.engine is not None


WORKLOADS: dict[str, Workload] = {w.name: w for w in (
    Workload(
        "flit-table1", "table1", "repro.experiments.table1",
        engine="batched", cached=True),
    Workload(
        "flit-figure5-profiled", "figure5", "repro.experiments.figure5",
        engine="batched", profiled=True),
    Workload(
        "flow-figure4b", "figure4b", "repro.experiments.figure4"),
    Workload(
        "faults-churn", "churn-sweep", "repro.experiments.churn_sweep",
        churn=True),
)}


def accepts(experiment, flag: str) -> bool:
    """Whether the registry marks ``experiment`` with ``flag``; a flag
    that no longer exists reads as not accepted."""
    return bool(getattr(experiment, flag, False))


def experiment_kwargs(w: Workload, experiment, seed: int,
                      cache_dir: str | None) -> tuple[dict, str | None]:
    """Keyword arguments for ``run_experiment`` and the engine actually
    requested (``None`` when the runner takes no ``engine``)."""
    kwargs: dict = {"fidelity_name": "fast", "seed": seed}
    engine = None
    if w.engine is not None and accepts(experiment, "engine_aware"):
        kwargs["engine"] = engine = w.engine
    if accepts(experiment, "runner_aware"):
        kwargs["n_jobs"] = 1
        if w.cached:
            from repro.runner.cache import ResultCache

            kwargs["cache"] = ResultCache(cache_dir)
    if w.churn and accepts(experiment, "churn_aware"):
        kwargs["n_events"] = CHURN_EVENTS
        kwargs["churn_seed"] = seed
    return kwargs, engine


# -- result reduction -------------------------------------------------

def _plain(value):
    """JSON-able form of a result with exact floats (``float.hex``)."""
    if dataclasses.is_dataclass(value) and not isinstance(value, type):
        return {f.name: _plain(getattr(value, f.name))
                for f in dataclasses.fields(value)}
    if isinstance(value, dict):
        return {str(k): _plain(v) for k, v in value.items()}
    if isinstance(value, (list, tuple)):
        return [_plain(v) for v in value]
    if isinstance(value, bool) or value is None or isinstance(value, str):
        return value
    if isinstance(value, int):
        return int(value)
    if isinstance(value, float):
        return value.hex()
    if hasattr(value, "tolist"):  # numpy scalars and arrays
        return _plain(value.tolist())
    raise TypeError(f"cannot digest {type(value).__name__}")


def digest(payload) -> str:
    canon = json.dumps(_plain(payload), sort_keys=True, separators=(",", ":"))
    return hashlib.sha256(canon.encode()).hexdigest()[:32]


def cache_events(cache_dir: str) -> int:
    """Simulated flit events of every point stored in a result cache."""
    total = 0
    for name in os.listdir(cache_dir):
        with open(os.path.join(cache_dir, name), encoding="utf-8") as fh:
            for line in fh:
                if line.strip():
                    total += int(json.loads(line)["result"]["events"])
    return total


def summarize(w: Workload, result, *, cache_dir: str | None = None,
              recorder=None) -> dict:
    """Digest, exact work counts and sanity problems of one result.

    ``work`` is what ``work_per_s`` divides by wall time: simulated flit
    events (flit workloads), permutation samples (``flow-figure4b``) or
    churn events re-routed and re-evaluated (``faults-churn``).
    """
    problems: list[str] = []
    counts: dict[str, int] = {}
    if w.experiment == "table1":
        counts["flit.events"] = cache_events(cache_dir)
        values = [result.dmodk] + [v for c in result.cells.values() for v in c]
        payload = result
    elif w.experiment == "figure5":
        runs = [r for s in result.sweeps.values() for r in s.runs]
        counts["flit.events"] = sum(r.events for r in runs)
        values = [r.throughput for r in runs]
        payload = result
        if recorder is not None:
            counts["obs.recorder_events"] = len(recorder.events)
            if int(recorder.counters.get("flit.events", 0)) != \
                    counts["flit.events"]:
                problems.append("recorder flit.events != result events")
    elif w.experiment == "figure4b":
        counts["flow.samples"] = int(result.samples_used)
        values = [result.dmodk] + [v for s in result.series.values() for v in s]
        payload = result
        problems += [f"max link load {v} < 1" for v in values if v < 1 - 1e-9]
    elif w.experiment == "churn-sweep":
        counts["flow.samples"] = int(result.samples_used)
        counts["faults.events"] = len(result.points) - 1
        if counts["faults.events"] != CHURN_EVENTS:
            problems.append(f"{counts['faults.events']} churn events applied, "
                            f"expected {CHURN_EVENTS}")
        values = [m for p in result.points for m in p.mloads.values()]
        problems += [f"max link load {v} < 1" for v in values if v < 1 - 1e-9]
        # reroute_ms is wall time: everything else is deterministic.
        payload = dataclasses.replace(result, points=tuple(
            dataclasses.replace(p, reroute_ms={}) for p in result.points))
    else:
        raise ValueError(f"no reduction for experiment {w.experiment!r}")
    if w.flit:
        problems += [f"throughput {v} outside [0, 1.05]" for v in values
                     if not 0.0 <= v <= 1.05]
    problems += [f"non-finite value {v}" for v in values
                 if not math.isfinite(v)]
    work_key = {"table1": "flit.events", "figure5": "flit.events",
                "figure4b": "flow.samples", "churn-sweep": "faults.events"}
    work = counts[work_key[w.experiment]]
    if work <= 0:
        problems.append("no work done")
    pinned = {k: v for k, v in counts.items()
              if k in ("flit.events", "flow.samples")}
    return {"digest": digest({"result": payload, "counts": pinned}),
            "work": work, "counts": counts, "problems": problems}
