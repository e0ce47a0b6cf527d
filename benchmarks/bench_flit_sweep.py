"""Serial vs parallel vs cached flit sweeps: wall-clock and replay.

Times the (scheme x load x repeat) grid behind Figure 5 / Table 1 four
ways on one topology, with the reference event loop
(:class:`~repro.flit.engine.ReferenceFlitSimulator`) at every point —

* **serial**: :func:`repro.runner.sweep.run_sweeps` with ``n_jobs=1``
  (the classic inline path);
* **parallel**: the same grid fanned out over a
  :class:`~repro.runner.pool.PersistentPool` (``--jobs N``);
* **cold cache**: serial again, storing every point into a fresh
  :class:`~repro.runner.cache.ResultCache`;
* **warm cache**: replaying the grid from disk — zero simulator runs —

verifies all four produce bit-identical ``SweepResult`` values, checks
via telemetry that the warm pass computed nothing, and writes a JSON
report (``bench_flit_report.json``) with wall times, the parallel speedup and
the cache replay speedup.

Usage::

    PYTHONPATH=src python benchmarks/bench_flit_sweep.py \
        [--topology mport:8x3] [--jobs 4] [--repeats 2] [--smoke] \
        [--out bench_flit_report.json]

``--smoke`` shrinks the topology, window and load grid so CI finishes
in seconds; every parity and telemetry check still runs at full
strength.
"""

from __future__ import annotations

import argparse
import json
import shutil
import sys
import tempfile
from time import perf_counter

from repro import __version__
from repro.cli import parse_topology
from repro.flit.config import FlitConfig
from repro.flit.engine import ReferenceFlitSimulator
from repro.obs.recorder import Recorder, use_recorder
from repro.routing.factory import make_scheme
from repro.runner.cache import ResultCache
from repro.runner.sweep import run_sweeps

SCHEME_SPECS = ("d-mod-k", "disjoint:4", "random:4")


def _sweeps_equal(a: dict, b: dict) -> bool:
    """Bit-exact comparison of run_sweeps outputs, NaN-tolerant."""
    if set(a) != set(b):
        return False
    for key in a:
        if len(a[key].runs) != len(b[key].runs):
            return False
        for ra, rb in zip(a[key].runs, b[key].runs):
            for field in ra.__dataclass_fields__:
                va, vb = getattr(ra, field), getattr(rb, field)
                if va != vb and not (va != va and vb != vb):
                    return False
    return True


def _timed(fn):
    t0 = perf_counter()
    result = fn()
    return perf_counter() - t0, result


def run(topology_spec: str, loads, repeats: int, jobs: int,
        config: FlitConfig, out: str | None) -> dict:
    xgft = parse_topology(topology_spec)
    sims = {spec: ReferenceFlitSimulator(xgft, make_scheme(xgft, spec),
                                         config)
            for spec in SCHEME_SPECS}
    n_points = len(sims) * len(loads) * repeats

    t_serial, serial = _timed(
        lambda: run_sweeps(sims, loads=loads, repeats=repeats))
    t_parallel, parallel = _timed(
        lambda: run_sweeps(sims, loads=loads, repeats=repeats, n_jobs=jobs))

    cache_dir = tempfile.mkdtemp(prefix="bench-flit-cache-")
    try:
        cold_rec = Recorder()
        with use_recorder(cold_rec):
            t_cold, cold = _timed(lambda: run_sweeps(
                sims, loads=loads, repeats=repeats,
                cache=ResultCache(cache_dir)))
        warm_rec = Recorder()
        with use_recorder(warm_rec):
            t_warm, warm = _timed(lambda: run_sweeps(
                sims, loads=loads, repeats=repeats,
                cache=ResultCache(cache_dir)))
    finally:
        shutil.rmtree(cache_dir, ignore_errors=True)

    report = {
        "benchmark": "flit_sweep",
        "version": __version__,
        "topology": repr(xgft),
        "n_procs": xgft.n_procs,
        "schemes": [s.scheme.label for s in sims.values()],
        "loads": list(loads),
        "repeats": repeats,
        "jobs": jobs,
        "n_points": n_points,
        "serial_s": t_serial,
        "parallel_s": t_parallel,
        "cold_cache_s": t_cold,
        "warm_cache_s": t_warm,
        "parallel_speedup": t_serial / t_parallel if t_parallel > 0
                            else float("inf"),
        "replay_speedup": t_serial / t_warm if t_warm > 0 else float("inf"),
        "cold_stores": cold_rec.counters.get("runner.cache_store", 0),
        "warm_hits": warm_rec.counters.get("runner.cache_hit", 0),
        "warm_points_computed": warm_rec.counters.get(
            "runner.points_computed", 0),
        "parallel_parity_ok": _sweeps_equal(serial, parallel),
        "cache_parity_ok": (_sweeps_equal(serial, cold)
                            and _sweeps_equal(serial, warm)),
        "warm_replay_ok": (
            warm_rec.counters.get("runner.cache_hit", 0) == n_points
            and "runner.points_computed" not in warm_rec.counters),
    }
    if out:
        with open(out, "w") as fh:
            json.dump(report, fh, indent=2)
    return report


def main(argv: list[str] | None = None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--topology", default="mport:8x3",
                        help="topology spec (default: mport:8x3, 128 nodes)")
    parser.add_argument("--jobs", type=int, default=4,
                        help="worker processes for the parallel pass")
    parser.add_argument("--repeats", type=int, default=2,
                        help="workload seeds per load point (default 2)")
    parser.add_argument("--smoke", action="store_true",
                        help="small topology/window/grid for CI")
    parser.add_argument("--seed", type=int, default=2012)
    parser.add_argument("--out", default=None, metavar="PATH",
                        help="write the JSON report here (e.g. bench_flit_report.json)")
    args = parser.parse_args(argv)

    if args.smoke:
        topology = "mport:4x2"
        loads = (0.2, 0.5, 0.8)
        config = FlitConfig(warmup_cycles=100, measure_cycles=500,
                            drain_cycles=500, seed=args.seed)
    else:
        topology = args.topology
        loads = (0.2, 0.4, 0.6, 0.8)
        config = FlitConfig(warmup_cycles=500, measure_cycles=2500,
                            drain_cycles=2500, seed=args.seed)

    report = run(topology, loads, args.repeats, args.jobs, config, args.out)
    print(f"flit sweep bench: {report['topology']} "
          f"({report['n_points']} grid points, --jobs {report['jobs']})")
    print(f"{'serial':<12} {report['serial_s']:>8.2f}s")
    print(f"{'parallel':<12} {report['parallel_s']:>8.2f}s  "
          f"({report['parallel_speedup']:.1f}x)")
    print(f"{'cold cache':<12} {report['cold_cache_s']:>8.2f}s  "
          f"({report['cold_stores']} points stored)")
    print(f"{'warm cache':<12} {report['warm_cache_s']:>8.2f}s  "
          f"({report['replay_speedup']:.1f}x, {report['warm_hits']} hits, "
          f"{report['warm_points_computed']} computed)")

    ok = (report["parallel_parity_ok"] and report["cache_parity_ok"]
          and report["warm_replay_ok"])
    if not ok:
        print("error: parity or warm-replay check failed", file=sys.stderr)
        return 1
    return 0


if __name__ == "__main__":
    sys.exit(main())
