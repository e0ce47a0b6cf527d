"""End-to-end benchmark of the paper's experiments, with per-layer
attribution.

Usage, from the root of the repository::

    python3 e2ebench/run.py --workload flit-table1 --seed 0 --seconds 15 --trace 0

Every measured run is a fresh interpreter (:mod:`child`).  With
``--trace 0`` the runs are untraced and the last line of standard output
is a JSON object with the end-to-end metrics of ``BENCHMARK.json``; with
``--trace 1`` one untraced run gives the baseline, one traced run
gives the per-layer times and counts, one more with ``tracemalloc`` gives
the per-layer peaks, and the JSON carries the per-layer metrics.  Traced
runs never feed an end-to-end number.

Every time is in normalised seconds: host seconds, less the time the
child was stopped for the host-speed probe, divided by the probe's host
factor over the same window (:class:`Speedometer`).

Before any timed run a ``build`` child imports every module of the
program (writing bytecode to ``e2ebench/_work/pycache``) and compiles the
native flit kernel into ``e2ebench/_work/kernel`` (``REPRO_KERNEL_CACHE``),
so neither lands inside a timed run.

Correctness: each run's result is reduced to a digest (see
:mod:`workloads`).  A run fails when it raises, is killed, reports a
sanity problem, or its digest differs from the one stored in
``digests.json`` for that seed (or, for a seed with no stored digest,
from the other runs of the same invocation).  ``failed / attempted`` is
the error rate.
"""

from __future__ import annotations

import argparse
import heapq
import json
import os
import signal
import statistics
import subprocess
import sys
import tempfile
import time
from collections import Counter

BENCH_DIR = os.path.dirname(os.path.abspath(__file__))
ROOT = os.path.dirname(BENCH_DIR)
WORK_DIR = os.path.join(BENCH_DIR, "_work")
DIGESTS = os.path.join(BENCH_DIR, "digests.json")

#: extra set-up-only children per untraced invocation (``setup_s`` is
#: the median over these and every run's own set-up)
SETUP_PROBES = 3
#: one invocation must finish within this many seconds
BUDGET_S = 170.0
#: the first build in a fresh checkout may compile the kernel
BUILD_TIMEOUT_S = 900.0


class ChildFailed(Exception):
    pass


def child_env() -> dict:
    env = dict(os.environ)
    src = os.path.join(ROOT, "src")
    env["PYTHONPATH"] = os.pathsep.join(
        [src, BENCH_DIR] + ([env["PYTHONPATH"]] if env.get("PYTHONPATH")
                            else []))
    env["REPRO_KERNEL_CACHE"] = os.path.join(WORK_DIR, "kernel")
    # Measure set-up with warm bytecode, as an installed program has it.
    env.pop("PYTHONDONTWRITEBYTECODE", None)
    env["PYTHONPYCACHEPREFIX"] = os.path.join(WORK_DIR, "pycache")
    # One process on a shared host: keep numerical libraries single-threaded.
    for var in ("OMP_NUM_THREADS", "OPENBLAS_NUM_THREADS", "MKL_NUM_THREADS"):
        env[var] = "1"
    return env


class Speedometer:
    """Host-speed probe on the measured child's CPU, run while the child
    is stopped.

    On a shared host each CPU can flip between speed states (measured on
    a shared 2-vCPU Xeon VM: up to 1.9x apart, lasting seconds, so they
    change within one run).  The benchmark pins itself and its children
    to one CPU.  Every :data:`PERIOD_S` it stops the child (``SIGSTOP``),
    runs a fixed unit of mixed interpreter and NumPy work for
    :data:`WARMUP_S` so that the caches and core state the child left no
    longer count, times :data:`UNITS` more units in thread CPU time,
    keeps the fastest, and resumes the child.  The child never runs
    during the probe, and the time it spends stopped is subtracted from
    its times.  A window's host factor is the mean sampled unit time in
    it over :data:`REF_UNIT_S`; dividing a time by it gives seconds at
    the reference speed.
    """

    #: CPU seconds one unit takes at the reference host speed (measured
    #: on the quiet 2-vCPU Xeon VM the bounds were set on)
    REF_UNIT_S = 0.00037
    PERIOD_S = 0.1
    WARMUP_S = 0.002
    UNITS = 3

    def __init__(self):
        import numpy as np

        rng = np.random.default_rng(0)
        self._np = np
        self._idx = rng.integers(0, 4096, 20000)
        self._weights = rng.random(20000)
        self._keys = rng.random(5000)
        #: (stopped at, resumed at, unit seconds), monotonic clock
        self.samples: list[tuple[float, float, float]] = []

    def unit(self) -> float:
        np = self._np
        t0 = time.thread_time()
        heap: list = []
        table: dict = {}
        for i in range(500):
            heapq.heappush(heap, (i * 7919 % 1000, i))
            if len(heap) > 200:
                heapq.heappop(heap)
            table[i % 97] = [i, table.get(i * 31 % 97)]
        np.bincount(self._idx, weights=self._weights, minlength=4096)
        np.sort(self._keys)
        np.cumsum(self._weights)
        return time.thread_time() - t0

    def sample(self, proc: subprocess.Popen) -> None:
        """Stop ``proc``, time the unit on the CPU it leaves, resume it."""
        stopped = time.monotonic()
        proc.send_signal(signal.SIGSTOP)
        try:
            end = time.perf_counter() + self.WARMUP_S
            while time.perf_counter() < end:
                self.unit()
            unit = min(self.unit() for _ in range(self.UNITS))
        finally:
            proc.send_signal(signal.SIGCONT)
        self.samples.append((stopped, time.monotonic(), unit))

    def watch(self, proc: subprocess.Popen, deadline: float) -> bool:
        """Sample until ``proc`` exits (True) or ``deadline`` (False)."""
        while proc.poll() is None:
            if time.monotonic() > deadline:
                return False
            self.sample(proc)
            try:
                proc.wait(timeout=self.PERIOD_S)
            except subprocess.TimeoutExpired:
                pass
        return True

    def window(self, start: float, end: float) -> tuple[float, float]:
        """Host factor over ``[start, end]`` and the time the child spent
        stopped in it."""
        units = [u for t, _, u in self.samples if start <= t <= end]
        if not units:  # a window shorter than one period
            units = [min(self.samples, key=lambda s: abs(s[0] - start))[2]]
        stopped = sum(max(0.0, min(b, end) - max(a, start))
                      for a, b, _ in self.samples)
        return statistics.fmean(units) / self.REF_UNIT_S, stopped


def pin_to_one_cpu() -> None:
    """Run this process and its children on one CPU (see Speedometer)."""
    if hasattr(os, "sched_setaffinity"):
        os.sched_setaffinity(0, {min(os.sched_getaffinity(0))})


def run_child(mode: str, workload: str, seed: int, timeout: float,
              extra: tuple = ()) -> dict:
    """Run one child to completion and return its JSON record.

    The record's ``setup_s`` and ``wall_s`` exclude the time the child
    was stopped by the probe (``stopped_s`` in all); ``setup_factor`` and
    ``host_factor`` are the host factors of its set-up and of its
    experiment call.
    """
    cmd = [sys.executable, os.path.join(BENCH_DIR, "child.py"),
           "--mode", mode, "--workload", workload, "--seed", str(seed),
           "--work-dir", WORK_DIR, *extra]
    speedo = Speedometer()
    with tempfile.TemporaryFile("w+", dir=WORK_DIR) as out, \
            tempfile.TemporaryFile("w+", dir=WORK_DIR) as err:
        t0 = time.monotonic()
        proc = subprocess.Popen(cmd + ["--t0", repr(t0)], cwd=ROOT,
                                env=child_env(), stdout=out, stderr=err)
        try:
            finished = speedo.watch(proc, t0 + max(timeout, 1.0))
        finally:
            if proc.poll() is None:
                proc.kill()
            proc.wait()
        if not finished:
            raise ChildFailed(f"{mode} child killed after {timeout:.0f}s")
        out.seek(0)
        err.seek(0)
        if proc.returncode != 0:
            raise ChildFailed(f"{mode} child exited {proc.returncode}:\n"
                              + err.read()[-2000:])
        try:
            rec = json.loads(out.read().strip().splitlines()[-1])
        except (IndexError, json.JSONDecodeError):
            raise ChildFailed(f"{mode} child printed no record") from None
    t_setup = t0 + rec["setup_s"]
    rec["setup_factor"], stopped = speedo.window(t0, t_setup)
    rec["setup_s"] -= stopped
    if "t_call" in rec:
        rec["host_factor"], stopped = speedo.window(rec["t_call"],
                                                    rec["t_done"])
        rec["active_share"] = 1.0 - stopped / rec["wall_s"]
        rec["wall_s"] -= stopped
    rec["stopped_s"] = sum(b - a for a, b, _ in speedo.samples)
    return rec


def load_digests() -> dict:
    with open(DIGESTS, encoding="utf-8") as fh:
        return json.load(fh)["digests"]


def judge(records: list, stored: str | None) -> list:
    """Mark each run record ``ok`` or give the reason it failed.

    ``records`` holds run records, or ``None`` for a run that raised or
    was killed.  With no stored digest, the reference is the digest most
    runs agree on.
    """
    digests = [r["digest"] for r in records if r is not None]
    expected = stored
    if expected is None and digests:
        expected = Counter(digests).most_common(1)[0][0]
    verdicts = []
    for r in records:
        if r is None:
            verdicts.append("raised or killed")
        elif r["problems"]:
            verdicts.append("; ".join(r["problems"]))
        elif r["digest"] != expected:
            verdicts.append(f"digest {r['digest']} != expected {expected}")
        else:
            verdicts.append("ok")
    return verdicts


def median(values) -> float:
    return float(statistics.median(values))


def end_to_end(runs: list, setups: list) -> dict:
    """Medians over runs; times are at the reference host speed."""
    return {
        "wall_s": median(r["wall_s"] / r["host_factor"] for r in runs),
        "cpu_s": median(r["cpu_s"] / r["host_factor"] for r in runs),
        "peak_rss_mb": median(r["peak_rss_mb"] for r in runs),
        "setup_s": median(setups),
        "work_per_s": median(r["work"] * r["host_factor"] / r["wall_s"]
                             for r in runs),
    }


def per_layer(runs: list, traced: dict, mem: dict, compiler: bool) -> dict:
    """Layer metrics of the traced run (times at the reference host
    speed) plus the ``tracemalloc`` run's peaks."""
    # The layer spans include the probe's stops, spread evenly in time.
    scale = traced["active_share"] / traced["host_factor"]
    out = {k: v * scale if k.endswith("_s") else v
           for k, v in traced["layers"].items()}
    out.update({k: v for k, v in mem["layers"].items()
                if k.endswith("peak_mb")})
    counts = traced["counts"]
    out["flow.samples"] = counts.get("flow.samples", 0)
    out["obs.recorder_events"] = counts.get("obs.recorder_events", 0)
    out["flit.c_compiler_found"] = int(compiler)
    out["experiments.traced_wall_s"] = \
        traced["wall_s"] / traced["host_factor"]
    out["experiments.trace_overhead"] = out["experiments.traced_wall_s"] / \
        median(r["wall_s"] / r["host_factor"] for r in runs)
    return out


def emit(values: dict, specs: list) -> dict:
    """``values`` as the result's ``metrics`` object, in the order and
    with the units of ``BENCHMARK.json``; the names must match exactly."""
    names = [m["name"] for m in specs]
    if set(values) != set(names):
        raise ValueError(
            f"metric names differ from BENCHMARK.json: "
            f"missing {sorted(set(names) - set(values))}, "
            f"extra {sorted(set(values) - set(names))}")
    return {m["name"]: {"value": values[m["name"]], "unit": m["unit"]}
            for m in specs}


def main(argv=None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--workload", required=True)
    parser.add_argument("--seed", type=int, default=0)
    parser.add_argument("--seconds", type=float, default=15.0)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    args = parser.parse_args(argv)

    start = time.monotonic()
    if not os.path.isfile(os.path.join(ROOT, "src", "repro", "__init__.py")):
        print("error: the program's sources (src/repro) are missing",
              file=sys.stderr)
        return 2
    from workloads import WORKLOADS

    if args.workload not in WORKLOADS:
        print(f"error: unknown workload {args.workload!r}; choose from "
              f"{sorted(WORKLOADS)}", file=sys.stderr)
        return 2
    with open(os.path.join(ROOT, "BENCHMARK.json"), encoding="utf-8") as fh:
        spec = json.load(fh)
    os.makedirs(WORK_DIR, exist_ok=True)
    pin_to_one_cpu()
    try:
        build = run_child("build", args.workload, args.seed, BUILD_TIMEOUT_S)
    except ChildFailed as exc:
        print(f"error: build failed: {exc}", file=sys.stderr)
        return 1
    print(f"build: c_compiler_found={build['compiler']} "
          f"native_kernel={build['native']}")
    # A build that compiled the kernel (first run in a checkout) may
    # have used most of the normal budget; the runs still get theirs.
    deadline = max(start, time.monotonic() - 20.0) + BUDGET_S

    def attempt(mode: str, extra: tuple = ()):
        t0 = time.monotonic()
        try:
            return run_child(mode, args.workload, args.seed,
                             deadline - t0, extra)
        except ChildFailed as exc:
            print(f"{mode} run failed: {exc}", file=sys.stderr)
            return None
        finally:
            durations.append(time.monotonic() - t0)

    durations: list[float] = []
    setups = []
    if not args.trace:
        for _ in range(SETUP_PROBES):
            rec = attempt("setup")
            if rec is not None:
                setups.append(rec["setup_s"] / rec["setup_factor"])
    t_measure = time.monotonic()
    records = [attempt("run")]
    # A traced invocation needs one untraced run, as the overhead base.
    while not args.trace and (
            time.monotonic() - t_measure < args.seconds
            and time.monotonic() + durations[-1] < deadline):
        records.append(attempt("run"))
    if args.trace:
        traced = attempt("trace")
        records.append(traced)
        if traced is not None:
            records.append(attempt("trace-mem", (
                "--mem-calls", json.dumps(traced["calls"]))))

    stored = load_digests().get(args.workload, {}).get(str(args.seed))
    verdicts = judge(records, stored)
    good: dict[str, list] = {"run": [], "trace": [], "trace-mem": []}
    for i, (r, verdict) in enumerate(zip(records, verdicts)):
        if r is None:
            print(f"run {i}: {verdict}")
            continue
        print(f"run {i}: mode={r['mode']} engine={r['engine']} "
              f"native_kernel={r['native']} c_compiler_found={r['compiler']} "
              f"setup_s={r['setup_s']:.3f} wall_s={r['wall_s']:.3f} "
              f"stopped_s={r['stopped_s']:.3f} "
              f"setup_factor={r['setup_factor']:.3f} "
              f"host_factor={r['host_factor']:.3f} "
              f"work={r['work']} digest={r['digest']} "
              f"stored={'yes' if stored else 'no'} -> {verdict}")
        if r.get("untraced"):
            print(f"  callables not found, their metrics read 0: "
                  f"{', '.join(r['untraced'])}")
        if verdict == "ok":
            good[r["mode"]].append(r)
    failed = sum(v != "ok" for v in verdicts)
    if not good["run"] or (args.trace and not (
            good["trace"] and good["trace-mem"])):
        print("error: no successful run to report", file=sys.stderr)
        return 1
    if args.trace:
        metrics = emit(per_layer(good["run"], good["trace"][0],
                                 good["trace-mem"][0], build["compiler"]),
                       spec["per_layer"])
    else:
        setups += [r["setup_s"] / r["setup_factor"] for r in good["run"]]
        metrics = emit(end_to_end(good["run"], setups), spec["end_to_end"])
    print(json.dumps({"correct": failed == 0, "attempted": len(records),
                      "failed": failed, "metrics": metrics}))
    return 0


if __name__ == "__main__":
    sys.exit(main())
