"""One benchmark run in a fresh interpreter.

``run.py`` starts this script once per measured run, so that peak RSS
(``ru_maxrss`` only rises) and set-up time belong to that run alone.  The
last line of standard output is one JSON object describing the run.

Modes:

``build``      import every module of the program (warming the bytecode
               cache) and load, compiling on first use, the native
               flit kernel into ``REPRO_KERNEL_CACHE``;
``setup``      set up only, then exit (extra ``setup_s`` samples);
``run``        set up and run the workload with tracing off;
``trace``      run it with every layer wrapped (:mod:`tracing`);
``trace-mem``  the same with ``tracemalloc`` on for a sample of each
               callable's calls (``--mem-calls``: a ``trace`` run's
               call counts), for per-layer peaks.

``setup_s`` runs from ``--t0`` (the parent's ``time.monotonic()`` taken
just before starting this interpreter) to the experiment call: imports,
the experiment module (which builds its topologies) and the native
kernel load.
"""

from __future__ import annotations

import argparse
import contextlib
import importlib
import json
import os
import pkgutil
import resource
import shutil
import sys
import tempfile
import time


def _cpu_s() -> float:
    ru = resource.getrusage(resource.RUSAGE_SELF)
    return ru.ru_utime + ru.ru_stime


def _compiler_found() -> bool:
    return any(shutil.which(c) for c in ("cc", "gcc", "clang"))


def main(argv=None) -> int:
    parser = argparse.ArgumentParser()
    parser.add_argument("--mode", required=True,
                        choices=("build", "setup", "run", "trace",
                                 "trace-mem"))
    parser.add_argument("--workload", required=True)
    parser.add_argument("--seed", type=int, required=True)
    parser.add_argument("--t0", type=float, required=True)
    parser.add_argument("--work-dir", required=True)
    parser.add_argument("--engine", default=None,
                        help="override the workload's flit engine (oracle "
                             "cross-check in make_digests.py)")
    parser.add_argument("--mem-calls", default="{}",
                        help="trace-mem: JSON call counts of a trace run")
    args = parser.parse_args(argv)

    from workloads import WORKLOADS, experiment_kwargs, summarize

    w = WORKLOADS[args.workload]
    from repro.experiments import registry

    importlib.import_module(w.module)
    native_ok = None
    if w.flit:
        from repro.flit import native

        native_ok = native.available()
    out: dict = {"mode": args.mode, "compiler": _compiler_found(),
                 "native": native_ok}
    if args.mode == "build":  # warm the bytecode cache of every module
        import repro

        for info in pkgutil.walk_packages(repro.__path__, "repro."):
            if not info.name.endswith("__main__"):  # that one runs the CLI
                importlib.import_module(info.name)
    if args.mode in ("build", "setup"):
        out["setup_s"] = time.monotonic() - args.t0
        print(json.dumps(out))
        return 0

    experiment = registry.get_experiment(w.experiment)
    cache_dir = None
    if w.cached:
        os.makedirs(args.work_dir, exist_ok=True)
        cache_dir = tempfile.mkdtemp(prefix="cache-", dir=args.work_dir)
    try:
        kwargs, engine = experiment_kwargs(w, experiment, args.seed,
                                           cache_dir)
        if args.engine is not None and engine is not None:
            kwargs["engine"] = engine = args.engine
        recorder = tracer = None
        if w.profiled:
            from repro.obs import Recorder

            recorder = Recorder()
        if args.mode != "run":
            from tracing import Tracer

            tracer = Tracer(json.loads(args.mem_calls)
                            if args.mode == "trace-mem" else None)
        from repro.obs import use_recorder

        out["engine"] = engine
        out["setup_s"] = time.monotonic() - args.t0
        # use_recorder(None) keeps the default no-op recorder.
        with tracer or contextlib.nullcontext(), use_recorder(recorder):
            cpu0 = _cpu_s()
            out["t_call"] = time.monotonic()
            t0 = time.perf_counter()
            result = registry.run_experiment(w.experiment, **kwargs)
            out["wall_s"] = time.perf_counter() - t0
            out["t_done"] = time.monotonic()
            out["cpu_s"] = _cpu_s() - cpu0
        out["peak_rss_mb"] = resource.getrusage(
            resource.RUSAGE_SELF).ru_maxrss / 1024.0
        out.update(summarize(w, result, cache_dir=cache_dir,
                             recorder=recorder))
        if tracer is not None:
            out["layers"] = tracer.metrics(out["wall_s"])
            out["calls"] = tracer.calls
            out["untraced"] = tracer.missing
            out["problems"] += [f"wrapper left installed: {name}"
                                for name in tracer.leftovers()]
    finally:
        if cache_dir is not None:
            shutil.rmtree(cache_dir, ignore_errors=True)
    print(json.dumps(out))
    return 0


if __name__ == "__main__":
    sys.exit(main())
