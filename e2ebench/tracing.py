"""Per-layer attribution by wrapping the program's public callables from
outside.

:class:`Tracer` replaces each callable in :data:`TARGETS` with a wrapper
that records a span (wall time, calls, optional ``tracemalloc`` peak)
and a few exact counts, then puts every original back on exit.  Layer
names are the program's modules.  A span nested in another span of the
same name is not counted again, and the time covered by outermost spans
is kept so that the experiment's unattributed time can be reported.

The wrappers are installed on the defining module *and* on every loaded
``repro`` module that imported the callable by name, and on the class
for methods.  Nothing inside the program is edited.
"""

from __future__ import annotations

import functools
import importlib
import sys
import tracemalloc
from time import perf_counter

MB = 1024.0 * 1024.0


def _plan_mb(t, args, result):
    t.plan_mb = max(t.plan_mb, result.nbytes / MB)


def _flit_run(t, args, result):
    t.counts["flit.events"] += result.events


def _batch_perms(t, args, result):
    t.counts["flow.batch_perms"] += len(args[1])


def _apply_event(t, args, result):
    t.counts["faults.pairs_recomputed"] += result.pairs_recomputed
    t.counts["faults.pairs_offered"] += result.pairs_total


def _cache_get(t, args, result):
    t.counts["runner.cache_misses" if result is None
             else "runner.cache_hits"] += 1


#: (span name, defining module, class or None, attribute, result hook)
TARGETS = (
    ("routing.make_scheme", "repro.routing.factory", None, "make_scheme",
     None),
    ("routing.compile_routes", "repro.routing.vectorized", None,
     "compile_routes", None),
    ("routing.compile_scheme", "repro.routing.compiled", None,
     "compile_scheme", _plan_mb),
    ("routing.candidate_link_index", "repro.routing.compiled", None,
     "candidate_link_index", None),
    ("flit.build", "repro.flit.engine", "FlitSimulator", "__init__", None),
    ("flit.run", "repro.flit.engine", "FlitSimulator", "run", _flit_run),
    ("flit.run", "repro.flit.batched", "BatchedFlitSimulator", "run",
     _flit_run),
    ("flit.kernel", "repro.flit.native", None, "run_oq", None),
    ("flow.link_loads", "repro.flow.loads", None, "link_loads", None),
    ("flow.batch_eval", "repro.flow.engine", "BatchFlowEngine",
     "permutation_mloads", _batch_perms),
    ("traffic.permutation_matrix", "repro.traffic.permutations", None,
     "permutation_matrix", None),
    ("faults.generate_trace", "repro.faults.churn", None, "generate_trace",
     None),
    ("faults.incremental_init", "repro.faults.churn",
     "IncrementalDegradedScheme", "__init__", None),
    ("faults.apply_event", "repro.faults.churn",
     "IncrementalDegradedScheme", "apply_event", _apply_event),
    ("runner.point_key", "repro.runner.sweep", None, "point_key", None),
    ("runner.cache_get", "repro.runner.cache", "ResultCache", "get_record",
     _cache_get),
    ("runner.cache_put", "repro.runner.cache", "ResultCache", "put_record",
     None),
)

#: layers that report ``<layer>.peak_mb``
LAYERS = ("routing", "flit", "flow", "traffic", "faults", "runner")


#: calls measured per callable in the ``tracemalloc`` pass
MEM_SAMPLES = 5


def sample_indices(total: int, samples: int = MEM_SAMPLES) -> set[int]:
    """``samples`` call indices spread evenly over ``total`` calls,
    always including the first and the last."""
    if total <= samples:
        return set(range(total))
    return {round(j * (total - 1) / (samples - 1)) for j in range(samples)}


class _Frame:
    __slots__ = ("name", "measured", "start_mem", "peak_mem")

    def __init__(self, name: str, measured: bool):
        self.name = name
        self.measured = measured
        self.start_mem = self.peak_mem = 0


class Tracer:
    """Context manager: wrap :data:`TARGETS` on entry, restore on exit.

    With ``memory_calls`` (callable name -> call count of a timing pass
    over the same inputs), ``tracemalloc`` measures the peak allocation
    above entry of :func:`sample_indices` of each callable's calls.  It
    runs only while a measured call is active, because tracing every
    allocation of a Python-kernel flit run costs over 10x.
    """

    def __init__(self, memory_calls: dict[str, int] | None = None):
        self.memory = memory_calls is not None
        self._measure = {name: sample_indices(n)
                         for name, n in (memory_calls or {}).items()}
        self.seconds: dict[str, float] = {}
        self.calls: dict[str, int] = {}
        self.peak_mb: dict[str, float] = {}
        self.counts: dict[str, int] = {
            k: 0 for k in ("flit.events", "flow.batch_perms",
                           "faults.pairs_recomputed", "faults.pairs_offered",
                           "runner.cache_hits", "runner.cache_misses")}
        self.plan_mb = 0.0  # largest CompiledScheme built
        self.covered_s = 0.0  # time inside outermost spans
        self._started: dict[str, int] = {}
        self._stack: list[_Frame] = []
        self._mem_depth = 0
        self.missing: list[str] = []  # targets not found in the program
        self._patched: list[tuple[object, str, object]] = []
        # id(wrapper) -> (wrapper, original); holding the wrapper keeps
        # its id from being reused by another object.
        self._wrappers: dict[int, tuple[object, object]] = {}

    # -- span accounting ----------------------------------------------
    def _enter(self, name: str) -> _Frame | None:
        if any(f.name == name for f in self._stack):
            return None
        index = self._started.get(name, 0)
        self._started[name] = index + 1
        frame = _Frame(name, index in self._measure.get(name, ()))
        if frame.measured:
            if self._mem_depth == 0:
                tracemalloc.start()
            else:
                cur, peak = tracemalloc.get_traced_memory()
                for f in self._stack:
                    if f.measured:
                        f.peak_mem = max(f.peak_mem, peak)
                tracemalloc.reset_peak()
                frame.start_mem = frame.peak_mem = cur
            self._mem_depth += 1
        self._stack.append(frame)
        return frame

    def _exit(self, frame: _Frame, elapsed: float) -> None:
        self._stack.pop()
        self.seconds[frame.name] = self.seconds.get(frame.name, 0.0) + elapsed
        self.calls[frame.name] = self.calls.get(frame.name, 0) + 1
        if not self._stack:
            self.covered_s += elapsed
        if frame.measured:
            frame.peak_mem = max(frame.peak_mem,
                                 tracemalloc.get_traced_memory()[1])
            for f in self._stack:
                if f.measured:
                    f.peak_mem = max(f.peak_mem, frame.peak_mem)
            self._mem_depth -= 1
            if self._mem_depth == 0:
                tracemalloc.stop()
            self.peak_mb[frame.name] = max(
                self.peak_mb.get(frame.name, 0.0),
                (frame.peak_mem - frame.start_mem) / MB)

    def _wrap(self, name: str, fn, hook):
        tracer = self

        @functools.wraps(fn)
        def wrapper(*args, **kwargs):
            frame = tracer._enter(name)
            if frame is None:
                return fn(*args, **kwargs)
            t0 = perf_counter()
            try:
                result = fn(*args, **kwargs)
            finally:
                tracer._exit(frame, perf_counter() - t0)
            if hook is not None:
                hook(tracer, args, result)
            return result

        self._wrappers[id(wrapper)] = (wrapper, fn)
        return wrapper

    def _original_of(self, value):
        """The callable ``value`` wraps, or None if it is no wrapper."""
        entry = self._wrappers.get(id(value))
        return entry[1] if entry is not None and entry[0] is value else None

    # -- install / restore --------------------------------------------
    def _set(self, owner, attr: str, value) -> None:
        self._patched.append((owner, attr, getattr(owner, attr)))
        setattr(owner, attr, value)

    def __enter__(self) -> "Tracer":
        try:
            for name, module, cls, attr, hook in TARGETS:
                # A callable a later change removed is skipped (its
                # metrics read 0) and listed in ``missing``.
                try:
                    owner = importlib.import_module(module)
                    if cls is not None:
                        owner = getattr(owner, cls)
                    fn = owner.__dict__[attr]
                except (ImportError, AttributeError, KeyError):
                    self.missing.append(
                        ".".join(p for p in (module, cls, attr) if p))
                    continue
                wrapper = self._wrap(name, fn, hook)
                if cls is not None:
                    self._set(owner, attr, wrapper)
                    continue
                for other in list(sys.modules.values()):
                    if not getattr(other, "__name__", "").startswith("repro"):
                        continue
                    for key, value in list(vars(other).items()):
                        if value is fn:
                            self._set(other, key, wrapper)
        except BaseException:
            self.__exit__(None, None, None)
            raise
        return self

    def __exit__(self, *exc) -> None:
        if self._mem_depth:  # an exception unwound a measured call
            tracemalloc.stop()
            self._mem_depth = 0
        for owner, attr, original in reversed(self._patched):
            setattr(owner, attr, original)
        self._patched.clear()
        # A module imported while tracing may have bound a wrapper.
        for mod in list(sys.modules.values()):
            if getattr(mod, "__name__", "").startswith("repro"):
                for key, value in list(vars(mod).items()):
                    original = self._original_of(value)
                    if original is not None:
                        setattr(mod, key, original)

    def leftovers(self) -> list[str]:
        """Names still bound to one of this tracer's wrappers."""
        found = []
        for mod in list(sys.modules.values()):
            if not getattr(mod, "__name__", "").startswith("repro"):
                continue
            for key, value in vars(mod).items():
                if self._original_of(value) is not None:
                    found.append(f"{mod.__name__}.{key}")
                if isinstance(value, type):
                    found += [f"{mod.__name__}.{key}.{a}"
                              for a, v in vars(value).items()
                              if self._original_of(v) is not None]
        return found

    # -- metrics ------------------------------------------------------
    def metrics(self, wall_s: float) -> dict[str, float]:
        """Per-layer metrics of a traced run that took ``wall_s``."""
        s = self.seconds.get
        c = self.calls.get
        runs = c("flit.run", 0)
        offered = self.counts["faults.pairs_offered"]
        out = {
            "routing.make_scheme_s": s("routing.make_scheme", 0.0),
            "routing.compile_routes_s": s("routing.compile_routes", 0.0),
            "routing.compile_routes_calls": c("routing.compile_routes", 0),
            "routing.compile_scheme_s": s("routing.compile_scheme", 0.0),
            "routing.plan_mb": self.plan_mb,
            "routing.candidate_link_index_s":
                s("routing.candidate_link_index", 0.0),
            "flit.build_s": s("flit.build", 0.0),
            "flit.run_s": s("flit.run", 0.0),
            "flit.kernel_s": s("flit.kernel", 0.0),
            "flit.python_s": s("flit.run", 0.0) - s("flit.kernel", 0.0),
            "flit.events": self.counts["flit.events"],
            "flit.native_share": c("flit.kernel", 0) / runs if runs else 0.0,
            "flow.link_loads_s": s("flow.link_loads", 0.0),
            "flow.link_loads_calls": c("flow.link_loads", 0),
            "flow.batch_eval_s": s("flow.batch_eval", 0.0),
            "flow.batch_perms": self.counts["flow.batch_perms"],
            "traffic.permutation_matrix_s":
                s("traffic.permutation_matrix", 0.0),
            "faults.generate_trace_s": s("faults.generate_trace", 0.0),
            "faults.incremental_init_s": s("faults.incremental_init", 0.0),
            "faults.apply_event_s": s("faults.apply_event", 0.0),
            "faults.apply_event_calls": c("faults.apply_event", 0),
            "faults.pairs_recomputed": self.counts["faults.pairs_recomputed"],
            "faults.pairs_recomputed_frac":
                self.counts["faults.pairs_recomputed"] / offered
                if offered else 0.0,
            "runner.point_key_s": s("runner.point_key", 0.0),
            "runner.cache_get_s": s("runner.cache_get", 0.0),
            "runner.cache_put_s": s("runner.cache_put", 0.0),
            "runner.cache_hits": self.counts["runner.cache_hits"],
            "runner.cache_misses": self.counts["runner.cache_misses"],
            "experiments.unattributed_s": wall_s - self.covered_s,
        }
        if self.memory:
            out["routing.compile_routes_peak_mb"] = self.peak_mb.get(
                "routing.compile_routes", 0.0)
            for layer in LAYERS:
                out[f"{layer}.peak_mb"] = max(
                    [v for k, v in self.peak_mb.items()
                     if k.startswith(layer + ".")], default=0.0)
        return out
