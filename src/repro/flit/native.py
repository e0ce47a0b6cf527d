"""On-demand compiled kernel of the flit simulator.

:class:`repro.flit.engine.FlitSimulator` runs a flit simulation as an
injection plan (phase A, where every random draw happens) followed by
pure integer event processing (phase B).  Both live in ``kernel.c``
(shipped alongside): this module compiles it into a shared library once
per machine, caches it under ``~/.cache/repro-flit`` keyed by source
hash, and loads it with ctypes.  One :func:`run_oq` call builds the plan
and simulates it; the one kernel covers the built-in workloads
(:func:`workload_rule`) and traces (:func:`trace_rule`), every
path-selection mode, both switch models, any VC count, and the
per-interval telemetry, so enabling a recorder never changes which code
runs.

The plan's draws come from a C copy of CPython's MT19937, seeded with
the state of ``random.Random(seed)``, and must match the running
interpreter's :mod:`random` bit for bit.  Before the kernel is first
used, :func:`available` replays a few draws (bounds around word and
rejection boundaries, ``random()`` and ``expovariate`` past a state
regeneration) through the kernel's ``rng_sample`` entry
(:func:`kernel_draws`) and compares them with ``random.Random``; on any
difference the kernel is not used.

Without a working C compiler, or when that check fails, the simulator
runs the reference event loop instead (same bits, ~20x slower).
That fallback is not silent: :func:`unavailable_reason` says why the
kernel could not be used, and the first failure logs it as a warning.
No third-party packages are involved — just ``ctypes`` and a cc.
"""

from __future__ import annotations

import ctypes
import hashlib
import logging
import os
import platform
import random
import shutil
import subprocess
import tempfile

import numpy as np

from repro.errors import SimulationError

_SOURCE = os.path.join(os.path.dirname(__file__), "kernel.c")

# params[] layout — must match the P_* enum in kernel.c.
_P_COUNT = 18
# out[] layout — must match the O_* enum in kernel.c.
_O_COUNT = 10
_O_BAD_KEY = 9
# run_kernel()'s no-route return code — RC_NO_ROUTE in kernel.c.
_RC_NO_ROUTE = 2
# Telemetry row: t, injected, delivered, credit_stalls, occupancy.
_ROW_WIDTH = 5
#: Destination-rule codes — the WL_* enum in kernel.c.
_RULES = {"uniform": 0, "table": 1, "hotspot": 2, "trace": 3}
#: Path-selection codes — the SEL_* enum in kernel.c.
_SELECTION = {"per-message": 0, "per-packet": 1, "round-robin": 2}
#: Draw kinds of :func:`kernel_draws` — the kinds rng_sample() takes.
_DRAWS = {"randrange": 0, "random": 1, "expovariate": 2}
#: Characters of compiler stderr kept in :func:`unavailable_reason`.
_STDERR_TAIL = 500

#: The RNG contract check: seeds, ``randrange`` bounds (word edges,
#: rejection-heavy bounds, a two-word bound), and enough draws to run
#: past the first 624-word regeneration of the state.
_CHECK_SEEDS = (0, 1, 2012)
_CHECK_BOUNDS = (1, 2, 3, 4, 5, 127, 128, 129, 2**31 - 1, 2**32)
_CHECK_OPS = ([("randrange", n) for n in _CHECK_BOUNDS] * 30
              + [("random", 0.0), ("expovariate", 0.03125)] * 300)

_lib = None
_load_attempted = False
_reason: str | None = None

_i64p = ctypes.POINTER(ctypes.c_int64)
_f64p = ctypes.POINTER(ctypes.c_double)


def _cache_dir() -> str:
    root = os.environ.get("REPRO_KERNEL_CACHE")
    if not root:
        root = os.path.join(
            os.environ.get("XDG_CACHE_HOME")
            or os.path.join(os.path.expanduser("~"), ".cache"),
            "repro-flit")
    os.makedirs(root, exist_ok=True)
    return root


def _compile_and_load():
    with open(_SOURCE, "rb") as fh:
        source = fh.read()
    digest = hashlib.sha256(source).hexdigest()[:16]
    so_path = os.path.join(_cache_dir(), f"kernel-{digest}.so")
    if not os.path.exists(so_path):
        cc = next(
            (c for c in ("cc", "gcc", "clang") if shutil.which(c)), None)
        if cc is None:
            raise RuntimeError("no C compiler (cc, gcc or clang) on PATH")
        fd, tmp = tempfile.mkstemp(suffix=".so", dir=os.path.dirname(so_path))
        os.close(fd)
        try:
            # No fast-math, no contraction: expovariate must round as
            # CPython's float arithmetic does.
            build = subprocess.run(
                [cc, "-O2", "-ffp-contract=off", "-shared", "-fPIC",
                 "-o", tmp, _SOURCE, "-lm"],
                capture_output=True, timeout=120)
            if build.returncode != 0:
                tail = build.stderr.decode(errors="replace").strip()
                raise RuntimeError(
                    f"{cc} failed to build kernel.c (exit "
                    f"{build.returncode}): {tail[-_STDERR_TAIL:]}")
            os.replace(tmp, so_path)  # atomic: concurrent builds collapse
        finally:
            if os.path.exists(tmp):
                os.unlink(tmp)
    lib = ctypes.CDLL(so_path)
    lib.run_kernel.restype = ctypes.c_long
    lib.run_kernel.argtypes = (
        [_i64p, _f64p] + [_i64p] * 4 + [ctypes.POINTER(ctypes.c_int32)]
        + [_i64p] * 3 + [ctypes.POINTER(_i64p)])
    lib.rng_sample.restype = None
    lib.rng_sample.argtypes = [_i64p, ctypes.c_int64, _i64p, _i64p, _f64p,
                               _f64p]
    lib.release.restype = None
    lib.release.argtypes = [_i64p]
    return lib


def _rng_state(seed) -> np.ndarray:
    """The 625 words (state and index) of ``random.Random(seed)``."""
    return np.array(random.Random(seed).getstate()[1], dtype=np.int64)


def kernel_draws(lib, seed, ops) -> list[float]:
    """The same draws as :func:`python_draws`, made by the generator of
    the kernel library ``lib`` seeded from
    ``random.Random(seed).getstate()``."""
    kinds = np.array([_DRAWS[kind] for kind, _ in ops], dtype=np.int64)
    args = np.array([arg if kind == "randrange" else 0 for kind, arg in ops],
                    dtype=np.int64)
    rates = np.array([arg if kind == "expovariate" else 1.0
                      for kind, arg in ops], dtype=np.float64)
    out = np.zeros(max(len(ops), 1), dtype=np.float64)
    lib.rng_sample(_ptr(_rng_state(seed)), len(ops), _ptr(kinds),
                   _ptr(args), _ptr(rates), _ptr(out))
    return out[:len(ops)].tolist()


def python_draws(seed, ops) -> list[float]:
    """The draws ``ops`` — ``(kind, arg)`` pairs, kind ``"randrange"``
    (arg: the bound), ``"random"`` or ``"expovariate"`` (arg: the rate)
    — made in order by ``random.Random(seed)``."""
    rng = random.Random(seed)
    draw = {"randrange": rng.randrange, "random": lambda _: rng.random(),
            "expovariate": rng.expovariate}
    return [float(draw[kind](arg)) for kind, arg in ops]


def _check_rng(lib) -> None:
    for seed in _CHECK_SEEDS:
        if kernel_draws(lib, seed, _CHECK_OPS) != python_draws(
                seed, _CHECK_OPS):
            raise RuntimeError(
                f"the kernel's MT19937 draws differ from random.Random on "
                f"Python {platform.python_version()} (seed {seed})")


def available() -> bool:
    """Whether the compiled kernel can be used (cached after first call).

    The kernel must build, load, and draw exactly what ``random.Random``
    draws on this interpreter.  A failure is remembered with its reason
    (:func:`unavailable_reason`) and logged once per process.
    """
    global _lib, _load_attempted, _reason
    if not _load_attempted:
        _load_attempted = True
        try:
            lib = _compile_and_load()
            _check_rng(lib)
            _lib = lib
        except (OSError, RuntimeError, subprocess.SubprocessError) as exc:
            _lib = None
            _reason = str(exc) or type(exc).__name__
            logging.getLogger(__name__).warning(
                "native flit kernel unavailable, flit runs use the "
                "reference event loop: %s", _reason)
    return _lib is not None


def unavailable_reason() -> str | None:
    """Why :func:`available` is false (``None`` while it is true or
    before the first load attempt)."""
    return _reason


def _i64(values) -> np.ndarray:
    a = np.ascontiguousarray(values, dtype=np.int64)
    return a if a.size else np.zeros(1, dtype=np.int64)


def _ptr(a: np.ndarray):
    ctype = {np.dtype(np.int64): ctypes.c_int64,
             np.dtype(np.int32): ctypes.c_int32,
             np.dtype(np.float64): ctypes.c_double}[a.dtype]
    return a.ctypes.data_as(ctypes.POINTER(ctype))


def workload_rule(workload, n_procs: int, message_flits: int):
    """The kernel's plan input for a stochastic workload, or ``None``
    when it has no native form.  A subclass that overrides
    ``pick_destination`` below the class describing the rule draws
    differently, so it has none either."""
    cls = type(workload)
    owner = next(c for c in cls.__mro__ if "_native_rule" in vars(c))
    if cls.pick_destination is not owner.pick_destination:
        return None
    form = workload._native_rule(n_procs)
    if form is None:
        return None
    name, data, hot_fraction = form
    rate = 1.0 / workload.mean_interarrival(message_flits)
    return name, data, rate, float(hot_fraction)


def trace_rule(trace):
    """The kernel's plan input for a trace: cycle, src and dst rows, plus
    the stable cycle order (the reference heap's ``(cycle, push seq)``
    tie-break)."""
    n = len(trace)
    data = np.empty((4, n), dtype=np.int64)
    data[0] = np.fromiter((e.cycle for e in trace), dtype=np.int64, count=n)
    data[1] = np.fromiter((e.src for e in trace), dtype=np.int64, count=n)
    data[2] = np.fromiter((e.dst for e in trace), dtype=np.int64, count=n)
    if n and data[0].min() < 0:
        raise SimulationError("trace entries need cycles >= 0")
    data[3] = np.argsort(data[0], kind="stable")
    return "trace", data, 0.0, 0.0


def run_oq(rule, rng_state, routes, cfg, n_procs: int, n_channels: int,
           initial_credits: list, record: bool) -> tuple:
    """Build the injection plan and simulate it natively.

    ``rule`` is ``(name, data, rate, hot_fraction)``: a destination rule
    of :data:`_RULES` with its int64 data (a destination table, the hot
    hosts, or a trace's cycle/src/dst/stable-order rows), the arrival
    rate per host, and the hotspot fraction.  ``rng_state`` is
    ``random.Random(seed).getstate()[1]``; the paths come straight from
    ``routes`` (a :class:`~repro.routing.table.RouteTable`).

    Returns ``(stats, intervals)``: ``stats`` is the tuple
    :meth:`~repro.flit.engine.FlitSimulator._finish` takes, and
    ``intervals`` (empty unless ``record``) holds one ``[t, injected,
    delivered, credit_stalls, occupancy]`` row per flushed observation
    interval, in the reference's order.  A message between a pair with
    no route raises ``KeyError(pair key)``, as the reference does.
    (The name predates input-FIFO support; ``e2ebench/tracing.py``
    wraps it by name.)
    """
    name, data, rate, hot_fraction = rule
    data = np.asarray(data, dtype=np.int64)
    n_data = data.shape[-1]  # entries per data row
    data = _i64(data.ravel())
    obs_interval = (cfg.obs_interval or max(1, cfg.measure_cycles // 20)
                    if record else 0)
    params = np.array([
        n_procs,
        n_channels,
        cfg.virtual_channels,
        cfg.packets_per_message,
        cfg.packet_flits,
        cfg.wire_delay + cfg.packet_flits,
        cfg.wire_delay + cfg.routing_delay,
        cfg.message_flits,
        cfg.warmup_cycles,
        cfg.end_of_window,
        cfg.horizon,
        # slack: the farthest any event schedules ahead of its cycle
        cfg.wire_delay + cfg.packet_flits + cfg.routing_delay,
        n_channels.bit_length(),
        1 if cfg.switch_model == "input-fifo" else 0,
        obs_interval,
        _SELECTION[cfg.path_selection],
        _RULES[name],
        n_data,
    ], dtype=np.int64)
    assert len(params) == _P_COUNT
    fparams = np.array([rate, hot_fraction], dtype=np.float64)
    links = routes.links
    if links.dtype != np.int32:  # ids are < n_channels, so they fit
        links = links.astype(np.int32)
    if not links.size:
        links = np.zeros(1, dtype=np.int32)

    credits = _i64(initial_credits)
    rows = cfg.horizon // obs_interval + 1 if obs_interval else 1
    intervals = np.zeros((rows, _ROW_WIDTH), dtype=np.int64)
    out = np.zeros(_O_COUNT, dtype=np.int64)
    delays_ptr = _i64p()
    rc = _lib.run_kernel(
        _ptr(params), _ptr(fparams), _ptr(_i64(rng_state)), _ptr(data),
        _ptr(routes.pair_off), _ptr(routes.path_off), _ptr(links),
        _ptr(credits), _ptr(intervals), _ptr(out), ctypes.byref(delays_ptr))
    if rc == _RC_NO_ROUTE:
        raise KeyError(int(out[_O_BAD_KEY]))
    if rc != 0:
        raise MemoryError("native flit kernel allocation failed")
    try:
        delays = (np.ctypeslib.as_array(delays_ptr, shape=(int(out[6]),))
                  .tolist() if out[6] else [])
    finally:
        _lib.release(delays_ptr)

    messages_measured = int(out[8])
    stats = (delays, messages_measured,
             int(out[0]), messages_measured * cfg.message_flits,
             int(out[1]), int(out[2]), int(out[3]),
             cfg.horizon if out[5] else int(out[4]))
    return stats, intervals[:out[7]].tolist()
