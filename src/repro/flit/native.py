"""On-demand compiled phase-B kernel of the batched flit engine.

:mod:`repro.flit.batched` splits a run into an injection plan (phase A,
where every random draw happens) and pure integer event processing
(phase B).  Phase B has no Python left in its contract — flat arrays in,
flat arrays out — so this module compiles ``kernel.c`` (shipped
alongside) into a shared library once per machine, caches it under
``~/.cache/repro-flit`` keyed by source hash, and loads it with ctypes.
The one kernel covers both switch models, any VC count, and the
per-interval telemetry, so enabling a recorder never changes which
code runs.

Without a working C compiler the batched engine runs the reference
engine instead (same bits, ~20x slower).  That fallback is not silent:
:func:`unavailable_reason` says why the kernel could not be loaded, and
the first failed load logs it as a warning.  No third-party packages
are involved — just ``ctypes`` and a cc.
"""

from __future__ import annotations

import ctypes
import hashlib
import logging
import os
import shutil
import subprocess
import tempfile

import numpy as np

_SOURCE = os.path.join(os.path.dirname(__file__), "kernel.c")

# params[] layout — must match the P_* enum in kernel.c.
_P_COUNT = 19
# out[] layout — must match the O_* enum in kernel.c.
_O_COUNT = 8
# Telemetry row: t, injected, delivered, credit_stalls, occupancy.
_ROW_WIDTH = 5
#: Characters of compiler stderr kept in :func:`unavailable_reason`.
_STDERR_TAIL = 500

_lib = None
_load_attempted = False
_reason: str | None = None


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
            build = subprocess.run(
                [cc, "-O2", "-shared", "-fPIC", "-o", tmp, _SOURCE],
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
    i64p = ctypes.POINTER(ctypes.c_int64)
    u8p = ctypes.POINTER(ctypes.c_uint8)
    lib.run_kernel.restype = ctypes.c_long
    lib.run_kernel.argtypes = [i64p] * 6 + [u8p] + [i64p] * 6
    return lib


def available() -> bool:
    """Whether the compiled kernel can be used (cached after first call).

    A failed build or load is remembered with its reason
    (:func:`unavailable_reason`) and logged once per process.
    """
    global _lib, _load_attempted, _reason
    if not _load_attempted:
        _load_attempted = True
        try:
            _lib = _compile_and_load()
        except (OSError, RuntimeError, subprocess.SubprocessError) as exc:
            _lib = None
            _reason = str(exc) or type(exc).__name__
            logging.getLogger(__name__).warning(
                "native flit kernel unavailable, the batched engine runs "
                "the reference engine: %s", _reason)
    return _lib is not None


def unavailable_reason() -> str | None:
    """Why :func:`available` is false (``None`` while it is true or
    before the first load attempt)."""
    return _reason


def _i64(values) -> np.ndarray:
    a = np.ascontiguousarray(values, dtype=np.int64)
    return a if a.size else np.zeros(1, dtype=np.int64)


def _ptr(a: np.ndarray):
    return a.ctypes.data_as(
        ctypes.POINTER(ctypes.c_uint8) if a.dtype == np.uint8
        else ctypes.POINTER(ctypes.c_int64))


def run_oq(plan, routes, cfg, n_procs: int, n_channels: int,
           initial_credits: list, record: bool) -> tuple:
    """Run phase B natively, for either switch model.

    Returns ``(stats, intervals)``: ``stats`` is the tuple
    :meth:`~repro.flit.batched.BatchedFlitSimulator._finish` takes, and
    ``intervals`` (empty unless ``record``) holds one ``[t, injected,
    delivered, credit_stalls, occupancy]`` row per flushed observation
    interval, in the reference's order.  The per-packet link arrays the
    kernel walks (``pkt_off`` and the flat ``pkt_path``) are one gather
    from the plan's path ids into the
    :class:`~repro.routing.table.RouteTable`.  (The name predates
    input-FIFO support; ``e2ebench/tracing.py`` wraps it by name.)
    """
    (ev_cycle, ev_msg, ev_child, n_initial, msg_src, msg_created,
     msg_measured, pkt_pid, overflow) = plan
    n_msgs = len(msg_created)
    pkt_off, pkt_path = routes.gather(pkt_pid)
    obs_interval = (cfg.obs_interval or max(1, cfg.measure_cycles // 20)
                    if record else 0)

    params = np.array([
        len(ev_cycle),
        n_initial,
        n_msgs,
        cfg.packets_per_message,
        n_procs,
        n_channels,
        cfg.virtual_channels,
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
        1 if overflow else 0,
        1 if cfg.switch_model == "input-fifo" else 0,
        obs_interval,
    ], dtype=np.int64)
    assert len(params) == _P_COUNT

    credits = _i64(initial_credits)
    delays = np.zeros(max(n_msgs, 1), dtype=np.int64)
    rows = cfg.horizon // obs_interval + 1 if obs_interval else 1
    intervals = np.zeros((rows, _ROW_WIDTH), dtype=np.int64)
    out = np.zeros(_O_COUNT, dtype=np.int64)
    arrays = (params, _i64(ev_cycle), _i64(ev_msg), _i64(ev_child),
              _i64(msg_src), _i64(msg_created),
              np.ascontiguousarray(
                  np.frombuffer(bytes(msg_measured), dtype=np.uint8)
                  if n_msgs else np.zeros(1, dtype=np.uint8)),
              _i64(pkt_off), _i64(pkt_path),
              credits, delays, intervals, out)
    rc = _lib.run_kernel(*map(_ptr, arrays))
    if rc != 0:
        raise MemoryError("native flit kernel allocation failed")

    messages_measured = sum(msg_measured)
    stats = (delays[:out[6]].tolist(), messages_measured,
             int(out[0]), messages_measured * cfg.message_flits,
             int(out[1]), int(out[2]), int(out[3]),
             cfg.horizon if out[5] else int(out[4]))
    return stats, intervals[:out[7]].tolist()
