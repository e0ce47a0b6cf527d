"""On-demand compiled phase-B kernel for the batched flit engine.

:mod:`repro.flit.batched` splits a run into an injection plan (phase A,
where every random draw happens) and pure integer event processing
(phase B).  Phase B has no python left in its contract — flat arrays in,
flat arrays out — so when a C compiler is present this module compiles
``kernel.c`` (shipped alongside, mirrored line for line from the python
kernels) into a shared library once per machine, caches it under
``~/.cache/repro-flit`` keyed by source hash, and loads it with ctypes.

Everything degrades gracefully: no compiler, a failed build, or
``REPRO_FLIT_NATIVE=0`` simply means the pure-python kernels run
(correct, ~3.5x the reference; the native path is ~20x).  The parity
suite exercises both paths, so the fallback is not a lesser citizen.
No third-party packages are involved — just ``ctypes`` and a cc.
"""

from __future__ import annotations

import ctypes
import hashlib
import os
import shutil
import subprocess
import tempfile

import numpy as np

_SOURCE = os.path.join(os.path.dirname(__file__), "kernel.c")

# params[] layout — must match the P_* enum in kernel.c.
_P_COUNT = 15
# out[] layout — must match the O_* enum in kernel.c.
_O_COUNT = 7

_lib = None
_load_attempted = False


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
            return None
        fd, tmp = tempfile.mkstemp(suffix=".so", dir=os.path.dirname(so_path))
        os.close(fd)
        try:
            subprocess.run(
                [cc, "-O2", "-shared", "-fPIC", "-o", tmp, _SOURCE],
                check=True, capture_output=True, timeout=120)
            os.replace(tmp, so_path)  # atomic: concurrent builds collapse
        finally:
            if os.path.exists(tmp):
                os.unlink(tmp)
    lib = ctypes.CDLL(so_path)
    i64p = ctypes.POINTER(ctypes.c_int64)
    u8p = ctypes.POINTER(ctypes.c_uint8)
    lib.run_oq.restype = ctypes.c_long
    lib.run_oq.argtypes = [i64p] * 4 + [i64p, u8p] + [i64p] * 5
    return lib


def available() -> bool:
    """Whether the compiled kernel can be used (cached after first call)."""
    global _lib, _load_attempted
    if not _load_attempted:
        _load_attempted = True
        if os.environ.get("REPRO_FLIT_NATIVE", "1").lower() not in (
                "0", "false", "off"):
            try:
                _lib = _compile_and_load()
            except Exception:
                _lib = None  # any build/load failure -> python kernels
    return _lib is not None


def _i64(values) -> np.ndarray:
    a = np.ascontiguousarray(values, dtype=np.int64)
    return a if a.size else np.zeros(1, dtype=np.int64)


def _ptr(a: np.ndarray):
    return a.ctypes.data_as(
        ctypes.POINTER(ctypes.c_uint8) if a.dtype == np.uint8
        else ctypes.POINTER(ctypes.c_int64))


def run_oq(plan, routes, cfg, n_channels: int, initial_credits: list,
           slack: int) -> tuple:
    """Run phase B natively; returns the python kernels' stats tuple.

    The per-packet link arrays the kernel walks (``pkt_off`` and the
    flat ``pkt_path``) are one gather from the plan's path ids into the
    :class:`~repro.routing.table.RouteTable`.
    """
    (ev_cycle, ev_msg, ev_child, n_initial, _msg_src, msg_created,
     msg_measured, pkt_pid, overflow) = plan
    n_msgs = len(msg_created)
    pkt_off, pkt_path = routes.gather(pkt_pid)

    params = np.zeros(_P_COUNT, dtype=np.int64)
    params[0] = len(ev_cycle)
    params[1] = n_initial
    params[2] = n_msgs
    params[3] = cfg.packets_per_message
    params[4] = n_channels
    params[5] = cfg.virtual_channels
    params[6] = cfg.packet_flits
    params[7] = cfg.wire_delay + cfg.packet_flits
    params[8] = cfg.wire_delay + cfg.routing_delay
    params[9] = cfg.warmup_cycles
    params[10] = cfg.end_of_window
    params[11] = cfg.horizon
    params[12] = slack
    params[13] = n_channels.bit_length()
    params[14] = 1 if overflow else 0

    credits = _i64(initial_credits)
    delays = np.zeros(max(n_msgs, 1), dtype=np.int64)
    out = np.zeros(_O_COUNT, dtype=np.int64)
    arrays = (params, _i64(ev_cycle), _i64(ev_msg), _i64(ev_child),
              _i64(msg_created),
              np.ascontiguousarray(
                  np.frombuffer(bytes(msg_measured), dtype=np.uint8)
                  if n_msgs else np.zeros(1, dtype=np.uint8)),
              _i64(pkt_off), _i64(pkt_path),
              credits, delays, out)
    rc = _lib.run_oq(*map(_ptr, arrays))
    if rc != 0:
        raise MemoryError("native flit kernel allocation failed")

    messages_measured = sum(msg_measured)
    return (delays[:out[6]].tolist(), messages_measured,
            int(out[0]), messages_measured * cfg.message_flits,
            int(out[1]), int(out[2]), int(out[3]),
            cfg.horizon if out[5] else int(out[4]))
