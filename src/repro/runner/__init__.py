"""Parallel execution layer: persistent pools, result caching, fan-out.

``repro.runner`` is the wall-clock infrastructure under the paper's
panel-scale experiments:

* :class:`~repro.runner.pool.PersistentPool` — a reusable process pool
  whose workers receive large immutable payloads (schemes, route
  tables) once per worker via spill-file contexts instead of once per
  task;
* :class:`~repro.runner.cache.ResultCache` — an on-disk JSONL cache of
  flit run results keyed by a content hash of every input plus the code
  version, making interrupted sweeps resumable;
* :func:`~repro.runner.sweep.run_sweeps` — deterministic fan-out of
  offered-load sweeps over (scheme x load x repeat) grid points,
  bit-identical to the serial path for a fixed seed.

``run_sweeps`` is exposed lazily so that importing the pool (which the
flow-sampling layer does at import time) does not drag the flit stack
in with it.
"""

from repro.runner.cache import DEFAULT_CACHE_DIR, ResultCache, cache_key
from repro.runner.pool import PersistentPool, load_context

__all__ = [
    "PersistentPool",
    "load_context",
    "ResultCache",
    "cache_key",
    "DEFAULT_CACHE_DIR",
    "run_sweeps",
    "point_seed",
    "point_key",
]


def __getattr__(name):
    if name in ("run_sweeps", "point_seed", "point_key"):
        from repro.runner import sweep

        return getattr(sweep, name)
    raise AttributeError(f"module {__name__!r} has no attribute {name!r}")
