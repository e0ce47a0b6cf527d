"""Fault-aware routing: any scheme, degraded gracefully.

:class:`DegradedScheme` wraps a pristine
:class:`~repro.routing.base.RoutingScheme` and a
:class:`~repro.faults.degraded.DegradedFabric` and re-routes around the
damage using the wrapped scheme's *own* preference order
(:meth:`~repro.routing.base.RoutingScheme.path_order_matrix`): each pair
keeps the first ``min(K, alive)`` surviving paths in that order, with
its traffic fractions renormalized to ``1/alive`` when fewer than ``K``
survive.  A pair whose every shortest path died raises
:class:`~repro.errors.DisconnectedPairError`.

The batch contract stays fixed-width so the vectorized evaluators and
the route compiler keep working unchanged: rows short of ``K`` live
paths are padded with a duplicate of their first live path at weight 0
(:meth:`~repro.routing.base.RoutingScheme.path_weight_matrix` carries
the per-pair weights).  Padding is invisible to load accumulation
(weight 0) and is filtered out wherever concrete path *lists* are
materialized (route sets, flit route tables, LFTs).
"""

from __future__ import annotations

import numpy as np

from repro.errors import DisconnectedPairError, FaultError
from repro.faults.degraded import DegradedFabric
from repro.routing.base import RouteSet, RoutingScheme

_EMPTY = np.empty(0, dtype=np.int64)


def select_surviving(
    s: np.ndarray, d: np.ndarray, order: np.ndarray, alive: np.ndarray,
    p: int,
) -> tuple[np.ndarray, np.ndarray]:
    """Padded ``(idx, weights)`` selection from a preference order.

    Each row keeps the first ``min(p, alive)`` surviving entries of its
    ``order`` row, weights renormalized to ``1/alive``; rows short of
    ``p`` are padded with their first surviving path at weight 0.  This
    is THE re-route rule — :class:`DegradedScheme` (from-scratch) and
    :class:`~repro.faults.churn.IncrementalDegradedScheme` (per-event
    deltas) both call it, which is what makes their results
    bit-identical by construction for identical inputs.  Purely
    row-local, so recomputing a subset of rows gives the same floats as
    recomputing all of them.

    Raises :class:`~repro.errors.DisconnectedPairError` (before any
    output is materialized) if some row has no surviving path.
    """
    counts = alive.sum(axis=1)
    if not counts.all():
        bad = int(np.flatnonzero(counts == 0)[0])
        raise DisconnectedPairError(int(s[bad]), int(d[bad]))
    n = len(order)
    take = np.minimum(counts, p)
    rank = np.cumsum(alive, axis=1)
    sel = alive & (rank <= p)
    rows, cols = np.nonzero(sel)
    pos = rank[rows, cols] - 1
    first = order[np.arange(n), np.argmax(alive, axis=1)]
    idx = np.repeat(first[:, None], p, axis=1)
    idx[rows, pos] = order[rows, cols]
    weights = np.zeros((n, p))
    weights[rows, pos] = 1.0 / take[rows]
    return idx, weights


class DegradedScheme(RoutingScheme):
    """A routing scheme filtered through a degraded fabric.

    On a pristine fabric this is a transparent proxy (bit-identical
    routes and loads); the paper's pristine results are the
    ``rate == 0`` end of every fault sweep.
    """

    def __init__(self, base: RoutingScheme, degraded: DegradedFabric):
        if not hasattr(base, "path_order_matrix"):
            raise FaultError(
                f"{type(base).__name__} exposes no path preference order; "
                "wrap a routing scheme"
            )
        if isinstance(base, DegradedScheme):
            raise FaultError("refusing to stack degraded wrappers; rebuild "
                             "one wrapper from the combined fault set")
        if base.xgft != degraded.xgft:
            raise FaultError(
                "scheme and degraded fabric were built for different topologies"
            )
        super().__init__(base.xgft)
        self.base = base
        self.degraded = degraded
        self.name = base.name
        # One-entry memo: evaluators ask for path_index_matrix and
        # path_weight_matrix back to back with identical batches.
        self._memo_key: tuple | None = None
        self._memo: tuple[np.ndarray, np.ndarray] | None = None

    def __repr__(self) -> str:
        return f"DegradedScheme({self.base!r}, {self.degraded!r})"

    @property
    def label(self) -> str:
        return f"{self.base.label}@{self.degraded.tag}"

    def paths_per_pair(self, k: int) -> int:
        return self.base.paths_per_pair(k)

    def fractions(self, k: int) -> np.ndarray:
        """The *nominal* (pristine) fractions; per-pair truth comes from
        :meth:`path_weight_matrix`."""
        return self.base.fractions(k)

    # ------------------------------------------------------------------
    def _select(self, s: np.ndarray, d: np.ndarray, k: int):
        """Padded ``(idx, weights)`` matrices for one level-``k`` batch."""
        s = np.asarray(s, dtype=np.int64)
        d = np.asarray(d, dtype=np.int64)
        # The fabric version keys the memo so an in-place fail/repair
        # event on the shared fabric can never serve a stale selection.
        key = (k, self.degraded.version, s.tobytes(), d.tobytes())
        if key == self._memo_key:
            return self._memo
        order = self.base.path_order_matrix(s, d, k)
        alive = self.degraded.path_alive_matrix(s, d, order, k)
        idx, weights = select_surviving(
            s, d, order, alive, self.base.paths_per_pair(k))
        self._memo_key, self._memo = key, (idx, weights)
        return idx, weights

    # -- RoutingScheme surface -----------------------------------------
    def path_index_matrix(self, s: np.ndarray, d: np.ndarray, k: int) -> np.ndarray:
        if self.degraded.is_pristine:
            return self.base.path_index_matrix(s, d, k)
        return self._select(s, d, k)[0]

    def path_weight_matrix(self, s: np.ndarray, d: np.ndarray, k: int):
        if self.degraded.is_pristine:
            return None
        return self._select(s, d, k)[1]

    def path_order_matrix(self, s: np.ndarray, d: np.ndarray, k: int) -> np.ndarray:
        return self.base.path_order_matrix(s, d, k)

    def route(self, s: int, d: int) -> RouteSet:
        """One pair's surviving routes (padding filtered out)."""
        if self.degraded.is_pristine:
            return self.base.route(s, d)
        k = self.xgft.nca_level(s, d)
        if k == 0:
            return RouteSet(s, d, 0, (), ())
        idx, weights = self._select(np.array([s]), np.array([d]), k)
        live = weights[0] > 0.0
        return RouteSet(
            s, d, int(k),
            tuple(int(t) for t in idx[0][live]),
            tuple(float(f) for f in weights[0][live]),
        )
