"""Link -> pair incidence for incremental re-routing.

:func:`candidate_link_index` transposes every pair's candidate shortest
paths into a :class:`LinkPairIndex`: for each directed link, the pairs
whose paths may cross it.  When a link fails or is repaired, only those
pairs can change their selection (:mod:`repro.faults.churn`).
"""

from __future__ import annotations

from dataclasses import dataclass

import numpy as np

from repro.routing.vectorized import path_link_matrix
from repro.topology.xgft import XGFT


@dataclass(frozen=True)
class LinkPairIndex:
    """Transposed incidence: directed link id -> ordered-pair keys.

    For every directed link, the sorted unique keys ``s * n_procs + d``
    of the pairs whose indexed paths traverse it.  This is the delta
    structure incremental re-routing reads — when a link flips
    dead/alive, only the pairs in its row can change their selection.
    """

    n_links: int
    indptr: np.ndarray     # (n_links + 1,) int64
    pair_keys: np.ndarray  # (nnz,) int64, sorted within each link's slice

    @property
    def nnz(self) -> int:
        return int(self.pair_keys.size)

    def pairs_of(self, link_id: int) -> np.ndarray:
        """Pair keys incident on one directed link (sorted)."""
        return self.pair_keys[self.indptr[link_id]:self.indptr[link_id + 1]]

    def pairs(self, link_ids) -> np.ndarray:
        """Sorted unique pair keys incident on *any* of ``link_ids``."""
        link_ids = np.atleast_1d(np.asarray(link_ids, dtype=np.int64))
        if link_ids.size == 0:
            return np.empty(0, dtype=np.int64)
        chunks = [self.pairs_of(int(l)) for l in link_ids]
        return np.unique(np.concatenate(chunks))


def _transpose_incidence(
    n_links: int, n_procs: int, entry_links: np.ndarray,
    entry_keys: np.ndarray,
) -> LinkPairIndex:
    """Build a :class:`LinkPairIndex` from flat (link, pair-key) entries.

    Duplicate (link, pair) incidences — several paths of one pair
    sharing a link — collapse to a single entry.
    """
    span = n_procs * n_procs
    combo = np.unique(entry_links.astype(np.int64) * span
                      + entry_keys.astype(np.int64))
    links, keys = np.divmod(combo, span)
    indptr = np.zeros(n_links + 1, dtype=np.int64)
    np.cumsum(np.bincount(links, minlength=n_links), out=indptr[1:])
    return LinkPairIndex(n_links, indptr, keys)


#: per-topology memo for :func:`candidate_link_index` (a handful of
#: topologies per process; the index itself is O(total candidate links))
_CANDIDATE_INDEX_CACHE: dict[XGFT, LinkPairIndex] = {}


def candidate_link_index(xgft: XGFT) -> LinkPairIndex:
    """Link -> pairs over every *candidate* path of every pair.

    Scheme-independent: a pair with NCA level ``k`` has ``W(k)``
    candidate shortest paths (ALLPATHS), and any scheme's
    ``path_order_matrix`` is a permutation of them — so this index is a
    sound over-approximation of "pairs whose selection can change when
    this link flips", for both failures (a selected path dies) and
    repairs (a preferred path resurrects).  Memoized per topology.
    """
    cached = _CANDIDATE_INDEX_CACHE.get(xgft)
    if cached is not None:
        return cached
    n = xgft.n_procs
    keys_all = np.arange(n * n, dtype=np.int64)
    s_all, d_all = np.divmod(keys_all, n)
    k_arr = xgft.nca_level(s_all, d_all)
    entry_links: list[np.ndarray] = []
    entry_keys: list[np.ndarray] = []
    for k in range(1, xgft.h + 1):
        mask = k_arr == k
        if not mask.any():
            continue
        s, d, keys = s_all[mask], d_all[mask], keys_all[mask]
        x = xgft.W(k)
        idx = np.broadcast_to(np.arange(x, dtype=np.int64), (len(s), x))
        links = path_link_matrix(xgft, s, d, idx, k)
        entry_links.append(links.reshape(-1))
        entry_keys.append(np.repeat(keys, x * 2 * k))
    if entry_links:
        index = _transpose_incidence(
            xgft.n_links, n, np.concatenate(entry_links),
            np.concatenate(entry_keys))
    else:
        index = LinkPairIndex(xgft.n_links,
                              np.zeros(xgft.n_links + 1, dtype=np.int64),
                              np.empty(0, dtype=np.int64))
    _CANDIDATE_INDEX_CACHE[xgft] = index
    return index
