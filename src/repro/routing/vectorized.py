"""Batch path-to-link computation.

Converts matrices of path indices into matrices of directed link ids in a
few NumPy expressions per tree level, mirroring the closed forms used by
:func:`repro.routing.path.build_path` (which remains the readable scalar
reference; tests assert both agree).  Used by the flit simulator's route
table compiler and by the InfiniBand table builder.
"""

from __future__ import annotations

import numpy as np

from repro.routing.base import RoutingScheme
from repro.routing.enumeration import path_codec
from repro.routing.table import RouteTable
from repro.topology.xgft import XGFT


def path_link_matrix(
    xgft: XGFT, s: np.ndarray, d: np.ndarray, idx: np.ndarray, k: int
) -> np.ndarray:
    """Link ids of every path in ``idx``.

    Parameters
    ----------
    s, d:
        1-D arrays (length n) of processing-node ids with NCA level ``k``.
    idx:
        ``(n, P)`` path-index matrix.

    Returns
    -------
    ``(n, P, 2k)`` int64 array: for each pair and path, the ``k`` up-link
    ids followed by the ``k`` down-link ids, in traversal order.
    """
    s = np.asarray(s, dtype=np.int64)
    d = np.asarray(d, dtype=np.int64)
    idx = np.asarray(idx, dtype=np.int64)
    n, p = idx.shape
    codec = path_codec(xgft, k)
    out = np.empty((n, p, 2 * k), dtype=np.int64)
    low = np.zeros_like(idx)
    for l in range(k):
        port = (idx // codec.strides[l]) % xgft.w[l]
        up_node = low + xgft.W(l) * (s // xgft.M(l))[:, None]
        out[:, :, l] = xgft.up_link_id(l, up_node, port)
        low = low + port * xgft.W(l)
        down_parent = low + xgft.W(l + 1) * (d // xgft.M(l + 1))[:, None]
        child_digit = ((d // xgft.M(l)) % xgft.m[l])[:, None]
        # Down-links are traversed top-down: level l is position 2k-1-l.
        out[:, :, 2 * k - 1 - l] = xgft.down_link_id(
            l, down_parent, np.broadcast_to(child_digit, down_parent.shape)
        )
    return out


def compile_routes(
    xgft: XGFT, scheme: RoutingScheme, pairs: np.ndarray | None = None
) -> RouteTable:
    """Build the flit engine's :class:`~repro.routing.table.RouteTable`.

    Parameters
    ----------
    pairs:
        Optional ``(n, 2)`` array of (src, dst) pairs; defaults to every
        ordered pair with ``src != dst``.

    Returns
    -------
    The CSR table over pair keys ``src * n_procs + dst``: each pair's
    paths in the scheme's path order (fractions are
    ``scheme.fractions(k)``).  Per NCA level this is one
    ``path_index_matrix``/``path_link_matrix`` evaluation plus a
    scatter — no Python loop per pair or per path.
    """
    n = xgft.n_procs
    if pairs is None:
        grid_s, grid_d = np.divmod(np.arange(n * n, dtype=np.int64), n)
        keep = grid_s != grid_d
        s_all, d_all = grid_s[keep], grid_d[keep]
    else:
        pairs = np.asarray(pairs, dtype=np.int64)
        s_all, d_all = pairs[:, 0], pairs[:, 1]
        if np.any(s_all == d_all):
            raise ValueError("self-pairs have no network route")

    parts = []
    k_arr = xgft.nca_level(s_all, d_all)
    for k in range(1, xgft.h + 1):
        mask = k_arr == k
        if not mask.any():
            continue
        s, d = s_all[mask], d_all[mask]
        idx = scheme.path_index_matrix(s, d, k)
        pair_w = scheme.path_weight_matrix(s, d, k)
        # Fault-aware schemes pad short rows with weight-0 duplicates;
        # concrete path lists must not contain them.
        keep = None if pair_w is None else np.asarray(pair_w) > 0.0
        parts.append((s * n + d, path_link_matrix(xgft, s, d, idx, k), keep))
    return RouteTable.from_levels(n, parts)
