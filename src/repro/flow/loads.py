"""Vectorized per-link load accumulation.

For every SD pair and every path the routing scheme assigns it, the pair's
traffic times the path's fraction is added to each directed link on the
path.  Everything is closed-form arithmetic on path indices (see
DESIGN.md Section 6), so the whole evaluation is a handful of NumPy
expressions per tree level — no per-pair Python loops.

Two entry points share that arithmetic: :func:`link_loads` evaluates one
traffic matrix, and :func:`permutation_mloads` evaluates a batch of
unit-traffic permutations (one adaptive sampling round) by stacking
several permutations into one pass, each offset into its own block of
link ids.
"""

from __future__ import annotations

import numpy as np

from repro.errors import TrafficError
from repro.obs.recorder import get_recorder
from repro.routing.base import RoutingScheme
from repro.routing.enumeration import path_codec
from repro.topology.xgft import XGFT
from repro.traffic.matrix import TrafficMatrix

#: link-id entries one stacked pass may build for its widest per-pair
#: link tensor (``n_procs * W(k) * 2k`` per permutation, which a degraded
#: scheme's alive check materializes); :func:`stack_rows` derives the
#: number of permutations per pass from it.  A pass holds two such
#: arrays at once (link ids and weights), about 1 MB at 2**16 entries;
#: 2**18 raised Figure 4(c)'s peak RSS by 18 %.
_STACK_BUDGET = 1 << 16


def _accumulate_group(
    xgft: XGFT,
    scheme: RoutingScheme,
    k: int,
    s: np.ndarray,
    d: np.ndarray,
    amount: np.ndarray,
    offset: np.ndarray | None,
    ids_out: list[np.ndarray],
    weights_out: list[np.ndarray],
) -> None:
    """Emit (link id, weight) arrays for pairs whose NCA level is ``k``.

    ``offset`` (one int per pair, or ``None``) is added to every link id
    of that pair, which places stacked permutations in disjoint bins.
    """
    idx = scheme.path_index_matrix(s, d, k)  # (n, P)
    # Fault-aware schemes carry per-pair fractions (renormalized around
    # failed paths, 0 on padding entries); pristine schemes share one
    # per-level fraction vector.
    frac_matrix = scheme.path_weight_matrix(s, d, k)
    if frac_matrix is None:
        frac_matrix = scheme.fractions(k)[None, :]
    weights = (amount[:, None] * frac_matrix).ravel()
    codec = path_codec(xgft, k)
    pair_offset = None if offset is None else offset[:, None]

    # Accumulated low digits sum_{j<l} p_j W(j), per (pair, path).
    low = np.zeros_like(idx)
    for l in range(k):
        port = (idx // codec.strides[l]) % xgft.w[l]
        up_node = low + xgft.W(l) * (s // xgft.M(l))[:, None]
        up_ids = xgft.up_link_id(l, up_node, port)
        low = low + port * xgft.W(l)
        down_parent = low + xgft.W(l + 1) * (d // xgft.M(l + 1))[:, None]
        child_digit = ((d // xgft.M(l)) % xgft.m[l])[:, None]
        down_ids = xgft.down_link_id(l, down_parent,
                                     np.broadcast_to(child_digit, down_parent.shape))
        if pair_offset is not None:
            up_ids += pair_offset
            down_ids += pair_offset
        ids_out.append(up_ids.ravel())
        weights_out.append(weights)
        ids_out.append(down_ids.ravel())
        weights_out.append(weights)


def _bincount_loads(
    xgft: XGFT,
    scheme: RoutingScheme,
    s: np.ndarray,
    d: np.ndarray,
    amount: np.ndarray,
    offset: np.ndarray | None,
    length: int,
) -> np.ndarray:
    """Load vector of length ``length`` for the network pairs ``s -> d``
    (no self-pairs), grouped by NCA level.

    Each bin receives its contributions in the order level, hop, up then
    down, pair, path; ``np.bincount`` adds them in that order, so a bin's
    float sum does not depend on which other pairs share the pass.
    """
    ids_out: list[np.ndarray] = []
    weights_out: list[np.ndarray] = []
    if len(s):
        k_arr = xgft.nca_level(s, d)
        for k in range(1, xgft.h + 1):
            mask = k_arr == k
            if not mask.any():
                continue
            _accumulate_group(
                xgft, scheme, k, s[mask], d[mask], amount[mask],
                None if offset is None else offset[mask],
                ids_out, weights_out,
            )
    if not ids_out:
        return np.zeros(length)
    ids = np.concatenate(ids_out)
    ids_out.clear()  # free the pieces before the weights are joined
    return np.bincount(ids, weights=np.concatenate(weights_out),
                       minlength=length)


def link_loads(xgft: XGFT, scheme: RoutingScheme, tm: TrafficMatrix) -> np.ndarray:
    """Directed-link load vector (length ``xgft.n_links``) produced by
    routing ``tm`` with ``scheme``.

    Self-pairs carry no network traffic and are ignored.  Pairs are
    grouped by NCA level so each group shares a path codec and a path
    count, keeping the computation fully vectorized.
    """
    if tm.n_procs != xgft.n_procs:
        raise ValueError(
            f"traffic matrix is over {tm.n_procs} nodes but topology has "
            f"{xgft.n_procs}"
        )
    s, d, amount = tm.network_pairs()
    return _bincount_loads(xgft, scheme, s, d, amount, None, xgft.n_links)


def stack_rows(xgft: XGFT) -> int:
    """Permutations :func:`permutation_mloads` evaluates per stacked pass
    on ``xgft`` (at least 1)."""
    widest = max(xgft.W(k) * 2 * k for k in range(1, xgft.h + 1))
    return max(1, _STACK_BUDGET // (xgft.n_procs * widest))


def _check_permutations(perms: np.ndarray, n: int) -> None:
    """Raise :class:`~repro.errors.TrafficError` unless every row of the
    2-D ``perms`` is a permutation of ``0..n-1``."""
    if perms.ndim != 2 or perms.shape[1] != n:
        raise TrafficError(
            f"expected rows of {n} node ids, got shape {perms.shape}")
    if len(perms) and not (np.sort(perms, axis=1) == np.arange(n)).all():
        raise TrafficError("input is not a permutation")


def permutation_mloads(xgft: XGFT, scheme: RoutingScheme,
                       perms) -> np.ndarray:
    """MLOAD of each unit-traffic permutation in ``perms``.

    ``perms`` is a ``(B, n_procs)`` int array (or one 1-D row); each row
    must be a permutation of ``0..n_procs-1``, and node ``i`` sends one
    unit to ``row[i]`` (fixed points carry no traffic).  Up to
    :func:`stack_rows` rows are evaluated in one pass: row ``r``'s link
    ids are offset by ``r * n_links``, one ``np.bincount`` covers the
    whole chunk, and each row's maximum is its MLOAD.  The result is
    bit-identical to ``max_link_load(link_loads(xgft, scheme,
    permutation_matrix(row)))`` row by row.

    >>> from repro.topology import m_port_n_tree
    >>> from repro.routing import make_scheme
    >>> xgft = m_port_n_tree(4, 2)
    >>> perms = np.stack([np.roll(np.arange(8), r) for r in (1, 2)])
    >>> permutation_mloads(xgft, make_scheme(xgft, "umulti"), perms)
    array([1., 1.])
    """
    perms = np.asarray(perms, dtype=np.int64)
    if perms.ndim == 1:
        perms = perms[None, :]
    n = xgft.n_procs
    _check_permutations(perms, n)
    n_links = xgft.n_links
    nodes = np.arange(n, dtype=np.int64)
    chunk = stack_rows(xgft)
    out = np.empty(len(perms))
    with get_recorder().timer("flow.permutation_mloads"):
        for start in range(0, len(perms), chunk):
            block = perms[start:start + chunk]
            # Row-major: each row's moving pairs in source order, the
            # order permutation_matrix stores them in.
            rows, s = np.nonzero(block != nodes)
            loads = _bincount_loads(
                xgft, scheme, s, block[rows, s], np.ones(len(s)),
                rows * n_links, len(block) * n_links)
            out[start:start + len(block)] = \
                loads.reshape(len(block), n_links).max(axis=1)
    return out
