"""Route tables as CSR int arrays: pair -> paths -> channel ids.

Every flit route table — built from a closed-form scheme
(:func:`repro.routing.vectorized.compile_routes`) or traced through a
discovered fabric (:func:`repro.fabric.evaluate.compile_flit_routes`) —
is one immutable :class:`RouteTable` of three arrays:

* ``pair_off`` (``n**2 + 1``): the paths of pair key ``src * n + dst``
  are the path ids ``pair_off[key]:pair_off[key + 1]``, in the scheme's
  path order (self-pairs and unrouted pairs are empty rows);
* ``path_off`` (``n_paths + 1``): path ``p`` crosses the channels
  ``links[path_off[p]:path_off[p + 1]]``, in traversal order;
* ``links``: the channel ids.

A path is therefore a single int: the native flit kernel reads
``pair_off`` to pick a packet's path and then walks its channels
straight out of ``path_off``/``links``.  The table also reads as a
``Mapping`` from pair key to the pair's list of link-id tuples, so code
written against the earlier dict-of-tuples tables keeps working.
"""

from __future__ import annotations

import hashlib
import operator
from collections.abc import Mapping

import numpy as np

_INT32 = np.iinfo(np.int32)


def _frozen(values, dtype) -> np.ndarray:
    a = np.ascontiguousarray(values, dtype=dtype)
    a.setflags(write=False)
    return a


def _offsets(counts: np.ndarray) -> np.ndarray:
    """CSR offsets (length ``len(counts) + 1``) of per-row ``counts``."""
    off = np.zeros(len(counts) + 1, dtype=np.int64)
    np.cumsum(counts, out=off[1:])
    return off


def _ranges(starts: np.ndarray, off: np.ndarray) -> np.ndarray:
    """Concatenated ``arange(starts[i], starts[i] + len_i)`` for the row
    lengths encoded by the offsets ``off`` of the output."""
    return (np.repeat(starts - off[:-1], np.diff(off))
            + np.arange(off[-1], dtype=np.int64))


class RouteTable(Mapping):
    """Immutable CSR route table over the ordered pairs of ``n`` hosts.

    >>> t = RouteTable.from_mapping(2, {1: [(0, 2), (1,)], 2: [(3,)]})
    >>> t[1], t.n_paths, list(t)
    ([(0, 2), (1,)], 3, [1, 2])
    >>> t.pair_off.tolist(), t.path_off.tolist(), t.links.tolist()
    ([0, 0, 2, 3, 3], [0, 2, 3, 4], [0, 2, 1, 3])
    """

    __slots__ = ("n", "pair_off", "path_off", "links", "_digest")

    def __init__(self, n: int, pair_off, path_off, links):
        self.n = int(n)
        self.pair_off = _frozen(pair_off, np.int64)
        self.path_off = _frozen(path_off, np.int64)
        links = np.asarray(links)
        fits = links.size == 0 or (
            links.min() >= _INT32.min and links.max() <= _INT32.max)
        self.links = _frozen(links, np.int32 if fits else np.int64)
        if (len(self.pair_off) != self.n * self.n + 1
                or self.pair_off[-1] != len(self.path_off) - 1
                or self.path_off[-1] != len(self.links)):
            raise ValueError("inconsistent route-table offsets")
        self._digest = None

    # -- builders -----------------------------------------------------
    @classmethod
    def from_levels(cls, n: int, parts) -> "RouteTable":
        """Assemble a table from dense per-level blocks.

        ``parts`` yields ``(keys, links, keep)``: ``keys`` are ``m`` pair
        keys, ``links`` the ``(m, P, L)`` link ids of their ``P`` paths
        of ``L`` hops, and ``keep`` an ``(m, P)`` boolean mask of the
        paths to retain (fault-aware schemes pad short rows with
        weight-0 duplicates) or ``None`` for all of them.  Pure array
        work: a boolean mask and two scatters per block.
        """
        counts = np.zeros(n * n, dtype=np.int64)
        blocks = []
        for keys, links, keep in parts:
            keys = np.asarray(keys, dtype=np.int64)
            m, p, hops = links.shape
            if keep is None:
                cnt = np.full(m, p, dtype=np.int64)
                rows = links.reshape(m * p, hops)
            else:
                cnt = keep.sum(axis=1, dtype=np.int64)
                rows = links[keep]
            counts[keys] = cnt
            blocks.append((keys, cnt, rows))
        pair_off = _offsets(counts)
        path_len = np.zeros(int(pair_off[-1]), dtype=np.int64)
        pids = []
        for keys, cnt, rows in blocks:
            ids = _ranges(pair_off[keys], _offsets(cnt))
            path_len[ids] = rows.shape[1]
            pids.append(ids)
        path_off = _offsets(path_len)
        links = np.empty(int(path_off[-1]), dtype=np.int64)
        for ids, (_, _, rows) in zip(pids, blocks):
            target = path_off[ids][:, None] + np.arange(rows.shape[1])
            links[target] = rows
        return cls(n, pair_off, path_off, links)

    @classmethod
    def from_mapping(cls, n: int, routes: Mapping) -> "RouteTable":
        """Convert a ``{pair key: [link-id paths]}`` mapping (keys in
        ``[0, n**2)``; empty path lists become empty rows)."""
        keys = np.fromiter(routes.keys(), dtype=np.int64, count=len(routes))
        if keys.size and (keys.min() < 0 or keys.max() >= n * n):
            raise ValueError(f"pair keys must lie in [0, {n * n})")
        order = np.argsort(keys, kind="stable")
        rows = list(routes.values())
        paths = [path for i in order.tolist() for path in rows[i]]
        counts = np.zeros(n * n, dtype=np.int64)
        counts[keys] = np.fromiter(map(len, rows), dtype=np.int64,
                                   count=len(rows))
        path_off = _offsets(np.fromiter(map(len, paths), dtype=np.int64,
                                        count=len(paths)))
        links = np.fromiter((c for path in paths for c in path),
                            dtype=np.int64, count=int(path_off[-1]))
        return cls(n, _offsets(counts), path_off, links)

    # -- path-id access -----------------------------------------------
    @property
    def n_paths(self) -> int:
        return len(self.path_off) - 1

    @property
    def digest(self) -> str:
        """Content hash of the table (memoized: the table is immutable)."""
        if self._digest is None:
            h = hashlib.sha256(f"RouteTable:{self.n}:".encode())
            for a in (self.pair_off, self.path_off, self.links):
                h.update(a.dtype.str.encode())
                h.update(a.data)
            self._digest = h.hexdigest()
        return self._digest

    # -- Mapping view: pair key -> list of link-id tuples ---------------
    def __getitem__(self, key) -> list[tuple[int, ...]]:
        key = operator.index(key)
        if not 0 <= key < self.n * self.n:
            raise KeyError(key)
        a, b = self.pair_off[key:key + 2].tolist()
        if a == b:
            raise KeyError(key)
        off = self.path_off[a:b + 1].tolist()
        flat = self.links[off[0]:off[-1]].tolist()
        base = off[0]
        return [tuple(flat[s - base:e - base]) for s, e in zip(off, off[1:])]

    def __contains__(self, key) -> bool:
        try:
            key = operator.index(key)
        except TypeError:
            return False
        return (0 <= key < self.n * self.n
                and self.pair_off[key + 1] > self.pair_off[key])

    def __iter__(self):
        return iter(np.flatnonzero(np.diff(self.pair_off)).tolist())

    def __len__(self) -> int:
        return int(np.count_nonzero(np.diff(self.pair_off)))

    def __eq__(self, other) -> bool:
        if isinstance(other, RouteTable):
            return (self.n == other.n
                    and np.array_equal(self.pair_off, other.pair_off)
                    and np.array_equal(self.path_off, other.path_off)
                    and np.array_equal(self.links, other.links))
        return Mapping.__eq__(self, other)

    __hash__ = None

    def __getstate__(self):
        return (self.n, self.pair_off, self.path_off, self.links)

    def __setstate__(self, state):
        self.__init__(*state)

    def __repr__(self) -> str:
        return (f"RouteTable(n={self.n}, pairs={len(self)}, "
                f"paths={self.n_paths}, links={len(self.links)})")
