"""Differential tests of the CSR route table against the scalar oracle.

Every producer of :class:`~repro.routing.table.RouteTable` — the
closed-form builder (:func:`repro.routing.vectorized.compile_routes`)
over pristine, degraded and churned schemes, and discovered fabrics
(:func:`repro.fabric.evaluate.compile_flit_routes`) — is decoded
straight from its three arrays and compared, pair by pair, with paths
materialized one at a time by :func:`repro.routing.path.build_path`.
"""

from __future__ import annotations

import pickle

import numpy as np
import pytest

from repro.fabric.evaluate import compile_flit_routes
from repro.fabric.graph import fabric_from_xgft
from repro.fabric.router import route_fabric
from repro.faults import DegradedScheme, FaultSpec
from repro.routing.factory import make_scheme
from repro.routing.path import build_path
from repro.routing.table import RouteTable
from repro.routing.vectorized import compile_routes
from repro.topology.variants import m_port_n_tree
from repro.topology.xgft import XGFT

TREES = {
    "2-level": m_port_n_tree(8, 2),                # XGFT(2; 4,8; 1,4)
    "3-level": XGFT(3, (3, 2, 4), (1, 2, 3)),      # distinct m_i / w_i
}
SPECS = ("d-mod-k", "shift-1:2", "random:3", "disjoint:2")


def decode(table: RouteTable) -> dict[int, list[tuple[int, ...]]]:
    """The table's non-empty rows, read directly off the CSR arrays."""
    pair_off = table.pair_off.tolist()
    path_off = table.path_off.tolist()
    links = table.links.tolist()
    return {
        key: [tuple(links[path_off[p]:path_off[p + 1]])
              for p in range(pair_off[key], pair_off[key + 1])]
        for key in range(table.n * table.n)
        if pair_off[key + 1] > pair_off[key]
    }


def oracle(xgft: XGFT, scheme) -> dict[int, list[tuple[int, ...]]]:
    """Every ordered pair's paths, one scalar ``build_path`` at a time
    (``RouteSet.indices`` excludes fault padding)."""
    n = xgft.n_procs
    return {
        s * n + d: [build_path(xgft, s, d, t).links
                    for t in scheme.route(s, d).indices]
        for s in range(n) for d in range(n) if s != d
    }


def assert_table(table, expected, n):
    assert isinstance(table, RouteTable)
    assert table.n == n
    assert not table.links.flags.writeable
    assert decode(table) == expected
    assert dict(table.items()) == expected  # the Mapping view agrees


@pytest.fixture(params=sorted(TREES))
def xgft(request):
    return TREES[request.param]


@pytest.fixture
def degraded(xgft):
    fabric = FaultSpec(link_rate=0.15, seed=2).sample(xgft)
    assert fabric.is_connected and not fabric.is_pristine
    return fabric


class TestCompileRoutes:
    @pytest.mark.parametrize("spec", SPECS)
    def test_matches_build_path(self, xgft, spec):
        scheme = make_scheme(xgft, spec, seed=3)
        assert_table(compile_routes(xgft, scheme), oracle(xgft, scheme),
                     xgft.n_procs)

    def test_degraded_scheme_drops_padding(self, xgft, degraded):
        scheme = DegradedScheme(make_scheme(xgft, "disjoint:2"), degraded)
        expected = oracle(xgft, scheme)
        table = compile_routes(xgft, scheme)
        assert_table(table, expected, xgft.n_procs)
        # Some pair lost a path, so its row is genuinely shorter.
        assert min(map(len, expected.values())) < max(
            map(len, expected.values()))
        dead = ~degraded.link_ok[table.links]
        assert not dead.any()

    def test_subset_of_pairs(self, xgft):
        scheme = make_scheme(xgft, "disjoint:2")
        n = xgft.n_procs
        pairs = np.array([[n - 1, 0], [0, 1], [1, n - 1]])
        expected = {s * n + d: paths for (s, d), paths in zip(
            pairs.tolist(),
            ([build_path(xgft, s, d, t).links
              for t in scheme.route(s, d).indices] for s, d in pairs.tolist()))}
        assert_table(compile_routes(xgft, scheme, pairs), expected, n)


def _churned(xgft, spec, n_events=5):
    """An incremental re-router after a short fail/repair trace."""
    from repro.faults.churn import (ChurnSpec, IncrementalDegradedScheme,
                                    generate_trace)

    scheme = IncrementalDegradedScheme(make_scheme(xgft, spec, seed=3))
    scheme.replay(generate_trace(xgft, ChurnSpec(n_events=n_events, seed=4)))
    return scheme


class TestCompiledSchemeTable:
    """Tables compiled from the incremental re-router after churn."""

    @pytest.mark.parametrize("spec", SPECS)
    def test_matches_build_path(self, xgft, spec):
        scheme = _churned(xgft, spec)
        assert_table(compile_routes(xgft, scheme), oracle(xgft, scheme),
                     xgft.n_procs)

    def test_masked_plan_drops_padding(self, xgft, degraded):
        from repro.faults.churn import IncrementalDegradedScheme

        base = make_scheme(xgft, "shift-1:2")
        scheme = IncrementalDegradedScheme(base, degraded)
        table = compile_routes(xgft, scheme)
        assert_table(table, oracle(xgft, scheme), xgft.n_procs)
        assert table == compile_routes(xgft, DegradedScheme(base, degraded))
        assert not (~degraded.link_ok[table.links]).any()


class TestFabricTable:
    def test_paths_are_closed_form_paths(self, xgft):
        """Each traced fabric path is one of the pair's closed-form
        shortest paths, expressed in the fabric's channel ids."""
        fabric = fabric_from_xgft(xgft)
        base = {0: 0}
        for level in range(1, xgft.h + 1):
            base[level] = base[level - 1] + (
                xgft.n_procs if level == 1 else xgft.level_size(level - 1))

        def channels(path):
            nodes = [base[level] + index for level, index in path.nodes]
            return tuple(fabric.channel_id[(a, b)]
                         for a, b in zip(nodes, nodes[1:]))

        n_offsets = 2
        table = compile_flit_routes(route_fabric(fabric, n_offsets=n_offsets))
        n = xgft.n_procs
        got = decode(table)
        assert sorted(got) == [s * n + d for s in range(n)
                               for d in range(n) if s != d]
        for key, paths in got.items():
            s, d = divmod(key, n)
            k = int(xgft.nca_level(s, d))
            candidates = {channels(build_path(xgft, s, d, t))
                          for t in range(xgft.W(k))}
            assert 1 <= len(paths) <= n_offsets
            assert len(set(paths)) == len(paths)
            assert set(paths) <= candidates


class TestRouteTable:
    def test_mapping_round_trip(self):
        routes = {5: [(1, 2, 3)], 1: [(0,), (4, 2)], 2: []}
        table = RouteTable.from_mapping(3, routes)
        assert list(table) == [1, 5]
        assert table == {1: [(0,), (4, 2)], 5: [(1, 2, 3)]}
        assert len(table) == 2 and table.n_paths == 3
        assert 2 not in table and 9 not in table and "x" not in table
        for key in (0, 2, 9, -1):
            with pytest.raises(KeyError):
                table[key]

    def test_pickle_preserves_content_and_digest(self):
        table = compile_routes(TREES["2-level"],
                               make_scheme(TREES["2-level"], "disjoint:2"))
        clone = pickle.loads(pickle.dumps(table))
        assert clone == table and clone.digest == table.digest
        assert not clone.pair_off.flags.writeable

    def test_digest_tracks_content(self):
        a = RouteTable.from_mapping(2, {1: [(0, 1)], 2: [(2,)]})
        b = RouteTable.from_mapping(2, {1: [(0, 1)], 2: [(3,)]})
        c = RouteTable.from_mapping(2, {2: [(2,)], 1: [(0, 1)]})
        assert a.digest != b.digest
        assert a.digest == c.digest and a == c

    def test_wide_channel_ids_keep_their_value(self):
        table = RouteTable.from_mapping(2, {1: [(2**40,)]})
        assert table.links.dtype == np.int64
        assert table[1] == [(2**40,)]

    def test_rejects_keys_outside_pair_space(self):
        with pytest.raises(ValueError):
            RouteTable.from_mapping(2, {4: [(0,)]})
        with pytest.raises(ValueError):
            RouteTable(2, [0, 0], [0], [])
