"""Flit cache keys are derived from what the simulator consumes.

A point's key covers the content of its route table and its dead
channels, so two simulators share cached results exactly when their
tables and masks are equal — whatever topology, fault placement or
``from_tables`` graph produced them.
"""

from __future__ import annotations

import itertools
import random

from hypothesis import given, settings
from hypothesis import strategies as st

from repro.faults import DegradedFabric, DegradedScheme
from repro.faults.spec import samplable_cables
from repro.flit.config import FlitConfig
from repro.flit.engine import FlitSimulator
from repro.routing.factory import make_scheme
from repro.runner.sweep import point_key
from repro.topology.variants import m_port_n_tree

CFG = FlitConfig(warmup_cycles=50, measure_cycles=200, drain_cycles=100)
TREE = m_port_n_tree(4, 3)


def _degraded_sim(cables) -> FlitSimulator:
    fabric = DegradedFabric(TREE, failed_cables=tuple(cables))
    assert fabric.is_connected  # disconnection has its own tests
    scheme = DegradedScheme(make_scheme(TREE, "disjoint:2"), fabric)
    return FlitSimulator(TREE, scheme, CFG)


def _subsets(cables):
    return itertools.chain.from_iterable(
        itertools.combinations(cables, r) for r in range(len(cables) + 1))


def _connected_candidates() -> list[int]:
    """The first four spread-out samplable cables such that failing any
    of their 16 subsets leaves the fabric connected."""
    spread = samplable_cables(TREE)[::3].tolist()
    return next(list(cables) for cables in itertools.combinations(spread, 4)
                if all(DegradedFabric(TREE, failed_cables=subset).is_connected
                       for subset in _subsets(cables)))


#: four cables whose 16 failure subsets all leave the fabric connected
FAULT_CANDIDATES = _connected_candidates()


class TestCollisions:
    def test_one_failed_cable_at_different_positions(self):
        first, second = samplable_cables(TREE)[:2].tolist()
        a, b = _degraded_sim([first]), _degraded_sim([second])
        assert repr(a.degraded) == repr(b.degraded)  # counts alone agree
        assert point_key("ds", a, 0.3, 0) != point_key("ds", b, 0.3, 0)

    def test_same_failure_same_key(self):
        cable = int(samplable_cables(TREE)[0])
        a, b = _degraded_sim([cable]), _degraded_sim([cable])
        assert point_key("ds", a, 0.3, 0) == point_key("ds", b, 0.3, 0)

    def test_from_tables_same_shape_different_tables(self):
        a = FlitSimulator.from_tables(2, 3, {1: [(0,)], 2: [(1, 2)]}, CFG)
        b = FlitSimulator.from_tables(2, 3, {1: [(0,)], 2: [(2, 1)]}, CFG)
        assert point_key("t", a, 0.3, 0) != point_key("t", b, 0.3, 0)

    def test_digest_is_memoized_per_table(self):
        sim = _degraded_sim([])
        point_key("ds", sim, 0.3, 0)
        digest = sim.routes._digest
        assert digest is not None
        point_key("ds", sim, 0.5, 1)
        assert sim.routes._digest is digest


# -- property: equal keys <=> equal tables and masks --------------------

def _random_walk(rnd: random.Random, n_channels: int) -> tuple[int, ...]:
    """A channel sequence grown one random hop at a time."""
    path = [rnd.randrange(n_channels)]
    while rnd.random() < 0.6:
        path.append(rnd.randrange(n_channels))
    return tuple(path)


def _random_routes(rnd: random.Random, n_hosts: int, n_channels: int):
    routes = {}
    for s in range(n_hosts):
        for d in range(n_hosts):
            if s != d:
                routes[s * n_hosts + d] = [
                    _random_walk(rnd, n_channels)
                    for _ in range(1 + int(rnd.random() * 2))]
    return routes


@settings(max_examples=40, deadline=None)
@given(seed_a=st.integers(0, 2**16), seed_b=st.integers(0, 2**16),
       same=st.booleans(), n_hosts=st.integers(2, 4),
       n_channels=st.integers(1, 4))
def test_from_tables_keys_equal_iff_tables_equal(seed_a, seed_b, same,
                                                 n_hosts, n_channels):
    routes_a = _random_routes(random.Random(seed_a), n_hosts, n_channels)
    routes_b = (dict(routes_a) if same else
                _random_routes(random.Random(seed_b), n_hosts, n_channels))
    a = FlitSimulator.from_tables(n_hosts, n_channels, routes_a, CFG)
    b = FlitSimulator.from_tables(n_hosts, n_channels, routes_b, CFG)
    keys_equal = point_key("t", a, 0.3, 0) == point_key("t", b, 0.3, 0)
    assert keys_equal == (routes_a == routes_b)


@settings(max_examples=25, deadline=None)
@given(picks=st.lists(st.tuples(st.booleans(), st.booleans()),
                      min_size=4, max_size=4))
def test_fault_set_keys_equal_iff_tables_and_masks_equal(picks):
    cables = FAULT_CANDIDATES
    a = _degraded_sim([c for c, (in_a, _) in zip(cables, picks) if in_a])
    b = _degraded_sim([c for c, (_, in_b) in zip(cables, picks) if in_b])
    keys_equal = point_key("ds", a, 0.3, 0) == point_key("ds", b, 0.3, 0)
    same_inputs = (a.routes == b.routes
                   and (a.degraded.link_ok == b.degraded.link_ok).all())
    assert keys_equal == same_inputs
