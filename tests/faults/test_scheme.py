"""Unit tests for DegradedScheme: transparency, renormalization, errors."""

from __future__ import annotations

import pickle

import numpy as np
import pytest

from repro.errors import DisconnectedPairError, FaultError
from repro.faults import (DegradedFabric, DegradedScheme, FaultSpec,
                          IncrementalDegradedScheme)
from repro.routing.factory import make_scheme

SCHEME_SPECS = ("d-mod-k", "s-mod-k", "shift-1:2", "disjoint:2",
                "random:2", "umulti")


@pytest.fixture
def fabric(tree8x2):
    fabric = FaultSpec(link_rate=0.15, seed=11).sample(tree8x2)
    assert fabric.is_connected and not fabric.is_pristine
    return fabric


class TestConstruction:
    def test_refuses_stacking(self, tree8x2, fabric):
        ds = DegradedScheme(make_scheme(tree8x2, "d-mod-k"), fabric)
        with pytest.raises(FaultError, match="stack"):
            DegradedScheme(ds, fabric)

    def test_refuses_compiled_plans(self, tree8x2, fabric):
        # A read-only route source (path indices, no preference order)
        # cannot be re-routed around faults.
        class RoutesOnly:
            xgft = tree8x2
            path_index_matrix = make_scheme(tree8x2, "d-mod-k") \
                .path_index_matrix

        for wrapper in (DegradedScheme, IncrementalDegradedScheme):
            with pytest.raises(FaultError, match="preference order") as err:
                wrapper(RoutesOnly(), fabric)
            assert "compiled" not in str(err.value)

    def test_refuses_topology_mismatch(self, tree8x2, tree8x3):
        with pytest.raises(FaultError, match="different topologies"):
            DegradedScheme(make_scheme(tree8x3, "d-mod-k"),
                           DegradedFabric(tree8x2))

    def test_label_carries_fabric_tag(self, tree8x2, fabric):
        ds = DegradedScheme(make_scheme(tree8x2, "disjoint:2"), fabric)
        assert ds.label.endswith(f"@{fabric.tag}")

    def test_pickles_for_pool_workers(self, tree8x2, fabric):
        ds = DegradedScheme(make_scheme(tree8x2, "shift-1:2"), fabric)
        clone = pickle.loads(pickle.dumps(ds))
        s = np.arange(4); d = s + 8
        k = int(tree8x2.nca_level(0, 8))
        np.testing.assert_array_equal(
            clone.path_index_matrix(s, d, k), ds.path_index_matrix(s, d, k))


class TestPristineTransparency:
    @pytest.mark.parametrize("spec", SCHEME_SPECS)
    def test_identical_routes_on_pristine_fabric(self, tree8x2, spec):
        base = make_scheme(tree8x2, spec)
        ds = DegradedScheme(base, DegradedFabric(tree8x2))
        n = tree8x2.n_procs
        for s in range(0, n, 7):
            for d in range(0, n, 5):
                if s == d:
                    continue
                assert ds.route(s, d) == base.route(s, d)
        keys = np.arange(n * n, dtype=np.int64)
        s_all, d_all = np.divmod(keys, n)
        k_arr = tree8x2.nca_level(s_all, d_all)
        for k in range(1, tree8x2.h + 1):
            mask = k_arr == k
            np.testing.assert_array_equal(
                ds.path_index_matrix(s_all[mask], d_all[mask], k),
                base.path_index_matrix(s_all[mask], d_all[mask], k))
            assert ds.path_weight_matrix(s_all[mask], d_all[mask], k) is None


class TestRenormalization:
    def test_weights_shift_to_survivors(self, tree8x2):
        # Fail one level-1 cable and find a pair that lost a path.
        up1, _ = tree8x2.boundary_link_slices(1)
        fabric = DegradedFabric(tree8x2, failed_cables=[up1.start])
        base = make_scheme(tree8x2, "umulti")
        ds = DegradedScheme(base, fabric)
        n = tree8x2.n_procs
        x = tree8x2.max_paths
        hit = 0
        for s in range(n):
            for d in range(n):
                if s == d or tree8x2.nca_level(s, d) != tree8x2.h:
                    continue
                rs = ds.route(s, d)
                assert abs(sum(rs.fractions) - 1.0) < 1e-12
                if rs.num_paths < x:
                    hit += 1
                    assert rs.num_paths == x - 1
                    assert all(abs(f - 1 / (x - 1)) < 1e-12
                               for f in rs.fractions)
        assert hit > 0

    def test_padding_never_reaches_route_sets(self, tree8x2, fabric):
        ds = DegradedScheme(make_scheme(tree8x2, "umulti"), fabric)
        for (s, d), rs in ds.all_route_sets().items():
            assert len(set(rs.indices)) == rs.num_paths
            for path in rs.paths(tree8x2):
                assert all(fabric.link_ok[c] for c in path.links)


class TestDisconnection:
    def test_typed_error_with_pair(self, tree8x2):
        up0, _ = tree8x2.boundary_link_slices(0)
        fabric = DegradedFabric(tree8x2, failed_cables=[up0.start])
        ds = DegradedScheme(make_scheme(tree8x2, "d-mod-k"), fabric)
        with pytest.raises(DisconnectedPairError) as exc_info:
            ds.route(0, tree8x2.n_procs - 1)
        err = exc_info.value
        assert (err.src, err.dst) == (0, tree8x2.n_procs - 1)

    def test_batch_selection_raises_too(self, tree8x2):
        up0, _ = tree8x2.boundary_link_slices(0)
        fabric = DegradedFabric(tree8x2, failed_cables=[up0.start])
        ds = DegradedScheme(make_scheme(tree8x2, "umulti"), fabric)
        n = tree8x2.n_procs
        s = np.array([0]); d = np.array([n - 1])
        with pytest.raises(DisconnectedPairError):
            ds.path_index_matrix(s, d, int(tree8x2.nca_level(0, n - 1)))


class TestFlitIntegration:
    def test_flit_sim_runs_on_degraded_fabric(self, tree8x2, fabric):
        from repro.flit import FlitConfig, FlitSimulator, UniformRandom

        ds = DegradedScheme(make_scheme(tree8x2, "disjoint:2"), fabric)
        sim = FlitSimulator(tree8x2, ds,
                            FlitConfig(warmup_cycles=100, measure_cycles=300))
        result = sim.run(UniformRandom(0.1), seed=1)
        assert result.throughput > 0

    def test_flit_sim_rejects_stale_route_table(self, tree8x2, fabric):
        from repro.errors import SimulationError
        from repro.flit import FlitConfig, FlitSimulator

        base = make_scheme(tree8x2, "umulti")
        with pytest.raises(SimulationError, match="failed channel"):
            FlitSimulator(tree8x2, base,
                          FlitConfig(warmup_cycles=10, measure_cycles=10),
                          degraded=fabric)


class TestLftIntegration:
    def test_lfts_skip_dead_paths(self, tree8x2, fabric):
        from repro.ib.lft import compile_lfts, trace_route

        ds = DegradedScheme(make_scheme(tree8x2, "umulti"), fabric)
        tables = compile_lfts(tree8x2, ds)
        # Every realized path index routes its pair without looping.
        for dst in range(0, tree8x2.n_procs, 5):
            src = (dst + tree8x2.M(tree8x2.h - 1)) % tree8x2.n_procs
            for offset in range(tables.lids.lids_per_port):
                trace_route(tables, src, dst, offset)
