"""Compiled route tables and the candidate link index: pair coverage,
self-pair rejection and sub-table consistency."""

from __future__ import annotations

import numpy as np
import pytest

from repro.routing.compiled import candidate_link_index
from repro.routing.factory import make_scheme
from repro.routing.vectorized import compile_routes
from repro.topology.variants import m_port_n_tree
from repro.topology.xgft import XGFT


@pytest.fixture
def table(tree8x2):
    return compile_routes(tree8x2, make_scheme(tree8x2, "disjoint:2"))


class TestDerivedTables:
    def test_route_table_subset_pairs(self, tree8x2, table):
        pairs = np.array([[0, 31], [5, 9], [30, 2]])
        sub = compile_routes(tree8x2, make_scheme(tree8x2, "disjoint:2"),
                             pairs)
        assert set(sub) == {s * tree8x2.n_procs + d for s, d in pairs}
        for key, paths in sub.items():
            assert table[key] == paths

    def test_route_table_rejects_self_pairs(self, tree8x2):
        with pytest.raises(ValueError):
            compile_routes(tree8x2, make_scheme(tree8x2, "disjoint:2"),
                           np.array([[3, 3]]))


class TestCsrLayout:
    def test_self_pairs_are_empty_rows(self, table, tree8x2):
        n = tree8x2.n_procs
        counts = np.diff(table.pair_off)
        self_keys = np.arange(n) * n + np.arange(n)
        assert (counts[self_keys] == 0).all()
        # Every cross pair has min(K, W(k)) paths of 2k links each.
        assert len(table) == n * (n - 1)
        for s, d in [(0, n - 1), (0, 1)]:
            k = int(tree8x2.nca_level(s, d))
            paths = table[s * n + d]
            assert len(paths) == min(2, tree8x2.W(k))
            assert all(len(p) == 2 * k for p in paths)


@pytest.mark.parametrize("xgft", [
    m_port_n_tree(4, 2),
    m_port_n_tree(4, 3),
    XGFT(3, (3, 2, 4), (1, 2, 3)),
    XGFT(2, (3, 5), (2, 3)),
], ids=repr)
def test_compile_covers_every_cross_pair(xgft):
    """Both all-pairs structures have a row for exactly the cross pairs:
    the route table (non-empty rows) and the candidate link index (keys
    that appear on some link)."""
    n = xgft.n_procs
    s, d = np.divmod(np.arange(n * n), n)
    table = compile_routes(xgft, make_scheme(xgft, "d-mod-k"))
    counts = np.diff(table.pair_off)
    assert ((counts > 0) == (s != d)).all()
    index = candidate_link_index(xgft)
    covered = np.zeros(n * n, dtype=bool)
    covered[index.pair_keys] = True
    assert (covered == (s != d)).all()
