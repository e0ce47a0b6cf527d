"""Flow evaluator parity: stacked permutations and the path oracle.

The product evaluates each sampling round with
:func:`repro.flow.loads.permutation_mloads`, which stacks permutations
into one closed-form pass.  Its oracle is the per-permutation
:func:`~repro.flow.loads.link_loads` loop, and the bar is *bit*
identity (``np.array_equal``), across every scheme family on 2- and
3-level topologies (including an irregular one with w_1 > 1).
:func:`~repro.flow.loads.link_loads` itself is checked against the
scalar per-path oracle on weighted and all-to-all traffic.
"""

from __future__ import annotations

import numpy as np
import pytest

import repro.flow.loads as loads_mod
from repro.errors import TrafficError
from repro.flow.loads import link_loads, permutation_mloads, stack_rows
from repro.flow.metrics import max_link_load, permutation_optimal_load
from repro.flow.sampling import PermutationStudy
from repro.flow.simulator import FlowSimulator
from repro.routing.factory import make_scheme
from repro.topology.variants import m_port_n_tree
from repro.topology.xgft import XGFT
from repro.traffic.matrix import TrafficMatrix
from repro.traffic.permutations import permutation_matrix, random_permutation
from repro.traffic.synthetic import all_to_all, shift_pattern
from tests.flow.oracles import loop_mloads, reference_loads

SCHEME_SPECS = ("d-mod-k", "s-mod-k", "shift-1:3", "disjoint:3", "random:3",
                "umulti")

TOPOLOGIES = [
    m_port_n_tree(8, 2),          # 2-level, 32 nodes
    m_port_n_tree(4, 3),          # 3-level, 32 nodes
    XGFT(3, (3, 2, 4), (1, 2, 3)),  # irregular radices
    XGFT(2, (3, 5), (2, 3)),      # w_1 > 1: multiple host uplinks
]


def _random_tm(xgft, seed=0):
    rng = np.random.default_rng(seed)
    n = xgft.n_procs
    k = min(4 * n, n * (n - 1))
    keys = rng.choice(n * n, size=k, replace=False)
    s, d = keys // n, keys % n
    keep = s != d
    return TrafficMatrix(n, s[keep], d[keep],
                         rng.uniform(0.1, 2.0, int(keep.sum())))


def _perms(n, count, seed):
    rng = np.random.default_rng(seed)
    return np.stack([random_permutation(n, rng) for _ in range(count)])


@pytest.mark.parametrize("xgft", TOPOLOGIES, ids=repr)
@pytest.mark.parametrize("spec", SCHEME_SPECS)
class TestLinkLoadParity:
    def test_permutation_traffic(self, xgft, spec):
        scheme = make_scheme(xgft, spec, seed=5)
        perms = _perms(xgft.n_procs, 3, 42)
        assert np.array_equal(permutation_mloads(xgft, scheme, perms),
                              loop_mloads(xgft, scheme, perms))

    def test_weighted_sparse_traffic(self, xgft, spec):
        scheme = make_scheme(xgft, spec, seed=5)
        tm = _random_tm(xgft, seed=7)
        np.testing.assert_allclose(link_loads(xgft, scheme, tm),
                                   reference_loads(xgft, scheme, tm),
                                   atol=1e-9)

    def test_all_to_all(self, xgft, spec):
        scheme = make_scheme(xgft, spec, seed=5)
        tm = all_to_all(xgft.n_procs)
        np.testing.assert_allclose(link_loads(xgft, scheme, tm),
                                   reference_loads(xgft, scheme, tm),
                                   atol=1e-9)


class TestBatchPermutations:
    def test_batch_matches_scalar_loop(self, tree8x3):
        scheme = make_scheme(tree8x3, "disjoint:3")
        perms = _perms(tree8x3.n_procs, 17, 3)
        assert np.array_equal(permutation_mloads(tree8x3, scheme, perms),
                              loop_mloads(tree8x3, scheme, perms))

    def test_chunking_is_invisible(self, tree8x2, monkeypatch):
        scheme = make_scheme(tree8x2, "shift-1:2")
        perms = _perms(tree8x2.n_procs, 8, 9)
        whole = permutation_mloads(tree8x2, scheme, perms)
        assert stack_rows(tree8x2) >= len(perms)  # one pass above
        # A budget this small evaluates one permutation per pass.
        monkeypatch.setattr(loads_mod, "_STACK_BUDGET", 1)
        assert stack_rows(tree8x2) == 1
        assert np.array_equal(permutation_mloads(tree8x2, scheme, perms),
                              whole)

    def test_single_permutation_1d(self, tree8x2):
        scheme = make_scheme(tree8x2, "d-mod-k")
        perm = np.roll(np.arange(tree8x2.n_procs), 1)
        out = permutation_mloads(tree8x2, scheme, perm)
        assert out.shape == (1,)
        assert out[0] == max_link_load(
            link_loads(tree8x2, scheme, permutation_matrix(perm)))

    def test_rejects_bad_width(self, tree8x2):
        scheme = make_scheme(tree8x2, "d-mod-k")
        with pytest.raises(TrafficError):
            permutation_mloads(tree8x2, scheme,
                               np.zeros((2, 5), dtype=np.int64))


class TestStackBoundaries:
    """Rows at the edges of a stacked pass still match the oracle."""

    @pytest.mark.parametrize("extra", [0, 1], ids=["B=1", "B=chunk+1"])
    def test_pass_boundaries(self, tree8x3, extra):
        scheme = make_scheme(tree8x3, "random:3", seed=2)
        count = 1 if not extra else stack_rows(tree8x3) + extra
        perms = _perms(tree8x3.n_procs, count, 11)
        assert np.array_equal(permutation_mloads(tree8x3, scheme, perms),
                              loop_mloads(tree8x3, scheme, perms))

    def test_identity_row_carries_no_load(self, tree8x2):
        scheme = make_scheme(tree8x2, "disjoint:2")
        n = tree8x2.n_procs
        perms = np.stack([np.roll(np.arange(n), 3), np.arange(n),
                          np.roll(np.arange(n), 5)])
        out = permutation_mloads(tree8x2, scheme, perms)
        assert out[1] == 0.0
        assert np.array_equal(out, loop_mloads(tree8x2, scheme, perms))

    def test_empty_batch(self, tree8x2):
        out = permutation_mloads(tree8x2, make_scheme(tree8x2, "d-mod-k"),
                                 np.empty((0, tree8x2.n_procs), dtype=int))
        assert out.shape == (0,)


@pytest.mark.parametrize("row", [
    pytest.param([1] * 8, id="repeated-node"),
    pytest.param([-1, 1, 2, 3, 4, 5, 6, 7], id="negative-id"),
    pytest.param([8, 1, 2, 3, 4, 5, 6, 7], id="id-past-end"),
    pytest.param([1, 0, 3, 2], id="short-row"),
])
def test_rejects_rows_that_are_not_permutations(row):
    """A non-permutation row is an error, as in ``permutation_matrix``;
    it must not wrap into another pair's link ids."""
    xgft = m_port_n_tree(4, 2)
    scheme = make_scheme(xgft, "d-mod-k")
    perms = np.stack([np.arange(8), np.arange(8)])
    if len(row) == 8:
        perms[1] = row
    else:
        perms = np.array([row])
    with pytest.raises(TrafficError):
        permutation_mloads(xgft, scheme, perms)
    with pytest.raises(TrafficError):
        permutation_matrix(row if len(row) == 8 else row + [9] * 4)


class TestFlowSimulatorEngines:
    @pytest.mark.parametrize("spec", ["d-mod-k", "disjoint:2", "umulti"])
    def test_evaluate_agrees(self, tree8x2, spec):
        """``evaluate``, ``max_load`` and the stacked
        ``permutation_mloads`` report the same MLOAD for one
        permutation (a shift)."""
        scheme = make_scheme(tree8x2, spec)
        n = tree8x2.n_procs
        tm = shift_pattern(n, 3)
        sim = FlowSimulator(tree8x2)
        res = sim.evaluate(scheme, tm)
        assert np.array_equal(res.loads, link_loads(tree8x2, scheme, tm))
        perm = (np.arange(n) + 3) % n
        assert sim.permutation_mloads(scheme, perm)[0] == res.max_load
        assert sim.max_load(scheme, tm) == res.max_load

    def test_rejects_unknown_engine(self, tree8x2):
        # No option selects a flow evaluator any more.
        with pytest.raises(TypeError):
            FlowSimulator(tree8x2, engine="magic")
        with pytest.raises(TypeError):
            PermutationStudy(tree8x2, engine="reference")

    def test_permutation_mloads_both_engines(self, tree8x2):
        """The simulator's two MLOAD paths — stacked
        ``permutation_mloads`` and per-matrix ``max_load`` — agree bit
        for bit."""
        scheme = make_scheme(tree8x2, "random:2", seed=1)
        perms = _perms(tree8x2.n_procs, 5, 0)
        sim = FlowSimulator(tree8x2)
        assert np.array_equal(
            sim.permutation_mloads(scheme, perms),
            [sim.max_load(scheme, permutation_matrix(p)) for p in perms])

    def test_evaluate_accepts_precomputed_optimal(self, tree8x2):
        scheme = make_scheme(tree8x2, "umulti")
        tm = shift_pattern(tree8x2.n_procs, 5)
        sim = FlowSimulator(tree8x2)
        res = sim.evaluate(scheme, tm, optimal=2.0)
        assert res.optimal == 2.0
        assert res.ratio == pytest.approx(res.max_load / 2.0)


class TestStudyCrossEngine:
    def test_same_seed_same_samples(self, tree8x2):
        """A study's samples are the oracle's MLOADs of its permutation
        stream: every round draws from one seeded generator in order."""
        scheme = make_scheme(tree8x2, "disjoint:2")
        res = PermutationStudy(tree8x2, initial_samples=16, max_samples=32,
                               seed=99).run(scheme)
        perms = _perms(tree8x2.n_procs, len(res.samples), 99)
        assert np.array_equal(res.samples,
                              loop_mloads(tree8x2, scheme, perms))

    def test_result_carries_optimal(self, tree8x2):
        scheme = make_scheme(tree8x2, "umulti")
        res = PermutationStudy(tree8x2, initial_samples=8, max_samples=8,
                               seed=1).run(scheme)
        assert res.optimal == permutation_optimal_load(tree8x2)
        assert res.mean_ratio == pytest.approx(res.mean / res.optimal)

    def test_umulti_mean_ratio_is_one(self, tree8x2):
        # UMULTI achieves OLOAD on every matrix (Theorem 1), so each
        # sample equals the hoisted optimal.
        res = PermutationStudy(tree8x2, initial_samples=8, max_samples=8,
                               seed=2).run(make_scheme(tree8x2, "umulti"))
        assert res.mean_ratio == pytest.approx(1.0)
