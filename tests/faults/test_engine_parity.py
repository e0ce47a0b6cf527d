"""Flow evaluator parity on degraded fabrics.

The stacked permutation evaluator must give the per-permutation
``link_loads`` oracle's MLOADs bit for bit for every scheme family on
degraded 2- and 3-level trees — from-scratch (:class:`DegradedScheme`)
and incremental (:class:`IncrementalDegradedScheme`, after every event of
a fail/repair trace) — and adaptive studies and the fault-sweep
experiment must return exactly what the oracle returns on the same
permutation stream.  This is the acceptance bar for trusting fault-sweep
numbers.
"""

from __future__ import annotations

import numpy as np
import pytest

from repro.faults import DegradedScheme, FaultSpec
from repro.faults.churn import (ChurnSpec, IncrementalDegradedScheme,
                                generate_trace)
from repro.flow.loads import link_loads, permutation_mloads
from repro.flow.sampling import PermutationStudy
from repro.routing.factory import make_scheme
from repro.routing.vectorized import compile_routes
from repro.topology.variants import m_port_n_tree
from repro.traffic.permutations import permutation_matrix, random_permutation
from tests.flow.oracles import loop_mloads

SCHEME_SPECS = ("d-mod-k", "s-mod-k", "shift-1:2", "shift-1:4",
                "disjoint:2", "disjoint:4", "random:2", "umulti")

TOPOLOGIES = [
    pytest.param(m_port_n_tree(8, 2), 0.2, id="8-port-2-tree"),
    pytest.param(m_port_n_tree(4, 3), 0.25, id="4-port-3-tree"),
]


def _connected_fabric(xgft, rate, seed=0):
    for attempt in range(64):
        fabric = FaultSpec(link_rate=rate, seed=seed + attempt).sample(xgft)
        if fabric.is_connected and not fabric.is_pristine:
            return fabric
    raise AssertionError("no connected non-pristine fabric found")


def _table_loads(xgft, table, tm):
    """Loads from a compiled route table: a pair's traffic split evenly
    over its (live) paths."""
    loads = np.zeros(xgft.n_links)
    s_arr, d_arr, amounts = tm.network_pairs()
    for s, d, amount in zip(s_arr, d_arr, amounts):
        paths = table[int(s) * xgft.n_procs + int(d)]
        for path in paths:
            loads[list(path)] += amount / len(paths)
    return loads


@pytest.mark.parametrize("xgft,rate", TOPOLOGIES)
@pytest.mark.parametrize("spec", SCHEME_SPECS)
def test_reference_and_compiled_loads_agree(xgft, rate, spec):
    """Stacked MLOADs equal the oracle loop bit for bit, and the loop's
    closed-form loads match loads read off the compiled route table
    (``compile_routes``, padding filtered)."""
    fabric = _connected_fabric(xgft, rate)
    scheme = DegradedScheme(make_scheme(xgft, spec), fabric)

    rng = np.random.default_rng(7)
    perms = np.stack([rng.permutation(xgft.n_procs) for _ in range(6)])
    assert np.array_equal(permutation_mloads(xgft, scheme, perms),
                          loop_mloads(xgft, scheme, perms))
    table = compile_routes(xgft, scheme)
    for perm in perms[:2]:
        tm = permutation_matrix(perm)
        np.testing.assert_allclose(link_loads(xgft, scheme, tm),
                                   _table_loads(xgft, table, tm), atol=1e-12)


@pytest.mark.parametrize("spec", ["d-mod-k", "disjoint:2", "random:2",
                                  "umulti"])
def test_stacked_matches_loop_after_every_churn_event(spec):
    xgft = m_port_n_tree(8, 2)
    scheme = IncrementalDegradedScheme(make_scheme(xgft, spec, seed=3))
    rng = np.random.default_rng(5)
    perms = np.stack([rng.permutation(xgft.n_procs) for _ in range(5)])
    for event in generate_trace(xgft, ChurnSpec(n_events=6, seed=2)):
        scheme.apply_event(event)
        assert np.array_equal(permutation_mloads(xgft, scheme, perms),
                              loop_mloads(xgft, scheme, perms)), event.label


@pytest.mark.parametrize("n_jobs", [1, 2])
def test_parallel_study_streams_are_engine_invariant(n_jobs):
    """A study's samples — serial or fanned out to pool workers — are
    exactly the oracle's MLOADs of the same permutation stream."""
    xgft = m_port_n_tree(8, 2)
    fabric = _connected_fabric(xgft, 0.2)
    scheme = DegradedScheme(make_scheme(xgft, "disjoint:2"), fabric)
    res = PermutationStudy(
        xgft, initial_samples=16, max_samples=16, rel_precision=0.5,
        seed=99, n_jobs=n_jobs,
    ).run(scheme)

    rng = np.random.default_rng(99)
    if n_jobs > 1:
        # Each worker draws its share from a child seed of the stream.
        streams = [np.random.default_rng(int(rng.integers(0, 2**62)))
                   for _ in range(n_jobs)]
    else:
        streams = [rng]
    per_stream = 16 // len(streams)
    perms = [random_permutation(xgft.n_procs, g)
             for g in streams for _ in range(per_stream)]
    assert np.array_equal(res.samples, loop_mloads(xgft, scheme, perms))


def test_fault_sweep_experiment_engine_parity(monkeypatch):
    """The registered experiment gives the same curves when every round
    is evaluated by the per-permutation oracle instead."""
    import repro.flow.sampling as sampling
    from repro.experiments.fault_sweep import run

    kwargs = dict(
        fidelity_name="fast", topology=m_port_n_tree(4, 3),
        rates=(0.0, 0.1), curves=("d-mod-k", "disjoint:2", "umulti"),
        seed=5, fault_seed=1,
    )
    stacked = run(**kwargs)
    calls = []

    def oracle_mloads(xgft, scheme, perms):
        calls.append(len(perms))
        return loop_mloads(xgft, scheme, perms)

    monkeypatch.setattr(sampling, "permutation_mloads", oracle_mloads)
    oracle = run(**kwargs)
    assert sum(calls) == oracle.samples_used
    assert stacked.points[0].tag == "pristine"
    assert stacked == oracle
