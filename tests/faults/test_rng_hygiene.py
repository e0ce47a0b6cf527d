"""RNG-stream hygiene: named substreams, no global state, interleaving.

All fault sampling flows through :func:`repro.util.rng.substream` named
streams.  These tests pin the three guarantees that buys:

* sampling neither reads nor perturbs module-level ``random`` /
  ``np.random`` state;
* the cable and switch streams are independent (enabling one kind of
  fault never changes the other kind's draw);
* interleaving two simulations reproduces each one's solo results.
"""

from __future__ import annotations

import random

import numpy as np
import pytest

from repro.faults import DegradedScheme, FaultSpec
from repro.flow.sampling import PermutationStudy
from repro.routing.factory import make_scheme
from repro.topology.variants import m_port_n_tree
from repro.util.rng import SUBSTREAMS, substream


class TestSubstream:
    def test_named_streams_are_distinct(self):
        a = substream(0, "fault-links").integers(0, 2**32, size=8)
        b = substream(0, "fault-switches").integers(0, 2**32, size=8)
        assert not np.array_equal(a, b)

    def test_same_name_same_seed_reproduces(self):
        a = substream(5, "fault-links").integers(0, 2**32, size=8)
        b = substream(5, "fault-links").integers(0, 2**32, size=8)
        np.testing.assert_array_equal(a, b)

    def test_unregistered_name_is_an_error(self):
        with pytest.raises(KeyError, match="unregistered substream"):
            substream(0, "no-such-stream")

    def test_registry_keys_are_unique(self):
        assert len(set(SUBSTREAMS.values())) == len(SUBSTREAMS)


class TestGlobalStateIsolation:
    def test_sampling_ignores_global_seeds(self, tree8x3):
        spec = FaultSpec(link_rate=0.1, switch_rate=0.1, seed=4)
        np.random.seed(0); random.seed(0)
        a = spec.sample(tree8x3)
        np.random.seed(12345); random.seed(999)
        b = spec.sample(tree8x3)
        assert a.failed_cables == b.failed_cables
        assert a.failed_switches == b.failed_switches

    def test_sampling_leaves_global_streams_untouched(self, tree8x3):
        np.random.seed(42); random.seed(42)
        before_np = np.random.random(4)
        before_py = [random.random() for _ in range(4)]
        np.random.seed(42); random.seed(42)
        FaultSpec(link_rate=0.1, seed=4).sample(tree8x3)
        np.testing.assert_array_equal(np.random.random(4), before_np)
        assert [random.random() for _ in range(4)] == before_py


class TestStreamIndependence:
    def test_cable_draw_invariant_to_switch_rate(self, tree8x3):
        only_links = FaultSpec(link_rate=0.1, seed=6).sample(tree8x3)
        both = FaultSpec(link_rate=0.1, switch_rate=0.1, seed=6).sample(tree8x3)
        assert only_links.failed_cables == both.failed_cables

    def test_switch_draw_invariant_to_link_rate(self, tree8x3):
        only_switches = FaultSpec(switch_rate=0.1, seed=6).sample(tree8x3)
        both = FaultSpec(link_rate=0.1, switch_rate=0.1, seed=6).sample(tree8x3)
        assert only_switches.failed_switches == both.failed_switches


class TestInterleaving:
    def test_interleaved_runs_reproduce_solo_results(self):
        """Two simulations advanced in lockstep produce exactly the
        numbers each produces alone — nothing shares hidden RNG state."""
        xgft = m_port_n_tree(8, 2)

        def make(seed, fault_seed, spec):
            fabric = FaultSpec(link_rate=0.1, seed=fault_seed).sample(xgft)
            scheme = DegradedScheme(make_scheme(xgft, spec), fabric)
            study = PermutationStudy(
                xgft, initial_samples=8, max_samples=8, rel_precision=0.5,
                seed=seed)
            return study, scheme

        # Solo runs.
        study_a, scheme_a = make(1, 10, "disjoint:2")
        solo_a = study_a.run(scheme_a).samples
        study_b, scheme_b = make(2, 20, "shift-1:2")
        solo_b = study_b.run(scheme_b).samples

        # Interleaved: construction and execution alternate.
        study_a, scheme_a = make(1, 10, "disjoint:2")
        study_b, scheme_b = make(2, 20, "shift-1:2")
        inter_b = study_b.run(scheme_b).samples
        inter_a = study_a.run(scheme_a).samples

        np.testing.assert_array_equal(solo_a, inter_a)
        np.testing.assert_array_equal(solo_b, inter_b)

    def test_interleaved_fabric_sampling(self, tree8x3):
        spec_a = FaultSpec(link_rate=0.15, seed=1)
        spec_b = FaultSpec(link_rate=0.15, seed=2)
        solo_a = spec_a.sample(tree8x3).failed_cables
        solo_b = spec_b.sample(tree8x3).failed_cables
        # Reversed order, interleaved with unrelated global-RNG noise.
        np.random.seed(7)
        inter_b = spec_b.sample(tree8x3).failed_cables
        np.random.random(100)
        inter_a = spec_a.sample(tree8x3).failed_cables
        assert (solo_a, solo_b) == (inter_a, inter_b)
