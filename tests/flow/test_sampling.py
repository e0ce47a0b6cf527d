"""Adaptive permutation study: stopping rule, reproducibility, pooling."""

import numpy as np
import pytest

from repro.flow.sampling import PermutationStudy
from repro.routing.factory import make_scheme
from repro.routing.heuristics import RandomMultipath, UMulti
from repro.topology.variants import m_port_n_tree
from repro.traffic.permutations import random_permutation
from tests.flow.oracles import loop_mloads


@pytest.fixture
def study(tree8x2):
    return PermutationStudy(tree8x2, initial_samples=8, max_samples=64,
                            rel_precision=0.05, seed=123)


class TestRun:
    def test_umulti_converges_instantly(self, tree8x2, study):
        # UMULTI's max load is optimal; still a random variable, but with
        # small spread -> convergence within the cap on this small tree.
        res = study.run(UMulti(tree8x2))
        assert res.interval.n_samples <= 64
        assert res.mean >= 1.0

    def test_sample_doubling_respects_cap(self, tree8x2):
        # A negative precision target can never be met, forcing the cap.
        study = PermutationStudy(tree8x2, initial_samples=4, max_samples=10,
                                 rel_precision=-1.0, seed=0)
        res = study.run(make_scheme(tree8x2, "d-mod-k"))
        assert not res.converged
        assert res.interval.n_samples == 10

    def test_reproducible_with_seed(self, tree8x2):
        def go():
            return PermutationStudy(tree8x2, initial_samples=8, max_samples=16,
                                    rel_precision=0.5, seed=9).run(
                make_scheme(tree8x2, "d-mod-k"))

        a, b = go(), go()
        assert np.array_equal(a.samples, b.samples)

    def test_scheme_ordering_dmodk_worst(self, tree8x2):
        """On permutations, avg max load: d-mod-k >= disjoint(2) >= umulti."""
        study = PermutationStudy(tree8x2, initial_samples=32, max_samples=32,
                                 rel_precision=1.0, seed=3)
        dmodk = study.run(make_scheme(tree8x2, "d-mod-k")).mean
        dj2 = study.run(make_scheme(tree8x2, "disjoint:2")).mean
        um = study.run(make_scheme(tree8x2, "umulti")).mean
        assert dmodk > dj2 > um
        assert um == pytest.approx(np.mean(study.run(UMulti(tree8x2)).samples))

    def test_result_label(self, tree8x2, study):
        assert study.run(make_scheme(tree8x2, "disjoint:2")).scheme_label == \
            "disjoint(2)"


class TestSeedFamily:
    def test_pools_all_seeds(self, tree8x2):
        study = PermutationStudy(tree8x2, initial_samples=4, max_samples=4,
                                 rel_precision=1.0, seed=1)
        res = study.run_seed_family(
            lambda seed: RandomMultipath(tree8x2, 2, seed=seed), seeds=(0, 1, 2)
        )
        assert res.interval.n_samples == 12  # 3 seeds x 4 samples
        assert res.scheme_label == "random(2)"


class TestParallel:
    def test_parallel_matches_statistics(self, tree8x2):
        """Parallel sampling draws from the same distribution (means
        agree within the CI) and is reproducible per (seed, n_jobs)."""
        kwargs = dict(initial_samples=24, max_samples=24, rel_precision=1.0,
                      seed=7)
        serial = PermutationStudy(tree8x2, **kwargs).run(
            make_scheme(tree8x2, "d-mod-k"))
        par_a = PermutationStudy(tree8x2, n_jobs=2, **kwargs).run(
            make_scheme(tree8x2, "d-mod-k"))
        par_b = PermutationStudy(tree8x2, n_jobs=2, **kwargs).run(
            make_scheme(tree8x2, "d-mod-k"))
        assert np.array_equal(par_a.samples, par_b.samples)
        assert abs(par_a.mean - serial.mean) < 3 * serial.interval.half_width \
            or abs(par_a.mean - serial.mean) < 0.5

    def test_more_jobs_than_samples(self, tree8x2):
        study = PermutationStudy(tree8x2, initial_samples=2, max_samples=2,
                                 rel_precision=1.0, seed=1, n_jobs=8)
        assert study.run(make_scheme(tree8x2, "d-mod-k")).interval.n_samples == 2

    def test_parallel_reproducible_per_seed_and_jobs(self, tree8x2):
        """A fixed (seed, n_jobs) pair reproduces exactly."""
        kwargs = dict(initial_samples=12, max_samples=12,
                      rel_precision=1.0, seed=21, n_jobs=3)
        a = PermutationStudy(tree8x2, **kwargs).run(
            make_scheme(tree8x2, "disjoint:2"))
        b = PermutationStudy(tree8x2, **kwargs).run(
            make_scheme(tree8x2, "disjoint:2"))
        assert np.array_equal(a.samples, b.samples)

    def test_parallel_shape_matches_serial(self, tree8x2):
        """n_jobs=2 returns the same number of samples as n_jobs=1."""
        kwargs = dict(initial_samples=10, max_samples=10, rel_precision=1.0,
                      seed=13)
        serial = PermutationStudy(tree8x2, **kwargs).run(
            make_scheme(tree8x2, "d-mod-k"))
        par = PermutationStudy(tree8x2, n_jobs=2, **kwargs).run(
            make_scheme(tree8x2, "d-mod-k"))
        assert par.samples.shape == serial.samples.shape

    def test_parallel_cross_engine_samples_agree(self, tree8x2):
        """Pool workers' stacked MLOADs equal the per-permutation oracle
        over the same per-worker streams: the round is split into
        near-equal chunks, each drawn from a child seed of the study's
        generator."""
        scheme = make_scheme(tree8x2, "disjoint:2")
        res = PermutationStudy(tree8x2, initial_samples=12, max_samples=12,
                               rel_precision=1.0, seed=17,
                               n_jobs=3).run(scheme)
        rng = np.random.default_rng(17)
        seeds = [int(rng.integers(0, 2**62)) for _ in range(3)]
        expected = []
        for seed in seeds:
            child = np.random.default_rng(seed)
            perms = [random_permutation(tree8x2.n_procs, child)
                     for _ in range(4)]
            expected.extend(loop_mloads(tree8x2, scheme, perms).tolist())
        assert np.array_equal(res.samples, expected)


class TestPoolLifecycle:
    """The pool-churn fix: one pool per run (or per scoped run group),
    not one per adaptive round."""

    def test_one_pool_across_adaptive_rounds(self, tree8x2):
        from repro.obs import Recorder

        rec = Recorder()
        # rel_precision=-1 forces the full doubling ladder: 4 -> 8 -> 16
        # samples = 3 rounds, which used to mean 3 executors.
        study = PermutationStudy(tree8x2, initial_samples=4, max_samples=16,
                                 rel_precision=-1.0, seed=5, n_jobs=2,
                                 recorder=rec)
        study.run(make_scheme(tree8x2, "d-mod-k"))
        assert rec.timers["flow.sampling.round"][1] == 3
        assert rec.counters["runner.pool_created"] == 1
        assert rec.counters["runner.context_spilled"] == 1

    def test_one_pool_across_seed_family(self, tree8x2):
        from repro.obs import Recorder

        rec = Recorder()
        study = PermutationStudy(tree8x2, initial_samples=4, max_samples=4,
                                 rel_precision=1.0, seed=1, n_jobs=2,
                                 recorder=rec)
        study.run_seed_family(
            lambda seed: RandomMultipath(tree8x2, 2, seed=seed),
            seeds=(0, 1, 2))
        assert rec.counters["runner.pool_created"] == 1
        # ...but each seed's scheme ships as its own context.
        assert rec.counters["runner.context_spilled"] == 3
        assert study._owned_pool is None  # released with the family

    def test_owned_pool_released_after_run(self, tree8x2):
        study = PermutationStudy(tree8x2, initial_samples=4, max_samples=4,
                                 rel_precision=1.0, seed=1, n_jobs=2)
        study.run(make_scheme(tree8x2, "d-mod-k"))
        assert study._owned_pool is None

    def test_context_manager_keeps_pool_warm_across_runs(self, tree8x2):
        from repro.obs import Recorder

        rec = Recorder()
        study = PermutationStudy(tree8x2, initial_samples=4, max_samples=4,
                                 rel_precision=1.0, seed=1, n_jobs=2,
                                 recorder=rec)
        with study:
            study.run(make_scheme(tree8x2, "d-mod-k"))
            pool = study._owned_pool
            assert pool is not None and pool.running
            study.run(make_scheme(tree8x2, "disjoint:2"))
            assert study._owned_pool is pool
        assert study._owned_pool is None
        assert rec.counters["runner.pool_created"] == 1

    def test_external_pool_shared_and_never_closed(self, tree8x2):
        from repro.obs import Recorder
        from repro.runner.pool import PersistentPool

        rec = Recorder()
        with PersistentPool(2) as pool:
            for seed in (1, 2):
                study = PermutationStudy(
                    tree8x2, initial_samples=4, max_samples=4,
                    rel_precision=1.0, seed=seed, n_jobs=2, recorder=rec,
                    pool=pool)
                study.run(make_scheme(tree8x2, "d-mod-k"))
                assert study._owned_pool is None
            assert pool.running  # studies never close an external pool
        assert rec.counters["runner.pool_created"] == 1

    def test_persistent_pool_preserves_sample_stream(self, tree8x2):
        """The pool-churn fix must not change the drawn samples: a scoped
        multi-round run reproduces an unscoped one exactly."""
        kwargs = dict(initial_samples=4, max_samples=16, rel_precision=-1.0,
                      seed=5, n_jobs=2)
        plain = PermutationStudy(tree8x2, **kwargs).run(
            make_scheme(tree8x2, "d-mod-k"))
        scoped_study = PermutationStudy(tree8x2, **kwargs)
        with scoped_study:
            scoped = scoped_study.run(make_scheme(tree8x2, "d-mod-k"))
        assert np.array_equal(plain.samples, scoped.samples)


class TestValidation:
    def test_bad_parameters(self, tree8x2):
        with pytest.raises(ValueError):
            PermutationStudy(tree8x2, initial_samples=1)
        with pytest.raises(ValueError):
            PermutationStudy(tree8x2, initial_samples=8, max_samples=4)
        with pytest.raises(ValueError):
            PermutationStudy(tree8x2, n_jobs=0)


class TestTelemetry:
    def test_convergence_trace(self, tree8x2):
        from repro.obs import Recorder

        rec = Recorder()
        study = PermutationStudy(tree8x2, initial_samples=4, max_samples=16,
                                 rel_precision=-1.0, seed=5, recorder=rec)
        res = study.run(make_scheme(tree8x2, "d-mod-k"))
        rounds = rec.events_of("convergence_round")
        # 4 -> 8 -> 16 samples: one event per adaptive round.
        assert [e["n_samples"] for e in rounds] == [4, 8, 16]
        assert [e["round"] for e in rounds] == [0, 1, 2]
        assert rounds[-1]["mean"] == pytest.approx(res.mean)
        assert rounds[-1]["half_width"] == pytest.approx(
            res.interval.half_width)
        assert all(e["scheme"] == "d-mod-k" for e in rounds)
        assert rec.counters["flow.samples"] == 16
        assert "flow.sampling.round" in rec.timers
        assert rec.timers["flow.sampling.round"][1] == 3

    def test_cross_process_merge(self, tree8x2):
        """Pool workers run under their own recorder; the parent merges
        their counters/timers back, so totals match the serial path."""
        from repro.obs import Recorder

        rec = Recorder()
        study = PermutationStudy(tree8x2, initial_samples=12, max_samples=12,
                                 rel_precision=1.0, seed=7, n_jobs=3,
                                 recorder=rec)
        res = study.run(make_scheme(tree8x2, "d-mod-k"))
        assert res.interval.n_samples == 12
        assert rec.counters["flow.samples"] == 12
        # Worker-side spans arrive via snapshot merge.
        assert rec.timers["flow.sampling.worker"][1] == 3
        # One stacked evaluation per worker chunk (4 permutations each
        # fit one pass), not one timer call per sample.
        stacked = [name for name in rec.timers
                   if "flow.permutation_mloads" in name]
        assert sum(rec.timers[n][1] for n in stacked) == 3

    def test_serial_stacked_telemetry(self, tree8x2):
        """Serially, each adaptive round is one timed stacked call nested
        under the round's span."""
        from repro.obs import Recorder

        rec = Recorder()
        study = PermutationStudy(tree8x2, initial_samples=4, max_samples=16,
                                 rel_precision=-1.0, seed=7, recorder=rec)
        study.run(make_scheme(tree8x2, "disjoint:2"))
        assert rec.counters["flow.samples"] == 16
        name = "flow.sampling.round/flow.permutation_mloads"
        assert rec.timers[name][1] == 3  # rounds of 4, 4 and 8

    def test_parallel_disabled_recorder_ships_no_snapshots(self, tree8x2):
        from repro.obs import NULL_RECORDER

        study = PermutationStudy(tree8x2, initial_samples=4, max_samples=4,
                                 rel_precision=1.0, seed=7, n_jobs=2,
                                 recorder=NULL_RECORDER)
        res = study.run(make_scheme(tree8x2, "d-mod-k"))
        assert res.interval.n_samples == 4
        assert NULL_RECORDER.counters == {}
