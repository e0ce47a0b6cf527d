"""Perf snapshots (`repro bench`) and the regression gate."""

import json

import pytest

from repro.errors import ReproError
from repro.obs.bench import (
    BenchSnapshot,
    DEFAULT_THRESHOLD,
    MIN_COMPARABLE_WALL_S,
    OBS_OVERHEAD_BUDGET,
    SCHEMA_VERSION,
    SNAPSHOT_FILES,
    compare_snapshots,
    host_fingerprint,
    measure_obs_overhead,
    run_benchmarks,
    write_snapshots,
)


def _snapshot(benchmark="flow", walls=None, checks=None):
    walls = walls if walls is not None else {"eval": 1.0}
    return BenchSnapshot(
        benchmark=benchmark,
        metrics={k: {"wall_s": w, "cpu_s": w} for k, w in walls.items()},
        checks=dict(checks or {}),
    )


class TestBenchSnapshot:
    def test_round_trips_through_dict(self):
        snap = _snapshot(checks={"parity_ok": True})
        back = BenchSnapshot.from_dict(snap.to_dict())
        assert back.to_dict() == snap.to_dict()
        assert back.schema == SCHEMA_VERSION

    def test_write_read_file(self, tmp_path):
        path = tmp_path / "BENCH_flow.json"
        _snapshot(checks={"parity_ok": True}).write(path)
        back = BenchSnapshot.read(path)
        assert back.benchmark == "flow"
        assert back.metrics["eval"]["wall_s"] == 1.0
        assert back.checks == {"parity_ok": True}
        # the on-disk form is stable, sorted, newline-terminated JSON
        text = path.read_text()
        assert text.endswith("\n")
        assert json.loads(text)["schema"] == SCHEMA_VERSION

    def test_create_stamps_environment(self):
        snap = BenchSnapshot.create("obs", {"m": {"wall_s": 1, "cpu_s": 1}})
        assert snap.schema == SCHEMA_VERSION
        assert snap.host == host_fingerprint()
        assert snap.version is not None
        assert snap.created_at is not None

    def test_read_rejects_garbage(self, tmp_path):
        bad = tmp_path / "bad.json"
        bad.write_text("not json")
        with pytest.raises(ReproError):
            BenchSnapshot.read(bad)
        with pytest.raises(ReproError):
            BenchSnapshot.from_dict({"schema": 1})  # missing required keys
        with pytest.raises(ReproError):
            BenchSnapshot.read(tmp_path / "missing.json")


class TestCompareSnapshots:
    def test_synthetic_2x_slowdown_trips_the_gate(self):
        base = _snapshot(walls={"eval": 1.0, "compile": 0.5})
        cur = _snapshot(walls={"eval": 2.0, "compile": 0.5})
        cmp = compare_snapshots(base, cur)
        assert not cmp.ok
        assert [d.name for d in cmp.regressions] == ["eval"]
        assert cmp.regressions[0].ratio == 2.0

    def test_baseline_noise_passes(self):
        # 5-10 % jitter must never fail the default (+50 %) gate.
        base = _snapshot(walls={"eval": 1.0, "compile": 0.5})
        cur = _snapshot(walls={"eval": 1.08, "compile": 0.53})
        cmp = compare_snapshots(base, cur)
        assert cmp.ok and not cmp.regressions

    def test_threshold_is_configurable(self):
        base = _snapshot(walls={"eval": 1.0})
        cur = _snapshot(walls={"eval": 1.2})
        assert compare_snapshots(base, cur, threshold=0.5).ok
        assert not compare_snapshots(base, cur, threshold=0.1).ok

    def test_newly_failed_check_fails_the_gate(self):
        base = _snapshot(checks={"parity_ok": True})
        cur = _snapshot(checks={"parity_ok": False})
        cmp = compare_snapshots(base, cur)
        assert not cmp.ok
        assert cmp.failed_checks == ["parity_ok"]

    def test_check_already_false_in_baseline_does_not_fail(self):
        base = _snapshot(checks={"flaky": False})
        cur = _snapshot(checks={"flaky": False})
        assert compare_snapshots(base, cur).ok

    def test_missing_metrics_reported_but_never_fail(self):
        base = _snapshot(walls={"eval": 1.0, "old_metric": 1.0})
        cur = _snapshot(walls={"eval": 1.0, "new_metric": 1.0})
        cmp = compare_snapshots(base, cur)
        assert cmp.ok
        assert cmp.missing_metrics == ["new_metric", "old_metric"]

    def test_accepts_dicts_and_paths(self, tmp_path):
        base = _snapshot(walls={"eval": 1.0})
        path = tmp_path / "cur.json"
        _snapshot(walls={"eval": 3.0}).write(path)
        cmp = compare_snapshots(base.to_dict(), path)
        assert not cmp.ok

    def test_benchmark_mismatch_raises(self):
        with pytest.raises(ReproError):
            compare_snapshots(_snapshot("flow"), _snapshot("flit"))

    def test_zero_baseline_is_not_a_regression(self):
        # A 0-second baseline cannot express a growth ratio; the delta
        # is reported as not comparable instead of an inf regression.
        base = _snapshot(walls={"eval": 0.0})
        cur = _snapshot(walls={"eval": 0.1})
        cmp = compare_snapshots(base, cur)
        assert cmp.ok and not cmp.regressions
        [delta] = cmp.not_comparable
        assert delta.name == "eval" and not delta.comparable
        assert delta.ratio == float("inf")  # still finite-guarded

    def test_sub_resolution_baseline_is_not_a_regression(self):
        # 0.4 ms -> 5 ms is timer noise on a warm-cache phase, not a
        # 12x slowdown; the gate must not trip.
        base = _snapshot(walls={"eval": MIN_COMPARABLE_WALL_S / 2,
                                "other": 1.0})
        cur = _snapshot(walls={"eval": 0.005, "other": 1.0})
        cmp = compare_snapshots(base, cur)
        assert cmp.ok and not cmp.regressions
        assert [d.name for d in cmp.not_comparable] == ["eval"]

    def test_baseline_at_resolution_floor_still_gates(self):
        base = _snapshot(walls={"eval": MIN_COMPARABLE_WALL_S})
        cur = _snapshot(walls={"eval": MIN_COMPARABLE_WALL_S * 10})
        cmp = compare_snapshots(base, cur)
        assert not cmp.ok and [d.name for d in cmp.regressions] == ["eval"]

    def test_render_names_the_verdict(self):
        cmp = compare_snapshots(_snapshot(walls={"eval": 1.0}),
                                _snapshot(walls={"eval": 2.5}))
        out = cmp.render()
        assert "REGRESSED" in out and "eval" in out
        assert f"+{DEFAULT_THRESHOLD:.0%}" in out

    def test_render_marks_sub_resolution_phases(self):
        cmp = compare_snapshots(_snapshot(walls={"eval": 0.0}),
                                _snapshot(walls={"eval": 0.1}))
        out = cmp.render()
        assert "not comparable" in out and "REGRESSED" not in out


class TestRunBenchmarks:
    def test_unknown_benchmark_rejected(self):
        with pytest.raises(ReproError, match="unknown benchmark"):
            run_benchmarks(["nope"])

    def test_quick_obs_bench_end_to_end(self, tmp_path):
        snaps = run_benchmarks(["obs"], quick=True)
        snap = snaps["obs"]
        assert snap.benchmark == "obs" and snap.quick
        assert set(snap.metrics) == {
            "flow_hot_path_raw",
            "flow_hot_path_disabled_recorder",
            "flow_hot_path_enabled_recorder",
        }
        disabled = snap.metrics["flow_hot_path_disabled_recorder"]
        assert disabled["budget_fraction"] == OBS_OVERHEAD_BUDGET
        assert "overhead_fraction" in disabled
        assert "disabled_overhead_within_budget" in snap.checks

        [path] = write_snapshots(snaps, tmp_path)
        assert path.name == SNAPSHOT_FILES["obs"]
        # a fresh run of the same benchmark must pass its own gate
        rerun = run_benchmarks(["obs"], quick=True)["obs"]
        assert compare_snapshots(path, rerun, threshold=4.0).failed_checks \
            == []

    def test_quick_flow_bench_checks_stacked_against_oracle(self):
        snap = run_benchmarks(["flow"], quick=True)["flow"]
        assert set(snap.metrics) == {"reference_eval", "stacked_eval"}
        assert snap.checks == {"parity_ok": True}
        stacked = snap.metrics["stacked_eval"]
        assert stacked["speedup_vs_reference"] > 1.0
        assert stacked["wall_s"] > 0 and stacked["perms_per_s"] > 0

    def test_measure_obs_overhead_fields(self):
        m = measure_obs_overhead(quick=True, rounds=2, reps=2)
        assert set(m) == {"raw_s", "disabled_s", "enabled_s",
                          "disabled_overhead", "disabled_overhead_iqr",
                          "enabled_overhead", "calls_per_timing", "rounds",
                          "budget", "within_budget"}
        assert m["rounds"] == 2 and m["calls_per_timing"] >= 2
        assert m["budget"] == OBS_OVERHEAD_BUDGET
        assert m["raw_s"] > 0 and m["disabled_s"] > 0 and m["enabled_s"] > 0
