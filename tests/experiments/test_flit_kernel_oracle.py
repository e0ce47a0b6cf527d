"""Experiment-level oracle: Table 1 and Figure 5 give the same bits on
the native kernel and on the reference event loop.

Each experiment runs through ``run_instrumented`` on a small tree twice:
once as shipped, and once with ``native.available`` reporting the kernel
missing, which sends every flit run to the reference event loop.  The
results and the recorded telemetry must be identical, and each run's
manifest must say which path ran (``flit_kernel``).
"""

from __future__ import annotations

import pytest

from repro.experiments.registry import run_instrumented
from repro.flit import FlitConfig, native
from repro.obs.recorder import Recorder
from repro.topology import m_port_n_tree

TREE = m_port_n_tree(4, 2)
CFG = FlitConfig(warmup_cycles=100, measure_cycles=400, drain_cycles=400,
                 seed=5)
KWARGS = {
    "table1": dict(topology=TREE, config=CFG, loads=(0.3, 0.8), ks=(2,),
                   random_seeds=(0, 1)),
    "figure5": dict(topology=TREE, config=CFG, loads=(0.3, 0.8),
                    curves=("d-mod-k", "disjoint:2", "umulti")),
}


def _run(name: str, **extra):
    return run_instrumented(name, fidelity_name="fast", recorder=Recorder(),
                            **KWARGS[name], **extra)


@pytest.fixture
def kernel():
    if not native.available():
        pytest.skip("no C compiler available for the native kernel")


@pytest.mark.parametrize("name", sorted(KWARGS))
def test_native_and_reference_experiments_agree(name, kernel, monkeypatch):
    shipped = _run(name)
    monkeypatch.setattr(native, "available", lambda: False)
    reference = _run(name)

    assert shipped.manifest.extra["flit_kernel"] == "native"
    assert (reference.manifest.extra["flit_kernel"]
            == "reference: native kernel unavailable")
    # Dataclass reprs spell every field, floats exactly and NaN as nan.
    assert repr(shipped.result) == repr(reference.result)
    assert shipped.recorder.counters == reference.recorder.counters
    assert shipped.recorder.events == reference.recorder.events
    assert shipped.recorder.counters["flit.runs"] > 0


def test_pool_workers_record_their_kernel(kernel):
    """Runs made in pool workers are counted too, and match the serial
    run; experiments without flit runs record no ``flit_kernel``."""
    serial = _run("figure5")
    pooled = _run("figure5", jobs=2)
    assert pooled.manifest.extra["flit_kernel"] == "native"
    assert repr(pooled.result) == repr(serial.result)
    assert "flit_kernel" not in run_instrumented("resources").manifest.extra
