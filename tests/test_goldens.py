"""Golden-file regression tests: pinned MLOAD / PERF numbers.

For two fixed topologies, a fixed permutation protocol and a fixed fault
set, the average maximum permutation load and oblivious-performance
ratio of every scheme family are pinned in ``tests/goldens/*.json``.
Any change to path enumeration, scheme selection, fault masking or the
flow evaluator that shifts results is caught immediately.

Legitimate changes (a new scheme default, a fixed enumeration bug)
regenerate the files with::

    PYTHONPATH=src python -m pytest tests/test_goldens.py --regen-goldens

then commit the diff *with a justification* — see docs/testing.md.
"""

from __future__ import annotations

import json
from pathlib import Path

import pytest

from repro.faults import DegradedScheme, FaultSpec
from repro.flow.sampling import PermutationStudy
from repro.routing.factory import make_scheme
from repro.topology.variants import m_port_n_tree
from repro.topology.xgft import XGFT

GOLDEN_FILE = Path(__file__).parent / "goldens" / "fault_mloads.json"

SCHEME_SPECS = ("d-mod-k", "s-mod-k", "shift-1:2", "disjoint:2",
                "random:2", "umulti")

TOPOLOGIES = {
    "xgft:2;4,4;1,4": XGFT(2, (4, 4), (1, 4)),
    "mport:8x3": m_port_n_tree(8, 3),
}

#: fixed protocol: one 16-sample round, seed pinned -> fully deterministic
STUDY_KWARGS = dict(initial_samples=16, max_samples=16, rel_precision=0.5,
                    seed=123)
FAULT_SPEC = FaultSpec(link_rate=0.05, seed=1)


def _fabrics(xgft):
    fabric = FAULT_SPEC.sample(xgft)
    assert fabric.is_connected, "golden fault spec must stay connected"
    return {"pristine": None, fabric.tag: fabric}


def compute_goldens() -> dict:
    out: dict = {}
    for topo_key, xgft in TOPOLOGIES.items():
        study = PermutationStudy(xgft, **STUDY_KWARGS)
        out[topo_key] = {}
        for fabric_key, fabric in _fabrics(xgft).items():
            entry = out[topo_key][fabric_key] = {}
            for spec in SCHEME_SPECS:
                scheme = make_scheme(xgft, spec)
                if fabric is not None:
                    scheme = DegradedScheme(scheme, fabric)
                result = study.run(scheme)
                entry[spec] = {
                    "mload": round(result.mean, 12),
                    "ratio": round(result.mean_ratio, 12),
                }
    return out


def test_pinned_mloads_and_ratios(request):
    reference = compute_goldens()

    if request.config.getoption("--regen-goldens"):
        GOLDEN_FILE.parent.mkdir(exist_ok=True)
        GOLDEN_FILE.write_text(
            json.dumps(reference, indent=2, sort_keys=True) + "\n")
        pytest.skip(f"regenerated {GOLDEN_FILE}")

    assert GOLDEN_FILE.exists(), (
        f"{GOLDEN_FILE} missing; run with --regen-goldens to create it"
    )
    expected = json.loads(GOLDEN_FILE.read_text())
    assert reference.keys() == expected.keys()
    for topo_key in expected:
        for fabric_key, schemes in expected[topo_key].items():
            for spec, values in schemes.items():
                got = reference[topo_key][fabric_key][spec]
                for field in ("mload", "ratio"):
                    assert got[field] == pytest.approx(
                        values[field], abs=1e-9), (
                        f"{topo_key}/{fabric_key}/{spec}/{field} drifted: "
                        f"{got[field]} != {values[field]} "
                        f"(--regen-goldens if intentional)"
                    )


def test_golden_file_is_committed_and_well_formed():
    data = json.loads(GOLDEN_FILE.read_text())
    assert set(data) == set(TOPOLOGIES)
    for topo_key, fabrics in data.items():
        assert "pristine" in fabrics
        assert len(fabrics) == 2
        for schemes in fabrics.values():
            assert set(schemes) == set(SCHEME_SPECS)
            for values in schemes.values():
                assert values["mload"] > 0
                assert values["ratio"] >= 1.0 - 1e-9
