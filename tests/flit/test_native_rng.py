"""The native kernel's random draws are CPython's, bit for bit.

The flit simulator's injection plan runs in ``kernel.c`` on a C copy
of CPython's MT19937, seeded from ``random.Random(seed).getstate()``.
These tests pin its ``randrange``, ``random()`` and ``expovariate``
draws to the running interpreter's ``random.Random`` over drawn seeds
and bounds, and check the guard behind that contract: when the draws
differ, the kernel is reported unavailable and the simulator hands
every run to the reference event loop instead of producing other bits.
"""

from __future__ import annotations

import logging
import platform

import pytest
from hypothesis import given
from hypothesis import strategies as st

from repro.flit import (
    FlitConfig,
    FlitSimulator,
    ReferenceFlitSimulator,
    UniformRandom,
    native,
)
from repro.flit.engine import kernel_runs
from repro.routing import make_scheme
from repro.topology import m_port_n_tree

#: The bounds the load-time contract check draws, plus a two-word one.
BOUNDS = (1, 2, 3, 4, 5, 127, 128, 129, 2**31 - 1, 2**32)

seeds = st.integers(min_value=0, max_value=2**64)
bounds = st.one_of(st.sampled_from(BOUNDS),
                   st.integers(min_value=1, max_value=2**62))
rates = st.floats(min_value=1e-6, max_value=10.0)
ops = st.one_of(
    st.tuples(st.just("randrange"), bounds),
    st.tuples(st.just("random"), st.just(0.0)),
    st.tuples(st.just("expovariate"), rates),
)


@pytest.fixture(scope="module")
def lib():
    """The compiled kernel, loaded without the contract check, so a
    generator that drifts fails these tests instead of skipping them."""
    try:
        return native._compile_and_load()
    except (OSError, RuntimeError) as exc:
        pytest.skip(f"native kernel cannot be built: {exc}")


def same_draws(lib, seed, draws):
    return (native.kernel_draws(lib, seed, draws)
            == native.python_draws(seed, draws))


@given(seed=seeds, ns=st.lists(bounds, min_size=1, max_size=60))
def test_randrange_matches(lib, seed, ns):
    assert same_draws(lib, seed, [("randrange", n) for n in ns])


@given(seed=seeds, rate=rates)
def test_random_and_expovariate_past_regeneration(lib, seed, rate):
    # 4 words per pair: 2800 words, several 624-word regenerations.
    assert same_draws(lib, seed,
                      [("random", 0.0), ("expovariate", rate)] * 700)


@given(seed=seeds, draws=st.lists(ops, min_size=1, max_size=200))
def test_mixed_streams_match(lib, seed, draws):
    assert same_draws(lib, seed, draws)


def test_randrange_one_still_consumes_a_word(lib):
    draws = [("randrange", 1), ("random", 0.0)]
    sample = native.kernel_draws(lib, 7, draws)
    assert sample == native.python_draws(7, draws)
    assert sample[1] != native.python_draws(7, [("random", 0.0)])[0]


def test_mismatched_draws_make_the_kernel_unavailable(lib, monkeypatch,
                                                     caplog):
    """A generator that differs from this interpreter's ``random`` must
    never run: ``available()`` is false, the reason names the Python
    version, and the simulator returns the reference's bits."""
    real = native.kernel_draws

    def off_by_one_ulp(lib, seed, draws):
        values = real(lib, seed, draws)
        values[-1] = values[-1] * (1 + 2**-52)
        return values

    monkeypatch.setattr(native, "kernel_draws", off_by_one_ulp)
    monkeypatch.setattr(native, "_lib", None)
    monkeypatch.setattr(native, "_load_attempted", False)
    monkeypatch.setattr(native, "_reason", None)
    with caplog.at_level(logging.WARNING, logger=native.__name__):
        assert not native.available()
        assert not native.available()
    reason = native.unavailable_reason()
    assert f"Python {platform.python_version()}" in reason
    assert "random.Random" in reason
    logged = [r for r in caplog.records if r.name == native.__name__]
    assert len(logged) == 1 and reason in logged[0].getMessage()

    xgft = m_port_n_tree(4, 2)
    cfg = FlitConfig(warmup_cycles=100, measure_cycles=300,
                     drain_cycles=400, seed=8)
    scheme = make_scheme(xgft, "disjoint:2")
    before = kernel_runs()
    fast = FlitSimulator(xgft, scheme, cfg).run(UniformRandom(0.5))
    assert kernel_runs() - before == {
        "reference: native kernel unavailable": 1}
    assert fast == ReferenceFlitSimulator(xgft, scheme, cfg).run(
        UniformRandom(0.5))
