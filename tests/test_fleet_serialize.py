"""The fleet burst serialiser against a plain sequential radio.

``repro.sim.fleet.engine._serialize`` solves ``start_k = max(req_k,
end_{k-1})`` per device as a monotone fixed point on a worklist (only
bursts whose predecessor's end moved are re-solved after the first
pass).  Its least fixed point must equal the scalar radio's recurrence,
walked one burst at a time with each duration from
``ChannelTable.durations`` — exactly, not within a tolerance.
"""

from unittest import mock

import numpy as np
import pytest
from hypothesis import HealthCheck, given, settings, strategies as st

import repro.sim.fleet.engine as engine
from repro.sim.fleet.channel import ChannelTable


def sequential_serialize(table, req, dev, size, tie):
    """One burst at a time: the scalar radio's serialisation."""
    perm = np.lexsort((tie, req, dev))
    starts = np.empty(perm.size)
    durs = np.empty(perm.size)
    prev_dev, end = None, 0.0
    for k, p in enumerate(perm):
        if dev[p] != prev_dev:
            prev_dev, end = dev[p], 0.0
        start = max(float(req[p]), end)
        dur = float(table.durations(np.array([start]), np.array([size[p]]))[0])
        starts[k], durs[k] = start, dur
        end = start + dur
    return perm, starts, durs


def assert_matches_oracle(table, req, dev, size, tie):
    perm, starts, durs = engine._serialize(table, req, dev, size, tie)
    o_perm, o_starts, o_durs = sequential_serialize(table, req, dev, size, tie)
    np.testing.assert_array_equal(perm, o_perm)
    np.testing.assert_array_equal(starts, o_starts)
    np.testing.assert_array_equal(durs, o_durs)


def make_table(pattern, seconds=20_000):
    rates = np.asarray(pattern, dtype=np.float64)
    if not rates.any():
        rates[0] = 1000.0
    return ChannelTable(np.resize(rates, seconds))


burst = st.tuples(
    st.integers(min_value=0, max_value=7),  # device
    st.one_of(  # requested start: whole slots (chains) or fractional
        st.integers(min_value=0, max_value=60).map(float),
        st.floats(min_value=0.0, max_value=60.0, allow_nan=False),
    ),
    st.sampled_from([0.0, 0.0, 1.0, 700.0, 5_000.0, 30_000.0]),  # bytes
)


@settings(max_examples=60, deadline=None, suppress_health_check=[HealthCheck.too_slow])
@given(
    bursts=st.lists(burst, min_size=1, max_size=120),
    pattern=st.lists(
        st.sampled_from([0.0, 1000.0, 4000.0, 25_000.0]), min_size=1, max_size=32
    ),
    segment=st.sampled_from([1, 2, 5, 16, 1 << 19]),
)
def test_matches_sequential_recurrence(bursts, pattern, segment):
    """Random fleets — zero-size bursts, zero-rate seconds, shared
    request times — under small device-aligned segment cuts."""
    dev = np.array([b[0] for b in bursts], dtype=np.int64)
    req = np.array([b[1] for b in bursts], dtype=np.float64)
    size = np.array([b[2] for b in bursts], dtype=np.float64)
    tie = np.arange(dev.size, dtype=np.int64)[::-1].copy()
    with mock.patch.object(engine, "_SERIALIZE_SEGMENT", segment):
        assert_matches_oracle(make_table(pattern), req, dev, size, tie)


@settings(max_examples=10, deadline=None, suppress_health_check=[HealthCheck.too_slow])
@given(
    chain=st.integers(min_value=50, max_value=300),
    devices=st.integers(min_value=1, max_value=4),
    segment=st.sampled_from([3, 1 << 19]),
)
def test_long_back_to_back_chains(chain, devices, segment):
    """Every burst requested at once: the fixed point needs one pass per
    burst in the chain, and each pass moves a single burst per device."""
    dev = np.repeat(np.arange(devices, dtype=np.int64), chain)
    req = np.zeros(dev.size)
    size = np.full(dev.size, 3_000.0)
    size[::7] = 0.0
    tie = np.arange(dev.size, dtype=np.int64)
    with mock.patch.object(engine, "_SERIALIZE_SEGMENT", segment):
        assert_matches_oracle(make_table([1000.0, 0.0, 4000.0]), req, dev, size, tie)


def test_zero_size_bursts_do_not_advance_the_clock():
    table = make_table([1000.0])
    dev = np.zeros(4, dtype=np.int64)
    req = np.array([0.0, 0.0, 0.5, 10.0])
    size = np.array([0.0, 2000.0, 0.0, 0.0])
    tie = np.arange(4, dtype=np.int64)
    perm, starts, durs = engine._serialize(table, req, dev, size, tie)
    np.testing.assert_array_equal(starts, [0.0, 0.0, 2.0, 10.0])
    np.testing.assert_array_equal(durs, [0.0, 2.0, 0.0, 0.0])
    assert_matches_oracle(table, req, dev, size, tie)


def test_non_convergence_still_raises():
    """A chain longer than the pass budget cannot settle in time."""
    limit = 12
    table = make_table([1000.0])
    with mock.patch.object(engine, "_SERIALIZE_MAX_ITER", limit):
        ok = np.zeros(limit, dtype=np.int64)
        assert_matches_oracle(
            table, np.zeros(limit), ok, np.full(limit, 500.0), np.arange(limit)
        )
        long = np.zeros(limit + 1, dtype=np.int64)
        with pytest.raises(RuntimeError, match="did not converge"):
            engine._serialize(
                table,
                np.zeros(limit + 1),
                long,
                np.full(limit + 1, 500.0),
                np.arange(limit + 1),
            )


def test_default_budget_settles_a_full_length_chain():
    n = engine._SERIALIZE_MAX_ITER
    table = make_table([1000.0])
    dev = np.zeros(n, dtype=np.int64)
    assert_matches_oracle(table, np.zeros(n), dev, np.full(n, 500.0), np.arange(n))
    with pytest.raises(RuntimeError, match="did not converge"):
        engine._serialize(
            table,
            np.zeros(n + 1),
            np.zeros(n + 1, dtype=np.int64),
            np.full(n + 1, 500.0),
            np.arange(n + 1),
        )
