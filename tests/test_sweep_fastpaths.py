"""Bit-exactness of the scalar sweep path's shortcuts.

A sweep job pays only for work its result depends on; each shortcut
below must leave every output bit-identical to the computation it
replaces:

* ``BandwidthEstimator.estimate`` with its memoized per-second draw
  equals the original formula (a fresh ``random.Random`` per call),
  kept here as the reference.
* ``wuhan_trace`` hands out independent sample lists that equal a
  direct ``synthesize_regime`` replay.
* every cost function declaring ``monotone`` is monotone in float
  arithmetic, which eTrain's Θ-crossing horizon relies on.
* ``HarvestingBattery.when_stored_at_least`` never draws a harvest
  window past ``until``, and a starved ``harvest_lazy`` run draws only
  the windows it lives through.
* ``ETrainStrategy.decision_horizon`` keeps its contract: P(t) < Θ at
  every engine decision time strictly before the promised horizon, on
  non-dyadic engine slots too.  On Python 3.12+ ``sum`` over floats is
  compensated rather than a left fold, so this must hold there as well.
"""

from __future__ import annotations

import math
import random

import pytest
from hypothesis import given, settings, strategies as st

from repro.bandwidth.models import TraceBandwidth
from repro.bandwidth.synth import synthesize_regime, wuhan_bandwidth_model, wuhan_trace
from repro.baselines.base import BandwidthEstimator
from repro.baselines.etrain import ETrainStrategy
from repro.core.cost_functions import (
    CloudCost,
    LinearCost,
    MailCost,
    PiecewiseLinearCost,
    StepCost,
    WeiboCost,
    ZeroCost,
)
from repro.core.packet import Packet
from repro.core.profiles import CargoAppProfile, cloud_profile, mail_profile, weibo_profile
from repro.core.scheduler import SchedulerConfig
from repro.sim.battery import HarvestingBattery
from repro.sim.decision import is_decision_slot
from repro.sim.engine import Simulation
from repro.sim.parallel.specs import ScenarioSpec, StrategySpec

pytestmark = pytest.mark.strategies

SETTINGS = settings(max_examples=60, deadline=None)


# ---------------------------------------------------------------------------
# memoized estimator noise
# ---------------------------------------------------------------------------


def reference_estimate(bandwidth, lag: float, noise: float, seed: int, now: float) -> float:
    """The estimator before memoization: one seeded generator per call."""
    true = bandwidth.rate_at(max(0.0, now - lag))
    if noise == 0:
        return true
    rng = random.Random((seed, int(now)).__hash__())
    factor = 1.0 + rng.uniform(-noise, noise)
    return max(0.0, true * factor)


CHANNEL = TraceBandwidth([float(10_000 + 997 * (i % 13)) for i in range(240)], wrap=True)


@SETTINGS
@given(
    seed=st.integers(min_value=-(2**40), max_value=2**40),
    lag=st.one_of(st.just(0.0), st.floats(min_value=0.0, max_value=30.0)),
    noise=st.one_of(st.just(0.0), st.floats(min_value=0.0, max_value=2.0)),
    times=st.lists(st.floats(min_value=0.0, max_value=600.0), min_size=1, max_size=30),
)
def test_estimate_matches_reference_formula(seed, lag, noise, times):
    # Each time again, then all in reverse: repeated and out-of-order
    # seconds must hit the memo and still agree.
    probes = times + times + times[::-1]
    estimator = BandwidthEstimator(CHANNEL, lag=lag, noise=noise, seed=seed)
    expected = [reference_estimate(CHANNEL, lag, noise, seed, t) for t in probes]
    assert [estimator.estimate(t) for t in probes] == expected
    for t in probes:
        estimator.record(t)
    assert estimator._history == expected


# ---------------------------------------------------------------------------
# shared channel trace
# ---------------------------------------------------------------------------


def direct_wuhan_samples(seed: int, duration: int, bus_fraction: float):
    """``wuhan_trace``'s synthesis spelled out, without any cache."""
    rng = random.Random(seed)
    bus_seconds = int(duration * bus_fraction)
    bus = synthesize_regime(
        rng, bus_seconds, median_rate=90_000.0, sigma=0.9, fade_prob=0.02,
        fade_depth=0.06, fade_duration_mean=6.0, smoothing=0.7,
    )
    campus = synthesize_regime(
        rng, duration - bus_seconds, median_rate=170_000.0, sigma=0.45,
        fade_prob=0.004, fade_depth=0.3, fade_duration_mean=3.0, smoothing=0.6,
    )
    return bus + campus


@settings(max_examples=25, deadline=None)
@given(
    seed=st.integers(min_value=0, max_value=2**32),
    duration=st.integers(min_value=1, max_value=400),
    bus_fraction=st.floats(min_value=0.0, max_value=1.0),
)
def test_wuhan_trace_is_a_fresh_copy_of_the_direct_synthesis(seed, duration, bus_fraction):
    expected = direct_wuhan_samples(seed, duration, bus_fraction)
    first = wuhan_trace(seed, duration=duration, bus_fraction=bus_fraction)
    assert first.samples == expected
    first.samples[0] = 0.0
    first.samples.append(1.0)
    second = wuhan_trace(seed, duration=duration, bus_fraction=bus_fraction)
    assert second.samples is not first.samples
    assert second.samples == expected


def test_default_channel_models_are_not_shared():
    a, b = wuhan_bandwidth_model(), wuhan_bandwidth_model()
    assert a is not b and a.samples is not b.samples
    assert a.samples == b.samples


# ---------------------------------------------------------------------------
# monotone declarations
# ---------------------------------------------------------------------------

MONOTONE_FAMILIES = [
    MailCost,
    WeiboCost,
    CloudCost,
    StepCost,
    lambda deadline: LinearCost(slope=1.0 / deadline, deadline=deadline),
    lambda deadline: ZeroCost(),
]

delays = st.one_of(
    st.floats(min_value=0.0, max_value=1e7),
    st.integers(min_value=0, max_value=5000).map(float),
)


@settings(max_examples=300, deadline=None)
@given(
    make=st.sampled_from(MONOTONE_FAMILIES),
    deadline=st.one_of(
        st.floats(min_value=1e-3, max_value=1e5),
        st.sampled_from([30.0, 60.0, 120.0, 0.1, 0.3, 7.0]),
    ),
    pair=st.tuples(delays, delays),
)
def test_declared_monotone_cost_is_float_monotone(make, deadline, pair):
    phi = make(deadline)
    if not phi.monotone:
        return
    d1, d2 = sorted(pair)
    assert phi(d1) <= phi(d2)
    # Random pairs rarely straddle the branch point; check it directly.
    below = math.nextafter(deadline, 0.0)
    above = math.nextafter(deadline, math.inf)
    assert phi(below) <= phi(deadline) <= phi(above)


def test_shipped_profiles_declare_monotone():
    for profile in (mail_profile(), weibo_profile(), cloud_profile()):
        assert profile.cost_function.monotone
    # Not proven float-monotone at its breakpoints: keeps stepping.
    assert not PiecewiseLinearCost([(0.0, 0.0), (10.0, 1.0)]).monotone


# ---------------------------------------------------------------------------
# bounded harvest search
# ---------------------------------------------------------------------------


def test_harvest_search_stops_at_until():
    battery = HarvestingBattery(initial_j=0.0, harvest_rate_max=0.01, harvest_window_s=10.0)
    # 39 J at <= 0.01 J/s takes thousands of seconds; the scan must give
    # up at the first window past `until` rather than find it.
    assert battery.when_stored_at_least(39.0, 0.0, until=95.0) is None
    assert len(battery._rates) <= math.floor(95.0 / 10.0) + 1
    crossing = battery.when_stored_at_least(0.05, 0.0, until=1e6)
    assert crossing is not None and battery.stored_at(crossing) >= 0.05 - 1e-12
    assert battery.when_stored_at_least(0.05, 0.0, until=crossing) == crossing
    assert battery.when_stored_at_least(0.05, 0.0, until=math.nextafter(crossing, 0.0)) is None


def test_harvest_search_has_no_window_cap_knob():
    battery = HarvestingBattery()
    with pytest.raises(TypeError):
        battery.when_stored_at_least(1.0, 0.0)
    with pytest.raises(TypeError):
        battery.when_stored_at_least(1.0, 0.0, until=10.0, max_windows=5)


@pytest.mark.parametrize("window", [60.0, 5.0, 1.0])
@pytest.mark.parametrize("seed", [1009, 36, 37])
def test_starved_harvest_lazy_draws_only_lived_windows(window, seed):
    horizon = 30.0
    runs = {}
    for dense in (False, True):
        scenario = ScenarioSpec(seed=seed, horizon=horizon).build()
        strategy = StrategySpec.make(
            "harvest_lazy",
            initial_j=0.0,
            harvest_rate_max=0.0,
            harvest_window_s=window,
        ).build(scenario)
        sim = Simulation(
            strategy,
            scenario.train_generators,
            scenario.fresh_packets(),
            power_model=scenario.power_model,
            bandwidth=scenario.bandwidth,
            horizon=scenario.horizon,
            dense=dense,
        )
        runs[dense] = (sim.run().summary(), sim.loop_iterations, strategy.battery)
    summary, iterations, battery = runs[False]
    assert len(battery._rates) <= math.ceil(horizon / window) + 1
    assert iterations <= runs[True][1]
    assert summary == runs[True][0]


# ---------------------------------------------------------------------------
# Θ-crossing horizon
# ---------------------------------------------------------------------------

APPS = ("mail", "weibo", "cloud")
ENGINE_SLOTS = [1.0, 0.7, 0.3, 0.25, 1.3, 2.0]

steps = st.lists(
    st.tuples(
        st.integers(min_value=1, max_value=40),  # engine slots to advance
        st.lists(  # arrivals since the previous wake: (app, position in the gap)
            st.tuples(st.sampled_from(APPS), st.floats(min_value=0.0, max_value=1.0)),
            max_size=4,
        ),
        st.booleans(),  # heartbeat at this wake
    ),
    min_size=1,
    max_size=15,
)


@SETTINGS
@given(
    theta=st.one_of(st.floats(min_value=0.0, max_value=6.0), st.sampled_from([0.0, 0.2, 1.0])),
    deadlines=st.tuples(*(st.sampled_from([3.0, 7.0, 30.0, 60.0, 120.0]) for _ in APPS)),
    engine_slot=st.sampled_from(ENGINE_SLOTS),
    strategy_slot=st.sampled_from([1.0, 0.5, 1.5]),
    wakes=steps,
)
def test_cost_stays_below_theta_before_horizon(
    theta, deadlines, engine_slot, strategy_slot, wakes
):
    """Drive the strategy as the event engine does and, after every
    wake, check each decision time the engine would skip."""
    makers = (mail_profile, weibo_profile, cloud_profile)
    profiles = [make(deadline=d) for make, d in zip(makers, deadlines)]
    strategy = ETrainStrategy(profiles, SchedulerConfig(theta=theta, slot=strategy_slot))
    scheduler = strategy.scheduler
    granularity = max(strategy_slot, engine_slot)
    k = 0
    for advance, arrivals, heartbeat in wakes:
        prev, k = k * engine_slot, k + advance
        now = k * engine_slot
        for app, pos in sorted(arrivals, key=lambda a: a[1]):
            packet = Packet(app_id=app, arrival_time=prev + pos * (now - prev), size_bytes=1000)
            strategy.on_arrival(packet, now)
        if is_decision_slot(now, engine_slot, granularity):
            strategy.decide(now, heartbeat)
        horizon = strategy.decision_horizon(now)
        assert horizon >= now and math.isfinite(horizon)
        j = k + 1
        while j * engine_slot < horizon and j - k <= 300:
            t = j * engine_slot
            if is_decision_slot(t, engine_slot, granularity):
                assert scheduler.instantaneous_cost(t) < theta, (t, horizon)
            j += 1


def test_horizon_lands_on_the_crossing_slot():
    # One weibo packet: P(t) = t / 30 reaches Θ = 0.5 at t = 15.
    strategy = ETrainStrategy([weibo_profile()], SchedulerConfig(theta=0.5))
    strategy.on_arrival(Packet(app_id="weibo", arrival_time=0.0, size_bytes=100), 0.0)
    assert strategy.decide(0.0, False) == []
    horizon = strategy.decision_horizon(0.0)
    assert 14.0 < horizon <= 15.0
    assert strategy.decide(15.0, False)


def test_non_monotone_queue_falls_back_to_stepping():
    odd = CargoAppProfile(
        app_id="odd",
        cost_function=PiecewiseLinearCost([(0.0, 0.0), (10.0, 1.0)]),
        mean_size_bytes=100,
        min_size_bytes=10,
        deadline=10.0,
        mean_interarrival=10.0,
    )
    strategy = ETrainStrategy([weibo_profile(), odd], SchedulerConfig(theta=0.5))
    strategy.on_arrival(Packet(app_id="weibo", arrival_time=0.0, size_bytes=100), 0.0)
    assert strategy.decision_horizon(0.0) == 0.0
