"""Property-based engine invariants (issue: parallel runner test suite).

Whatever the strategy, seed, slot size or horizon, one simulation run
must conserve its inputs:

* every cargo packet is transmitted exactly once — its id appears in
  exactly one transmission record (flushed leftovers included);
* the analytic energy total equals the per-record recomputation
  (transmission + capped-gap tail + cold-start signaling);
* heartbeats are never dropped, delayed out of order, or duplicated.

These are checked over a randomized grid of strategies and engine
parameters via hypothesis, plus deterministic unit tests for the
decision-slot arithmetic and packet-id stability fixes.
"""

from __future__ import annotations

import math
from typing import List

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from repro.baselines.base import TransmissionStrategy
from repro.core.packet import Packet
from repro.sim.engine import Simulation
from repro.sim.parallel import ScenarioSpec, StrategySpec
from repro.sim.runner import default_scenario, run_strategy

#: Strategy specs spanning the warm-gated, channel-timed and trivial
#: families (channel_aware exercises estimator noise inside workers).
STRATEGY_SPECS = [
    StrategySpec.make("immediate"),
    StrategySpec.make("etrain", theta=1.0),
    StrategySpec.make("etrain", theta=0.2, warm_gate=False),
    StrategySpec.make("peres", omega=0.4),
    StrategySpec.make("etime", v=40_000.0),
    StrategySpec.make("periodic", period=45.0),
    StrategySpec.make("tailender"),
]


def _run(strategy_spec: StrategySpec, scenario_spec: ScenarioSpec):
    scenario = scenario_spec.build()
    strategy = strategy_spec.build(scenario)
    return run_strategy(strategy, scenario)


@st.composite
def _cases(draw):
    strategy = draw(st.sampled_from(STRATEGY_SPECS))
    seed = draw(st.integers(min_value=0, max_value=40))
    horizon = draw(st.sampled_from([240.0, 450.0, 600.0]))
    slot = draw(st.sampled_from([0.25, 0.5, 1.0, 1.5]))
    return strategy, ScenarioSpec(seed=seed, horizon=horizon, slot=slot)


@settings(max_examples=25, deadline=None)
@given(case=_cases())
def test_every_packet_transmitted_exactly_once(case):
    """Packet conservation: each id in exactly one record, flush included."""
    strategy_spec, scenario_spec = case
    result = _run(strategy_spec, scenario_spec)

    transmitted: List[int] = []
    for record in result.records:
        transmitted.extend(record.packet_ids)

    expected = sorted(p.packet_id for p in result.packets)
    assert sorted(transmitted) == expected
    assert len(set(transmitted)) == len(transmitted)
    # Everything the engine force-flushed still went over the radio.
    assert result.flushed_packets <= len(result.packets)
    assert all(p.is_scheduled for p in result.packets)


@settings(max_examples=25, deadline=None)
@given(case=_cases())
def test_energy_total_matches_per_record_recomputation(case):
    """The analytic total is exactly the sum of per-record energies."""
    strategy_spec, scenario_spec = case
    result = _run(strategy_spec, scenario_spec)
    scenario = scenario_spec.build()
    pm = scenario.power_model

    records = result.records
    for a, b in zip(records, records[1:]):
        assert b.start >= a.start
        assert b.start >= a.end - 1e-9  # the radio serialises bursts

    recomputed = 0.0
    for i, record in enumerate(records):
        recomputed += pm.transmission_energy(record.duration)
        gap = (
            records[i + 1].start - record.end
            if i + 1 < len(records)
            else math.inf
        )
        recomputed += pm.tail_energy(min(max(0.0, gap), pm.tail_time))
    # Cold-start signaling (promotion energy) is counted separately from
    # the burst log; fold it in from the breakdown's own field.
    recomputed += result.energy.signaling

    assert result.total_energy == pytest.approx(recomputed, rel=1e-12, abs=1e-9)
    assert result.energy.total == pytest.approx(
        result.energy.transmission + result.energy.tail + result.energy.signaling
    )


@settings(max_examples=25, deadline=None)
@given(case=_cases())
def test_heartbeats_never_dropped_or_reordered(case):
    """Each heartbeat rides exactly one burst, in departure order."""
    strategy_spec, scenario_spec = case
    result = _run(strategy_spec, scenario_spec)

    times = [hb.time for hb in result.heartbeats]
    assert times == sorted(times)

    # Greedily match heartbeats to carrying records in order: every
    # heartbeat must find its own later-or-equal burst that lists its
    # app, with record indices strictly increasing (no sharing, no
    # reordering).  Bare heartbeats yield "heartbeat" records; uplink
    # piggybacks carry the heartbeat app first in ``app_ids``.
    carrying = [
        r for r in result.records if r.kind in ("heartbeat", "piggyback")
    ]
    idx = 0
    for hb in result.heartbeats:
        while idx < len(carrying) and not (
            carrying[idx].start >= hb.time - 1e-9
            and hb.app_id in carrying[idx].app_ids
        ):
            idx += 1
        assert idx < len(carrying), f"heartbeat at t={hb.time} was dropped"
        idx += 1


# ---------------------------------------------------------------------------
# Decision-slot arithmetic (the epsilon in
# repro.sim.decision.is_decision_slot)
# ---------------------------------------------------------------------------


class _ProbeStrategy(TransmissionStrategy):
    """Records every decision time; never holds or releases packets."""

    name = "probe"

    def __init__(self, granularity: float) -> None:
        self.slot = granularity
        self.decide_times: List[float] = []

    def on_arrival(self, packet: Packet, now: float) -> None:
        pass

    def decide(self, now: float, heartbeat_present: bool) -> List[Packet]:
        self.decide_times.append(now)
        return []


def _decision_times(engine_slot: float, granularity: float, horizon: float):
    probe = _ProbeStrategy(granularity)
    Simulation(probe, [], [], horizon=horizon, slot=engine_slot).run()
    return probe.decide_times


@pytest.mark.parametrize("engine_slot", [0.25, 0.5, 1.5])
def test_decision_each_slot_when_granularity_not_coarser(engine_slot):
    """granularity <= slot: the strategy decides every engine slot."""
    times = _decision_times(engine_slot, granularity=engine_slot, horizon=30.0)
    expected = [i * engine_slot for i in range(int(round(30.0 / engine_slot)))]
    assert times == pytest.approx(expected)


@pytest.mark.parametrize(
    "engine_slot,granularity",
    [(0.25, 1.0), (0.5, 60.0), (1.5, 60.0), (0.25, 0.3), (1.0, 60.0)],
)
def test_decisions_align_to_granularity(engine_slot, granularity):
    """One decision per granularity period, in the first covering slot."""
    horizon = 240.0
    times = _decision_times(engine_slot, granularity, horizon)
    # Expected: for each multiple m*g < horizon, the first slot start >= m*g.
    expected = []
    m = 0
    while m * granularity < horizon - 1e-9:
        point = m * granularity
        slot_index = math.ceil(point / engine_slot - 1e-9)
        start = slot_index * engine_slot
        if start < horizon:
            expected.append(start)
        m += 1
    assert times == pytest.approx(sorted(set(expected)))


def test_decision_slots_immune_to_float_drift():
    """0.1-style slots accumulate float error; every period still decides."""
    times = _decision_times(engine_slot=0.1, granularity=0.5, horizon=50.0)
    # 100 decision points (0.0, 0.5, ..., 49.5), none skipped or doubled.
    assert len(times) == 100
    diffs = [b - a for a, b in zip(times, times[1:])]
    assert all(d == pytest.approx(0.5, abs=1e-6) for d in diffs)


# ---------------------------------------------------------------------------
# Packet-id stability (issue satellite: Scenario.fresh_packets drift)
# ---------------------------------------------------------------------------


def test_fresh_packets_preserve_packet_ids():
    scenario = default_scenario(seed=3, horizon=600.0)
    original = [p.packet_id for p in scenario.packets]
    assert [p.packet_id for p in scenario.fresh_packets()] == original
    # And again: repeated copies never consume the global id counter.
    assert [p.packet_id for p in scenario.fresh_packets()] == original


def test_consecutive_runs_see_identical_packet_ids():
    """Two run_strategy calls on one scenario transmit the same ids."""
    scenario = default_scenario(seed=1, horizon=600.0)
    spec = StrategySpec.make("etrain", theta=1.0)

    def transmitted_ids():
        result = run_strategy(spec.build(scenario), scenario)
        return sorted(
            pid for record in result.records for pid in record.packet_ids
        )

    first, second = transmitted_ids(), transmitted_ids()
    assert first == second
    assert first == sorted(p.packet_id for p in scenario.packets)
