"""Slotted discrete-event simulator (Sec. IV's slotted time model).

The engine models time in fixed slots (1 s by default).  In each slot it:

1. delivers to the strategy every cargo packet that arrived by the slot
   boundary (the paper assumes packets generated within slot *t* arrive
   by the end of slot *t*);
2. invokes the strategy's decision — but only on multiples of the
   strategy's own decision granularity (eTime decides every 60 s);
3. transmits this slot's heartbeats at their exact departure times,
   piggybacking the strategy's released packets onto the first heartbeat
   of the slot when there is one, otherwise sending them as a standalone
   data burst at the slot start.

Heartbeats are never rescheduled; the radio serialises overlapping bursts
(constraint (3)).  At the horizon the strategy's leftover queue is force-
flushed so every packet is accounted for.

The slot loop itself is :class:`repro.sim.decision.SlotCursor`, the one
driver the serving layer also runs; this module is the batch shell that
feeds it a whole run's packets and heartbeats.  Two skip policies give
bit-identical results:

* the **dense** reference policy (``Simulation(..., dense=True)``)
  visits every slot in order;
* the default **event-horizon** policy fast-forwards between
  *interesting* slots — the earliest of the next packet arrival, the
  next heartbeat and the next decision slot the strategy may act in
  (per its :attr:`~repro.baselines.base.TransmissionStrategy.is_idle` /
  :meth:`~repro.baselines.base.TransmissionStrategy.decision_horizon`
  contract).  Skipped decision slots are still counted and are offered
  back through
  :meth:`~repro.baselines.base.TransmissionStrategy.on_decisions_skipped`.
  See ``docs/performance.md``.
"""

from __future__ import annotations

import time
from typing import Optional, Sequence

from repro.bandwidth.models import BandwidthModel
from repro.baselines.base import TransmissionStrategy
from repro.core.packet import Packet
from repro.heartbeat.generators import HeartbeatGenerator, merge_heartbeats
from repro.radio.interface import RadioInterface
from repro.radio.power_model import PowerModel
from repro.sim.decision import DecisionState, DecisionWindow, SlotCursor
from repro.sim.results import SimulationResult

__all__ = ["Simulation", "DecisionWindow"]


class Simulation:
    """One run of a strategy against a workload, trains and a channel."""

    def __init__(
        self,
        strategy: TransmissionStrategy,
        train_generators: Sequence[HeartbeatGenerator],
        packets: Sequence[Packet],
        *,
        power_model: Optional[PowerModel] = None,
        bandwidth: Optional[BandwidthModel] = None,
        horizon: float = 7200.0,
        slot: float = 1.0,
        dense: bool = False,
        recorder=None,
        trace_app_costs=None,
        battery=None,
    ) -> None:
        if horizon <= 0:
            raise ValueError(f"horizon must be > 0, got {horizon}")
        if slot <= 0:
            raise ValueError(f"slot must be > 0, got {slot}")
        self.strategy = strategy
        self.train_generators = list(train_generators)
        self.packets = sorted(packets, key=lambda p: (p.arrival_time, p.packet_id))
        self.power_model = power_model
        self.bandwidth = bandwidth
        self.horizon = float(horizon)
        self.slot = float(slot)
        #: Select the cursor's dense reference policy instead of the
        #: event-horizon policy.  Both produce bit-identical results;
        #: dense exists for A/B equivalence testing and as the
        #: micro-benchmark baseline.
        self.dense = dense
        #: Optional :class:`repro.obs.recorder.Recorder` sink.  When None
        #: (the default) the run constructs no observability objects at
        #: all; when set, the full event trace is derived from the
        #: completed result after the slot loop finishes, so the hot paths
        #: are identical either way (see ``repro.obs.tracer``).
        self.recorder = recorder
        #: Optional ``{app_id: {"cost_kind", "deadline"}}`` table for the
        #: trace's delay-cost accounting (``repro.obs.events.app_cost_table``).
        self.trace_app_costs = trace_app_costs
        #: Optional :class:`~repro.sim.battery.HarvestingBattery` gating
        #: standalone bursts.  When None, a battery the strategy *owns*
        #: (``strategy.battery``, e.g. harvest_lazy) is picked up
        #: automatically so every caller — engine, serve, fleet scalar
        #: fallback — applies the same energy constraint.
        self.battery = battery
        self.radio: Optional[RadioInterface] = None
        #: Slots actually visited by the last run (dense: every slot).
        self.loop_iterations: int = 0

    def run(self) -> SimulationResult:
        """Execute the simulation and return the collected result."""
        from repro.obs.metrics import current_registry

        registry = current_registry()
        t0 = time.perf_counter() if registry is not None else 0.0
        radio = RadioInterface(self.power_model, self.bandwidth)
        self.radio = radio
        heartbeats = merge_heartbeats(self.train_generators, self.horizon)
        battery = (
            self.battery
            if self.battery is not None
            else getattr(self.strategy, "battery", None)
        )

        state = DecisionState.fresh(self.strategy, radio, self.slot, battery)
        cursor = SlotCursor(
            state,
            self.horizon,
            dense=self.dense,
            packets=self.packets,
            heartbeats=heartbeats,
        )
        flushed = cursor.finish()
        self.loop_iterations = cursor.visited
        decisions = state.decisions

        result = SimulationResult(
            strategy_name=self.strategy.name,
            horizon=self.horizon,
            records=list(radio.records),
            packets=list(self.packets),
            heartbeats=heartbeats,
            energy=radio.energy_breakdown(),
            flushed_packets=flushed,
            decisions=decisions,
        )
        if registry is not None:
            registry.counter("engine.runs").inc()
            registry.counter("engine.slots_visited").inc(self.loop_iterations)
            registry.counter("engine.decisions").inc(decisions)
            registry.counter("engine.bursts").inc(len(result.records))
            registry.counter("engine.packets").inc(len(self.packets))
            registry.counter("engine.flushed_packets").inc(flushed)
            registry.counter("engine.cold_starts").inc(radio.cold_starts)
            registry.histogram("engine.run_wall_s").observe(
                time.perf_counter() - t0
            )
        if self.recorder is not None:
            from repro.obs.tracer import emit_simulation_trace

            emit_simulation_trace(
                self.recorder,
                result,
                power_model=radio.power_model,
                slot=self.slot,
                app_costs=self.trace_app_costs,
            )
        return result
