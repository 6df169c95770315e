"""Per-device scheduling sessions and the O(1) session store.

A :class:`DeviceSession` is the online counterpart of one scalar
:class:`repro.sim.engine.Simulation`: it consumes heartbeat/cargo
observations with non-decreasing timestamps and feeds them to the same
resumable slot driver the batch engine runs
(:class:`repro.sim.decision.SlotCursor`).  A slot is *finalized* — its
decision made and its bursts emitted — as soon as an observed event
time proves the slot can receive no further inputs (every event in
slot ``j`` has time below the slot end, so an event at or past the end
closes it).  The cursor skips quiet slots exactly as the batch engine
does, with each jump capped at the first slot not yet finalizable.
Closing the session runs the remaining slots and the cursor's
end-of-horizon flush, so the finished session's
:class:`~repro.sim.results.SimulationResult` is bit-identical to the
batch run over the same events.

Packet ids are session-local and sequential in arrival order, matching
the fleet reference path (``_device_scenario`` resets the global
counter per device), so burst ``packet_ids`` on the wire line up with
the batch run's.

The :class:`SessionStore` maps device id → session with O(1) lookup
(plain ordered dict) and LRU eviction that *never* drops a session
still owing cargo — a device with queued packets keeps its seat until
the packets are transmitted or the client closes it.
"""

from __future__ import annotations

import math
from collections import OrderedDict
from typing import Dict, List, Optional, Sequence, Tuple

from repro.bandwidth.models import BandwidthModel
from repro.baselines.base import BandwidthEstimator
from repro.core.packet import Heartbeat, Packet, TransmissionRecord
from repro.core.profiles import CargoAppProfile
from repro.radio.interface import RadioInterface
from repro.radio.power_model import GALAXY_S4_3G, PowerModel
from repro.serve.protocol import ProtocolError
from repro.sim.decision import DecisionState, SlotCursor
from repro.sim.fleet.workload import COST_KINDS
from repro.sim.results import SimulationResult

__all__ = ["DeviceSession", "SessionStore", "profiles_from_specs"]

#: int cost-kind → cost-function class (inverse of the fleet mapping, so
#: wire specs and fleet workload arrays agree by construction).
COST_CLASSES = {kind: cls for cls, kind in COST_KINDS.items()}


def profiles_from_specs(apps: Sequence[Dict]) -> List[CargoAppProfile]:
    """Cargo profiles from wire app specs, fleet-reference semantics.

    Mirrors ``repro.sim.fleet.reference.reference_profiles``: cost shape
    and deadline round-trip exactly; size/interarrival means are
    nominal (the event stream already realizes them).
    """
    out = []
    for spec in apps:
        try:
            app_id = spec["app_id"]
            kind = int(spec["cost_kind"])
            deadline = float(spec["deadline"])
            cost_cls = COST_CLASSES[kind]
        except (KeyError, TypeError, ValueError):
            raise ProtocolError(
                "bad_app_spec",
                f"app spec must carry app_id/cost_kind/deadline, got {spec!r}",
            )
        out.append(
            CargoAppProfile(
                app_id=app_id,
                cost_function=cost_cls(deadline),
                mean_size_bytes=1000,
                min_size_bytes=1,
                deadline=deadline,
                mean_interarrival=60.0,
            )
        )
    return out


class _SessionScenario:
    """The slice of a Scenario the strategy builders actually touch."""

    def __init__(self, profiles: List[CargoAppProfile], bandwidth) -> None:
        self.profiles = profiles
        self.bandwidth = bandwidth

    def estimator(
        self, *, lag: float = 2.0, noise: float = 0.3, seed: int = 0
    ) -> BandwidthEstimator:
        return BandwidthEstimator(self.bandwidth, lag=lag, noise=noise, seed=seed)


class DeviceSession:
    """One device's online scheduler: event stream in, decisions out."""

    def __init__(
        self,
        device: str,
        *,
        strategy: str = "etrain",
        params: Optional[Dict] = None,
        horizon: float = 7200.0,
        slot: float = 1.0,
        power_model: Optional[PowerModel] = None,
        bandwidth: Optional[BandwidthModel] = None,
        profiles: Optional[Sequence[CargoAppProfile]] = None,
    ) -> None:
        from repro.sim.parallel.specs import STRATEGY_BUILDERS

        if not 0 < horizon < math.inf:
            raise ProtocolError(
                "bad_request", f"horizon must be finite and > 0, got {horizon}"
            )
        if not 0 < slot < math.inf:
            raise ProtocolError(
                "bad_request", f"slot must be finite and > 0, got {slot}"
            )
        if strategy not in STRATEGY_BUILDERS:
            raise ProtocolError(
                "unknown_strategy",
                f"unknown strategy {strategy!r}; known: {sorted(STRATEGY_BUILDERS)}",
            )
        if profiles is None:
            from repro.core.profiles import DEFAULT_CARGO_PROFILES

            profiles = DEFAULT_CARGO_PROFILES()
        self.device = device
        self.strategy_name = strategy
        self.profiles = list(profiles)
        self.horizon = float(horizon)
        self.slot = float(slot)
        scenario = _SessionScenario(self.profiles, bandwidth)
        try:
            strategy_obj = STRATEGY_BUILDERS[strategy](scenario, **(params or {}))
        except TypeError as exc:
            raise ProtocolError("bad_params", f"{strategy}: {exc}")
        radio = RadioInterface(
            power_model if power_model is not None else GALAXY_S4_3G, bandwidth
        )
        # Strategies owning a harvesting battery (harvest_lazy) gate
        # standalone bursts on it — same pickup as the batch engine.
        self.state = DecisionState.fresh(
            strategy_obj, radio, self.slot, getattr(strategy_obj, "battery", None)
        )
        self.cursor = SlotCursor(self.state, self.horizon)
        self.closed = False
        self.events = 0
        self._app_ids = {p.app_id for p in self.profiles}
        self._next_packet_id = 0
        self._watermark = 0.0  # highest event time observed

    @property
    def n_slots(self) -> int:
        """Slots in the session horizon."""
        return self.cursor.n_slots

    @property
    def packets(self) -> List[Packet]:
        """Every cargo packet observed so far, in arrival order."""
        return self.cursor.packets

    # -- admission-control bookkeeping ---------------------------------

    @property
    def pending_cargo(self) -> int:
        """Cargo the session still owes the radio (buffered + queued + Q_TX)."""
        return self.cursor.undelivered + self.state.pending_cargo

    # -- event intake --------------------------------------------------

    def _check_event(self, t: float) -> float:
        if self.closed:
            raise ProtocolError("session_closed", f"{self.device} already closed")
        try:
            t = float(t)
        except (TypeError, ValueError):
            raise ProtocolError("bad_event", f"event time must be a number, got {t!r}")
        if not math.isfinite(t):
            # NaN would slip past every ordering check below.
            raise ProtocolError("bad_event", f"event time must be finite, got {t!r}")
        if t < self._watermark:
            raise ProtocolError(
                "out_of_order",
                f"event at t={t} behind session watermark {self._watermark}",
            )
        if t >= self.horizon:
            raise ProtocolError(
                "past_horizon", f"event at t={t} >= horizon {self.horizon}"
            )
        self._watermark = t
        return t

    def on_cargo(
        self,
        t: float,
        app: str,
        size: int,
        deadline: Optional[float] = None,
        direction: str = "up",
    ) -> Tuple[List[TransmissionRecord], int]:
        """A cargo packet arrived; returns (finalized bursts, decisions)."""
        t = self._check_event(t)
        if app not in self._app_ids:
            raise ProtocolError(
                "unknown_app", f"app {app!r} not declared in this session"
            )
        try:
            packet = Packet(
                app_id=app,
                arrival_time=t,
                size_bytes=int(size),
                deadline=None if deadline is None else float(deadline),
                packet_id=self._next_packet_id,
                direction=direction,
            )
        except (TypeError, ValueError) as exc:
            raise ProtocolError("bad_event", str(exc))
        self._next_packet_id += 1
        self.cursor.push_arrival(packet)
        self.events += 1
        return self._finalize(t)

    def on_heartbeat(
        self, t: float, app: str, seq: int, size: int
    ) -> Tuple[List[TransmissionRecord], int]:
        """A heartbeat was observed; returns (finalized bursts, decisions)."""
        t = self._check_event(t)
        try:
            hb = Heartbeat(app_id=app, seq=int(seq), time=t, size_bytes=int(size))
        except (TypeError, ValueError) as exc:
            raise ProtocolError("bad_event", str(exc))
        self.cursor.push_heartbeat(hb)
        self.events += 1
        return self._finalize(t)

    def _finalize(self, limit: float) -> Tuple[List[TransmissionRecord], int]:
        """Finalize every slot ending by ``limit``; returns the bursts and
        decisions those slots produced."""
        state = self.state
        records = state.radio.records
        n0, d0 = len(records), state.decisions
        self.cursor.advance_until(limit)
        return records[n0:], state.decisions - d0

    # -- end of session ------------------------------------------------

    def close(self) -> Tuple[SimulationResult, List[TransmissionRecord], int]:
        """Run out the horizon and force-flush, exactly like the engine.

        Returns the finished result plus the bursts and decision count
        this close finalized.
        """
        if self.closed:
            raise ProtocolError("session_closed", f"{self.device} already closed")
        state = self.state
        records = state.radio.records
        n0, d0 = len(records), state.decisions
        flushed = self.cursor.finish()
        self.closed = True
        result = SimulationResult(
            strategy_name=state.strategy.name,
            horizon=self.horizon,
            records=list(records),
            packets=list(self.cursor.packets),
            heartbeats=list(self.cursor.heartbeats),
            energy=state.radio.energy_breakdown(),
            flushed_packets=flushed,
            decisions=state.decisions,
        )
        return result, records[n0:], state.decisions - d0


class SessionStore:
    """Device id → session, O(1) lookup, pending-cargo-safe LRU eviction."""

    def __init__(self, capacity: int = 4096) -> None:
        if capacity < 1:
            raise ValueError(f"capacity must be >= 1, got {capacity}")
        self.capacity = capacity
        self._sessions: "OrderedDict[str, DeviceSession]" = OrderedDict()
        self.evictions = 0

    def __len__(self) -> int:
        return len(self._sessions)

    def __contains__(self, device: str) -> bool:
        return device in self._sessions

    def devices(self) -> List[str]:
        """Device ids, least-recently-used first."""
        return list(self._sessions)

    def get(self, device: str) -> DeviceSession:
        """Look up a session (and mark it most-recently-used)."""
        try:
            session = self._sessions[device]
        except KeyError:
            raise ProtocolError(
                "unknown_device", f"no open session for device {device!r}"
            )
        self._sessions.move_to_end(device)
        return session

    def put(self, device: str, session: DeviceSession) -> Optional[str]:
        """Register a new session; returns the evicted device id, if any."""
        if device in self._sessions:
            raise ProtocolError(
                "device_exists", f"device {device!r} already has an open session"
            )
        evicted = None
        if len(self._sessions) >= self.capacity:
            evicted = self._evict_one()
        self._sessions[device] = session
        return evicted

    def pop(self, device: str) -> DeviceSession:
        """Remove and return a session (for close)."""
        try:
            return self._sessions.pop(device)
        except KeyError:
            raise ProtocolError(
                "unknown_device", f"no open session for device {device!r}"
            )

    def _evict_one(self) -> str:
        """Drop the least-recently-used session that owes no cargo.

        Sessions still holding cargo (buffered arrivals, strategy queue
        or Q_TX) are never evicted; when every resident session owes
        cargo the store is genuinely full and the open is shed as
        retryable overload instead.
        """
        victim = None
        for dev, session in self._sessions.items():  # LRU order
            if session.pending_cargo == 0:
                victim = dev
                break
        if victim is None:
            raise ProtocolError(
                "sessions_exhausted",
                f"all {len(self._sessions)} sessions hold pending cargo",
                retryable=True,
            )
        del self._sessions[victim]
        self.evictions += 1
        return victim
