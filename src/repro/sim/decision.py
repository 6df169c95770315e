"""The slot kernel and the one slot driver, shared by simulator and server.

Sec. IV's slotted model runs one per-slot rule.  This module holds it
once, for every caller:

* :func:`is_decision_slot` — the decision-granularity predicate, exact
  float semantics shared by every caller;
* :func:`slot_step` — one slot's decide + transmit step, mutating the
  strategy/radio/held triple;
* :class:`SlotCursor` — the resumable driver that assembles each slot's
  arrivals and heartbeats, runs :func:`slot_step`, fast-forwards over
  slots that cannot change the outcome, and force-flushes at the
  horizon.  :class:`repro.sim.engine.Simulation` feeds it a whole run
  at once; :class:`repro.serve.sessions.DeviceSession` feeds it one
  observed event at a time;
* :class:`DecisionState` / :class:`SlotEvent` / :func:`advance` /
  :func:`decide` — an event-level API over the same kernel.
  ``advance`` applies one slot's worth of events in place; ``decide``
  is its pure counterpart — it clones the state first, so the same
  ``(state, event)`` pair always yields the same decision and never
  aliases or mutates the caller's state.

Because the batch engine and the server drive the same cursor, the
dense/event/fleet/serve equivalence oracles certify one loop.
"""

from __future__ import annotations

import copy
import math
from bisect import bisect_left, bisect_right
from dataclasses import dataclass, field
from fractions import Fraction
from typing import Iterable, List, Optional, Sequence, Tuple

from repro.baselines.base import TransmissionStrategy
from repro.core.packet import Heartbeat, Packet, TransmissionRecord
from repro.radio.interface import RadioInterface

__all__ = [
    "is_decision_slot",
    "slot_step",
    "can_skip",
    "DecisionWindow",
    "SlotCursor",
    "DecisionState",
    "SlotEvent",
    "DecisionOutcome",
    "advance",
    "decide",
    "clone_state",
]


def is_decision_slot(t: float, slot: float, granularity: float) -> bool:
    """Whether a strategy decides in the slot starting at ``t``.

    The strategy decides in the first slot whose start is at or after
    each multiple of its decision granularity.  This stays correct when
    the granularity is not an integer multiple of the engine slot and is
    immune to accumulated float error in ``t``: the comparison happens
    in the time domain with a granularity-relative epsilon, not on a
    raw ratio.
    """
    eps = 1e-9 * granularity
    m_curr = math.floor((t + eps) / granularity)
    # Index of the last decision point at or before the previous slot.
    prev = t - slot
    m_prev = math.floor((prev + eps) / granularity) if prev >= 0.0 else -1
    # Decide iff a new decision point landed in (t - slot, t].
    return m_curr > m_prev


def slot_step(
    strategy: TransmissionStrategy,
    radio: RadioInterface,
    held: List[Packet],
    t: float,
    slot_hbs: Sequence[Heartbeat],
    decide_now: bool,
    warm_window: float,
    battery=None,
) -> List[Packet]:
    """Decide and transmit for the slot starting at ``t``; returns held'.

    Piggybacks released packets on the slot's first heartbeat when one
    exists.  Otherwise a warm-radio-gated strategy (eTrain's Q_TX) only
    transmits while the radio is still in its tail; a cold release waits
    for the next promotion.  Other strategies transmit on demand.

    When a :class:`~repro.sim.battery.HarvestingBattery` is present,
    standalone data bursts are additionally gated on stored energy: an
    unaffordable burst stays held until charge accrues.  Heartbeats and
    piggybacks are never gated — the heartbeat departs regardless and
    cargo riding it is (per the paper) nearly free.
    """
    released: List[Packet] = []
    if decide_now:
        released = strategy.decide(t, bool(slot_hbs))
    if slot_hbs:
        first, rest = slot_hbs[0], slot_hbs[1:]
        payload = held + released
        held = []
        if payload:
            radio.transmit_piggyback(first, payload)
        else:
            radio.transmit_heartbeat(first)
        for hb in rest:
            radio.transmit_heartbeat(hb)
    elif released or held:
        radio_warm = bool(radio.records) and t < radio.busy_until + warm_window
        if strategy.requires_warm_radio and not radio_warm:
            held.extend(released)
        else:
            payload = held + released
            held = []
            if payload:
                if battery is not None and not battery.try_spend(
                    t, sum(p.size_bytes for p in payload)
                ):
                    held = payload
                else:
                    radio.transmit_packets(t, payload)
    return held


@dataclass
class DecisionState:
    """Everything one device's scheduler carries between slots.

    The strategy and radio are the live objects the kernel mutates;
    ``held`` is the Q_TX content awaiting radio resource.  ``slot`` and
    ``granularity`` fix the slot geometry (``granularity`` must already
    be ``max(strategy.slot, slot)``); ``decisions`` counts strategy
    decisions exactly as ``SimulationResult.decisions`` does.
    """

    strategy: TransmissionStrategy
    radio: RadioInterface
    slot: float
    granularity: float
    warm_window: float
    held: List[Packet] = field(default_factory=list)
    decisions: int = 0
    #: Optional :class:`~repro.sim.battery.HarvestingBattery` gating
    #: standalone bursts (shared with the strategy when it owns one).
    battery: Optional[object] = None

    @classmethod
    def fresh(
        cls, strategy: TransmissionStrategy, radio: RadioInterface, slot: float,
        battery=None,
    ) -> "DecisionState":
        """A new device's state: nothing held, no decisions yet.

        "Radio resource available" for held Q_TX packets means the radio
        is still in its promoted high-power tail, so the warm window is
        the power model's tail time.
        """
        return cls(
            strategy=strategy,
            radio=radio,
            slot=slot,
            granularity=max(strategy.slot, slot),
            warm_window=radio.power_model.tail_time,
            battery=battery,
        )

    @property
    def pending_cargo(self) -> int:
        """Packets the scheduler still owes the radio (queue + Q_TX)."""
        return self.strategy.pending_count + len(self.held)


# ---------------------------------------------------------------------------
# The slot driver
# ---------------------------------------------------------------------------


def can_skip(strategy: TransmissionStrategy, granularity: float, slot: float) -> bool:
    """Whether an event-horizon cursor could ever jump more than one slot.

    A strategy that keeps the base ``is_idle`` (never idle) and the
    base ``decision_horizon`` (no quiet stretches) while deciding every
    slot forces slot-by-slot stepping; for those the dense policy is
    the event policy, minus the bookkeeping.
    """
    base = TransmissionStrategy
    cls = type(strategy)
    return (
        cls.is_idle is not base.is_idle
        or cls.decision_horizon is not base.decision_horizon
        or granularity > slot
    )


class DecisionWindow:
    """Decision times a cursor skipped, queryable without materialising.

    Passed to :meth:`TransmissionStrategy.on_decisions_skipped`.  Two
    backings: an explicit sorted list of times, or (on exact slot grids)
    an arithmetic description — granularity multiples ``m_lo+1 .. m_hi``
    — whose individual times are derived on demand, so a day-long skip is
    O(1) to describe and O(log)-ish to query.
    """

    __slots__ = ("count", "_times", "_s", "_g", "_eps", "_lo", "_m_lo")

    def __init__(self) -> None:
        self.count = 0
        self._times: Optional[List[float]] = None
        self._s = self._g = self._eps = 0.0
        self._lo = 0
        self._m_lo = 0

    @classmethod
    def from_times(cls, times: List[float]) -> "DecisionWindow":
        win = cls()
        win._times = times
        win.count = len(times)
        return win

    @classmethod
    def from_grid(
        cls, slot: float, granularity: float, eps: float,
        lo_slot: int, m_lo: int, m_hi: int,
    ) -> "DecisionWindow":
        win = cls()
        win._s = slot
        win._g = granularity
        win._eps = eps
        win._lo = lo_slot
        win.count = m_hi - m_lo
        win._m_lo = m_lo
        return win

    def _slot_time(self, m: int) -> float:
        """Time of the decision slot serving granularity multiple ``m``."""
        s, g, eps = self._s, self._g, self._eps
        k = max(self._lo + 1, int((m * g - eps) / s) - 1)
        while math.floor((k * s + eps) / g) < m:
            k += 1
        return k * s

    def first_at_or_after(self, time: float) -> Optional[float]:
        """Smallest skipped decision time >= ``time`` (None past the end)."""
        if self._times is not None:
            idx = bisect_left(self._times, time)
            return self._times[idx] if idx < len(self._times) else None
        m_lo = self._m_lo
        m_hi = m_lo + self.count
        # A decision slot's time lies in [m*g - eps, m*g + s), so no
        # multiple below this candidate can qualify.
        m = max(m_lo + 1, int(math.floor((time - self._s - self._eps) / self._g)))
        while m <= m_hi:
            t_m = self._slot_time(m)
            if t_m >= time:
                return t_m
            m += 1
        return None

    def next_after(self, time: float) -> Optional[float]:
        """Smallest skipped decision time strictly > ``time``."""
        if self._times is not None:
            idx = bisect_right(self._times, time)
            return self._times[idx] if idx < len(self._times) else None
        first = self.first_at_or_after(time)
        if first is None or first > time:
            return first
        # ``time`` is itself a decision time; consecutive decision times
        # are at least one engine slot apart, so half a slot past it
        # lands strictly between it and its successor.
        return self.first_at_or_after(first + 0.5 * self._s)

    def times(self) -> List[float]:
        """All skipped decision times, materialised (O(count))."""
        if self._times is not None:
            return list(self._times)
        m_lo = self._m_lo
        return [self._slot_time(m) for m in range(m_lo + 1, m_lo + self.count + 1)]


class SlotCursor:
    """Resumable driver of the slot loop over one :class:`DecisionState`.

    Each slot ``i`` starts at ``t = i * slot`` and ends at
    ``min(t + slot, horizon)``.  Finalizing it delivers every queued
    arrival with ``arrival_time <= t`` (the paper assumes packets
    generated within a slot arrive by its end), collects the heartbeats
    departing before the slot end in (time, app_id, seq) order, and runs
    :func:`slot_step` — deciding only on multiples of the strategy's
    own granularity.

    The skip policy is fixed at construction:

    * **dense** (``dense=True``, or a strategy :func:`can_skip` rules
      out) visits every slot and delivers arrivals one at a time through
      ``on_arrival`` — the reference oracle;
    * **event-horizon** delivers arrivals in bulk through
      ``on_arrivals`` and, after each visited slot, jumps to the
      earliest of the next arrival's delivery slot, the next
      heartbeat's slot, the first decision slot at or after the
      strategy's :meth:`~repro.baselines.base.TransmissionStrategy.decision_horizon`
      (any slot at all while it :attr:`~repro.baselines.base.TransmissionStrategy.is_idle`),
      and the first slot :meth:`advance_until` may not finalize yet.

    Skipping is sound because a slot with no arrivals, no heartbeats and
    no effective decision changes nothing: held Q_TX packets only wait
    for a warm radio, and the radio only warms up at a transmission,
    which only happens in a visited slot.  Skipped decision slots are
    still counted (``state.decisions`` matches the dense policy) and are
    offered to the strategy as a :class:`DecisionWindow` through
    ``on_decisions_skipped``, so clock-keeping state replays exactly.

    Callers queue inputs with :meth:`push_arrival` / :meth:`push_heartbeat`
    (or pass them at construction) and must never queue an event earlier
    than a limit already passed to :meth:`advance_until`.  That makes the
    cap sound: an event not yet queued has time >= the last limit, so
    the slot it wakes is at or after the first slot that limit leaves
    unfinalized.
    """

    def __init__(
        self,
        state: DecisionState,
        horizon: float,
        *,
        dense: bool = False,
        packets: Iterable[Packet] = (),
        heartbeats: Iterable[Heartbeat] = (),
    ) -> None:
        self.state = state
        self.horizon = float(horizon)
        self.n_slots = int(math.ceil(self.horizon / state.slot))
        #: Every packet queued so far, in (arrival_time, packet_id) order.
        self.packets: List[Packet] = list(packets)
        self._arrival_times = [p.arrival_time for p in self.packets]
        #: Every heartbeat queued so far, in (time, app_id, seq) order.
        self.heartbeats: List[Heartbeat] = list(heartbeats)
        #: Next slot index awaiting finalization.
        self.index = 0
        #: Slots actually visited (dense: every finalized slot).
        self.visited = 0
        self._arr = 0  # next packet to deliver
        self._hb = 0  # next heartbeat to transmit
        self.dense = dense or not can_skip(
            state.strategy, state.granularity, state.slot
        )
        # Every float is a dyadic rational; ``k * slot`` is exact (and
        # ``k*slot - slot == (k-1)*slot``) whenever the numerator times
        # the largest k fits the 53-bit mantissa.  On such grids
        # decision counts and jump targets have closed forms; otherwise
        # the cursor falls back to predicate scans (still skipping the
        # *work*, not the arithmetic).
        self._exact_grid = (
            Fraction(state.slot).numerator * (self.n_slots + 1) <= 2 ** 53
        )

    @property
    def undelivered(self) -> int:
        """Queued packets not yet handed to the strategy."""
        return len(self.packets) - self._arr

    def push_arrival(self, packet: Packet) -> None:
        """Queue a packet (arrival times must be non-decreasing)."""
        self.packets.append(packet)
        self._arrival_times.append(packet.arrival_time)

    def push_heartbeat(self, hb: Heartbeat) -> None:
        """Queue a heartbeat, keeping the pending ones in (time, app_id, seq)
        order — the order a slot transmits them in."""
        hbs = self.heartbeats
        key = (hb.time, hb.app_id, hb.seq)
        j = len(hbs)
        while j > self._hb:
            prev = hbs[j - 1]
            if (prev.time, prev.app_id, prev.seq) <= key:
                break
            j -= 1
        hbs.insert(j, hb)

    def _stop(self, limit: float) -> int:
        """Index of the first slot whose end exceeds ``limit``."""
        if limit >= self.horizon:
            return self.n_slots
        # Below the horizon a slot's clamped end exceeds ``limit`` iff
        # its unclamped end ``j*s + s`` does; walk from a guess with the
        # loop's own float expression.
        s = self.state.slot
        lo = self.index
        j = max(lo, int(limit / s) - 1)
        while j < self.n_slots and j * s + s <= limit:
            j += 1
        while j > lo and (j - 1) * s + s > limit:
            j -= 1
        return j

    def advance_until(self, limit: float) -> None:
        """Finalize every slot whose end is at or before ``limit``."""
        stop = self._stop(limit)
        i = self.index
        if i >= stop:
            return
        state = self.state
        strategy = state.strategy
        radio = state.radio
        battery = state.battery
        warm_window = state.warm_window
        s = state.slot
        horizon = self.horizon
        granularity = state.granularity
        eps = 1e-9 * granularity
        dense = self.dense
        exact_grid = self._exact_grid
        every_slot_decides = granularity <= s
        # On an exact grid with granularity == slot every slot decides,
        # so the event policy elides the per-slot predicate.  The dense
        # oracle keeps evaluating it, so dense == event certifies the
        # shortcut.
        always_decides = every_slot_decides and exact_grid and not dense
        notify_skips = (
            type(strategy).on_decisions_skipped
            is not TransmissionStrategy.on_decisions_skipped
        )
        arrival_wakes = strategy.arrival_wakes
        on_arrival = strategy.on_arrival
        on_arrivals = strategy.on_arrivals
        floor = math.floor
        packets = self.packets
        arrival_times = self._arrival_times
        heartbeats = self.heartbeats
        n_packets = len(packets)
        n_hbs = len(heartbeats)
        arrival_idx = self._arr
        hb_idx = self._hb
        held = state.held
        decisions = state.decisions
        iterations = 0
        # Wake slots of the head arrival / heartbeat, memoized by index.
        aw_of = hw_of = -1
        aw = hw = 0

        while i < stop:
            iterations += 1
            t = i * s
            slot_end = t + s
            if slot_end > horizon:
                slot_end = horizon

            # 1. Deliver arrivals visible by this slot boundary.
            if arrival_idx < n_packets and arrival_times[arrival_idx] <= t:
                if dense:
                    while (
                        arrival_idx < n_packets
                        and arrival_times[arrival_idx] <= t
                    ):
                        on_arrival(packets[arrival_idx], t)
                        arrival_idx += 1
                else:
                    # Bulk equivalent of the dense one-at-a-time loop:
                    # on_arrivals is contractually identical to repeated
                    # on_arrival calls at the same ``now``.
                    j = bisect_right(arrival_times, t, arrival_idx)
                    on_arrivals(packets[arrival_idx:j], t)
                    arrival_idx = j

            # 2. Collect this slot's heartbeats.
            slot_hbs: List[Heartbeat] = []
            while hb_idx < n_hbs and heartbeats[hb_idx].time < slot_end:
                slot_hbs.append(heartbeats[hb_idx])
                hb_idx += 1

            # 3+4. Strategy decision (on its own granularity) and
            #      transmission.
            decide_now = always_decides or is_decision_slot(t, s, granularity)
            if decide_now:
                decisions += 1
            held = slot_step(
                strategy, radio, held, t, slot_hbs, decide_now, warm_window,
                battery=battery,
            )

            # ---- fast-forward to the next interesting slot ----
            i1 = i + 1
            if dense:
                i = i1
                continue
            # With arrival_wakes=False, arrivals can no longer wake an
            # idle-skipping cursor, so idleness must not drive skips —
            # only the strategy's (arrival-independent) decision horizon.
            idle = arrival_wakes and strategy.is_idle
            if idle:
                dh = t
            else:
                dh = strategy.decision_horizon(t)
                if every_slot_decides and (dh <= t or i1 * s >= dh):
                    # A decision may act next slot and the strategy does
                    # not vouch for a quiet stretch: step densely.
                    i = i1
                    continue

            nxt = stop
            if arrival_idx < n_packets and arrival_wakes:
                if aw_of != arrival_idx:
                    # First slot whose start is >= the arrival time.
                    a = arrival_times[arrival_idx]
                    aw = int(a / s)
                    while aw * s < a:
                        aw += 1
                    while aw > 0 and (aw - 1) * s >= a:
                        aw -= 1
                    aw_of = arrival_idx
                if aw < nxt:
                    nxt = aw
            if hb_idx < n_hbs:
                if hw_of != hb_idx:
                    # First slot whose clamped end exceeds the departure.
                    h = heartbeats[hb_idx].time
                    hw = int(h / s) - 1
                    if hw < 0:
                        hw = 0
                    while hw < stop and h >= min(hw * s + s, horizon):
                        hw += 1
                    hw_of = hb_idx
                if hw < nxt:
                    nxt = hw
            if nxt <= i1:
                i = i1
                continue

            if not idle:
                if dh >= horizon:
                    d = nxt
                elif every_slot_decides:
                    # First slot at or after the promised horizon.
                    k = int(dh / s)
                    while k * s < dh:
                        k += 1
                    while k > i1 and (k - 1) * s >= dh:
                        k -= 1
                    d = k if k > i1 else i1
                else:
                    d = self._decision_slot_from(i, nxt, eps, dh)
                if d < nxt:
                    nxt = d
            if held and nxt > i1:
                if battery is not None:
                    # Battery-gated cargo transmits at the first slot
                    # whose accrued charge affords it; affordability can
                    # flip at any slot, so step densely while holding.
                    nxt = i1
                elif radio.records and i1 * s < radio.busy_until + warm_window:
                    # Held Q_TX packets transmit as soon as the radio is
                    # warm.  By construction held implies a cold radio
                    # (warmth only increases at transmissions, which are
                    # wakes), so this never fires — it guards the loop
                    # should that invariant ever change.
                    nxt = i1

            if nxt > i1:
                # Count the decision slots the dense policy would have
                # visited in (i, nxt); offer them back to strategies that
                # replay clock state over skips.
                if exact_grid:
                    if every_slot_decides:
                        decisions += nxt - i1
                    else:
                        m_lo = floor((t + eps) / granularity)
                        m_hi = floor(((nxt - 1) * s + eps) / granularity)
                        if m_hi > m_lo:
                            decisions += m_hi - m_lo
                    if notify_skips:
                        win = self._skipped(i, nxt, eps)
                        if win is not None:
                            strategy.on_decisions_skipped(win)
                else:
                    win = self._skipped(i, nxt, eps)
                    if win is not None:
                        decisions += win.count
                        if notify_skips:
                            strategy.on_decisions_skipped(win)
            i = nxt

        self.index = i
        self.visited += iterations
        self._arr = arrival_idx
        self._hb = hb_idx
        state.held = held
        state.decisions = decisions

    def finish(self) -> int:
        """Run out the horizon, then force-flush; returns packets flushed.

        Arrivals past the last slot boundary are delivered at the
        horizon, and the strategy's leftover queue plus held Q_TX go out
        in one burst there, so every packet is accounted for.
        """
        self.advance_until(math.inf)
        state = self.state
        strategy = state.strategy
        horizon = self.horizon
        for packet in self.packets[self._arr:]:
            strategy.on_arrival(packet, horizon)
        self._arr = len(self.packets)
        leftovers = state.held + strategy.flush(horizon)
        state.held = []
        if leftovers:
            state.radio.transmit_packets(horizon, leftovers)
        return len(leftovers)

    def _decision_slot_from(
        self, i: int, limit: int, eps: float, min_time: float
    ) -> int:
        """Smallest decision-slot index in ``(i, limit)`` whose start time
        is ``>= min_time`` (``limit`` when there is none).

        On exact grids the answer comes from the next granularity
        multiple in O(1); otherwise a linear scan applies the dense
        predicate directly, which preserves correctness at the cost of
        walking indices (decide() calls are still skipped).
        """
        s = self.state.slot
        granularity = self.state.granularity
        if not self._exact_grid:
            k = i + 1
            while k < limit:
                t_k = k * s
                if t_k >= min_time and is_decision_slot(t_k, s, granularity):
                    return k
                k += 1
            return limit
        m = math.floor((i * s + eps) / granularity) + 1
        if min_time > i * s:
            # A decision slot's time lies in [m*g - eps, m*g + slot), so
            # multiples below this floor cannot reach min_time.
            cand = int(math.floor((min_time - s - eps) / granularity))
            if cand > m:
                m = cand
        while True:
            k = max(i + 1, int((m * granularity - eps) / s) - 1)
            while k < limit and math.floor((k * s + eps) / granularity) < m:
                k += 1
            if k >= limit:
                return limit
            if k * s >= min_time:
                return k
            m += 1

    def _skipped(self, i: int, nxt: int, eps: float) -> Optional[DecisionWindow]:
        """Decision slots the dense policy would visit in ``(i, nxt)``.

        On exact grids the count telescopes: each slot's predicate is
        ``floor((k*s+eps)/g) > floor(((k-1)*s+eps)/g)`` and the floor can
        climb by at most one per slot (granularity >= slot), so the total
        over a range is the difference of its endpoint floors.
        """
        s = self.state.slot
        granularity = self.state.granularity
        if self._exact_grid:
            m_lo = math.floor((i * s + eps) / granularity)
            m_hi = math.floor(((nxt - 1) * s + eps) / granularity)
            if m_hi <= m_lo:
                return None
            return DecisionWindow.from_grid(s, granularity, eps, i, m_lo, m_hi)
        times = [
            k * s
            for k in range(i + 1, nxt)
            if is_decision_slot(k * s, s, granularity)
        ]
        if not times:
            return None
        return DecisionWindow.from_times(times)


# ---------------------------------------------------------------------------
# Event-level API over the kernel
# ---------------------------------------------------------------------------


@dataclass(frozen=True)
class SlotEvent:
    """One slot's inputs: start time, arrivals due, heartbeats departing.

    ``arrivals`` must be the packets the dense policy would deliver at
    this slot boundary (arrival_time <= t, in (arrival_time, packet_id)
    order); ``heartbeats`` the slot's departures in
    (time, app_id, seq) order.
    """

    t: float
    arrivals: Tuple[Packet, ...] = ()
    heartbeats: Tuple[Heartbeat, ...] = ()


@dataclass(frozen=True)
class DecisionOutcome:
    """What one slot produced: bursts emitted and whether it decided."""

    transmissions: Tuple[TransmissionRecord, ...]
    decided: bool
    held: int

    @property
    def piggybacked(self) -> bool:
        return any(r.kind == "piggyback" for r in self.transmissions)


def advance(state: DecisionState, event: SlotEvent) -> DecisionOutcome:
    """Apply one slot in place — the cursor's slot body, event-shaped."""
    t = event.t
    strategy = state.strategy
    if event.arrivals:
        strategy.on_arrivals(list(event.arrivals), t)
    decide_now = is_decision_slot(t, state.slot, state.granularity)
    if decide_now:
        state.decisions += 1
    n_before = len(state.radio.records)
    state.held = slot_step(
        strategy,
        state.radio,
        state.held,
        t,
        event.heartbeats,
        decide_now,
        state.warm_window,
        battery=state.battery,
    )
    return DecisionOutcome(
        transmissions=tuple(state.radio.records[n_before:]),
        decided=decide_now,
        held=len(state.held),
    )


def clone_state(state: DecisionState) -> DecisionState:
    """Deep copy of a decision state that shares its immutable substrate.

    The bandwidth and power models are lookup tables never mutated by
    the kernel, so the clone aliases them (a Wuhan trace is large);
    everything stateful — strategy queues, estimator RNGs, the radio's
    burst log, held packets — is copied.
    """
    memo = {
        id(state.radio.bandwidth): state.radio.bandwidth,
        id(state.radio.power_model): state.radio.power_model,
    }
    return copy.deepcopy(state, memo)


def decide(
    state: DecisionState, event: SlotEvent
) -> Tuple[DecisionOutcome, DecisionState]:
    """Pure decision step: ``(state, event) -> (outcome, state')``.

    Clones ``state`` (and the event's packets, which strategies mutate
    when scheduling them) before applying :func:`advance`, so the caller's
    state and packets are never touched and repeated calls with the same
    inputs return the same outcome.
    """
    new_state = clone_state(state)
    arrivals = tuple(
        Packet(
            app_id=p.app_id,
            arrival_time=p.arrival_time,
            size_bytes=p.size_bytes,
            deadline=p.deadline,
            packet_id=p.packet_id,
            direction=p.direction,
        )
        for p in event.arrivals
    )
    outcome = advance(new_state, SlotEvent(event.t, arrivals, event.heartbeats))
    return outcome, new_state
