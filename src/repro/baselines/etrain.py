"""eTrain adapted to the common strategy interface.

Thin wrapper around :class:`repro.core.scheduler.ETrainScheduler` so that
the comparison experiments can run eTrain, PerES, eTime and the baseline
through one simulator.
"""

from __future__ import annotations

import math
from typing import List, Optional, Sequence

from repro.baselines.base import TransmissionStrategy
from repro.core.packet import Packet
from repro.core.profiles import CargoAppProfile
from repro.core.scheduler import ETrainScheduler, SchedulerConfig

__all__ = ["ETrainStrategy"]

#: Relative slack under Θ that a probe must clear to count as quiet.
#: The horizon folds P(t) left, while the scheduler's ``sum`` compensates
#: from Python 3.12 on and is then not exactly monotone.  Both land within
#: a few ulps of the exact sum, which the slack covers, so every decision
#: before a quiet probe provably sees P(t) < Θ.
_THETA_SLACK = 1e-9
#: Farthest the Θ-crossing search looks ahead, in strategy slots.
_MAX_LOOKAHEAD = 1 << 20


class ETrainStrategy(TransmissionStrategy):
    """The paper's online strategy (Algorithm 1) behind the common API."""

    requires_warm_radio = True

    def __init__(
        self,
        profiles: Sequence[CargoAppProfile],
        config: Optional[SchedulerConfig] = None,
        *,
        warm_gate: bool = True,
    ) -> None:
        self.scheduler = ETrainScheduler(profiles, config)
        cfg = self.scheduler.config
        self.name = f"eTrain(theta={cfg.theta}, k={'inf' if cfg.k is None else cfg.k})"
        self.slot = cfg.slot
        self.requires_warm_radio = warm_gate
        # The last Θ-crossing search, carried to the next one: the first
        # loud probe time, and its distance from that search's ``now``.
        self._loud_at = -math.inf
        self._loud_gap = 1

    def on_arrival(self, packet: Packet, now: float) -> None:
        self.scheduler.on_packet_arrival(packet)

    def decide(self, now: float, heartbeat_present: bool) -> List[Packet]:
        self.scheduler.decide(now, heartbeat_present)
        return self.scheduler.tx_queue.drain()

    def flush(self, now: float) -> List[Packet]:
        self.scheduler.flush(now)
        return self.scheduler.tx_queue.drain()

    @property
    def waiting_count(self) -> int:
        return self.scheduler.waiting_count

    @property
    def is_idle(self) -> bool:
        """Idle when every waiting queue and Q_TX are empty.

        In that state ``ETrainScheduler.decide`` computes P(t) = 0 and —
        whatever Θ — selects nothing from empty queues, so the result is
        unchanged and no state moves.
        """
        return (
            self.scheduler.waiting_count == 0
            and len(self.scheduler.tx_queue) == 0
        )

    def decision_horizon(self, now: float) -> float:
        """Quiet until the instantaneous cost P(t) reaches Θ.

        Off heartbeat slots Algorithm 1 acts only when P(t) ≥ Θ.  Between
        wakes the queues are fixed, so when every queued cost function
        declares itself float-monotone P(t) is nondecreasing in t: once a
        probe time x has P(x) < Θ, every decision at or before x is a
        no-op.  The search (:func:`_bracket_crossing`) probes
        ``now + j * slot`` for the last quiet probe before the first loud
        one.  It makes no assumption about where the engine's decision
        times fall.  It starts from the previous search's crossing, which
        an arrival can only pull earlier, or after an act from the
        previous distance to it.
        """
        sched = self.scheduler
        queues = sched.queues.values()
        if not all(getattr(q.cost_function, "monotone", False) for q in queues):
            return now
        quiet_below = sched.config.theta * (1.0 - _THETA_SLACK)
        if quiet_below <= 0.0:
            return now  # costs are >= 0, so no time is quiet
        step = self.slot
        terms = [
            (q.cost_function, [p.arrival_time for p in q])
            for q in queues
            if len(q)
        ]
        if not terms:
            return now + _MAX_LOOKAHEAD * step

        def quiet_cost(j: int) -> float:
            # P(t) as Packet.delay_at and WaitingQueue.instantaneous_cost
            # compute it, folded left; the slack covers the summation order.
            t = now + j * step
            total = 0.0
            for phi, arrivals in terms:
                for a in arrivals:
                    d = t - a
                    total += phi(d if d > 0.0 else 0.0)
            return total

        if self._loud_at > now:
            guess = round((self._loud_at - now) / step)
        else:
            guess = self._loud_gap
        lo, hi = _bracket_crossing(quiet_cost, quiet_below, guess)
        if hi is None:
            return math.nextafter(now + lo * step, math.inf)
        self._loud_at = now + hi * step
        self._loud_gap = hi
        if lo == 0:
            return now
        # Decisions at or before the quiet probe are no-ops, so the
        # promise extends to the next float past it.
        return math.nextafter(now + lo * step, math.inf)


def _bracket_crossing(cost, below, guess):
    """Find ``j`` in ``1.._MAX_LOOKAHEAD`` where nondecreasing ``cost(j)``
    first reaches ``below``.

    Returns ``(lo, hi)`` with ``cost(lo) < below`` (``lo = 0``: no such
    probe) and ``hi = lo + 1`` with ``cost(hi) >= below`` (``hi = None``:
    none up to the lookahead).  The search probes ``guess`` and its
    neighbour first.  When those do not bracket the crossing, the line
    through them predicts it, and galloping plus bisection finish from
    whatever bracket the probes have established.  P(t) is piecewise
    linear for the shipped cost functions, so most searches take four
    probes or fewer.
    """
    lo, hi = 0, None

    def probe(j: int) -> float:
        nonlocal lo, hi
        value = cost(j)
        if value < below:
            lo = max(lo, j)
        elif hi is None or j < hi:
            hi = j
        return value

    a = min(max(guess, 1), _MAX_LOOKAHEAD)
    va = probe(a)
    b = a + 1 if va < below else a - 1
    if 1 <= b <= _MAX_LOOKAHEAD:
        vb = probe(b)
        if (hi is None or hi - lo > 1) and vb != va:
            # The line through (a, va) and (b, vb) reaches `below` at x.
            x = a + (below - va) * (b - a) / (vb - va)
            if lo < x <= _MAX_LOOKAHEAD:
                c = math.ceil(x) - 1
                for j in (c, c + 1):
                    if lo < j and (hi is None or j < hi):
                        probe(j)
    stride = 1
    while hi is None:
        j = lo + stride
        if j > _MAX_LOOKAHEAD:
            return lo, None
        probe(j)
        stride *= 2
    while hi - lo > 1:
        probe((lo + hi) // 2)
    return lo, hi
