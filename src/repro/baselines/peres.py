"""PerES-style comparator (Sec. VI-A benchmark, ref. [15]).

PerES schedules smartphone transfers under the Lyapunov framework with a
*dynamic* control parameter ``V`` that converges so the user's long-run
delay-cost stays under a bound ``Ω``; unlike eTime it is deadline-aware.
Structural properties preserved from the paper's description:

* 1-second decision slots;
* relies on *estimated* instantaneous bandwidth and times transmissions
  to relatively good channel;
* deadline-aware — a packet about to violate its deadline forces a
  release regardless of channel, and the whole backlog rides along
  (the radio is awake anyway; PerES aggregates per decision);
* ``V`` adapts multiplicatively toward the performance bound ``Ω``
  ("PerES is designed with a dynamic V which would converge dynamically
  according to users' performance cost bound Ω");
* heartbeat-oblivious — its bursts pay their own tails.

Decision rule each slot: release the backlog iff

    P(t) · (b̂(t) / b̄) ≥ V(t)

or any queued packet would violate its deadline by the next slot.  ``V``
then updates: if the recent per-packet cost runs above Ω, V shrinks
(favouring performance); below, V grows (favouring energy).
"""

from __future__ import annotations

import operator
from functools import reduce
from typing import Dict, List, Mapping, Sequence

from repro.baselines.base import BandwidthEstimator, TransmissionStrategy
from repro.core.cost_functions import DelayCostFunction
from repro.core.packet import Packet
from repro.core.profiles import CargoAppProfile

__all__ = ["PerESStrategy", "peres_fleet_kernel"]


class PerESStrategy(TransmissionStrategy):
    """Deadline-aware, channel-aware Lyapunov scheduling with dynamic V."""

    #: Multiplicative step of the V adaptation.
    ETA = 0.05
    #: Clamp range for V.
    V_MIN, V_MAX = 1e-3, 1e6

    def __init__(
        self,
        profiles: Sequence[CargoAppProfile],
        estimator: BandwidthEstimator,
        omega: float = 0.5,
        v_init: float = 1.0,
        slot: float = 1.0,
    ) -> None:
        if omega < 0:
            raise ValueError(f"omega must be >= 0, got {omega}")
        if v_init <= 0:
            raise ValueError(f"v_init must be > 0, got {v_init}")
        self.cost_functions: Dict[str, DelayCostFunction] = {
            p.app_id: p.cost_function for p in profiles
        }
        self.deadlines: Dict[str, float] = {p.app_id: p.deadline for p in profiles}
        self.estimator = estimator
        self.omega = omega
        self.v = v_init
        self.slot = slot
        self.name = f"PerES(omega={omega:g})"
        self._queue: List[Packet] = []
        self._released_costs: List[float] = []

    def on_arrival(self, packet: Packet, now: float) -> None:
        if packet.app_id not in self.cost_functions:
            raise KeyError(f"no profile registered for app {packet.app_id!r}")
        self._queue.append(packet)

    @property
    def waiting_count(self) -> int:
        return len(self._queue)

    # PerES keeps the base (never-idle, no-horizon) protocol on purpose:
    # every decide() records a channel sample into the estimator, and the
    # running average those samples feed shapes all later quality ratios,
    # so no decision slot may be skipped.  The engine detects this and
    # runs the dense reference loop directly.

    def instantaneous_cost(self, now: float) -> float:
        """P(t) over the internal queue."""
        return sum(
            self.cost_functions[p.app_id](p.delay_at(now)) for p in self._queue
        )

    def _deadline_pressure(self, now: float) -> bool:
        """Whether any queued packet is about to violate its deadline."""
        for p in self._queue:
            deadline = p.deadline
            if deadline is None:
                deadline = self.deadlines.get(p.app_id)
            if deadline is not None and p.delay_at(now + self.slot) > deadline:
                return True
        return False

    def _adapt_v(self) -> None:
        """Drive V so the running per-packet cost converges to Ω."""
        if not self._released_costs:
            return
        recent = self._released_costs[-50:]
        # A strict left fold: ``sum`` compensates from Python 3.12 on, and
        # the fleet kernel's window fold must land on the same float.
        average = reduce(operator.add, recent, 0.0) / len(recent)
        if average > self.omega:
            self.v *= 1.0 - self.ETA  # too costly: favour performance
        else:
            self.v *= 1.0 + self.ETA  # within budget: favour energy
        self.v = min(max(self.v, self.V_MIN), self.V_MAX)

    def decide(self, now: float, heartbeat_present: bool) -> List[Packet]:
        self.estimator.record(now)
        if not self._queue:
            return []
        estimate = self.estimator.estimate(now)
        average = self.estimator.running_average() or estimate
        quality = estimate / average if average > 0 else 1.0
        cost = self.instantaneous_cost(now)

        if cost * quality < self.v and not self._deadline_pressure(now):
            return []
        released, self._queue = self._queue, []
        self._released_costs.extend(
            self.cost_functions[p.app_id](p.delay_at(now)) for p in released
        )
        self._adapt_v()
        return released

    def flush(self, now: float) -> List[Packet]:
        released, self._queue = self._queue, []
        return released


# ---------------------------------------------------------------------------
# vectorized fleet kernel (registered in repro.sim.fleet.registry)
# ---------------------------------------------------------------------------

#: Window of the dynamic-V adaptation (``_released_costs[-50:]``).
_V_WINDOW = 50


def _ring_push(ring, devs, ordinals, costs) -> None:
    """Store released costs in each device's ring at ``ordinal mod W``.

    ``ordinals`` count a device's released costs from 0; pushing at
    most the last ``W`` of a release keeps every cell's index unique.
    """
    ring[devs, ordinals % ring.shape[1]] = costs


def _ring_means(ring, devs, totals):
    """Mean of each device's last ``min(total, W)`` released costs.

    The window is gathered oldest first and folded with ``cumsum`` — a
    strict left fold, as the scalar ``_adapt_v`` folds its window, so
    each mean is bit-identical to the scalar one.  Before a ring first
    wraps, its never-written cells are 0.0, and adding 0.0 to a
    non-negative sum is exact.
    """
    import numpy as np

    W = ring.shape[1]
    m = np.minimum(totals, W)
    oldest = (totals - m)[:, None] + np.arange(W)
    return np.cumsum(ring[devs[:, None], oldest % W], axis=1)[:, -1] / m


def peres_fleet_kernel(workload, table, params: Dict, power_model, *, profiler=None):
    """Batched PerES over the device axis of one fleet chunk.

    Per slot the kernel evaluates ``P(t) · quality >= V`` and the
    deadline-pressure override for every device at once, with no
    per-app or per-column Python work inside the slot loop (a release
    evaluates φ once per cost kind, with the eTrain kernel's
    ``_head_spec_raw``):

    * ``P(t)`` comes from the eTrain kernel's closed-form pre/post-
      deadline aggregates, fed by its app-major flat delivery and
      transition streams (sums round differently from the scalar
      sequential additions by ~1e-13, reset to exact zero at every
      whole-queue release);
    * the quality ratio is the shared per-chunk estimator series;
    * deadline pressure is a per-device clock: the earliest slot ``i``
      at which any queued packet has ``(i + 1 − arrival) > deadline``,
      lowered on delivery and cleared on release — an exact reduction
      of the scalar any-packet scan, since the condition is monotone
      in ``i``;
    * the dynamic per-device ``V`` adapts on releases from a (D, 50)
      ring of released costs indexed by each packet's ordinal within
      its device, mod 50: a release scatters its last <= 50 costs,
      gathers the window oldest first, and folds it with one
      ``cumsum`` — a strict left fold, so the mean matches the scalar
      ``_adapt_v`` fold (never-written ring cells are zeros, and adding
      0.0 to a non-negative sum is exact).

    Releases are whole-queue, so each device's backlog stays a
    contiguous range of its queue-ordered packets and the release
    slots feed the shared loop-free burst builder
    (``requires_warm_radio=False``).
    """
    import numpy as np

    from repro.sim.fleet.engine import (
        _build_loopfree,
        _flat_packets,
        _reject_extra,
        fleet_slot_count,
    )
    from repro.sim.fleet.estimator import quality_series

    omega = float(params.pop("omega", 0.5))
    v_init = float(params.pop("v_init", 1.0))
    lag = float(params.pop("lag", 2.0))
    noise = float(params.pop("noise", 0.3))
    est_seed = int(params.pop("est_seed", 0))
    _reject_extra(params)
    if omega < 0:
        raise ValueError(f"omega must be >= 0, got {omega}")
    if v_init <= 0:
        raise ValueError(f"v_init must be > 0, got {v_init}")
    if np.any(workload.deadlines < 2.0):
        raise ValueError("fleet peres requires all deadlines >= 2 s")

    n_slots = fleet_slot_count(workload.horizon)
    pk_app, pk_dev, pk_arr, pk_size, _ = _flat_packets(workload)
    # PerES decides every 1 s slot; one shared quality sample per slot.
    q = quality_series(
        table,
        np.arange(n_slots, dtype=np.float64),
        lag=lag,
        noise=noise,
        seed=est_seed,
    )
    release = _peres_release_slots(
        workload, pk_app, pk_dev, pk_arr, n_slots, q, omega, v_init
    )
    return _build_loopfree(
        workload, table, release, pk_app, pk_dev, pk_arr, pk_size, n_slots
    )


def _peres_release_slots(w, pk_app, pk_dev, pk_arr, n_slots, q, omega, v_init):
    """PerES's per-device slot loop; returns each flat packet's release
    slot (``n_slots`` = never released, flushed at the horizon)."""
    import numpy as np

    from repro.sim.fleet.engine import (
        _csr_expand,
        _delivery_slots,
        _head_spec_raw,
        _slot_streams,
        _theta_step_for,
    )

    A, D = w.n_apps, w.n_devices
    W = _V_WINDOW
    kinds = np.asarray(w.cost_kinds, dtype=np.int64)
    dls = np.asarray(w.deadlines, dtype=np.float64)
    theta_costs = _theta_step_for(kinds, dls)

    # Slot-bucketed flat streams; a delivered packet's pressure slot is
    # the first i with (i + 1 − arrival) > deadline, i.e. kp − 1.
    st = _slot_streams(pk_app, pk_dev, pk_arr, dls, D, n_slots)
    do, dbnd = st.d_order, st.d_bnd
    dl_lin, dl_dev, dl_arr = st.lin[do], pk_dev[do], pk_arr[do]
    dl_press = st.kp[do] - 1
    to, tbnd = st.t_order, st.t_bnd
    tr_lin, tr_dev, tr_arr = st.lin[to], pk_dev[to], pk_arr[to]

    # Queue-ordered flat packet view (delivery order: arrival, then the
    # packet-id tie-break — alphabetical app, then app-major position).
    # Delivery slots are nondecreasing along each device's run, so
    # ``dev·M + slot`` keys are sorted and a device's queue tail at slot
    # i is one searchsorted away.
    alpha = np.argsort(np.argsort(np.asarray(w.app_ids)))
    perm = np.lexsort(
        (np.arange(pk_arr.size, dtype=np.int64), alpha[pk_app], pk_arr, pk_dev)
    )
    app_s = pk_app[perm]
    arr_s = pk_arr[perm]
    key_mod = np.int64(n_slots + 1)
    key_s = pk_dev[perm] * key_mod + _delivery_slots(arr_s, n_slots)
    seg = np.searchsorted(key_s, np.arange(D + 1, dtype=np.int64) * key_mod)
    qhead = seg[:-1].copy()
    dev_key = np.arange(D, dtype=np.int64) * key_mod

    # State: in-set cost aggregates (one (4, A, D) block so a release
    # clears them in one assignment), the pressure clock, the last
    # release time (a packet is still queued iff it arrived after it),
    # dynamic V and the released-cost rings.
    agg = np.zeros((4, A, D))
    pre_n, pre_s, post_n, post_s = agg
    pre_n_f, pre_s_f, post_n_f, post_s_f = agg.reshape(4, A * D)
    no_press = np.iinfo(np.int64).max
    press = np.full(D, no_press, dtype=np.int64)
    last_rel = np.full(D, -1.0)
    v = np.full(D, v_init)
    ring = np.zeros((D, W))
    P = np.zeros(D)
    # Same expressions the scalar _adapt_v computes from ETA.
    v_down = 1.0 - PerESStrategy.ETA
    v_up = 1.0 + PerESStrategy.ETA
    v_min, v_max = PerESStrategy.V_MIN, PerESStrategy.V_MAX
    ev_slot: List[np.ndarray] = []
    ev_lo: List[np.ndarray] = []
    ev_hi: List[np.ndarray] = []

    for i in range(n_slots):
        t = float(i)
        # 1. deliveries (arrival <= t): always pre-deadline on entry.
        if dbnd[i + 1] > dbnd[i]:
            sl = slice(dbnd[i], dbnd[i + 1])
            lin = dl_lin[sl]
            np.add.at(pre_n_f, lin, 1.0)
            np.add.at(pre_s_f, lin, dl_arr[sl])
            np.minimum.at(press, dl_dev[sl], dl_press[sl])
        # 2. pre->post transitions for still-queued packets.
        if tbnd[i + 1] > tbnd[i]:
            sl = slice(tbnd[i], tbnd[i + 1])
            ar = tr_arr[sl]
            act = ar > last_rel[tr_dev[sl]]
            if act.any():
                lin = tr_lin[sl][act]
                ar = ar[act]
                np.add.at(pre_n_f, lin, -1.0)
                np.add.at(pre_s_f, lin, -ar)
                np.add.at(post_n_f, lin, 1.0)
                np.add.at(post_s_f, lin, ar)
        # 3. decision: P(t)·quality >= V, or deadline pressure.
        has_q = press != no_press
        if not has_q.any():
            continue
        theta_costs(t, pre_n, pre_s, post_n, post_s, P)
        fired = np.flatnonzero((has_q & (P * q[i] >= v)) | (press <= i))
        if not fired.size:
            continue
        # 4. whole-queue release at slot i.
        lo = qhead[fired]
        hi = np.searchsorted(key_s, dev_key[fired] + i, side="right")
        ev_slot.append(np.full(fired.size, i, dtype=np.int64))
        ev_lo.append(lo)
        ev_hi.append(hi)
        # 5. ring the last <= W released costs (recorded at ``now``),
        # fold the window oldest first and adapt V.
        idx, lens = _csr_expand(np.maximum(lo, hi - W), hi)
        a_r = app_s[idx]
        k_r, d_r = kinds[a_r], t - arr_s[idx]
        costs = np.empty(idx.size)
        for kind in (0, 1, 2):
            m = k_r == kind
            if m.any():
                costs[m] = _head_spec_raw(kind, dls[a_r[m]], d_r[m])
        rdev = np.repeat(fired, lens)
        _ring_push(ring, rdev, idx - seg[rdev], costs)
        mean = _ring_means(ring, fired, hi - seg[fired])
        vf = np.where(mean > omega, v[fired] * v_down, v[fired] * v_up)
        v[fired] = np.minimum(np.maximum(vf, v_min), v_max)
        # 6. exact queue reset (mirrors the scalar queue emptying).
        qhead[fired] = hi
        last_rel[fired] = t
        press[fired] = no_press
        agg[:, :, fired] = 0.0

    r_s = np.full(perm.size, n_slots, dtype=np.int64)
    if ev_slot:
        idx, lens = _csr_expand(np.concatenate(ev_lo), np.concatenate(ev_hi))
        r_s[idx] = np.repeat(np.concatenate(ev_slot), lens)
    release = np.empty(perm.size, dtype=np.int64)
    release[perm] = r_s
    return release
