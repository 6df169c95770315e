"""Seeded event streams for the ``serve_stream`` workload.

Kept in the benchmark rather than taken from ``repro.serve.loadgen``,
so a change to the load generator cannot change the workload.  The
per-device inputs come from the seeded ``synthesize_fleet``, which the
golden tests pin.

A stream interleaves ``CONCURRENCY`` live eTrain sessions round-robin.
Session slots start one after another, a mean session length apart
divided by the slot count, so opens and closes are staggered over the
run instead of bunching; when a session closes, its slot opens the next
one.  Sessions replay devices from a small seeded pool, each under its
own device id, which bounds the cost of the batch references the
outputs are checked against.  Every ``BATCH_EVERY`` frames a bulk
``batch`` request for a loop-free kernel rides along.
"""

from __future__ import annotations

import json
import random
from typing import Dict, Iterator, List, Optional, Tuple

STRATEGY = "etrain"
HORIZON = 7200.0
CONCURRENCY = 8
POOL = 12
#: One frame in this many is a bulk request: about a hundred per run
#: across the two fixed-rate segments, enough for a p90 with ten beyond.
BATCH_EVERY = 150
BATCH_STRATEGY = "periodic"
BATCH_DEVICES = 64
BATCH_HORIZON = 1800.0
#: Distinct device ranges the batch requests cycle through.
BATCH_RANGES = 4


def device_frames(workload, d: int) -> List[Dict]:
    """One device's session as frames, without the device id.

    Cargo is ordered by (arrival, app) and heartbeats come from the same
    fixed-cycle generators the batch reference builds, so the server sees
    float-for-float the reference's inputs.  At equal times heartbeats
    go first.
    """
    from repro.core.profiles import TrainAppProfile
    from repro.heartbeat.generators import FixedCycleGenerator, merge_heartbeats

    apps = [
        {
            "app_id": workload.app_ids[a],
            "cost_kind": int(workload.cost_kinds[a]),
            "deadline": float(workload.deadlines[a]),
        }
        for a in range(workload.n_apps)
    ]
    events: List[Dict] = []
    for a in range(workload.n_apps):
        arrivals, sizes = workload.device_slice(a, d)
        app = workload.app_ids[a]
        deadline = float(workload.deadlines[a])
        for t, size in zip(arrivals, sizes):
            events.append(
                {"op": "event", "kind": "cargo", "t": float(t), "app": app, "size": int(size), "deadline": deadline}
            )
    events.sort(key=lambda e: (e["t"], e["app"]))
    trains = [
        FixedCycleGenerator(
            TrainAppProfile(
                app_id=workload.train_ids[k],
                cycle=float(workload.train_cycles[k]),
                heartbeat_size_bytes=int(workload.train_sizes[k]),
                first_heartbeat=float(workload.train_phases[k, d]),
            )
        )
        for k in range(workload.n_trains)
    ]
    events.extend(
        {"op": "event", "kind": "hb", "t": hb.time, "app": hb.app_id, "seq": hb.seq, "size": hb.size_bytes}
        for hb in merge_heartbeats(trains, workload.horizon)
    )
    events.sort(key=lambda e: (e["t"], 0 if e["kind"] == "hb" else 1))
    opening = {
        "op": "open",
        "strategy": STRATEGY,
        "horizon": workload.horizon,
        "slot": 1.0,
        "apps": apps,
        "bandwidth": {"kind": "wuhan"},
    }
    return [opening] + events + [{"op": "close"}]


class Frame:
    """One encoded request and what the checks need to know about it."""

    __slots__ = ("id", "conn", "op", "payload", "session", "pool_index")

    def __init__(self, fid, conn, op, payload, session, pool_index):
        self.id = fid
        self.conn = conn
        self.op = op
        self.payload = payload
        self.session = session
        self.pool_index = pool_index


class Stream:
    """An endless, seeded frame source; take frames in segments."""

    def __init__(self, seed: int, connections: int = 2) -> None:
        from repro.sim.fleet.workload import synthesize_fleet

        self.seed = seed
        self.connections = connections
        self.rng = random.Random(seed)
        self.workload = synthesize_fleet(POOL, HORIZON, seed=seed)
        self.templates = [device_frames(self.workload, d) for d in range(POOL)]
        self.mean_len = sum(map(len, self.templates)) / POOL
        self.batch_offsets = [self.rng.randrange(0, 10_000) * BATCH_DEVICES for _ in range(BATCH_RANGES)]
        self._frames = self._generate()
        self.next_id = 0
        self.bulk_sent = 0
        self.sessions_opened = 0
        #: Session id -> pool device it replays.
        self.session_pool: Dict[str, int] = {}
        #: Sessions with frames still unsent (slot -> iterator).
        self.live: Dict[int, Tuple[str, Iterator[Dict]]] = {}

    def _new_session(self, slot: int) -> Tuple[str, Iterator[Dict]]:
        d = self.rng.randrange(POOL)
        sid = f"s{self.sessions_opened}"
        self.sessions_opened += 1
        self.session_pool[sid] = d
        self.live[slot] = (sid, iter(self.templates[d]))
        return self.live[slot]

    def _generate(self) -> Iterator[Tuple[Dict, Optional[str]]]:
        """Yield (frame body, session id) forever."""
        stagger = max(1, int(self.mean_len / CONCURRENCY))
        position = turn = batches = 0
        while True:
            position += 1
            if position % BATCH_EVERY == 0:
                yield self._batch_body(batches), None
                batches += 1
                continue
            active = min(CONCURRENCY, position // stagger + 1)
            slot = turn % active
            turn += 1
            sid, frames = self.live.get(slot) or self._new_session(slot)
            body = next(frames, None)
            if body is None:  # its close went out last turn
                sid, frames = self._new_session(slot)
                body = next(frames)
            yield dict(body, device=sid), sid

    def _batch_body(self, k: int) -> Dict:
        """The ``k``-th bulk request; the device ranges repeat."""
        return {
            "op": "batch",
            "strategy": BATCH_STRATEGY,
            "devices": BATCH_DEVICES,
            "device_offset": self.batch_offsets[k % BATCH_RANGES],
            "horizon": BATCH_HORIZON,
            "seed": self.seed,
        }

    def _encode(self, body: Dict, sid: Optional[str]) -> Frame:
        fid = self.next_id
        self.next_id += 1
        body["id"] = fid
        # A session's frames stay in order on one connection.
        conn = (int(sid[1:]) if sid is not None else fid) % self.connections
        payload = (json.dumps(body, separators=(",", ":")) + "\n").encode()
        return Frame(fid, conn, body["op"], payload, sid, self.session_pool.get(sid))

    def take(self, n: int) -> List[Frame]:
        """The next ``n`` frames, encoded with ids."""
        return [self._encode(*next(self._frames)) for _ in range(n)]

    def bulk(self, n: int) -> List[Frame]:
        """``n`` bulk requests outside the session stream, for closed-loop probes."""
        frames = [self._encode(self._batch_body(self.bulk_sent + k), None) for k in range(n)]
        self.bulk_sent += n
        return frames

    def remaining(self) -> List[Frame]:
        """Every unsent frame of the live sessions; the stream ends here."""
        out = [
            self._encode(dict(body, device=sid), sid)
            for _, (sid, frames) in sorted(self.live.items())
            for body in frames
        ]
        self.live.clear()
        return out
