"""``serve_stream``: open-loop event replay against ``python -m repro serve``.

The server runs in a child process.  One client process replays the
seeded per-device eTrain streams of :mod:`streams` over two connections
on a fixed schedule: frame ``i`` of a segment is due ``i / rate`` after
the segment starts, whatever the server is doing, and its latency runs
from that due time to its response.  A run is a warm-up, a segment at
``LOW_RATE``, one at ``HIGH_RATE``, a search for the highest rate that
still meets the latency limit, and a drain that closes every session.
Per-event dense session replay, NDJSON decode/encode, inbox
micro-batching and bulk kernels on the event loop do the work.
"""

from __future__ import annotations

import asyncio
import contextlib
import gc
import json
import math
import re
import select
import signal
import subprocess
import sys
import time
import tracemalloc
from typing import Dict, List, Optional, Tuple

from common import WORK, Outcome, WorkloadResult, beyond, cpu_seconds, median, nearest_rank, python_env, vm_hwm_mib
from streams import BATCH_DEVICES, BATCH_HORIZON, BATCH_STRATEGY, Frame, Stream
from tracing import Tracer

CONNECTIONS = 2
_ID = re.compile(rb'"id":(-?\d+)')
_OK = re.compile(rb'"ok":(true|false)')
#: The two fixed offered rates: about 30% and 70% of the frames the
#: server handled per CPU-second at the commit that introduced this
#: benchmark, on a 2-vCPU x86-64 host.
LOW_RATE = 800.0
HIGH_RATE = 1800.0
#: A tenth of the 1 s decision slot.
P99_LIMIT_MS = 100.0
#: Shares of the budget: the low-rate segment, the high-rate segment
#: (long, so that its median window is one without a collector pause),
#: and each of the max-rate search steps.
LOW_SHARE = 0.15
HIGH_SHARE = 0.5
STEP_SHARE = 0.075
SEARCH_STEPS = 4
SEARCH_FACTOR = 1.2
#: The generator fell behind when frames went out this late at the
#: median, or at p99 in the median ``LATE_WINDOW_S`` window: a quarter
#: of the latency limit.  A measured segment in which it fell behind is
#: voided and played again with fresh frames, up to ``PLAY_ATTEMPTS``
#: times in all; if the last attempt falls behind too, the run fails.
#: A host stall makes one window late, a generator that cannot keep up
#: makes every window of every attempt late.
LATE_P50_LIMIT_MS = 2.0
LATE_P99_LIMIT_MS = 25.0
LATE_WINDOW_S = 0.25
PLAY_ATTEMPTS = 3
#: Bulk requests sent one at a time to the idle server after each
#: segment but the drain; their median latency is the bounded latency.
IDLE_PROBES = 8
#: Achieved rate below this share of the offered rate fails a step.
ACHIEVED_SHARE = 0.97
WARMUP_S = 1.0
#: Windows over which p99 is taken before the median across them: the
#: fixed-rate segments use one second, search steps half a second.
WINDOW_S = 1.0
STEP_WINDOW_S = 0.5
RESPONSE_TIMEOUT_S = 60.0
#: Set-ups per run (stream synthesis, server spawn, connect, hello);
#: the median is reported.
SETUPS = 5
START_TIMEOUT_S = 30.0


class Server:
    """``python -m repro serve`` on an ephemeral port, in a child process."""

    def __init__(self) -> None:
        WORK.mkdir(exist_ok=True)
        self.log = open(WORK / "serve-stderr.log", "ab")
        self.proc = subprocess.Popen(
            [sys.executable, "-m", "repro", "serve", "--port", "0"],
            cwd=str(WORK.parent),
            env=python_env(),
            stdout=subprocess.PIPE,
            stderr=self.log,
        )
        ready, _, _ = select.select([self.proc.stdout], [], [], START_TIMEOUT_S)
        line = self.proc.stdout.readline().decode() if ready else ""
        if "listening on" not in line:
            self.stop()
            raise RuntimeError(f"server did not start: {line!r}")
        self.port = int(line.rsplit(":", 1)[1])

    @property
    def pid(self) -> int:
        return self.proc.pid

    def stop(self) -> None:
        if self.proc.poll() is None:
            self.proc.send_signal(signal.SIGINT)
            try:
                self.proc.wait(timeout=10)
            except subprocess.TimeoutExpired:
                self.proc.kill()
                self.proc.wait()
        self.proc.stdout.close()
        self.log.close()


def window_median(values: List[float], per: int, q: float) -> float:
    """Median over consecutive ``per``-sample windows of each window's
    nearest-rank ``q``; a sample shorter than one window is one window."""
    per = max(1, min(per, len(values)))
    windows = [values[i : i + per] for i in range(0, len(values) - per + 1, per)]
    return median([nearest_rank(w, q) for w in windows])


class Segment:
    """Measurements of one stretch of frames: scheduled at ``rate``, or
    closed-loop (each frame sent when the last is answered) when
    ``rate`` is None."""

    def __init__(self, name: str, frames: List[Frame], rate: Optional[float]) -> None:
        self.name = name
        self.frames = frames
        self.rate = rate
        self.start = 0.0
        self.send_end = 0.0
        self.last_recv = 0.0
        self.latency: Dict[int, float] = {}
        self.errors: Dict[int, str] = {}
        self.lateness: List[float] = []
        self.backlog: List[Tuple[float, int]] = []
        self.left = len(frames)
        self.done = asyncio.Event()
        self.answered = asyncio.Event()
        #: CPU seconds the server spent while this segment ran.
        self.server_cpu_s = 0.0
        #: Replaced by a later attempt because the generator fell behind.
        self.voided = False

    @property
    def measured(self) -> bool:
        """Whether any figure is taken from this segment."""
        return self.name not in ("warmup", "drain")

    # -- derived figures ---------------------------------------------------

    def latencies_ms(self, op: Optional[str] = None) -> List[float]:
        return [self.latency[f.id] * 1e3 for f in self.frames if f.id in self.latency and (op is None or f.op == op)]

    def windowed(self, q: float, window_s: float) -> float:
        """Median over ``window_s`` windows (by due time) of each window's
        nearest-rank ``q`` latency, in ms; failed or unanswered frames
        count as infinitely late.  A single stall moves one window, not
        the statistic."""
        values = [self.latency.get(f.id, math.inf) * 1e3 for f in self.frames]
        return window_median(values, int(round(window_s * self.rate)), q)

    def achieved(self) -> float:
        return len(self.frames) / (self.last_recv - self.start)

    def backlog_growth(self) -> float:
        """Median outstanding frames in the last quarter of sending minus the first."""
        span = self.send_end - self.start
        first = [b for t, b in self.backlog if t <= self.start + span / 4]
        last = [b for t, b in self.backlog if t >= self.send_end - span / 4]
        if not first or not last:
            return 0.0
        return median(last) - median(first)

    def lateness_ms(self, q: float) -> float:
        return nearest_rank(self.lateness, q) * 1e3

    def window_lateness_ms(self, q: float) -> float:
        return window_median(self.lateness, int(round(LATE_WINDOW_S * self.rate)), q) * 1e3

    def fell_behind(self) -> bool:
        if self.rate is None:  # no schedule to fall behind
            return False
        return self.lateness_ms(50.0) > LATE_P50_LIMIT_MS or self.window_lateness_ms(99.0) > LATE_P99_LIMIT_MS

    def meets_limit(self) -> bool:
        n = len(self.frames)
        return (
            not self.errors
            and len(self.latency) == n
            and self.windowed(99.0, STEP_WINDOW_S) <= P99_LIMIT_MS
            and self.achieved() >= ACHIEVED_SHARE * self.rate
            and self.backlog_growth() <= max(50.0, 0.02 * n)
        )


class Client:
    """Two pipelined connections with responses matched by frame id."""

    def __init__(self, port: int) -> None:
        self.port = port
        self.pending: Dict[int, Tuple[float, Segment, Frame]] = {}
        self.replies: Dict[int, Dict] = {}  # close and batch bodies, for the checks
        self.orphans: List[Dict] = []
        self.sent = 0
        self.received = 0

    async def open(self) -> None:
        self.conns = [await asyncio.open_connection("127.0.0.1", self.port) for _ in range(CONNECTIONS)]
        self.readers = [asyncio.create_task(self._read(r)) for r, _ in self.conns]
        hello = json.dumps({"op": "hello", "id": -1}).encode() + b"\n"
        self.conns[0][1].write(hello)
        await self.conns[0][1].drain()
        while -1 not in self.replies:
            await asyncio.sleep(0.001)

    async def close(self) -> None:
        for _, writer in self.conns:
            writer.close()
        for task in self.readers:
            task.cancel()
        for task in self.readers:
            with contextlib.suppress(asyncio.CancelledError, ConnectionError):
                await task
        for _, writer in self.conns:
            with contextlib.suppress(ConnectionError):
                await writer.wait_closed()

    async def _read(self, reader: asyncio.StreamReader) -> None:
        buf = b""
        while True:
            data = await reader.read(1 << 16)
            if not data:
                return
            now = time.perf_counter()
            buf += data
            *lines, buf = buf.split(b"\n")
            for line in lines:
                self._on_reply(line, now)

    def _on_reply(self, line: bytes, now: float) -> None:
        # Replies are flat canonical JSON whose nested objects carry no
        # "id" or "ok" keys; only replies the checks read are parsed.
        head = _ID.search(line)
        rid = int(head.group(1)) if head else None
        entry = self.pending.pop(rid, None)
        if entry is None:
            reply = json.loads(line)
            if reply.get("id") == -1:
                self.replies[-1] = reply
            else:
                self.orphans.append(reply)
            return
        due, seg, frame = entry
        self.received += 1
        if _OK.search(line).group(1) == b"true":
            seg.latency[rid] = now - due
            if frame.op in ("close", "batch"):
                self.replies[rid] = json.loads(line)
        else:
            seg.errors[rid] = json.loads(line).get("error", {}).get("code", "?")
        seg.last_recv = now
        seg.left -= 1
        seg.answered.set()
        if seg.left == 0:
            seg.done.set()

    async def _sample_backlog(self, seg: Segment) -> None:
        while True:
            seg.backlog.append((time.perf_counter(), self.sent - self.received))
            await asyncio.sleep(0.02)

    async def play(self, seg: Segment) -> Segment:
        """Send ``seg``'s frames on schedule and wait for every reply.

        The collector is paused so the generator's own pauses cannot make
        it late; the server process is untouched.
        """
        frames, rate = seg.frames, seg.rate
        writers = [w for _, w in self.conns]
        buffers = [bytearray() for _ in writers]
        sampler = asyncio.create_task(self._sample_backlog(seg))
        gc.disable()
        try:
            seg.start = start = time.perf_counter() + 0.005
            i, n = 0, len(frames)
            while i < n:
                now = time.perf_counter()
                while i < n and start + i / rate <= now:
                    frame = frames[i]
                    due = start + i / rate
                    self.pending[frame.id] = (due, seg, frame)
                    buffers[frame.conn] += frame.payload
                    seg.lateness.append(now - due)
                    i += 1
                    self.sent += 1
                for writer, buf in zip(writers, buffers):
                    if buf:
                        writer.write(bytes(buf))
                        buf.clear()
                if i < n:
                    await asyncio.sleep(max(0.0, start + i / rate - time.perf_counter()))
            seg.send_end = time.perf_counter()
            try:
                await asyncio.wait_for(seg.done.wait(), RESPONSE_TIMEOUT_S)
            except asyncio.TimeoutError:
                pass
        finally:
            gc.enable()
            sampler.cancel()
            with contextlib.suppress(asyncio.CancelledError):
                await sampler
        return seg


    async def closed_loop(self, seg: Segment) -> Segment:
        """Send ``seg``'s frames one at a time, each when the last is
        answered; latency runs from the moment each is written."""
        seg.start = time.perf_counter()
        for frame in seg.frames:
            seg.answered.clear()
            self.pending[frame.id] = (time.perf_counter(), seg, frame)
            self.conns[frame.conn][1].write(frame.payload)
            self.sent += 1
            try:
                await asyncio.wait_for(seg.answered.wait(), RESPONSE_TIMEOUT_S)
            except asyncio.TimeoutError:
                break
        seg.send_end = time.perf_counter()
        return seg


# -- the live run ------------------------------------------------------------


async def search_max_rate(passes, lo: float, first: float, steps: int, factor: float = SEARCH_FACTOR) -> float:
    """Highest offered rate that ``passes`` within ``steps`` trials.

    Rates grow by ``factor`` from ``first`` until one fails, then the
    bracket between the best pass (``lo`` to begin with) and the lowest
    failure is bisected geometrically.
    """
    hi = math.inf
    rate = first
    for _ in range(steps):
        if await passes(rate):
            lo = rate
        else:
            hi = min(hi, rate)
        rate = lo * factor if hi == math.inf else math.sqrt(max(lo, hi / factor**2) * hi)
    return lo


def setup_once(seed: int) -> Tuple[float, Stream, Server]:
    t0 = time.perf_counter()
    stream = Stream(seed, CONNECTIONS)
    server = Server()
    return time.perf_counter() - t0, stream, server


async def _live(stream: Stream, server: Server, seconds: float, search: bool) -> Dict:
    client = Client(server.port)
    await client.open()
    segs: List[Segment] = []

    idle: List[Segment] = []

    async def segment(name: str, rate: float, duration: float) -> Segment:
        for attempt in range(PLAY_ATTEMPTS):
            if attempt:
                segs[-1].voided = True
            cpu0 = cpu_seconds(server.pid)
            seg = await client.play(Segment(name, stream.take(int(rate * duration)), rate))
            seg.server_cpu_s = cpu_seconds(server.pid) - cpu0
            segs.append(seg)
            gc.collect()
            if not (seg.measured and seg.fell_behind()):
                break
        idle.append(await client.closed_loop(Segment(f"{name}-idle", stream.bulk(IDLE_PROBES), None)))
        segs.append(idle[-1])
        return seg

    await segment("warmup", LOW_RATE, WARMUP_S)
    low = await segment("low", LOW_RATE, LOW_SHARE * seconds)
    high = await segment("high", HIGH_RATE, HIGH_SHARE * seconds)
    steps: List[Tuple[float, bool]] = []
    max_rate = math.nan
    if search:

        async def passes(rate: float) -> bool:
            seg = await segment(f"step{len(steps)}", rate, STEP_SHARE * seconds)
            steps.append((rate, seg.meets_limit()))
            return steps[-1][1]

        lo = HIGH_RATE if high.meets_limit() else (LOW_RATE if low.meets_limit() else 0.0)
        max_rate = await search_max_rate(passes, lo, HIGH_RATE * SEARCH_FACTOR**2, SEARCH_STEPS)
    drain = Segment("drain", stream.remaining(), HIGH_RATE)
    segs.append(await client.play(drain))
    await client.close()
    hwm = vm_hwm_mib(server.pid)
    return {
        "segments": segs,
        "low": low,
        "high": high,
        "idle": idle,
        "max_rate": max_rate,
        "steps": steps,
        "hwm": hwm,
        "client": client,
    }


def late_segments(segments: List[Segment]) -> List[Segment]:
    """Measured segments, not replaced by a later attempt, in which the
    generator fell behind: each voids the run."""
    return [s for s in segments if s.measured and not s.voided and s.fell_behind()]


def check(stream: Stream, live: Dict, outcome: Outcome) -> None:
    """Every reply ok; closes equal the batch reference; batches equal the kernel."""
    from repro.bandwidth.synth import wuhan_bandwidth_model
    from repro.radio.power_model import GALAXY_S4_3G
    from repro.sim.fleet.accounting import summarize_chunk
    from repro.sim.fleet.channel import ChannelTable
    from repro.sim.fleet.engine import simulate_fleet_chunk
    from repro.sim.fleet.reference import reference_device_summaries
    from repro.sim.fleet.workload import synthesize_fleet

    bandwidth = wuhan_bandwidth_model()
    closes = json.loads(json.dumps([s.to_dict() for s in reference_device_summaries(stream.workload, bandwidth)]))
    table = ChannelTable.from_model(bandwidth, BATCH_HORIZON)
    batches = {}
    for offset in stream.batch_offsets:
        wl = synthesize_fleet(BATCH_DEVICES, BATCH_HORIZON, seed=stream.seed, device_offset=offset)
        raw = simulate_fleet_chunk(wl, table, strategy=BATCH_STRATEGY, params={})
        batches[offset] = json.loads(json.dumps(summarize_chunk(raw, GALAXY_S4_3G).to_dict()))
    client = live["client"]
    for seg in live["segments"]:
        for frame in seg.frames:
            if frame.id in seg.errors:
                outcome.fail(f"serve {seg.name} frame {frame.id} ({frame.op}): {seg.errors[frame.id]}")
            elif frame.id not in seg.latency:
                outcome.fail(f"serve {seg.name} frame {frame.id} ({frame.op}): no reply")
            elif frame.op == "close":
                got = client.replies[frame.id]["fleet"]
                outcome.check(
                    got == closes[frame.pool_index],
                    f"serve session {frame.session}: close summary differs from the batch reference",
                )
            elif frame.op == "batch":
                reply = client.replies[frame.id]
                outcome.check(
                    reply["fleet"] == batches[reply["device_offset"]],
                    f"serve batch frame {frame.id}: reply differs from a direct kernel call",
                )
            else:
                outcome.ok()
    for reply in client.orphans:
        outcome.fail(f"serve: reply without a pending frame: {reply}")
    for seg in late_segments(live["segments"]):
        outcome.fail(
            f"serve {seg.name}: generator fell behind (p50 {seg.lateness_ms(50.0):.2f} ms, "
            f"p99 {seg.lateness_ms(99.0):.1f} ms late)"
        )


def run_live(seed: int, seconds: float, search: bool = True):
    """Set up ``SETUPS`` times, keeping the last server for the live run."""
    setups = []
    server = None
    try:
        for _ in range(SETUPS):
            if server is not None:
                server.stop()
            took, stream, server = setup_once(seed)
            t0 = time.perf_counter()
            asyncio.run(_handshake(server.port))
            setups.append(took + time.perf_counter() - t0)
        live = asyncio.run(_live(stream, server, seconds, search))
    finally:
        if server is not None:
            server.stop()
    return setups, stream, live


async def _handshake(port: int) -> None:
    client = Client(port)
    await client.open()
    await client.close()


def run(seed: int, seconds: float) -> WorkloadResult:
    setups, stream, live = run_live(seed, seconds)
    outcome = Outcome()
    check(stream, live, outcome)
    low, high = live["low"], live["high"]
    report: Dict[str, Tuple[float, str]] = {}
    for name, seg in (("low", low), ("high", high)):
        lat = seg.latencies_ms()
        report[f"serve.{name}.p50_ms"] = (median(lat), "ms")
        report[f"serve.{name}.window_p50_ms"] = (seg.windowed(50.0, WINDOW_S), "ms")
        report[f"serve.{name}.p99_ms"] = (nearest_rank(lat, 99.0), "ms")
        report[f"serve.{name}.window_p99_ms"] = (seg.windowed(99.0, WINDOW_S), "ms")
        report[f"serve.{name}.frames"] = (len(seg.frames), "count")
        report[f"serve.{name}.samples_beyond_p99"] = (beyond(len(lat), 99.0), "count")
    # A bulk request to the idle server is dominated by its kernel
    # call, so its latency repeats from run to run.  In the stream it
    # also waits behind events, and millisecond event latencies follow
    # the host's wake-up latency: those are reported without a bound.
    # The probes after the warm-up are left out, with the warm-up.
    idle = [ms for seg in live["idle"][1:] for ms in seg.latencies_ms()]
    bulk = low.latencies_ms("batch") + high.latencies_ms("batch")
    capacity = (len(low.frames) + len(high.frames)) / (low.server_cpu_s + high.server_cpu_s)
    report["serve.capacity_fps"] = (capacity, "frames/cpu-s")
    report["serve.max_rate_rps"] = (live["max_rate"], "frames/s")
    report["serve.idle_bulk_p50_ms"] = (median(idle), "ms")
    report["serve.idle_bulk_samples"] = (len(idle), "count")
    report["serve.bulk_p50_ms"] = (nearest_rank(bulk, 50.0), "ms")
    report["serve.bulk_p90_ms"] = (nearest_rank(bulk, 90.0), "ms")
    report["serve.bulk_samples"] = (len(bulk), "count")
    report["serve.bulk_samples_beyond_p90"] = (beyond(len(bulk), 90.0), "count")
    report["serve.peak_rss_mb"] = (live["hwm"], "MiB")
    report["serve.sessions"] = (stream.sessions_opened, "count")
    kept = [s for s in live["segments"] if s.measured and not s.voided and s.rate is not None]
    report["serve.generator_late_p99_ms"] = (max(s.lateness_ms(99.0) for s in kept), "ms")
    report["serve.generator_late_window_p99_ms"] = (max(s.window_lateness_ms(99.0) for s in kept), "ms")
    report["serve.voided_segments"] = (sum(s.voided for s in live["segments"]), "count")
    for k, (rate, passed) in enumerate(live["steps"]):
        report[f"serve.search.step{k}_rps"] = (rate, "pass" if passed else "fail")
    return WorkloadResult(
        metrics={
            "setup_s": median(setups),
            "throughput_per_s": capacity,
            "latency_p50_ms": median(idle),
            "peak_rss_mb": live["hwm"],
        },
        outcome=outcome,
        report=report,
    )


# -- traced pass ---------------------------------------------------------

#: Frames replayed in-process per unit of probe scale.
PROBE_FRAMES = 4000
#: Server read size, as ``ServeConfig.read_chunk``.
READ_CHUNK = 65536


def replay(seed: int, n: int, tracer: Optional[Tracer]) -> Tuple[float, Dict]:
    """Drive ``ServeApp`` in-process with the live run's frames.

    Decoding happens at the server's read size, then each request is
    handled and its reply encoded, as the daemon's processor does.
    """
    from repro.serve.protocol import encode_frame
    from repro.serve.server import ServeApp
    from repro.workload.trace_io import NdjsonDecoder

    stream = Stream(seed, CONNECTIONS)
    wire = b"".join(f.payload for f in stream.take(n) + stream.remaining())
    app = ServeApp()
    decoder = NdjsonDecoder()
    span = tracer.span if tracer is not None else _no_span
    decisions = []
    t0 = time.perf_counter()
    for lo in range(0, len(wire), READ_CHUNK):
        with span("serve.decode"):
            frames = decoder.feed(wire[lo : lo + READ_CHUNK])
        for frame in frames:
            request = frame.obj
            op = request["op"]
            if op == "batch":
                with span("serve.handle_batch", trace=str(request["id"])):
                    reply = app.handle_batch([request])[0]
            else:
                with span(f"serve.handle.{op}", trace=request.get("device")):
                    reply = app.handle(request)
            with span("serve.encode"):
                encode_frame(reply)
            if op == "event":
                decisions.append(reply["decisions"])
    wall = time.perf_counter() - t0
    return wall, {"frames": wire.count(b"\n"), "decisions": decisions, "errors": app.errors}


@contextlib.contextmanager
def _no_span(*args, **kwargs):
    yield None


def session_kib(seed: int) -> float:
    """Traced-allocation bytes held per live session, mid-replay, in KiB."""
    from repro.serve.server import ServeApp

    stream = Stream(seed, CONNECTIONS)
    frames = stream.take(int(1.5 * stream.mean_len))
    app = ServeApp()
    app.handle({"op": "hello"})
    tracemalloc.start()
    try:
        before = tracemalloc.get_traced_memory()[0]
        for f in frames:
            request = json.loads(f.payload)
            (app.handle_batch([request]) if f.op == "batch" else [app.handle(request)])
        held = tracemalloc.get_traced_memory()[0] - before
    finally:
        tracemalloc.stop()
    return held / len(app.store) / 1024.0


def probe(seed: int, scale: int, tracer: Optional[Tracer]):
    """A short live run at the two fixed rates, then an in-process replay."""
    setups, stream, live = run_live(seed, 6.0, search=False)
    outcome = Outcome()
    check(stream, live, outcome)
    wall, ctx = replay(seed, PROBE_FRAMES * scale, tracer)
    if ctx["errors"]:
        outcome.fail(f"serve in-process replay: {ctx['errors']} error replies", ctx["errors"])
    ctx.update(wall=wall, low_p50_ms=median(live["low"].latencies_ms()), seed=seed)
    return wall, outcome, ctx


def layer_metrics(tracer: Tracer, ctx: Dict) -> Dict[str, float]:
    def mean(name: str) -> float:
        spans = tracer.by_name(name)
        return tracer.total(name) / len(spans)

    frames = ctx["frames"]
    decode_us = tracer.total("serve.decode") / frames * 1e6
    encode_us = tracer.total("serve.encode") / frames * 1e6
    event_us = mean("serve.handle.event") * 1e6
    return {
        "serve.decode_us_per_frame": decode_us,
        "serve.handle_event_us": event_us,
        "serve.handle_open_ms": mean("serve.handle.open") * 1e3,
        "serve.handle_close_ms": mean("serve.handle.close") * 1e3,
        "serve.handle_batch_ms": mean("serve.handle_batch") * 1e3,
        "serve.encode_us_per_frame": encode_us,
        "serve.slots_per_event": sum(ctx["decisions"]) / len(ctx["decisions"]),
        "serve.session_kb": session_kib(ctx["seed"]),
        "serve.loop_overhead_ms": ctx["low_p50_ms"] - (decode_us + event_us + encode_us) / 1e3,
    }
