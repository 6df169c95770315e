"""Self-tests of the benchmark's own arithmetic and machinery.

Run from the root of a checkout::

    python3 -m pytest perfbench/tests -q
"""

from __future__ import annotations

import asyncio
import json
import math
import sys
from pathlib import Path

import pytest

HERE = Path(__file__).resolve().parent.parent
sys.path[:0] = [str(HERE), str(HERE.parent / "src")]

from common import Outcome, beyond, complete_metrics, median, nearest_rank  # noqa: E402
from tracing import Tracer, covered  # noqa: E402


# -- percentiles ---------------------------------------------------------------


def test_nearest_rank_is_always_a_sample():
    values = list(range(1, 101))
    assert nearest_rank(values, 50) == 50
    assert nearest_rank(values, 99) == 99
    assert nearest_rank(values, 100) == 100
    assert nearest_rank([3.0, 1.0, 2.0], 50) == 2.0
    assert nearest_rank([1.0, 2.0, 3.0, 4.0], 50) == 2.0
    assert nearest_rank([7.0], 99) == 7.0


def test_nearest_rank_small_samples_round_up():
    # ceil(0.99 * 10) = 10: with ten samples p99 is the maximum.
    assert nearest_rank(list(range(10)), 99) == 9
    assert nearest_rank(list(range(1000)), 99) == 989


def test_samples_beyond_a_percentile():
    assert beyond(100, 99) == 1
    assert beyond(1000, 99) == 10
    assert beyond(7200, 99) == 72
    assert beyond(10, 90) == 1
    assert beyond(1, 50) == 0


def test_percentile_rejects_bad_input():
    with pytest.raises(ValueError):
        nearest_rank([], 50)
    with pytest.raises(ValueError):
        nearest_rank([1.0], 0)
    with pytest.raises(ValueError):
        nearest_rank([1.0], 101)


def test_median_even_and_odd():
    assert median([3, 1, 2]) == 2
    assert median([4, 1, 3, 2]) == 2.5


# -- spans ---------------------------------------------------------------------


def fake_clock(*ticks):
    it = iter(ticks)
    return lambda: next(it)


def test_self_time_subtracts_children():
    tracer = Tracer(clock=fake_clock(0.0, 1.0, 3.0, 4.0, 6.0, 10.0))
    with tracer.span("job", trace="t1"):
        with tracer.span("build"):
            pass
        with tracer.span("engine"):
            pass
    job, build, engine = tracer.spans
    assert (job.duration, build.duration, engine.duration) == (10.0, 2.0, 2.0)
    assert build.parent == 0 and engine.parent == 0
    assert build.trace == engine.trace == "t1"
    assert tracer.self_times() == [6.0, 2.0, 2.0]
    assert tracer.self_by_name() == {"job": 6.0, "build": 2.0, "engine": 2.0}


def test_self_time_of_grandchildren_counts_once():
    tracer = Tracer(clock=fake_clock(0.0, 2.0, 3.0, 5.0, 8.0, 9.0))
    with tracer.span("a"):
        with tracer.span("b"):
            with tracer.span("c"):
                pass
    assert tracer.self_times() == [3.0, 4.0, 2.0]


def test_covered_merges_overlaps_and_clips():
    assert covered([(1, 3), (2, 5)], 0, 10) == 4
    assert covered([(1, 3), (4, 5)], 0, 10) == 3
    assert covered([(-5, 2), (8, 20)], 0, 10) == 4
    assert covered([], 0, 10) == 0
    assert covered([(3, 3)], 0, 10) == 0


def test_patch_wraps_and_restores():
    class Thing:
        def work(self, x):
            return x * 2

        @classmethod
        def make(cls, x):
            return x + 1

    class Child(Thing):
        pass

    tracer = Tracer()
    original = Thing.__dict__["work"]
    with tracer.patch(Thing, "work", "thing.work", on_exit=lambda s, a, k, r: s.attrs.update(r=r)):
        with tracer.patch(Thing, "make", "thing.make"):
            with tracer.patch(Child, "work", "child.work"):
                assert Child().work(3) == 6
            assert Thing().work(4) == 8
            assert Thing.make(1) == 2
    assert Thing.__dict__["work"] is original
    assert "work" not in Child.__dict__
    assert [s.name for s in tracer.spans] == ["child.work", "thing.work", "thing.work", "thing.make"]
    assert tracer.spans[1].parent == 0
    assert tracer.spans[2].attrs["r"] == 8


# -- failed-operation counting and completeness --------------------------------


def test_outcome_counts_failed_checks():
    outcome = Outcome()
    assert outcome.check(True, "fine")
    assert not outcome.check(False, "broken")
    outcome.fail("shed", 3)
    outcome.ok(2)
    assert (outcome.attempted, outcome.failed) == (7, 4)
    other = Outcome()
    other.fail("late")
    outcome.merge(other)
    assert (outcome.attempted, outcome.failed) == (8, 5)
    assert outcome.reasons == ["broken", "shed", "late"]


SPEC = {
    "workloads": [{"name": "w", "why": "x"}],
    "end_to_end": [{"name": "a", "unit": "s"}, {"name": "b", "unit": "ms"}],
    "per_layer": [{"name": "c", "unit": "us"}],
}


def test_complete_metrics_orders_and_labels():
    out = complete_metrics(SPEC, "w", False, {"b": 2, "a": 1.5, "extra": 9})
    assert list(out) == ["a", "b"]
    assert out["a"] == {"value": 1.5, "unit": "s"}
    assert complete_metrics(SPEC, "w", True, {"c": 3})["c"]["unit"] == "us"


def test_missing_metric_or_workload_fails():
    with pytest.raises(ValueError, match="missing"):
        complete_metrics(SPEC, "w", False, {"a": 1})
    with pytest.raises(ValueError, match="not declared"):
        complete_metrics(SPEC, "other", False, {"a": 1, "b": 2})
    with pytest.raises(ValueError):
        complete_metrics(SPEC, "w", False, {"a": 1, "b": math.nan})


def test_declared_benchmark_matches_the_runner():
    spec = json.loads((HERE.parent / "BENCHMARK.json").read_text())
    assert spec["paths"] == ["perfbench"]
    assert {w["name"] for w in spec["workloads"]} == {"sweep_grid", "fleet_mix", "serve_stream", "dist_lease"}
    setup = next(m for m in spec["end_to_end"] if m["name"] == "setup_s")
    assert setup["bound"] == max(m["bound"] for m in spec["end_to_end"])


# -- the open-loop client and the rate search against a stub server ------------


class StubServer:
    """Answers every frame after a fixed service time per frame, in FIFO
    micro-batches, without using the CPU: a server whose capacity is
    exactly ``1 / service_s`` frames per second."""

    def __init__(self, service_s: float) -> None:
        self.service_s = service_s
        self.queue: asyncio.Queue = asyncio.Queue()

    async def start(self) -> int:
        self.server = await asyncio.start_server(self._conn, "127.0.0.1", 0)
        self.task = asyncio.create_task(self._process())
        return self.server.sockets[0].getsockname()[1]

    async def stop(self) -> None:
        self.task.cancel()
        self.server.close()
        await self.server.wait_closed()

    async def _conn(self, reader, writer) -> None:
        while True:
            line = await reader.readline()
            if not line:
                break
            await self.queue.put((writer, json.loads(line)["id"]))

    async def _process(self) -> None:
        while True:
            batch = [await self.queue.get()]
            while not self.queue.empty() and len(batch) < 256:
                batch.append(self.queue.get_nowait())
            await asyncio.sleep(self.service_s * len(batch))
            for writer, fid in batch:
                writer.write(json.dumps({"id": fid, "ok": fid != 13}, separators=(",", ":")).encode() + b"\n")


def frames(start: int, n: int):
    from streams import Frame

    return [
        Frame(i, i % 2, "event", json.dumps({"op": "event", "id": i}).encode() + b"\n", "s0", 0)
        for i in range(start, start + n)
    ]


def test_rate_search_finds_the_stub_capacity():
    import serve

    async def main():
        stub = StubServer(service_s=1 / 1000.0)
        port = await stub.start()
        client = serve.Client(port)
        await client.open()
        sent = [100]

        async def passes(rate):
            n = int(rate * 0.6)
            seg = await client.play(serve.Segment("step", frames(sent[0], n), rate))
            sent[0] += n
            return seg.meets_limit()

        found = await serve.search_max_rate(passes, 300.0, 600.0, 6, factor=1.25)
        await client.close()
        await stub.stop()
        return found

    found = asyncio.run(main())
    assert 600.0 <= found <= 1100.0


def test_failed_replies_fail_the_segment():
    import serve

    async def main():
        stub = StubServer(service_s=1e-4)
        port = await stub.start()
        client = serve.Client(port)
        await client.open()
        seg = await client.play(serve.Segment("step", frames(0, 50), 500.0))
        await client.close()
        await stub.stop()
        return seg

    seg = asyncio.run(main())
    assert seg.errors == {13: "?"}
    assert len(seg.latency) == 49
    assert not seg.meets_limit()
    assert seg.windowed(99.0, 0.1) == math.inf


def test_a_late_segment_voids_the_run_unless_replayed():
    import serve

    def segment(name, late_ms, n=100, rate=1000.0):
        seg = serve.Segment(name, frames(0, n), rate)
        seg.lateness = [0.0005] * (n - 2) + [late_ms / 1e3] * 2
        return seg

    low = segment("low", 60.0)
    assert low.fell_behind()
    # One stall late in a long segment moves one window, not the median window.
    assert not segment("high", 60.0, n=1000).fell_behind()
    assert not segment("idle", 60.0, rate=None).fell_behind()
    assert serve.late_segments([low]) == [low]
    low.voided = True
    assert serve.late_segments([low, segment("low", 5.0)]) == []
    # Segments nothing is measured from never void the run.
    assert serve.late_segments([segment("warmup", 60.0), segment("drain", 60.0)]) == []


def test_closed_loop_sends_each_frame_after_the_last_reply():
    import serve

    async def main():
        stub = StubServer(service_s=2e-3)
        port = await stub.start()
        client = serve.Client(port)
        await client.open()
        seg = await client.closed_loop(serve.Segment("idle", frames(0, 5), None))
        await client.close()
        await stub.stop()
        return seg

    seg = asyncio.run(main())
    assert sorted(seg.latency) == [0, 1, 2, 3, 4]
    # One frame in flight at a time: each waits only for its own service.
    assert all(2e-3 <= lat < 0.5 for lat in seg.latency.values())
    assert seg.send_end - seg.start >= 5 * 2e-3
    assert not seg.fell_behind()
