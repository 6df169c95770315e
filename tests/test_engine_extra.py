"""Additional engine coverage: slot sizes, flush modes, downlink flow."""

import pytest

from repro.bandwidth.models import ConstantBandwidth
from repro.baselines.etrain import ETrainStrategy
from repro.baselines.immediate import ImmediateStrategy
from repro.core.packet import Packet
from repro.core.profiles import weibo_profile
from repro.core.scheduler import SchedulerConfig
from repro.heartbeat.apps import make_generator
from repro.sim.engine import Simulation
from repro.sim.validate import assert_valid

from tests.conftest import make_packet


class TestSlotSizes:
    @pytest.mark.parametrize("slot", [0.5, 1.0, 2.0])
    def test_any_slot_size_validates(self, slot):
        packets = [make_packet(arrival=3.7 * i + 1.1) for i in range(20)]
        sim = Simulation(
            ETrainStrategy([weibo_profile()], SchedulerConfig(theta=0.5)),
            [make_generator("qq")],
            packets,
            horizon=400.0,
            slot=slot,
        )
        assert_valid(sim.run())

    def test_smaller_slots_do_not_change_heartbeat_times(self):
        def run(slot):
            sim = Simulation(
                ImmediateStrategy(),
                [make_generator("qq")],
                [],
                horizon=700.0,
                slot=slot,
            )
            result = sim.run()
            return [r.start for r in result.records]

        assert run(0.5) == run(2.0) == [0.0, 300.0, 600.0]

    def test_decision_count_scales_with_slot(self):
        def decisions(slot):
            sim = Simulation(
                ImmediateStrategy(), [], [], horizon=100.0, slot=slot
            )
            return sim.run().decisions

        assert decisions(1.0) == 100
        assert decisions(2.0) == 50


class TestFlushModes:
    def test_flush_counts_reported(self):
        strategy = ETrainStrategy(
            [weibo_profile()], SchedulerConfig(theta=1e9)
        )
        packets = [make_packet(arrival=float(i)) for i in range(5)]
        sim = Simulation(strategy, [], packets, horizon=100.0)
        result = sim.run()
        assert result.flushed_packets == 5


class TestDownlinkThroughEngine:
    def test_mixed_direction_workload_validates(self):
        packets = [
            Packet(
                app_id="weibo",
                arrival_time=float(i * 17 + 2),
                size_bytes=2_000,
                deadline=30.0,
                direction="down" if i % 3 == 0 else "up",
            )
            for i in range(15)
        ]
        sim = Simulation(
            ETrainStrategy([weibo_profile()], SchedulerConfig(theta=0.5)),
            [make_generator("qq")],
            packets,
            bandwidth=ConstantBandwidth(50_000.0),
            horizon=400.0,
        )
        result = sim.run()
        assert_valid(result)
        assert all(p.is_scheduled for p in packets)

    def test_downlink_transfers_faster(self):
        up = Packet(app_id="weibo", arrival_time=5.0, size_bytes=60_000)
        down = Packet(
            app_id="weibo", arrival_time=100.0, size_bytes=60_000,
            direction="down",
        )
        sim = Simulation(
            ImmediateStrategy(),
            [],
            [up, down],
            bandwidth=ConstantBandwidth(20_000.0),
            horizon=200.0,
        )
        result = sim.run()
        up_rec = next(r for r in result.records if up.packet_id in r.packet_ids)
        down_rec = next(r for r in result.records if down.packet_id in r.packet_ids)
        assert down_rec.duration == pytest.approx(up_rec.duration / 3.0)
