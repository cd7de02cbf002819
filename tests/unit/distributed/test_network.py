"""Unit tests for the deterministic event-driven network."""

import hashlib

import pytest

from repro.distributed.events import RoundTimeoutError
from repro.distributed.faults import FaultPlan
from repro.distributed.messages import Message, MessageKind
from repro.distributed.network import NetworkConfig, SimulatedNetwork
from repro.distributed.node import Node


def _message(payload=None, sender="a", recipient="b"):
    return Message(sender, recipient, MessageKind.CONTROL, payload=payload)


class TestNetworkConfig:
    def test_transfer_time_includes_latency_and_bandwidth(self):
        config = NetworkConfig(bandwidth_bytes_per_s=1000, latency_s=0.5)
        assert config.transfer_time_s(1000) == pytest.approx(1.5)

    def test_zero_bytes_costs_latency_only(self):
        config = NetworkConfig(latency_s=0.25)
        assert config.transfer_time_s(0) == pytest.approx(0.25)

    def test_invalid_parameters(self):
        with pytest.raises(ValueError):
            NetworkConfig(bandwidth_bytes_per_s=0)
        with pytest.raises(ValueError):
            NetworkConfig(latency_s=-1)
        with pytest.raises(ValueError):
            NetworkConfig(max_attempts=0)
        with pytest.raises(ValueError):
            NetworkConfig(retransmit_timeout_s=0)

    def test_negative_size_rejected(self):
        with pytest.raises(ValueError):
            NetworkConfig().transfer_time_s(-1)


class TestSimulatedNetwork:
    def test_byte_accounting(self):
        network = SimulatedNetwork(NetworkConfig())
        network.send_downlink(_message(payload=[1, 2, 3]))
        network.send_uplink(_message(payload="abcd"))
        assert network.downlink_bytes > 0
        assert network.uplink_bytes > 0
        assert network.message_count == 2
        assert len(network.message_log) == 2

    def test_downlink_is_parallel_uplink_is_serial(self):
        config = NetworkConfig(bandwidth_bytes_per_s=1_000_000, latency_s=1.0)
        network = SimulatedNetwork(config)
        network.broadcast([(_message(recipient=f"bs-{i}"), None) for i in range(3)])
        network.gather([(_message(sender=f"bs-{i}"), None) for i in range(3)])
        # Downlink contributes max (1 s), uplink contributes the sum (3 s).
        assert network.transmission_time_s() == pytest.approx(4.0, rel=0.01)

    def test_transmission_time_empty(self):
        assert SimulatedNetwork().transmission_time_s() == 0.0

    def test_reset(self):
        network = SimulatedNetwork()
        network.send_uplink(_message())
        network.reset()
        assert network.message_count == 0
        assert network.uplink_bytes == 0
        assert network.transmission_time_s() == 0.0
        assert network.transcript == ()
        assert network.frame_stats().frames_sent == 0

    def test_send_returns_transfer_time(self):
        network = SimulatedNetwork(NetworkConfig(latency_s=0.1))
        assert network.send_downlink(_message()) >= 0.1

    def test_message_log_is_a_cheap_view_not_a_copy(self):
        network = SimulatedNetwork()
        network.send_uplink(_message())
        view_a = network.message_log
        view_b = network.message_log
        # The hot-loop fix: property access hands out the same O(1) view.
        assert view_a is view_b
        assert len(view_a) == 1
        network.send_uplink(_message())
        # The view is live ...
        assert len(view_a) == 2
        # ... while the explicit copy is a stable snapshot.
        snapshot = network.copy_message_log()
        network.send_uplink(_message())
        assert len(snapshot) == 2
        assert len(view_a) == 3
        assert list(snapshot) == list(network.message_log)[:2]

    def test_delivery_decodes_real_wire_bytes_into_the_receiver(self):
        center = Node("center")
        message = Message("bs-1", "center", MessageKind.MATCH_REPORT, payload=[1, 2, 3])
        network = SimulatedNetwork()
        outcome = network.gather([(message, center)])
        assert outcome.delivered_ids == ("bs-1",)
        assert len(center.inbox) == 1
        decoded = center.inbox[0]
        # The inbox holds the *decoded* message: equal, but a distinct object
        # that actually crossed the codec.
        assert decoded == message
        assert decoded is not message

    def test_opaque_payload_falls_back_to_object_delivery(self):
        center = Node("center")
        # Dicts are outside the wire vocabulary but inside the estimate model.
        message = Message("bs-1", "center", MessageKind.MATCH_REPORT, payload={"a": 1})
        network = SimulatedNetwork()
        outcome = network.gather([(message, center)])
        assert outcome.delivered_ids == ("bs-1",)
        assert center.inbox[0] is message
        assert network.uplink_bytes == message.estimated_size_bytes()


class TestReliability:
    def test_dropped_frames_are_retransmitted_until_delivered(self):
        plan = FaultPlan(drop_probability=0.5)
        center = Node("center")
        sends = [
            (Message(f"bs-{i}", "center", MessageKind.MATCH_REPORT, [i]), center)
            for i in range(8)
        ]
        network = SimulatedNetwork(NetworkConfig(), fault_plan=plan, seed=1)
        outcome = network.gather(sends)
        stats = network.frame_stats()
        # Half the frames drop on average, yet every message arrives.
        assert len(center.inbox) == 8
        assert outcome.failed_ids == ()
        assert stats.frames_dropped > 0
        assert stats.retransmit_count >= stats.frames_dropped
        assert stats.goodput_fraction < 1.0

    def test_exhausted_attempts_raise_typed_error(self):
        plan = FaultPlan(drop_probability=1.0)
        network = SimulatedNetwork(
            NetworkConfig(max_attempts=3), fault_plan=plan, seed=0
        )
        with pytest.raises(RoundTimeoutError) as excinfo:
            network.send_uplink(_message(sender="bs-1", recipient="center"))
        assert excinfo.value.failed_transfers == ("bs-1->center",)
        assert network.frame_stats().timeout_count == 1
        assert network.frame_stats().frames_sent == 3

    def test_allow_partial_reports_failed_ids_instead_of_raising(self):
        plan = FaultPlan(drop_probability=1.0)
        network = SimulatedNetwork(
            NetworkConfig(max_attempts=2), fault_plan=plan, seed=0, allow_partial=True
        )
        outcome = network.gather(
            [(_message(sender="bs-1", recipient="center"), None)]
        )
        assert outcome.delivered_ids == ()
        assert outcome.failed_ids == ("bs-1",)

    def test_corrupt_frames_never_reach_the_inbox(self):
        plan = FaultPlan(corrupt_probability=1.0)
        center = Node("center")
        message = Message("bs-1", "center", MessageKind.MATCH_REPORT, payload=[7])
        network = SimulatedNetwork(
            NetworkConfig(max_attempts=4), fault_plan=plan, seed=5, allow_partial=True
        )
        network.gather([(message, center)])
        stats = network.frame_stats()
        assert center.inbox == []
        assert stats.frames_corrupt == 4
        assert stats.frames_corrupt == (
            stats.corrupt_caught_by_codec + stats.corrupt_caught_by_checksum
        )

    def test_duplicates_are_suppressed_exactly_once_semantics(self):
        plan = FaultPlan(duplicate_probability=1.0)
        center = Node("center")
        sends = [
            (Message(f"bs-{i}", "center", MessageKind.MATCH_REPORT, [i]), center)
            for i in range(4)
        ]
        network = SimulatedNetwork(NetworkConfig(), fault_plan=plan, seed=1)
        network.gather(sends)
        stats = network.frame_stats()
        assert len(center.inbox) == 4
        assert stats.frames_duplicate == 4
        # The duplicate emissions were charged on the wire.
        assert stats.payload_bytes_sent == 2 * stats.payload_bytes_delivered

    def test_short_fixed_timeout_keeps_the_event_loop(self):
        # A fault-free plan, but a fixed 1 ms timer: it fires long before a
        # 5,000-byte frame (22.5 ms on the default link) arrives, so every
        # transfer retransmits once and its second copy lands as a duplicate.
        # A phase run straight through, without timers, would show none of it.
        stations = [Node(f"bs-{i}") for i in range(3)]
        sends = [
            (
                Message(
                    "center", node.node_id, MessageKind.FILTER_DISSEMINATION, bytes(4968)
                ),
                node,
            )
            for node in stations
        ]
        assert all(len(message.to_wire()) == 5000 for message, _ in sends)
        network = SimulatedNetwork(
            NetworkConfig(retransmit_timeout_s=0.001), fault_plan=FaultPlan()
        )
        outcome = network.broadcast(sends)
        stats = network.frame_stats()
        assert (stats.frames_sent, stats.retransmit_count, stats.frames_duplicate) == (6, 3, 3)
        assert stats.frames_delivered == 3
        assert [len(node.inbox) for node in stations] == [1, 1, 1]
        assert outcome.duration_s == 0.0225
        assert (
            hashlib.sha256(network.transcript_bytes()).hexdigest()
            == "d67d893f620a5e87a128be2a05d8a2f574494d5df861c5f4e990facdaa2d6ca3"
        )

    def test_straggler_multiplier_slows_the_link(self):
        fast = SimulatedNetwork(NetworkConfig())
        slow = SimulatedNetwork(
            NetworkConfig(),
            fault_plan=FaultPlan(
                straggler_probability=1.0, straggler_multiplier=16.0
            ),
        )
        message = _message(payload=list(range(100)))
        assert slow.send_downlink(message) > 4 * fast.send_downlink(message)

    def test_transcript_records_phase_send_deliver(self):
        network = SimulatedNetwork()
        network.send_downlink(_message())
        events = [entry.event for entry in network.transcript]
        assert events == ["phase", "send", "deliver"]
        assert network.transcript_bytes().count(b"\n") == 2
