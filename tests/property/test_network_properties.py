"""Property-based invariants of the deterministic event-driven network.

Three families, over randomized fault plans and message batches:

1. **Determinism** — the same ``(plan, seed, sends)`` always produces a
   byte-identical event transcript and an identical frame ledger;
2. **Conservation** — every emitted frame is accounted for: delivered,
   suppressed as a duplicate, dropped, or rejected as corrupt; nothing stays
   in flight once a phase completes;
3. **Corruption safety** — a corrupted frame either raises the typed
   :class:`~repro.wire.errors.WireFormatError` in the decode path or is caught
   by the link-layer checksum; an accepted message is always exactly the one
   that was sent, so corruption can never surface as wrong matches.

A fourth pins the straight-line phase a fault-free network runs to the event
loop every other plan runs.
"""

import zlib
from fractions import Fraction

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from repro import wire
from repro.core.protocol import MatchReport
from repro.distributed.faults import FaultInjector, FaultPlan
from repro.distributed.messages import Message, MessageKind
from repro.distributed.network import NetworkConfig, SimulatedNetwork
from repro.distributed.node import Node

identifiers = st.text(
    alphabet="abcdefghijklmnopqrstuvwxyz0123456789-", min_size=1, max_size=8
)

reports = st.builds(
    MatchReport,
    user_id=identifiers,
    station_id=identifiers,
    weight=st.fractions(min_value=0, max_value=1).filter(
        lambda f: f.denominator < 2**32
    ),
    query_id=identifiers,
)

plans = st.builds(
    FaultPlan,
    drop_probability=st.floats(0, 0.4),
    duplicate_probability=st.floats(0, 0.4),
    corrupt_probability=st.floats(0, 0.4),
    reorder_probability=st.floats(0, 0.5),
    reorder_delay_s=st.floats(0, 0.1),
    jitter_s=st.floats(0, 0.05),
    straggler_probability=st.floats(0, 0.5),
    straggler_multiplier=st.floats(1, 4),
)

batches = st.lists(st.lists(reports, min_size=0, max_size=4), min_size=1, max_size=6)


def _run_gather(plan: FaultPlan, seed: int, batch: list[list[MatchReport]]):
    """One uplink phase of ``batch`` report uploads into a fresh center node."""
    center = Node("center")
    network = SimulatedNetwork(
        NetworkConfig(), fault_plan=plan, seed=seed, allow_partial=True
    )
    sends = [
        (
            Message(f"station-{index}", "center", MessageKind.MATCH_REPORT, list(payload)),
            center,
        )
        for index, payload in enumerate(batch)
    ]
    outcome = network.gather(sends)
    return network, center, sends, outcome


class TestDeterminism:
    @given(plan=plans, seed=st.integers(0, 2**32), batch=batches)
    @settings(max_examples=40, deadline=None)
    def test_same_seed_same_transcript_and_ledger(self, plan, seed, batch):
        first_net, _, _, first_out = _run_gather(plan, seed, batch)
        second_net, _, _, second_out = _run_gather(plan, seed, batch)
        assert first_net.transcript_bytes() == second_net.transcript_bytes()
        assert first_net.frame_stats() == second_net.frame_stats()
        assert first_out.duration_s == second_out.duration_s
        assert first_out.delivered_ids == second_out.delivered_ids
        assert first_out.failed_ids == second_out.failed_ids


class TestConservation:
    @given(plan=plans, seed=st.integers(0, 2**32), batch=batches)
    @settings(max_examples=40, deadline=None)
    def test_every_emitted_frame_is_accounted_for(self, plan, seed, batch):
        network, center, _, outcome = _run_gather(plan, seed, batch)
        stats = network.frame_stats()
        assert stats.frames_in_flight == 0
        assert stats.frames_sent == (
            stats.frames_delivered
            + stats.frames_duplicate
            + stats.frames_dropped
            + stats.frames_corrupt
        )
        # Exactly-once to the application: one accepted message per delivered
        # logical transfer, every logical message either delivered or failed.
        assert stats.frames_delivered == len(center.inbox) == len(outcome.delivered_ids)
        assert len(outcome.delivered_ids) + len(outcome.failed_ids) == len(batch)
        assert stats.payload_bytes_delivered <= stats.payload_bytes_sent
        assert 0.0 <= stats.goodput_fraction <= 1.0
        # Corruption classification is total: every corrupt frame was caught
        # by the codec or by the checksum backstop.
        assert stats.frames_corrupt == (
            stats.corrupt_caught_by_codec + stats.corrupt_caught_by_checksum
        )


class TestCorruptionSafety:
    @given(
        seed=st.integers(0, 2**32),
        batch=batches,
        probability=st.floats(0.3, 1.0),
    )
    @settings(max_examples=40, deadline=None)
    def test_accepted_messages_are_exactly_what_was_sent(self, seed, batch, probability):
        plan = FaultPlan(corrupt_probability=probability)
        network, center, sends, _ = _run_gather(plan, seed, batch)
        originals = {message.sender: message for message, _ in sends}
        for accepted in center.inbox:
            original = originals[accepted.sender]
            assert accepted == original
            assert accepted.payload == original.payload

    @given(
        payload=st.lists(reports, min_size=1, max_size=6),
        flip_position=st.integers(0, 10**6),
        flip_mask=st.integers(1, 255),
    )
    @settings(max_examples=60, deadline=None)
    def test_flipped_byte_decode_raises_typed_error_or_is_checksum_caught(
        self, payload, flip_position, flip_mask
    ):
        message = Message("station-a", "center", MessageKind.MATCH_REPORT, payload)
        pristine = message.to_wire()
        corrupted = bytearray(pristine)
        corrupted[flip_position % len(corrupted)] ^= flip_mask
        corrupted = bytes(corrupted)
        # The frame checksum always notices the flip ...
        assert zlib.crc32(corrupted) != zlib.crc32(pristine)
        # ... and the decode path either raises the typed error or returns a
        # message; it must never escape with any other exception type.
        try:
            Message.from_wire(corrupted)
        except wire.WireFormatError:
            pass  # the only acceptable exception

    @given(data=st.binary(min_size=1, max_size=128), frame_id=st.integers(0, 1000))
    @settings(max_examples=40, deadline=None)
    def test_injector_corruption_always_changes_the_bytes(self, data, frame_id):
        injector = FaultInjector(FaultPlan(corrupt_probability=1.0), seed=9)
        corrupted = injector.corrupt_bytes(data, frame_id, 1)
        assert corrupted != data


def test_fault_free_plan_never_retransmits():
    plan = FaultPlan()
    batch = [[MatchReport("u", "s", weight=Fraction(1), query_id="q")] for _ in range(5)]
    network, center, _, outcome = _run_gather(plan, 0, batch)
    stats = network.frame_stats()
    assert stats.retransmit_count == 0
    assert stats.frames_sent == stats.frames_delivered == 5
    assert stats.goodput_fraction == 1.0
    assert len(center.inbox) == 5
    assert outcome.failed_ids == ()


#: Never perturbs a frame (its straggler multiplier is 1.0), but is not
#: ``is_fault_free``, so the network runs its phases on the event loop.
INERT_PLAN = FaultPlan(name="inert", straggler_probability=1.0)

stations = st.sampled_from(["s0", "s1", "s2"])
phase_payloads = st.one_of(
    st.none(),
    st.lists(reports, max_size=3),
    identifiers,
    st.binary(max_size=600),
    # Outside the wire vocabulary: delivered as the object, sized by estimate.
    st.dictionaries(identifiers, st.integers(0, 9), max_size=3),
)
#: Each send: (station, payload, whether a receiver node takes the delivery).
phase_sends = st.lists(st.tuples(stations, phase_payloads, st.booleans()), max_size=8)
phase_scripts = st.lists(
    st.tuples(st.sampled_from(["downlink", "uplink"]), phase_sends), min_size=1, max_size=4
)
link_configs = st.builds(
    NetworkConfig,
    # A slow link makes frame sizes matter; zero latency puts each per-frame
    # timer at the very instant its frame arrives.
    bandwidth_bytes_per_s=st.sampled_from([1_000.0, 2_000_000.0]),
    latency_s=st.sampled_from([0.0, 0.02]),
    max_attempts=st.integers(1, 3),
)


def _run_script(plan: FaultPlan, config: NetworkConfig, script):
    """Run ``script``'s phases on a fresh network; return what it observed."""
    network = SimulatedNetwork(config, fault_plan=plan, seed=3)
    nodes: dict[str, Node] = {}
    outcomes = []
    for direction, sends in script:
        batch = []
        for station, payload, addressed in sends:
            if direction == "downlink":
                message = Message("center", station, MessageKind.FILTER_DISSEMINATION, payload)
            else:
                message = Message(station, "center", MessageKind.MATCH_REPORT, payload)
            receiver = message.recipient
            batch.append(
                (message, nodes.setdefault(receiver, Node(receiver)) if addressed else None)
            )
        run = network.broadcast if direction == "downlink" else network.gather
        outcomes.append(run(batch))
    return network, nodes, outcomes


class TestStraightLinePhase:
    @pytest.mark.filterwarnings("ignore:Message byte accounting fell back")
    @given(config=link_configs, script=phase_scripts)
    @settings(max_examples=80, deadline=None)
    def test_fault_free_phase_equals_the_event_loop(self, config, script):
        straight, straight_nodes, straight_outcomes = _run_script(FaultPlan(), config, script)
        looped, looped_nodes, looped_outcomes = _run_script(INERT_PLAN, config, script)
        assert straight_outcomes == looped_outcomes
        assert straight.transcript_bytes() == looped.transcript_bytes()
        assert straight.frame_stats() == looped.frame_stats()
        assert straight.frame_stats().retransmit_count == 0
        for direction in ("downlink", "uplink"):
            assert straight.delivered_payloads(direction) == looped.delivered_payloads(
                direction
            )
        assert list(straight.message_log) == list(looped.message_log)
        assert straight.message_count == looped.message_count
        assert straight.downlink_bytes == looped.downlink_bytes
        assert straight.uplink_bytes == looped.uplink_bytes
        assert straight.transmission_time_s() == looped.transmission_time_s()
        assert {name: node.inbox for name, node in straight_nodes.items()} == {
            name: node.inbox for name, node in looped_nodes.items()
        }
