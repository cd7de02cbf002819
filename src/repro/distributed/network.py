"""Deterministic event-driven network between the data center and base stations.

The model keeps the two properties the paper's communication argument depends
on — the wireless backhaul has limited bandwidth, and every station shares the
data center's ingress link when uploading (downlink broadcasts run on parallel
per-station links; uplink transfers serialize at the center) — but executes
them as a discrete-event simulation on a virtual clock instead of closed-form
accounting:

* every logical :class:`~repro.distributed.messages.Message` is encoded to its
  real wire bytes and transmitted as a *frame* over a link with queueing,
  latency and transfer time;
* a seeded :class:`~repro.distributed.faults.FaultPlan` may drop, duplicate,
  corrupt, delay (reorder) or black out frames at send time — every decision a
  pure function of ``(net seed, frame id, attempt)``, so runs replay exactly;
* the data center's reliability policy is stop-and-wait ack/retransmit per
  logical message: deliveries are acknowledged instantly and at zero cost
  (acks and frame headers are link-layer fictions that never enter the byte
  accounting), lost or corrupted frames retransmit after a timeout, and a
  transfer that exhausts :attr:`NetworkConfig.max_attempts` either fails the
  round with a typed :class:`~repro.distributed.events.RoundTimeoutError` or —
  under ``allow_partial`` — drops out of the round, which the caller observes
  through :class:`PhaseOutcome.failed_ids`;
* receivers accept a frame only if its link-layer checksum matches *and* the
  wire codec decodes it; corrupted frames therefore exercise the real
  :class:`~repro.wire.errors.WireFormatError` path and can never surface as
  wrong matches (the checksum is the backstop for corruptions the codec alone
  would miss — both cases are counted separately in :class:`FrameStats`).

Under the all-zero fault plan the event-driven execution reproduces the legacy
accounting model *exactly*: identical byte counts and bit-identical
transmission times (downlink = max over stations, uplink = sum at the ingress),
which the simulation-test harness pins.  Such a phase, with the default
per-frame retransmit timeout, has nothing for the event loop to decide, so it
runs straight through instead (:meth:`SimulatedNetwork._run_straight`) and
records the transcript the event loop would.

Every frame event is recorded as a
:class:`~repro.distributed.events.TranscriptEntry`; the canonical transcript
bytes are the replay token the seed-replay tests compare across runs and
executors.
"""

from __future__ import annotations

import zlib
from dataclasses import dataclass
from typing import Iterator, Sequence

from repro.distributed.events import EventLoop, RoundTimeoutError, TranscriptEntry
from repro.distributed.faults import FaultInjector, FaultPlan, resolve_fault_plan
from repro.distributed.messages import Message
from repro.distributed.node import Node
from repro.distributed.transport.base import FrameStats, PhaseOutcome, Transport
from repro.utils.validation import require_non_negative, require_positive
from repro.wire.errors import UnsupportedWireTypeError, WireFormatError

__all__ = [
    "FrameStats",
    "NetworkConfig",
    "PhaseOutcome",
    "SimulatedNetwork",
]

#: All uplink transfers serialize on this shared link (the center's ingress).
_UPLINK_INGRESS = "uplink:center-ingress"


@dataclass(frozen=True)
class NetworkConfig:
    """Link and reliability parameters of the simulated backhaul."""

    #: Sustained throughput of each link, in bytes per second.
    bandwidth_bytes_per_s: float = 2_000_000.0
    #: Fixed per-message latency in seconds.
    latency_s: float = 0.02
    #: Retransmission budget per logical message (first attempt included).
    max_attempts: int = 8
    #: Fixed retransmit timeout in seconds; ``None`` sizes it per frame
    #: (occupancy + two propagation delays + the plan's jitter bound).
    retransmit_timeout_s: float | None = None

    def __post_init__(self) -> None:
        require_positive(self.bandwidth_bytes_per_s, "bandwidth_bytes_per_s")
        require_non_negative(self.latency_s, "latency_s")
        if not isinstance(self.max_attempts, int) or self.max_attempts < 1:
            raise ValueError(f"max_attempts must be a positive integer, got {self.max_attempts!r}")
        if self.retransmit_timeout_s is not None:
            require_positive(self.retransmit_timeout_s, "retransmit_timeout_s")

    def transfer_time_s(self, size_bytes: int) -> float:
        """Simulated time to move ``size_bytes`` over one link."""
        require_non_negative(size_bytes, "size_bytes")
        return self.latency_s + size_bytes / self.bandwidth_bytes_per_s


class _SequenceView(Sequence):
    """A zero-copy read-only view over a list (the ``message_log`` fix).

    Property access in hot loops used to copy the full delivery log; this view
    is O(1) to hand out while still supporting ``len``/indexing/iteration.
    Callers that need a stable snapshot use
    :meth:`SimulatedNetwork.copy_message_log`.
    """

    __slots__ = ("_items",)

    def __init__(self, items: list) -> None:
        self._items = items

    def __len__(self) -> int:
        return len(self._items)

    def __getitem__(self, index):
        return self._items[index]

    def __iter__(self) -> Iterator:
        return iter(self._items)

    def __repr__(self) -> str:
        return f"_SequenceView({self._items!r})"


class _Transfer:
    """One logical message's reliable delivery state."""

    __slots__ = (
        "frame_id",
        "message",
        "receiver",
        "direction",
        "payload",
        "size",
        "crc",
        "link",
        "station",
        "attempts",
        "delivered",
        "failed",
        "resolved_at",
    )

    def __init__(
        self,
        frame_id: int,
        message: Message,
        receiver: Node | None,
        direction: str,
    ) -> None:
        self.frame_id = frame_id
        self.message = message
        self.receiver = receiver
        self.direction = direction
        try:
            payload: bytes | None = message.to_wire()
        except UnsupportedWireTypeError:
            payload = None
        self.payload = payload
        self.size = len(payload) if payload is not None else message.size_bytes()
        self.crc = zlib.crc32(payload) if payload is not None else 0
        if direction == "downlink":
            self.link = f"downlink:{message.recipient}"
            self.station = message.recipient
        else:
            self.link = _UPLINK_INGRESS
            self.station = message.sender
        self.attempts = 0
        self.delivered = False
        self.failed = False
        self.resolved_at = 0.0


class SimulatedNetwork(Transport):
    """Event-driven reliable transport with seeded fault injection.

    One instance models one round's network: phases run sequentially on a
    per-phase virtual clock, all byte/latency accounting accumulates here, and
    the transcript records every frame event in a canonical replayable form.
    """

    def __init__(
        self,
        config: NetworkConfig | None = None,
        fault_plan: FaultPlan | str | None = None,
        seed: int = 0,
        decode_backend: str = "auto",
        allow_partial: bool = False,
    ) -> None:
        self._config = config or NetworkConfig()
        self._plan = resolve_fault_plan(fault_plan)
        self._injector = FaultInjector(self._plan, seed)
        self._decode_backend = decode_backend
        self._allow_partial = bool(allow_partial)
        self._loop = EventLoop()
        self._link_free: dict[str, float] = {}
        self._downlink_bytes = 0
        self._uplink_bytes = 0
        self._message_count = 0
        self._downlink_durations: list[float] = []
        self._uplink_durations: list[float] = []
        self._log: list[Message] = []
        self._log_view = _SequenceView(self._log)
        self._transcript: list[TranscriptEntry] = []
        self._delivered: dict[tuple[str, str], list[bytes]] = {}
        self._next_frame_id = 0
        self._frames_sent = 0
        self._frames_delivered = 0
        self._frames_dropped = 0
        self._frames_corrupt = 0
        self._frames_duplicate = 0
        self._retransmit_count = 0
        self._timeout_count = 0
        self._corrupt_caught_by_codec = 0
        self._corrupt_caught_by_checksum = 0
        self._payload_bytes_sent = 0
        self._payload_bytes_delivered = 0

    # -- configuration and accounting -------------------------------------------

    @property
    def config(self) -> NetworkConfig:
        """The link parameters in use."""
        return self._config

    @property
    def fault_plan(self) -> FaultPlan:
        """The fault plan frames are exposed to."""
        return self._plan

    @property
    def seed(self) -> int:
        """The network seed all fault decisions derive from."""
        return self._injector.seed

    @property
    def downlink_bytes(self) -> int:
        """Bytes put on center→station links (retransmits and duplicates included)."""
        return self._downlink_bytes

    @property
    def uplink_bytes(self) -> int:
        """Bytes put on the station→center ingress (retransmits included)."""
        return self._uplink_bytes

    @property
    def message_count(self) -> int:
        """Logical messages offered to the transport."""
        return self._message_count

    @property
    def message_log(self) -> Sequence:
        """Read-only view of delivered messages, in delivery order (no copy)."""
        return self._log_view

    def copy_message_log(self) -> list[Message]:
        """A snapshot copy of the delivery log (the old ``message_log`` behavior)."""
        return list(self._log)

    @property
    def transcript(self) -> tuple[TranscriptEntry, ...]:
        """The deterministic event transcript recorded so far."""
        return tuple(self._transcript)

    def transcript_bytes(self) -> bytes:
        """Canonical byte rendering of the transcript (the replay token)."""
        from repro.distributed.events import transcript_to_bytes

        return transcript_to_bytes(self._transcript)

    def delivered_payloads(self, direction: str) -> dict[str, tuple[bytes, ...]]:
        """Unique delivered frame bytes per station for ``direction``.

        The cross-transport conformance battery compares these against the
        TCP backend's: for fault-free plans the exact wire bytes must match.
        """
        return {
            station: tuple(payloads)
            for (recorded_direction, station), payloads in self._delivered.items()
            if recorded_direction == direction
        }

    def frame_stats(self) -> FrameStats:
        """Snapshot of the frame-level ledger."""
        return FrameStats(
            frames_sent=self._frames_sent,
            frames_delivered=self._frames_delivered,
            frames_dropped=self._frames_dropped,
            frames_corrupt=self._frames_corrupt,
            frames_duplicate=self._frames_duplicate,
            retransmit_count=self._retransmit_count,
            timeout_count=self._timeout_count,
            corrupt_caught_by_codec=self._corrupt_caught_by_codec,
            corrupt_caught_by_checksum=self._corrupt_caught_by_checksum,
            payload_bytes_sent=self._payload_bytes_sent,
            payload_bytes_delivered=self._payload_bytes_delivered,
        )

    def transmission_time_s(self) -> float:
        """Aggregate simulated transmission time.

        Downlink phases run on parallel per-station links (max over phases,
        one phase per round); uplink phases serialize at the ingress (sum).
        """
        downlink = max(self._downlink_durations) if self._downlink_durations else 0.0
        return downlink + sum(self._uplink_durations)

    def reset(self) -> None:
        """Clear all recorded traffic, the transcript and the ledger."""
        self._loop.reset(0.0)
        self._link_free.clear()
        self._downlink_bytes = 0
        self._uplink_bytes = 0
        self._message_count = 0
        self._downlink_durations.clear()
        self._uplink_durations.clear()
        self._log.clear()
        self._transcript.clear()
        self._delivered.clear()
        self._next_frame_id = 0
        self._frames_sent = 0
        self._frames_delivered = 0
        self._frames_dropped = 0
        self._frames_corrupt = 0
        self._frames_duplicate = 0
        self._retransmit_count = 0
        self._timeout_count = 0
        self._corrupt_caught_by_codec = 0
        self._corrupt_caught_by_checksum = 0
        self._payload_bytes_sent = 0
        self._payload_bytes_delivered = 0

    # -- sending -----------------------------------------------------------------

    def broadcast(
        self, sends: Sequence[tuple[Message, Node | None]]
    ) -> PhaseOutcome:
        """Run one downlink phase: the center's messages to many stations."""
        return self._run_phase(list(sends), "downlink")

    def gather(self, sends: Sequence[tuple[Message, Node | None]]) -> PhaseOutcome:
        """Run one uplink phase: station reports into the center's ingress."""
        return self._run_phase(list(sends), "uplink")

    def send_downlink(self, message: Message, receiver: Node | None = None) -> float:
        """Deliver one center→station message; return its phase duration.

        Kept for accounting-style callers; a full round should use
        :meth:`broadcast` so the whole dissemination shares one phase clock.
        """
        return self.broadcast([(message, receiver)]).duration_s

    def send_uplink(self, message: Message, receiver: Node | None = None) -> float:
        """Deliver one station→center message; return its phase duration."""
        return self.gather([(message, receiver)]).duration_s

    # -- the phase engine ---------------------------------------------------------

    def _record(
        self,
        time_s: float,
        event: str,
        transfer: _Transfer | None,
        attempt: int | None = None,
    ) -> None:
        if transfer is None:
            entry = TranscriptEntry(
                sequence=len(self._transcript),
                time_s=time_s,
                event=event,
                frame_id=-1,
                attempt=attempt or 0,
                sender="-",
                recipient="-",
                kind="-",
                size_bytes=0,
            )
        else:
            entry = TranscriptEntry(
                sequence=len(self._transcript),
                time_s=time_s,
                event=event,
                frame_id=transfer.frame_id,
                attempt=attempt if attempt is not None else transfer.attempts,
                sender=transfer.message.sender,
                recipient=transfer.message.recipient,
                kind=transfer.message.kind.value,
                size_bytes=transfer.size,
            )
        self._transcript.append(entry)

    def _run_phase(
        self, sends: list[tuple[Message, Node | None]], direction: str
    ) -> PhaseOutcome:
        self._loop.reset(0.0)
        self._link_free.clear()
        transfers: list[_Transfer] = []
        for message, receiver in sends:
            transfer = _Transfer(self._next_frame_id, message, receiver, direction)
            self._next_frame_id += 1
            self._message_count += 1
            transfers.append(transfer)
        phase_marker = TranscriptEntry(
            sequence=len(self._transcript),
            time_s=0.0,
            event="phase",
            frame_id=-1,
            attempt=len(transfers),
            sender="-",
            recipient="-",
            kind=direction,
            size_bytes=0,
        )
        self._transcript.append(phase_marker)
        if self._plan.is_fault_free and self._config.retransmit_timeout_s is None:
            self._run_straight(transfers)
        else:
            for transfer in transfers:
                self._schedule_attempt(transfer, 0.0, retransmit=False)
            self._loop.run()
        failed = [t for t in transfers if not t.delivered]
        if failed and not self._allow_partial:
            labels = tuple(
                f"{t.message.sender}->{t.message.recipient}" for t in failed
            )
            raise RoundTimeoutError(
                f"{len(failed)} {direction} transfer(s) exhausted "
                f"{self._config.max_attempts} attempts under fault plan "
                f"{self._plan.name!r} (seed {self._injector.seed}): "
                + ", ".join(labels),
                failed_transfers=labels,
                delivered_ids=tuple(t.station for t in transfers if t.delivered),
            )
        duration = max((t.resolved_at for t in transfers), default=0.0)
        if direction == "downlink":
            self._downlink_durations.append(duration)
        else:
            self._uplink_durations.append(duration)
        return PhaseOutcome(
            direction=direction,
            duration_s=duration,
            delivered_ids=tuple(t.station for t in transfers if t.delivered),
            failed_ids=tuple(t.station for t in transfers if not t.delivered),
        )

    def _run_straight(self, transfers: list[_Transfer]) -> None:
        """Run a phase nothing can perturb straight through, without the event loop.

        Under a fault-free plan every frame is sent once and arrives, and the
        per-frame retransmit timeout (``retransmit_timeout_s is None``) is never
        shorter than the frame's transfer time, so each timer fires after its
        frame was delivered and records nothing.  The event loop would pop
        exactly the arrivals, in ``(arrival time, send order)`` order; this
        method sends every frame with the same float expressions as
        :meth:`_schedule_attempt` and delivers in that order, so the transcript,
        the ledger and the delivery log are the event loop's, byte for byte.
        Every arrival still goes through :meth:`_on_arrival`: the checksum
        check and the receiver's real wire decode.
        """
        link_free = self._link_free
        arrivals: list[tuple[float, int, _Transfer]] = []
        for order, transfer in enumerate(transfers):
            transfer.attempts = 1
            start = max(0.0, link_free.get(transfer.link, 0.0))
            arrival = start + self._config.transfer_time_s(transfer.size)
            link_free[transfer.link] = arrival
            self._charge(transfer)
            self._record(start, "send", transfer, attempt=1)
            arrivals.append((arrival, order, transfer))
        arrivals.sort()
        for arrival, _order, transfer in arrivals:
            self._on_arrival(transfer, transfer.payload, arrival)

    def _charge(self, transfer: _Transfer) -> None:
        self._frames_sent += 1
        self._payload_bytes_sent += transfer.size
        if transfer.direction == "downlink":
            self._downlink_bytes += transfer.size
        else:
            self._uplink_bytes += transfer.size

    def _schedule_attempt(self, transfer: _Transfer, time_s: float, retransmit: bool) -> None:
        if transfer.delivered or transfer.failed:
            return
        if transfer.attempts >= self._config.max_attempts:
            transfer.failed = True
            transfer.resolved_at = time_s
            self._timeout_count += 1
            self._record(time_s, "timeout", transfer)
            return
        transfer.attempts += 1
        attempt = transfer.attempts
        if retransmit:
            self._retransmit_count += 1
            self._record(time_s, "retransmit", transfer, attempt=attempt)
        faults = self._injector.frame_faults(transfer.frame_id, attempt)
        multiplier = self._injector.straggler_multiplier(transfer.station)
        start = max(time_s, self._link_free.get(transfer.link, 0.0))
        occupancy = self._config.transfer_time_s(transfer.size)
        if multiplier != 1.0:
            occupancy *= multiplier
        self._link_free[transfer.link] = start + occupancy
        self._charge(transfer)
        self._record(start, "send", transfer, attempt=attempt)

        blackout = self._injector.blackout_window(transfer.station)
        lost_to_blackout = blackout is not None and blackout[0] <= start < blackout[1]
        # Corruption needs bytes to flip; a payload outside the codec's
        # vocabulary travels as an opaque object, so the fault degrades to loss.
        lost_to_fault = faults.drop or (faults.corrupt and transfer.payload is None)
        if lost_to_blackout or lost_to_fault:
            self._frames_dropped += 1
            self._record(start, "blackout" if lost_to_blackout else "drop", transfer, attempt=attempt)
        else:
            arrival = start + occupancy
            if faults.jitter_s:
                arrival += faults.jitter_s
            if faults.reorder_delay_s:
                arrival += faults.reorder_delay_s
            data = transfer.payload
            if faults.corrupt and data is not None:
                data = self._injector.corrupt_bytes(data, transfer.frame_id, attempt)
            self._loop.schedule(
                arrival,
                lambda t, tr=transfer, d=data: self._on_arrival(tr, d, t),
            )
            if faults.duplicate:
                # A network-generated duplicate: a pristine second copy
                # trailing the original by one propagation delay.
                self._charge(transfer)
                self._record(start, "dup-send", transfer, attempt=attempt)
                self._loop.schedule(
                    arrival + self._config.latency_s,
                    lambda t, tr=transfer: self._on_arrival(tr, tr.payload, t),
                )

        rto = self._config.retransmit_timeout_s
        if rto is None:
            rto = occupancy + 2.0 * self._config.latency_s + self._plan.jitter_s
        if attempt >= self._config.max_attempts:
            # Final attempt: give reordered frames time to land before the
            # transfer is declared dead.
            rto += self._plan.reorder_delay_s + self._config.latency_s
        self._loop.schedule(start + rto, lambda t, tr=transfer: self._on_timer(tr, t))

    def _on_timer(self, transfer: _Transfer, time_s: float) -> None:
        if transfer.delivered or transfer.failed:
            return
        self._schedule_attempt(transfer, time_s, retransmit=True)

    def _on_arrival(
        self, transfer: _Transfer, data: bytes | None, time_s: float
    ) -> None:
        if transfer.delivered or transfer.failed:
            # A duplicate emission, a spurious retransmission, or a reordered
            # frame landing after the transfer was resolved.
            self._frames_duplicate += 1
            self._record(time_s, "duplicate", transfer)
            return
        if data is not None and zlib.crc32(data) != transfer.crc:
            # The frame checksum is verified on every arrival, so in-flight
            # corruption is detected independently of how it was injected.
            # The receiver still runs the real decode on the corrupt bytes —
            # the codec's typed-error contract is exercised for real — and the
            # checksum is the backstop for corruptions the codec cannot see,
            # so a corrupt frame can never be accepted.
            try:
                Message.from_wire(data, backend=self._decode_backend)
            except WireFormatError:
                self._corrupt_caught_by_codec += 1
            else:
                self._corrupt_caught_by_checksum += 1
            self._frames_corrupt += 1
            self._record(time_s, "corrupt", transfer)
            return
        if transfer.receiver is not None:
            if data is not None:
                delivered = transfer.receiver.receive_wire(data, backend=self._decode_backend)
            else:
                transfer.receiver.receive(transfer.message)
                delivered = transfer.message
        else:
            delivered = transfer.message
        transfer.delivered = True
        transfer.resolved_at = time_s
        self._frames_delivered += 1
        self._payload_bytes_delivered += transfer.size
        if transfer.payload is not None:
            self._delivered.setdefault(
                (transfer.direction, transfer.station), []
            ).append(transfer.payload)
        self._log.append(delivered)
        self._record(time_s, "deliver", transfer)
