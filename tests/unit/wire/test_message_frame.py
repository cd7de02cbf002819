"""One-pass frames: ``encode`` writes an uncompressed body after its header.

Every transport frames messages through :meth:`Message.to_wire`, which calls
:func:`repro.wire.encode`.  Uncompressed frames are written into one buffer
(header, optional version-2 extension, then the body); compressed frames still
build the body apart so it can be deflated.  These tests pin the one-pass
frame byte for byte to a header-plus-separate-body frame, and to the inflated
body of the compressed frame, across message kinds, payload shapes, hop
versions and non-ASCII routing ids.
"""

import zlib
from fractions import Fraction

import pytest

from repro import wire
from repro.bloom.standard import BloomFilter
from repro.core.config import DIMatchingConfig
from repro.core.encoder import PatternEncoder
from repro.core.protocol import MatchReport
from repro.core.wbf import WeightedBloomFilter
from repro.distributed.messages import Message, MessageKind
from repro.timeseries.pattern import LocalPattern
from repro.timeseries.query import QueryPattern
from repro.wire.codec import TAG_MESSAGE, _dispatch
from repro.wire.primitives import write_uvarint

#: Length of a version-1 header: magic, version, flags, tag.
V1_HEADER = len(wire.MAGIC) + 3


def two_pass_frame(obj, version=wire.WIRE_VERSION, extension=b""):
    """The uncompressed frame built as a header plus a separately written body."""
    tag, writer = _dispatch(obj)
    body = bytearray()
    writer(body, obj)
    header = bytearray(wire.MAGIC + bytes((version, 0, tag)))
    if version >= wire.WIRE_VERSION_EXT:
        write_uvarint(header, len(extension))
        header += extension
    return bytes(header + body)


def make_wbf() -> WeightedBloomFilter:
    wbf = WeightedBloomFilter(256, 4, seed=3, backend="python")
    wbf.add(10, ("q1", Fraction(1, 3)))
    wbf.add_many([11, 12, "a", (0, 7)], ("q1", Fraction(2, 3)))
    return wbf


def make_bloom() -> BloomFilter:
    bloom = BloomFilter(128, 3, seed=5, backend="python")
    bloom.add_many([1, 2, "x"])
    return bloom


def make_batch():
    queries = [
        QueryPattern("q1", [LocalPattern("u1", [1, 2, 0, 3], "s1")]),
        QueryPattern("q2", [LocalPattern("u2", [2, 2, 2, 2], "s2")]),
    ]
    return PatternEncoder(DIMatchingConfig(sample_count=4)).encode_batch(queries)


PAYLOADS = {
    "none": lambda: None,
    "wbf": make_wbf,
    "bloom": make_bloom,
    "batch": make_batch,
    "reports": lambda: [
        MatchReport(user_id="u1", station_id="s1", weight=Fraction(1, 3), query_id="q1"),
        MatchReport(user_id="u2", station_id="s1", weight=Fraction(2, 3), query_id="q1"),
    ],
    "unweighted-reports": lambda: [MatchReport(user_id="u", station_id="s")],
    "empty-list": lambda: [],
    "patterns": lambda: [LocalPattern("u1", [0, 5, -2], "s9")],
}

IDS = [
    ("data-center", "station-1"),
    ("zentrale-ü", "station-é"),
    ("中心", "基站-7"),
    ("", "🛰"),
]


def fresh(sender, recipient, kind, payload_name, wire_version=wire.WIRE_VERSION):
    return Message(sender, recipient, kind, PAYLOADS[payload_name](), wire_version)


@pytest.mark.parametrize("kind", list(MessageKind))
@pytest.mark.parametrize("payload_name", sorted(PAYLOADS))
@pytest.mark.parametrize("wire_version", wire.SUPPORTED_WIRE_VERSIONS)
def test_to_wire_equals_the_two_pass_frame(kind, payload_name, wire_version):
    for sender, recipient in IDS:
        framed = fresh(sender, recipient, kind, payload_name, wire_version)
        twin = fresh(sender, recipient, kind, payload_name, wire_version)
        assert framed.to_wire() == wire.encode(twin)
        assert framed.to_wire() == two_pass_frame(twin)


@pytest.mark.parametrize("payload_name", sorted(PAYLOADS))
@pytest.mark.parametrize(
    ("version", "extension"),
    [
        (wire.WIRE_VERSION, b""),
        (wire.WIRE_VERSION_EXT, b""),
        (wire.WIRE_VERSION_EXT, "\x01ext-ü".encode()),
    ],
)
def test_payload_frames_equal_the_two_pass_frame(payload_name, version, extension):
    payload = PAYLOADS[payload_name]()
    framed = wire.encode(payload, version=version, extension=extension)
    assert framed == two_pass_frame(payload, version, extension)


@pytest.mark.parametrize("payload_name", sorted(PAYLOADS))
def test_compressed_body_inflates_to_the_one_pass_body(payload_name):
    message = fresh("中心", "基站-7", MessageKind.MATCH_REPORT, payload_name, wire.WIRE_VERSION_EXT)
    plain = message.to_wire()
    compressed = message.to_wire(compress=True)
    assert compressed == wire.encode(message, compress=True)
    assert compressed[5] & wire.FLAG_ZLIB
    assert compressed[:5] == plain[:5]
    assert compressed[6] == plain[6] == TAG_MESSAGE
    assert zlib.decompress(compressed[V1_HEADER:]) == plain[V1_HEADER:]
    assert Message.from_wire(compressed) == message


@pytest.mark.parametrize("payload_name", ["wbf", "reports"])
def test_envelope_header_is_constant_across_hop_versions(payload_name):
    message = fresh("dc", "s1", MessageKind.MATCH_REPORT, payload_name, wire.WIRE_VERSION_EXT)
    frame = message.to_wire()
    assert frame[:V1_HEADER] == wire.MAGIC + bytes((wire.WIRE_VERSION, 0, TAG_MESSAGE))
    assert len(frame) == message.size_bytes()
    decoded = Message.from_wire(frame)
    assert decoded == message
    assert decoded.wire_version == wire.WIRE_VERSION_EXT


def test_memoized_frame_follows_payload_mutation():
    wbf = make_wbf()
    message = Message("dc", "s1", MessageKind.FILTER_DISSEMINATION, wbf)
    before = message.to_wire()
    assert message.to_wire() is before
    wbf.add(999, ("q9", Fraction(1, 7)))
    after = message.to_wire()
    assert after != before
    assert after == wire.encode(Message("dc", "s1", MessageKind.FILTER_DISSEMINATION, wbf))
