"""Property-based round-trip tests for the binary wire codec.

Three invariants, over randomized artifacts:

1. ``decode(encode(x)) == x`` for every protocol artifact type;
2. encodings are *canonical*: the same logical filter built on the pure-Python
   and NumPy bit backends (or with weights inserted in any order) encodes to
   byte-identical output;
3. compression never changes the decoded artifact.
"""

import zlib
from fractions import Fraction

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from repro import wire
from repro.bloom.backend import available_backends
from repro.bloom.standard import BloomFilter
from repro.core.protocol import MatchReport
from repro.core.wbf import WeightedBloomFilter
from repro.distributed.messages import Message, MessageKind
from repro.timeseries.pattern import LocalPattern
from repro.timeseries.query import QueryPattern

BACKENDS = available_backends()
HAS_NUMPY_BACKEND = "numpy" in BACKENDS

identifiers = st.text(
    alphabet="abcdefghijklmnopqrstuvwxyz0123456789-_", min_size=1, max_size=12
)
# The wire format carries 64-bit numerics (a documented limit; values beyond it
# raise UnsupportedWireTypeError, covered below) — keep generated fractions
# inside that range.
fractions = st.fractions(min_value=-2, max_value=2).filter(
    lambda f: abs(f.numerator) < 2**63 and f.denominator < 2**63
)
weights = st.one_of(
    fractions,
    st.tuples(
        identifiers,
        st.fractions(min_value=0, max_value=1).filter(lambda f: f.denominator < 2**63),
    ),
    st.integers(-1000, 1000),
    identifiers,
)
items = st.one_of(
    st.integers(-(10**6), 10**6),
    identifiers,
    st.tuples(st.integers(0, 100), st.integers(-100, 100)),
)

wbf_params = st.tuples(
    st.integers(8, 512),  # bit_count
    st.integers(1, 5),  # hash_count
    st.integers(0, 1000),  # seed
    st.lists(st.tuples(items, weights), max_size=40),  # entries
)


def build_wbf(params, backend: str) -> WeightedBloomFilter:
    bit_count, hash_count, seed, entries = params
    wbf = WeightedBloomFilter(bit_count, hash_count, seed=seed, backend=backend)
    for item, weight in entries:
        wbf.add(item, weight)
    return wbf


class TestFilterRoundTrips:
    @given(params=wbf_params)
    @settings(max_examples=40, deadline=None)
    def test_wbf_round_trip_all_backends(self, params):
        for backend in BACKENDS:
            wbf = build_wbf(params, backend)
            decoded = wire.decode(wire.encode(wbf), backend=backend)
            assert decoded == wbf
            assert decoded.backend_name == wbf.backend_name

    @given(params=wbf_params)
    @settings(max_examples=40, deadline=None)
    def test_wbf_bytes_identical_across_backends(self, params):
        if not HAS_NUMPY_BACKEND:
            pytest.skip("NumPy backend unavailable")
        assert wire.encode(build_wbf(params, "python")) == wire.encode(
            build_wbf(params, "numpy")
        )

    @given(params=wbf_params)
    @settings(max_examples=25, deadline=None)
    def test_wbf_bytes_independent_of_insertion_order(self, params):
        bit_count, hash_count, seed, entries = params
        forward = build_wbf(params, "python")
        backward = build_wbf((bit_count, hash_count, seed, list(reversed(entries))), "python")
        assert wire.encode(forward) == wire.encode(backward)

    @given(
        bit_count=st.integers(8, 512),
        hash_count=st.integers(1, 5),
        seed=st.integers(0, 1000),
        entries=st.lists(items, max_size=60),
    )
    @settings(max_examples=40, deadline=None)
    def test_bloom_round_trip_and_backend_identity(self, bit_count, hash_count, seed, entries):
        encodings = []
        for backend in BACKENDS:
            bloom = BloomFilter(bit_count, hash_count, seed=seed, backend=backend)
            for item in entries:
                bloom.add(item)
            data = wire.encode(bloom)
            encodings.append(data)
            assert wire.decode(data, backend=backend) == bloom
        assert len(set(encodings)) == 1

    @given(params=wbf_params)
    @settings(max_examples=25, deadline=None)
    def test_compression_is_lossless(self, params):
        wbf = build_wbf(params, "python")
        assert wire.decode(wire.encode(wbf, compress=True)) == wbf


local_patterns = st.builds(
    LocalPattern,
    identifiers,
    st.lists(st.integers(-(10**6), 10**6), min_size=1, max_size=20),
    identifiers,
)


@st.composite
def query_batches(draw):
    count = draw(st.integers(1, 4))
    queries = []
    for index in range(count):
        length = draw(st.integers(1, 12))
        user = draw(identifiers)
        station_count = draw(st.integers(1, 3))
        locals_ = [
            LocalPattern(
                user,
                draw(st.lists(st.integers(0, 1000), min_size=length, max_size=length)),
                draw(identifiers),
            )
            for _ in range(station_count)
        ]
        queries.append(QueryPattern(f"q{index}", locals_))
    return tuple(queries)


match_reports = st.builds(
    MatchReport,
    user_id=identifiers,
    station_id=identifiers,
    weight=st.one_of(st.none(), fractions),
    query_id=st.one_of(st.just(""), identifiers),
)


class TestPayloadRoundTrips:
    @given(batch=query_batches())
    @settings(max_examples=40, deadline=None)
    def test_query_batch_round_trip(self, batch):
        assert wire.decode(wire.encode(batch)) == batch

    @given(reports=st.lists(match_reports, max_size=30))
    @settings(max_examples=40, deadline=None)
    def test_report_list_round_trip(self, reports):
        assert wire.decode(wire.encode(reports)) == reports

    @given(patterns=st.lists(local_patterns, max_size=20))
    @settings(max_examples=40, deadline=None)
    def test_raw_pattern_upload_round_trip(self, patterns):
        assert wire.decode(wire.encode(patterns)) == patterns

    @given(
        sender=identifiers,
        recipient=identifiers,
        kind=st.sampled_from(list(MessageKind)),
        reports=st.lists(match_reports, max_size=10),
        compress=st.booleans(),
    )
    @settings(max_examples=40, deadline=None)
    def test_message_round_trip(self, sender, recipient, kind, reports, compress):
        message = Message(sender, recipient, kind, reports)
        decoded = wire.decode(wire.encode(message, compress=compress))
        assert decoded == message
        assert decoded.size_bytes() == message.size_bytes()

    @given(
        sender=st.text(max_size=12),
        recipient=st.text(max_size=12),
        kind=st.sampled_from(list(MessageKind)),
        payload=st.one_of(
            st.none(),
            st.lists(match_reports, max_size=10),
            wbf_params.map(lambda params: build_wbf(params, "python")),
        ),
        wire_version=st.sampled_from(wire.SUPPORTED_WIRE_VERSIONS),
    )
    @settings(max_examples=60, deadline=None)
    def test_one_pass_frame_matches_the_inflated_body(
        self, sender, recipient, kind, payload, wire_version
    ):
        # Uncompressed frames write the body straight after the header;
        # compressed ones write it apart and deflate it.  Both bodies agree.
        message = Message(sender, recipient, kind, payload, wire_version)
        twin = Message(sender, recipient, kind, payload, wire_version)
        plain = message.to_wire()
        compressed = message.to_wire(compress=True)
        assert plain == wire.encode(twin)
        assert compressed == wire.encode(twin, compress=True)
        header = len(wire.MAGIC) + 3
        assert zlib.decompress(compressed[header:]) == plain[header:]

    @given(value=st.one_of(st.none(), st.booleans(), st.integers(-(2**62), 2**62), identifiers, fractions))
    @settings(max_examples=40, deadline=None)
    def test_scalar_round_trip(self, value):
        decoded = wire.decode(wire.encode(value))
        assert decoded == value and type(decoded) is type(value)


class TestDecoderRobustness:
    @given(params=wbf_params, cut=st.integers(0, 200))
    @settings(max_examples=40, deadline=None)
    def test_truncation_never_escapes_typed_error(self, params, cut):
        data = wire.encode(build_wbf(params, "python"))
        truncated = data[: min(cut, len(data) - 1)]
        with pytest.raises(wire.WireFormatError):
            wire.decode(truncated)

    @given(junk=st.binary(max_size=64))
    @settings(max_examples=60, deadline=None)
    def test_random_junk_never_escapes_typed_error(self, junk):
        try:
            wire.decode(junk)
        except wire.WireFormatError:
            pass  # the only acceptable exception

    @given(exponent=st.integers(64, 80))
    @settings(max_examples=10, deadline=None)
    def test_out_of_range_numerics_raise_typed_error(self, exponent):
        # Values beyond the wire's 64-bit numeric range must surface as the
        # typed unsupported error (so size accounting can fall back), never as
        # a bare ValueError.
        wbf = WeightedBloomFilter(32, 1, backend="python")
        wbf.add(1, Fraction(1, 2**exponent))
        with pytest.raises(wire.UnsupportedWireTypeError):
            wire.encode(wbf)
