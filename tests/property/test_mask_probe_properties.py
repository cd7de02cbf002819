"""Property tests: the WBF's mask-index probe equals per-query set probing.

The batched matcher intersects weight sets across all sampled bit positions
through an integer-mask index (:meth:`WeightedBloomFilter.consistent_weights_over`);
these properties pin it to the reference semantics — per-position
:meth:`query_weights_at` intersection — including across mutations (the index
is revision-keyed) and across a wire round-trip (decoded filters share
interned frozensets).

The matcher runs the probe without a bit pre-check, which is sound only while
the index has keys at set bits alone; the last two families pin that
invariant and the matcher's reports against the switch-off path.
"""

from contextlib import contextmanager
from fractions import Fraction

from hypothesis import given, settings
from hypothesis import strategies as st

from repro import wire
from repro.bloom.backend import available_backends, iter_set_bits_in_bytes
from repro.core.config import DIMatchingConfig
from repro.core.encoder import PatternEncoder
from repro.core.matcher import BaseStationMatcher
from repro.core.wbf import WeightedBloomFilter
from repro.timeseries.pattern import LocalPattern, PatternSet
from repro.timeseries.query import QueryPattern

weights_strategy = st.tuples(
    st.sampled_from(["q1", "q2", "q3"]),
    # Bounded denominators keep every weight inside the wire's 64-bit range.
    st.fractions(min_value=0, max_value=1, max_denominator=1000),
)
entries_strategy = st.lists(
    st.tuples(st.integers(0, 400), weights_strategy), min_size=1, max_size=40
)


def reference_intersection(wbf: WeightedBloomFilter, rows) -> frozenset:
    """Per-row set-intersection semantics the matcher used before the mask index."""
    common = None
    for row in rows:
        weights = wbf.query_weights_at(row, bits_checked=True)
        if not weights:
            return frozenset()
        common = set(weights) if common is None else (common & weights)
        if not common:
            return frozenset()
    return frozenset(common) if common else frozenset()


def probed_rows(wbf: WeightedBloomFilter, items) -> list[list[int]]:
    """Position rows of items that pass the all-bits-set pre-check."""
    rows = [wbf.hash_family.positions(item) for item in items]
    passed = wbf.bits_all_set_rows(rows)
    return [row for row, ok in zip(rows, passed) if ok]


class TestMaskProbeEquivalence:
    @given(entries=entries_strategy, probes=st.lists(st.integers(0, 400), max_size=20))
    @settings(max_examples=60, deadline=None)
    def test_matches_per_row_intersection(self, entries, probes):
        wbf = WeightedBloomFilter(1024, 4)
        for item, weight in entries:
            wbf.add(item, weight)
        rows = probed_rows(wbf, probes)
        flat = [position for row in rows for position in row]
        expected = reference_intersection(wbf, rows) if rows else frozenset()
        assert wbf.consistent_weights_over(flat) == expected

    @given(entries=entries_strategy)
    @settings(max_examples=60, deadline=None)
    def test_inserted_items_stay_consistent(self, entries):
        wbf = WeightedBloomFilter(1024, 4)
        for item, weight in entries:
            wbf.add(item, weight)
        for item, weight in entries:
            positions = wbf.hash_family.positions(item)
            assert weight in wbf.consistent_weights_over(positions)

    @given(entries=entries_strategy, extra=st.tuples(st.integers(0, 400), weights_strategy))
    @settings(max_examples=40, deadline=None)
    def test_mutation_invalidates_index(self, entries, extra):
        wbf = WeightedBloomFilter(1024, 4)
        for item, weight in entries:
            wbf.add(item, weight)
        # Build the index, then mutate, then re-probe: results must follow the
        # mutation (the index is keyed on the filter's revision counter).
        first_item = entries[0][0]
        wbf.consistent_weights_over(wbf.hash_family.positions(first_item))
        extra_item, extra_weight = extra
        wbf.add(extra_item, extra_weight)
        rows = probed_rows(wbf, [item for item, _ in entries] + [extra_item])
        for row in rows:
            assert wbf.consistent_weights_over(row) == reference_intersection(
                wbf, [row]
            )

    @given(entries=entries_strategy)
    @settings(max_examples=40, deadline=None)
    def test_wire_round_trip_preserves_probe(self, entries):
        wbf = WeightedBloomFilter(1024, 4)
        for item, weight in entries:
            wbf.add(item, weight)
        decoded = wire.decode(wire.encode(wbf))
        for item, _ in entries:
            positions = wbf.hash_family.positions(item)
            assert decoded.consistent_weights_over(
                positions
            ) == wbf.consistent_weights_over(positions)

    @given(entries=entries_strategy, extra=st.tuples(st.integers(0, 400), weights_strategy))
    @settings(max_examples=40, deadline=None)
    def test_decoded_filter_copy_on_write(self, entries, extra):
        # Decoded filters share interned frozensets across positions; inserting
        # must only affect the touched positions (copy-on-write), never a
        # position that merely shared the object.
        wbf = WeightedBloomFilter(1024, 4)
        for item, weight in entries:
            wbf.add(item, weight)
        decoded = wire.decode(wire.encode(wbf))
        extra_item, extra_weight = extra
        decoded.add(extra_item, extra_weight)
        mirror = WeightedBloomFilter(1024, 4)
        for item, weight in entries:
            mirror.add(item, weight)
        mirror.add(extra_item, extra_weight)
        assert decoded == mirror


def set_bits(wbf: WeightedBloomFilter) -> set[int]:
    return set(iter_set_bits_in_bytes(wbf._bits.to_bytes(), wbf.bit_count))


def mask_index_keys(wbf: WeightedBloomFilter) -> set[int]:
    _revision, _weights, masks, _memo = wbf._weight_mask_index()
    return set(masks)


@contextmanager
def mask_index_disabled():
    WeightedBloomFilter.MASK_INDEX_ENABLED = False
    try:
        yield
    finally:
        WeightedBloomFilter.MASK_INDEX_ENABLED = True


class TestMaskIndexOnSetBitsOnly:
    @given(
        entries=entries_strategy,
        batches=st.lists(
            st.tuples(st.lists(st.integers(0, 400), max_size=12), weights_strategy),
            max_size=4,
        ),
        backend=st.sampled_from(available_backends()),
    )
    @settings(max_examples=60, deadline=None)
    def test_keys_are_set_bits(self, entries, batches, backend):
        wbf = WeightedBloomFilter(256, 3, backend=backend)
        for item, weight in entries:
            wbf.add(item, weight)
        assert mask_index_keys(wbf) <= set_bits(wbf)
        for items, weight in batches:
            wbf.insert_many(items, weight)
        assert mask_index_keys(wbf) <= set_bits(wbf)
        for decode_backend in available_backends():
            decoded = wire.decode(wire.encode(wbf), backend=decode_backend)
            assert mask_index_keys(decoded) <= set_bits(decoded)
            assert mask_index_keys(decoded) == mask_index_keys(wbf)


#: Candidate values: a narrow range, so stations hold many equal fragments
#: and queries share fragments (several weights per candidate).
PATTERN_LENGTH = 6
fragment_values = st.lists(st.integers(0, 3), min_size=PATTERN_LENGTH, max_size=PATTERN_LENGTH)


@st.composite
def station_and_queries(draw, candidates: int):
    """``candidates`` local patterns at ``s0`` and queries over some of them."""
    values = draw(st.lists(fragment_values, min_size=candidates, max_size=candidates))
    patterns = PatternSet(
        [LocalPattern(f"u{index}", row, "s0") for index, row in enumerate(values)]
    )
    query_count = draw(st.integers(1, 4))
    queries = []
    for number in range(query_count):
        here = values[draw(st.integers(0, candidates - 1))]
        # Non-zero, so the query's global pattern is never all zero.
        elsewhere = draw(
            st.lists(st.integers(1, 3), min_size=PATTERN_LENGTH, max_size=PATTERN_LENGTH)
        )
        user = f"target{number}"
        queries.append(
            QueryPattern(
                f"q{number}",
                [LocalPattern(user, here, "s0"), LocalPattern(user, elsewhere, "s1")],
            )
        )
    return patterns, queries


def _check_matcher_parity(patterns, queries, bit_count, backend):
    config = DIMatchingConfig(
        sample_count=4,
        hash_count=3,
        auto_size=False,
        bit_count=bit_count,
        bit_backend=backend,
    )
    batch = PatternEncoder(config).encode_batch(queries)
    for decode_backend in available_backends():
        decoded = wire.decode(wire.encode(batch), backend=decode_backend)
        for artifact in (batch, decoded):
            reports = BaseStationMatcher(config, "s0", patterns).match_against(artifact)
            with mask_index_disabled():
                reference = BaseStationMatcher(config, "s0", patterns).match_against(
                    artifact
                )
            assert reports == reference


class TestMatcherEqualsSwitchOffPath:
    @given(
        case=station_and_queries(1),
        bit_count=st.sampled_from([64, 512, 4096]),
        backend=st.sampled_from(available_backends()),
    )
    @settings(max_examples=60, deadline=None)
    def test_one_candidate_station(self, case, bit_count, backend):
        patterns, queries = case
        _check_matcher_parity(patterns, queries, bit_count, backend)

    @given(
        case=station_and_queries(200),
        bit_count=st.sampled_from([64, 512, 4096]),
        backend=st.sampled_from(available_backends()),
    )
    @settings(max_examples=15, deadline=None)
    def test_two_hundred_candidate_station(self, case, bit_count, backend):
        patterns, queries = case
        _check_matcher_parity(patterns, queries, bit_count, backend)
