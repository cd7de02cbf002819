"""Unit tests for the Weighted Bloom Filter."""

from fractions import Fraction

import pytest

from repro.core.wbf import WeightedBloomFilter


class TestInsertionAndMembership:
    def test_added_items_are_members(self):
        wbf = WeightedBloomFilter(1024, 4)
        wbf.add_many(range(30), Fraction(1))
        assert all(wbf.contains(v) for v in range(30))

    def test_absent_items_mostly_rejected(self):
        wbf = WeightedBloomFilter(4096, 4)
        wbf.add_many(range(100), Fraction(1, 2))
        false_positives = sum(1 for v in range(10_000, 11_000) if v in wbf)
        assert false_positives < 60

    def test_item_count(self):
        wbf = WeightedBloomFilter(256, 3)
        wbf.add("a", Fraction(1))
        wbf.add("b", Fraction(1, 2))
        assert wbf.item_count == 2

    def test_unhashable_weight_rejected(self):
        wbf = WeightedBloomFilter(256, 3)
        with pytest.raises(TypeError):
            wbf.add("a", [1, 2])

    def test_invalid_parameters(self):
        with pytest.raises(ValueError):
            WeightedBloomFilter(0, 2)
        with pytest.raises(ValueError):
            WeightedBloomFilter(16, 0)


class TestWeightedQueries:
    def test_returns_weight_of_inserted_value(self):
        wbf = WeightedBloomFilter(1024, 4)
        wbf.add("pattern-point", Fraction(3, 9))
        assert wbf.query_weights("pattern-point") == frozenset({Fraction(3, 9)})

    def test_absent_value_returns_empty(self):
        wbf = WeightedBloomFilter(1024, 4)
        wbf.add("present", Fraction(1))
        assert wbf.query_weights("absent") == frozenset()

    def test_value_inserted_twice_with_different_weights_returns_both(self):
        wbf = WeightedBloomFilter(1024, 4)
        wbf.add("shared", Fraction(1, 3))
        wbf.add("shared", Fraction(2, 3))
        assert wbf.query_weights("shared") == frozenset({Fraction(1, 3), Fraction(2, 3)})

    def test_paper_example_mixed_pattern_rejected(self):
        # The paper's example: patterns {1,2,3} and {2,4,5} are inserted with their
        # own weights; the mixed pattern {1,4,5} passes a plain membership test but
        # has no common weight across its values, so the WBF rejects it.
        wbf = WeightedBloomFilter(4096, 4)
        weight_a, weight_b = Fraction(1, 2), Fraction(1, 3)
        for value in (1, 2, 3):
            wbf.add(("point", value), weight_a)
        for value in (2, 4, 5):
            wbf.add(("point", value), weight_b)
        assert all(wbf.contains(("point", v)) for v in (1, 4, 5))
        weights_per_value = [wbf.query_weights(("point", v)) for v in (1, 4, 5)]
        common = frozenset.intersection(*weights_per_value)
        assert common == frozenset()

    def test_consistent_pattern_keeps_common_weight(self):
        wbf = WeightedBloomFilter(4096, 4)
        weight = Fraction(2, 5)
        for value in (10, 20, 30):
            wbf.add(("point", value), weight)
        weights_per_value = [wbf.query_weights(("point", v)) for v in (10, 20, 30)]
        assert frozenset.intersection(*weights_per_value) == frozenset({weight})

    def test_query_weights_at_matches_query_weights(self):
        wbf = WeightedBloomFilter(2048, 3)
        wbf.add("x", Fraction(1, 7))
        positions = wbf.hash_family.positions("x")
        assert wbf.query_weights_at(positions) == wbf.query_weights("x")

    def test_qualified_weight_tuples(self):
        wbf = WeightedBloomFilter(1024, 4)
        wbf.add("v", ("query-1", Fraction(1, 2)))
        wbf.add("v", ("query-2", Fraction(1, 2)))
        assert len(wbf.query_weights("v")) == 2


class TestIntrospection:
    def test_fill_ratio_and_fp_rate_grow(self):
        wbf = WeightedBloomFilter(512, 3)
        assert wbf.fill_ratio() == 0.0
        wbf.add_many(range(40), Fraction(1))
        assert wbf.fill_ratio() > 0.0
        assert wbf.estimated_false_positive_rate() > 0.0

    def test_distinct_weights(self):
        wbf = WeightedBloomFilter(512, 3)
        wbf.add("a", Fraction(1, 2))
        wbf.add("b", Fraction(1, 2))
        wbf.add("c", Fraction(1, 3))
        assert wbf.distinct_weights() == {Fraction(1, 2), Fraction(1, 3)}

    def test_size_bytes_exceeds_plain_bit_array(self):
        wbf = WeightedBloomFilter(1024, 4)
        empty_size = wbf.size_bytes()
        wbf.add_many(range(50), Fraction(1, 2))
        assert wbf.size_bytes() > empty_size

    def test_seed_property(self):
        assert WeightedBloomFilter(64, 2, seed=5).seed == 5

    def test_repr(self):
        assert "WeightedBloomFilter" in repr(WeightedBloomFilter(64, 2))


class TestFromState:
    def _state(self, backend="python"):
        wbf = WeightedBloomFilter(64, 2, seed=1, backend=backend)
        wbf.add("a", Fraction(1, 2))
        bits = wbf._bits.to_bytes()
        weights = {position: frozenset(attached) for position, attached in wbf.weight_entries()}
        return wbf, bits, weights

    def test_round_trips_consistent_state(self):
        wbf, bits, weights = self._state()
        rebuilt = WeightedBloomFilter.from_state(64, 2, 1, bits, weights, wbf.item_count)
        assert rebuilt == wbf

    @pytest.mark.parametrize("backend", ["python", "auto"])
    def test_weight_on_a_clear_bit_is_rejected(self, backend):
        wbf, bits, weights = self._state()
        clear = next(p for p in range(64) if not bits[p >> 3] >> (p & 7) & 1)
        weights[clear] = frozenset({Fraction(1, 2)})
        with pytest.raises(ValueError, match=f"bit {clear}, which is not set"):
            WeightedBloomFilter.from_state(64, 2, 1, bits, weights, 1, backend=backend)

    @pytest.mark.parametrize("position", [-1, 64, 1000])
    def test_weight_outside_the_filter_is_rejected(self, position):
        _wbf, bits, weights = self._state()
        weights[position] = frozenset({Fraction(1, 2)})
        with pytest.raises(ValueError, match="which is not set"):
            WeightedBloomFilter.from_state(64, 2, 1, bits, weights, 1)
