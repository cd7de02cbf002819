"""Unit tests for the base-station matcher (Algorithm 2)."""

from fractions import Fraction

import pytest

from repro.core.config import DIMatchingConfig
from repro.core.encoder import PatternEncoder
from repro.core.exceptions import MatchingError
from repro.core.matcher import BaseStationMatcher
from repro.timeseries.pattern import LocalPattern, PatternSet
from repro.timeseries.query import QueryPattern


def _query():
    locals_ = [
        LocalPattern("alice", [2, 0, 0, 3], "bs-1"),
        LocalPattern("alice", [0, 4, 0, 0], "bs-2"),
        LocalPattern("alice", [0, 0, 5, 0], "bs-3"),
    ]
    return QueryPattern("q0", locals_)


@pytest.fixture()
def encoded():
    return PatternEncoder(DIMatchingConfig(sample_count=4)).encode_batch([_query()])


@pytest.fixture()
def config():
    return DIMatchingConfig(sample_count=4)


class TestMatchPattern:
    def test_exact_fragment_matches_with_its_weight(self, encoded, config):
        fragment = LocalPattern("bob", [2, 0, 0, 3], "bs-9")
        matcher = BaseStationMatcher(config, "bs-9", PatternSet([fragment]))
        matched = matcher.match_pattern(fragment, encoded.wbf)
        assert matched == {"q0": frozenset({Fraction(5, 14)})}

    def test_global_pattern_matches_with_weight_one(self, encoded, config):
        fragment = LocalPattern("bob", [2, 4, 5, 3], "bs-9")
        matcher = BaseStationMatcher(config, "bs-9", PatternSet([fragment]))
        matched = matcher.match_pattern(fragment, encoded.wbf)
        assert matched == {"q0": frozenset({Fraction(1)})}

    def test_combined_fragment_matches_pair_combination(self, encoded, config):
        fragment = LocalPattern("bob", [2, 4, 0, 3], "bs-9")
        matcher = BaseStationMatcher(config, "bs-9", PatternSet([fragment]))
        matched = matcher.match_pattern(fragment, encoded.wbf)
        assert matched == {"q0": frozenset({Fraction(9, 14)})}

    def test_unrelated_pattern_does_not_match(self, encoded, config):
        fragment = LocalPattern("bob", [7, 7, 7, 7], "bs-9")
        matcher = BaseStationMatcher(config, "bs-9", PatternSet([fragment]))
        assert matcher.match_pattern(fragment, encoded.wbf) == {}

    def test_reordered_values_do_not_match(self, encoded, config):
        # {3,0,0,2} has the same values as the fragment {2,0,0,3} but a different
        # order; the accumulation transform distinguishes them.
        fragment = LocalPattern("bob", [3, 0, 0, 2], "bs-9")
        matcher = BaseStationMatcher(config, "bs-9", PatternSet([fragment]))
        assert matcher.match_pattern(fragment, encoded.wbf) == {}

    def test_epsilon_tolerance_accepts_close_pattern(self):
        config = DIMatchingConfig(sample_count=4, epsilon=1)
        encoded = PatternEncoder(config).encode_batch([_query()])
        fragment = LocalPattern("bob", [2, 0, 1, 3], "bs-9")
        matcher = BaseStationMatcher(config, "bs-9", PatternSet([fragment]))
        matched = matcher.match_pattern(fragment, encoded.wbf)
        assert "q0" in matched


class TestMatchAgainst:
    def test_reports_matching_users_with_weights(self, encoded, config):
        patterns = PatternSet(
            [
                LocalPattern("match-global", [2, 4, 5, 3], "bs-9"),
                LocalPattern("match-home", [2, 0, 0, 3], "bs-9"),
                LocalPattern("no-match", [9, 9, 9, 9], "bs-9"),
            ]
        )
        matcher = BaseStationMatcher(config, "bs-9", patterns)
        reports = matcher.match_against(encoded)
        by_user = {r.user_id: r for r in reports}
        assert set(by_user) == {"match-global", "match-home"}
        assert by_user["match-global"].weight == Fraction(1)
        assert by_user["match-home"].weight == Fraction(5, 14)
        assert all(r.station_id == "bs-9" for r in reports)
        assert all(r.query_id == "q0" for r in reports)

    def test_candidate_count(self, config):
        patterns = PatternSet([LocalPattern("a", [1, 1, 1, 1], "bs-9")])
        matcher = BaseStationMatcher(config, "bs-9", patterns)
        assert matcher.candidate_count == 1
        assert matcher.station_id == "bs-9"

    def test_empty_station_produces_no_reports(self, encoded, config):
        matcher = BaseStationMatcher(config, "bs-9", PatternSet())
        assert matcher.match_against(encoded) == []

    def test_mismatched_sample_count_rejected(self, encoded):
        other_config = DIMatchingConfig(sample_count=8)
        matcher = BaseStationMatcher(
            other_config, "bs-9", PatternSet([LocalPattern("a", [1, 1, 1, 1], "bs-9")])
        )
        with pytest.raises(MatchingError, match="sample counts differ"):
            matcher.match_against(encoded)

    def test_reports_of_one_candidate_follow_query_then_weight_order(self, config):
        # One fragment shared by six queries: its reports come out ordered by
        # query id, not in the (string-hash seeded) order of a set.
        shared = [0, 0, 0, 3]
        queries = [
            QueryPattern(
                f"q{number}",
                [
                    LocalPattern(f"t{number}", shared, "bs-1"),
                    LocalPattern(f"t{number}", [1, 1, number % 3 + 1, 3], "bs-2"),
                ],
            )
            for number in (4, 1, 5, 0, 3, 2)
        ]
        encoded = PatternEncoder(config).encode_batch(queries)
        matcher = BaseStationMatcher(config, "bs-1", PatternSet([LocalPattern("u", shared, "bs-1")]))
        reports = matcher.match_against(encoded)
        assert [r.query_id for r in reports] == [f"q{number}" for number in range(6)]
        assert reports == sorted(reports, key=lambda r: (r.query_id, r.weight))

    def test_position_cache_reset_between_filters(self, config):
        # Two filters with different sizes must not share cached positions.
        small = PatternEncoder(config.with_updates(bits_per_element=8)).encode_batch([_query()])
        large = PatternEncoder(config.with_updates(bits_per_element=64)).encode_batch([_query()])
        fragment = LocalPattern("bob", [2, 4, 5, 3], "bs-9")
        matcher = BaseStationMatcher(config, "bs-9", PatternSet([fragment]))
        first = matcher.match_against(small)
        second = matcher.match_against(large)
        assert {r.user_id for r in first} == {"bob"}
        assert {r.user_id for r in second} == {"bob"}


class TestPlainMatching:
    def test_membership_only_matching_reports_without_weights(self, config):
        encoder = PatternEncoder(config)
        bloom = encoder.encode_batch_plain([_query()])
        patterns = PatternSet(
            [
                LocalPattern("match", [2, 4, 5, 3], "bs-9"),
                LocalPattern("no-match", [9, 9, 9, 9], "bs-9"),
            ]
        )
        matcher = BaseStationMatcher(config, "bs-9", patterns)
        reports = matcher.match_against_plain(bloom)
        assert [r.user_id for r in reports] == ["match"]
        assert reports[0].weight is None
