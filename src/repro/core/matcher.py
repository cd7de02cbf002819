"""Base-station side pattern matching (Algorithm 2).

Each base station transforms every locally stored pattern into accumulated form,
samples the same ``b`` time indices the encoder used, probes the received filter with
each sampled value and reports a user only if

* every sampled value hits all-1 bits, **and**
* all sampled values agree on (at least) one common weight.

The reported weight is that common weight — the fraction of the query's global
pattern the matched fragment accounts for.  The per-pattern cost is ``O(b·k)`` bit
probes, matching the paper's complexity analysis.
"""

from __future__ import annotations

from fractions import Fraction

from repro.bloom.standard import BloomFilter
from repro.core.config import DIMatchingConfig
from repro.core.encoder import EncodedQueryBatch, PatternEncoder
from repro.core.exceptions import MatchingError
from repro.core.protocol import MatchReport
from repro.core.wbf import WeightedBloomFilter
from repro.timeseries.pattern import Pattern, PatternSet
from repro.timeseries.transform import accumulate


class StationMatcherCache:
    """Per-station :class:`BaseStationMatcher` reuse across protocol rounds.

    Matcher construction accumulates and samples every local candidate, so
    protocols keep one matcher per station alive between rounds (streaming,
    query sweeps).  A cached matcher is reused only while the station passes
    the *same* :class:`PatternSet` object with an unchanged length —
    ``PatternSet``'s only mutator is ``add`` and patterns themselves are
    immutable, so the length check catches in-place growth.
    """

    def __init__(self, config: DIMatchingConfig) -> None:
        self._config = config
        self._matchers: dict[str, tuple[PatternSet, int, "BaseStationMatcher"]] = {}

    def __getstate__(self) -> dict:
        # Cached matchers are keyed by PatternSet identity, which does not
        # survive pickling (process-executor workers receive copies), so only
        # the configuration travels; workers rebuild matchers on demand.
        return {"_config": self._config}

    def __setstate__(self, state: dict) -> None:
        self._config = state["_config"]
        self._matchers = {}

    def matcher_for(self, station_id: str, patterns: PatternSet) -> "BaseStationMatcher":
        cached = self._matchers.get(station_id)
        if cached is not None:
            cached_patterns, cached_length, matcher = cached
            if cached_patterns is patterns and cached_length == len(patterns):
                return matcher
        matcher = BaseStationMatcher(self._config, station_id, patterns)
        self._matchers[station_id] = (patterns, len(patterns), matcher)
        return matcher


class BaseStationMatcher:
    """Implements the base-station side of DI-matching for one station."""

    def __init__(
        self,
        config: DIMatchingConfig,
        station_id: str,
        patterns: PatternSet,
    ) -> None:
        self._config = config
        self._station_id = str(station_id)
        self._patterns = patterns
        self._encoder = PatternEncoder(config)
        # Candidate probe items are query-independent: accumulated + sampled once.
        self._candidate_items: list[tuple[str, list[object]]] = []
        for pattern in patterns:
            encoded_values = (
                accumulate(pattern.values) if config.use_accumulation else list(pattern.values)
            )
            items = self._encoder.items_for_accumulated(encoded_values)
            self._candidate_items.append((pattern.user_id, items))
        # Bit positions depend only on (m, k, seed); cache them per item for reuse
        # across all candidates sharing a value (e.g. zero-activity intervals).
        self._position_cache: dict[object, list[int]] = {}
        self._cached_for: tuple[int, int, int] | None = None

    @property
    def station_id(self) -> str:
        """Identifier of the station this matcher runs at."""
        return self._station_id

    @property
    def candidate_count(self) -> int:
        """Number of locally stored patterns."""
        return len(self._candidate_items)

    # -- position caching ---------------------------------------------------------

    def _cache_for(self, filter_: WeightedBloomFilter | BloomFilter) -> dict[object, list[int]]:
        family = filter_.hash_family
        signature = (family.value_range, family.hash_count, family.seed)
        if self._cached_for != signature:
            self._position_cache = {}
            self._cached_for = signature
        return self._position_cache

    def _positions_for(self, item: object, filter_: WeightedBloomFilter | BloomFilter) -> list[int]:
        cache = self._cache_for(filter_)
        positions = cache.get(item)
        if positions is None:
            positions = filter_.hash_family.positions(item)
            cache[item] = positions
        return positions

    def _rows_for_items(
        self, items: list[object], filter_: WeightedBloomFilter | BloomFilter
    ) -> list[list[int]]:
        """Positions for every item, computing cache misses in one batched call."""
        cache = self._cache_for(filter_)
        missing = [item for item in items if item not in cache]
        if missing:
            unique = list(dict.fromkeys(missing))
            for item, row in zip(unique, filter_.hash_family.indices_batch(unique)):
                cache[item] = row
        return [cache[item] for item in items]

    # -- weighted matching (Algorithm 2) --------------------------------------------

    def match_pattern(
        self, pattern: Pattern, wbf: WeightedBloomFilter
    ) -> dict[str, frozenset[Fraction]]:
        """Match a single pattern against a WBF.

        Returns a mapping ``query_id -> consistent weights``: one entry per query
        pattern the local pattern is consistent with (empty when nothing matches).
        A set usually holds a single weight; it holds several when combinations of
        the same query differ by less than ε at every sampled point and are therefore
        indistinguishable through the filter — the data center resolves that
        ambiguity during aggregation.
        """
        encoded_values = (
            accumulate(pattern.values)
            if self._config.use_accumulation
            else list(pattern.values)
        )
        items = self._encoder.items_for_accumulated(encoded_values)
        return self._match_items(items, wbf)

    def _match_items(
        self, items: list[object], wbf: WeightedBloomFilter
    ) -> dict[str, frozenset[Fraction]]:
        return self._match_rows(self._rows_for_items(items, wbf), wbf)

    def _match_rows(
        self,
        rows: list[list[int]],
        wbf: WeightedBloomFilter,
        *,
        bits_checked: bool = False,
    ) -> dict[str, frozenset[Fraction]]:
        """Algorithm 2's per-candidate test over precomputed position rows.

        With the mask index on, the probe alone decides: a non-empty result
        implies every probed bit is set.  With it off, the bit membership of
        every sampled value is tested in one vectorized backend call (unless
        the caller already did), and the sparse weight intersection runs only
        when all bits pass, which on real workloads is the rare case.
        """
        if wbf.MASK_INDEX_ENABLED:
            # One integer-mask AND across all sampled positions: equivalent to
            # intersecting per-row weight sets (intersection is associative and
            # the result is empty iff any partial intersection is), but without
            # building a Python set per row.  The index only has keys at
            # weighted positions, which are set bits, so no bit pre-check.
            common: "frozenset | set | None" = wbf.consistent_weights_over(
                position for row in rows for position in row
            )
            if not common:
                return {}
        else:
            if not bits_checked and not all(wbf.bits_all_set_rows(rows)):
                return {}
            common = None
            for row in rows:
                weights = wbf.query_weights_at(row, bits_checked=True)
                if not weights:
                    return {}
                common = set(weights) if common is None else (common & weights)
                if not common:
                    return {}
            if not common:
                return {}
        grouped: dict[str, set[Fraction]] = {}
        for query_id, weight in common:
            grouped.setdefault(query_id, set()).add(weight)
        return {query_id: frozenset(weights) for query_id, weights in grouped.items()}

    def match_against(self, encoded: EncodedQueryBatch) -> list[MatchReport]:
        """Match every locally stored pattern against the received WBF.

        With the mask index on, each candidate goes straight to the mask probe:
        the index has keys only at positions with attached weights, which are
        set bits (:meth:`WeightedBloomFilter.from_state` refuses anything
        else), so a non-empty probe already implies every sampled bit is set.
        With the index switched off, the bit pre-check of *all* candidates'
        sampled values runs as one vectorized row-test per station, and only
        candidates whose every sampled value hits all-1 bits proceed to the
        weight-intersection stage.  One report is emitted per (user, query,
        consistent weight), in candidate order, then query id and weight
        order; the similarity ranker later selects one weight per reporting
        station when summing.
        """
        if encoded.config.sample_count != self._config.sample_count:
            raise MatchingError(
                "encoder and matcher sample counts differ "
                f"({encoded.config.sample_count} vs {self._config.sample_count}); "
                "center and stations must share the configuration"
            )
        wbf = encoded.wbf
        candidate_rows = [
            (user_id, self._rows_for_items(items, wbf))
            for user_id, items in self._candidate_items
        ]
        if not wbf.MASK_INDEX_ENABLED:
            flat_rows = [row for _, rows in candidate_rows for row in rows]
            passed = wbf.bits_all_set_rows(flat_rows)
            survivors = []
            offset = 0
            for user_id, rows in candidate_rows:
                if all(passed[offset : offset + len(rows)]):
                    survivors.append((user_id, rows))
                offset += len(rows)
            candidate_rows = survivors
        reports: list[MatchReport] = []
        for user_id, rows in candidate_rows:
            matched = self._match_rows(rows, wbf, bits_checked=True)
            # Query ids, then weights, ascending: set iteration order follows
            # the process's string-hash seed, so a candidate matching several
            # queries would otherwise upload its reports in a different order
            # (different bytes) in every process.
            for query_id in sorted(matched):
                for weight in sorted(matched[query_id]):
                    reports.append(
                        MatchReport(
                            user_id=user_id,
                            station_id=self._station_id,
                            weight=weight,
                            query_id=query_id,
                        )
                    )
        return reports

    # -- membership-only matching (plain BF baseline) ---------------------------------

    def match_against_plain(self, bloom: BloomFilter) -> list[MatchReport]:
        """Match every locally stored pattern against a plain Bloom filter.

        Used by the BF baseline: a pattern is reported when all its sampled values
        are (possibly falsely) present; no weight is available.  All candidates'
        probes run as a single vectorized row-test against the filter.
        """
        candidate_rows = [
            (user_id, self._rows_for_items(items, bloom))
            for user_id, items in self._candidate_items
        ]
        flat_rows = [row for _, rows in candidate_rows for row in rows]
        passed = bloom.bits.all_set_rows(flat_rows)
        reports: list[MatchReport] = []
        offset = 0
        for user_id, rows in candidate_rows:
            row_count = len(rows)
            if all(passed[offset : offset + row_count]):
                reports.append(
                    MatchReport(user_id=user_id, station_id=self._station_id, weight=None)
                )
            offset += row_count
        return reports
