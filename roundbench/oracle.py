"""The answers every timed operation is checked against.

Three checks, none of which trusts the code path it checks:

* :class:`Oracle` matches every station in-process, with no transport, wire
  codec, executor, topology or session in the way, and ranks the reports
  with :func:`reference_rank` — Algorithm 3 written out here, apart from the
  program's :class:`~repro.core.aggregator.SimilarityRanker`.  So a change to
  the program's ranker cannot pass by agreeing with itself.
* :func:`ground_truth_ok` asks every user whose global pattern equals a
  query (``ground_truth_users`` at ε = 0) to be ranked with the full score
  1, which follows from the paper and not from any code of the program.
* ``golden.json`` holds the ranking digests of a fixed seed's toy window of
  every workload; they pin the encoder and matcher, which the first two
  checks share with the program.
"""

from __future__ import annotations

from itertools import product
from math import lcm, prod
from operator import add
from typing import Sequence

from repro.core.config import DIMatchingConfig
from repro.core.dimatching import DIMatchingProtocol
from repro.core.protocol import MatchReport, RankedResults
from repro.timeseries.pattern import PatternSet
from repro.timeseries.query import QueryPattern

#: Algorithm 3's bound on a user's per-query weight sum.
MAX_WEIGHT_SUM = 1
#: The ranker's rule for ambiguous reports, kept as it is today: when one
#: weight per station gives more assignments than this, only the largest
#: ``KEEP_LARGEST`` weights of each station are tried.
MAX_ASSIGNMENTS = 4096
KEEP_LARGEST = 4


def ranking_of(results: RankedResults) -> list[tuple[str, float]]:
    """User ids with their scores, in rank order."""
    return [(entry.user_id, entry.score) for entry in results.users]


def reference_rank(reports: Sequence[MatchReport]) -> list[tuple[str, float]]:
    """Algorithm 3: rank users by their best per-query weight sum of at most 1.

    Each reporting station contributes exactly one of its weights for a
    (user, query); a user scores the largest such sum over all queries that
    does not exceed 1, and users without one are dropped.  Ties go by user id.

    The sums are exact: every weight is counted in units of ``1 / scale``,
    the least common multiple of the weights' denominators, so they are
    added and compared as ints rather than as Fractions.
    """
    scale = lcm(*{report.weight.denominator for report in reports})
    weights: dict[tuple[str, str], dict[str, list[int]]] = {}
    for report in reports:
        per_station = weights.setdefault((report.user_id, report.query_id), {})
        per_station.setdefault(report.station_id, []).append(
            report.weight.numerator * (scale // report.weight.denominator))
    limit = MAX_WEIGHT_SUM * scale
    best: dict[str, int] = {}
    for (user_id, _query_id), per_station in weights.items():
        # Almost every station reports one weight; only the others need a set.
        options = [sorted(set(ws), reverse=True) if len(ws) > 1 else ws
                   for ws in per_station.values()]
        if prod(map(len, options)) > MAX_ASSIGNMENTS:
            options = [ws[:KEEP_LARGEST] for ws in options]
        fitting = [total for total in map(sum, product(*options)) if total <= limit]
        if fitting and (user_id not in best or max(fitting) > best[user_id]):
            best[user_id] = max(fitting)
    ordered = sorted(best.items(), key=lambda entry: (-entry[1], entry[0]))
    # int / int rounds the exact quotient once, as float(Fraction) does.
    return [(user_id, total / scale) for user_id, total in ordered]


class Oracle:
    """The expected ranking of a batch over the stations' current contents."""

    def __init__(self, config: DIMatchingConfig) -> None:
        self._protocol = DIMatchingProtocol(config)
        self._queries: tuple[QueryPattern, ...] | None = None
        self._artifact: object | None = None
        # Station id -> (patterns, their reports against the current batch).
        # Only delta-campaign reuses entries: its steps re-publish 2 of 64
        # stations, and matching all 64 again would add about 1.1 s of
        # untimed work to every step (README.md, "The oracle").
        self._reports: dict[str, tuple[PatternSet, list[MatchReport]]] = {}

    def ranking(
        self, stations: Sequence[tuple[str, PatternSet]], queries: tuple[QueryPattern, ...]
    ) -> list[tuple[str, float]]:
        protocol = self._protocol
        if queries is not self._queries:
            self._queries = queries
            self._artifact = protocol.encode(queries)
            self._reports = {}
        reports: list[MatchReport] = []
        for station_id, patterns in stations:
            cached = self._reports.get(station_id)
            if cached is None or cached[0] is not patterns:
                cached = (patterns, protocol.station_match(station_id, patterns, self._artifact))
                self._reports[station_id] = cached
            reports.extend(cached[1])
        return reference_rank(reports)

    def check(
        self,
        results: RankedResults,
        stations: Sequence[tuple[str, PatternSet]],
        queries: tuple[QueryPattern, ...],
    ) -> bool:
        """True iff ``results`` ranks exactly the expected users and scores."""
        return ranking_of(results) == self.ranking(stations, queries)


def exact_matches(
    stations: Sequence[tuple[str, PatternSet]], queries: Sequence[QueryPattern]
) -> set[str]:
    """``ground_truth_users(..., epsilon=0)`` over the stations' current contents.

    At ε = 0 a user matches when the sum of their fragments equals a query's
    global pattern, so one pass over the fragments suffices; the
    library function compares every user with every query, which costs
    about 1.5 s per delta-campaign step.  The tests pin the two together.
    """
    totals: dict[str, tuple[int, ...]] = {}
    for _station_id, patterns in stations:
        for pattern in patterns:
            total = totals.get(pattern.user_id)
            totals[pattern.user_id] = (
                pattern.values if total is None else tuple(map(add, total, pattern.values)))
    targets = {query.global_pattern.values for query in queries}
    return {user_id for user_id, total in totals.items() if total in targets}


def ground_truth_ok(
    results: RankedResults,
    stations: Sequence[tuple[str, PatternSet]],
    queries: Sequence[QueryPattern],
) -> tuple[bool, int]:
    """Whether every exact match is ranked with score 1, and how many there are."""
    truth = exact_matches(stations, queries)
    scores = {entry.user_id: entry.score for entry in results.users}
    return all(scores.get(user_id) == 1.0 for user_id in truth), len(truth)
