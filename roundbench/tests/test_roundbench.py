"""Tests of the round benchmark itself, at toy scale.

Run from the root of a checkout: ``python3 -m pytest -q roundbench/tests``.
"""

from __future__ import annotations

import dataclasses
import json
import math
from fractions import Fraction
from pathlib import Path

import pytest

from repro.cluster import Cluster
from repro.core.aggregator import SimilarityRanker
from repro.core.dimatching import DIMatchingProtocol, run_dimatching
from repro.core.protocol import MatchReport, RankedResults, RankedUser
from repro.datagen.workload import DistributedDataset
from repro.evaluation.experiments import ground_truth_users
from roundbench import runner, tracing
from roundbench.oracle import Oracle, exact_matches, ranking_of, reference_rank
from roundbench.workloads import CONFIG, WORKLOADS, set_up

BENCHMARK = json.loads((Path(__file__).resolve().parents[2] / "BENCHMARK.json").read_text())


@pytest.mark.parametrize("name", sorted(WORKLOADS))
def test_every_workload_passes_the_oracle_at_toy_scale(name):
    record = runner.run(name, seed=5, seconds=0.0, trace=False, toy=True)
    assert record["correct"], record["notes"]
    assert record["detail"]["error_rate"] == 0
    # The first min_ops operations, the warm-up round and the golden replay.
    assert record["attempted"] == WORKLOADS[name].min_ops + 2
    assert set(record["metrics"]) == {m["name"] for m in BENCHMARK["end_to_end"]}
    assert all(value > 0 for value, _unit in record["metrics"].values())
    assert all(op["ground_truth_ok"] for op in record["ops"])
    assert any(op["ground_truth_users"] > 0 for op in record["ops"])


@pytest.mark.parametrize("name", sorted(WORKLOADS))
def test_traced_run_matches_untraced_and_reports_every_layer(name):
    record = runner.run(name, seed=6, seconds=0.0, trace=True, toy=True)
    assert record["correct"], record["notes"]
    assert record["attempted"] == 2 * WORKLOADS[name].window + 2
    assert set(record["metrics"]) == {m["name"] for m in BENCHMARK["per_layer"]}
    metrics = {key: value for key, (value, _unit) in record["metrics"].items()}
    assert metrics["trace.overhead_ratio"] > 0
    assert metrics["core.aggregate_s"] > 0
    if WORKLOADS[name].regions:
        assert metrics["topology.summarize_calls"] > 0
        assert metrics["topology.center_ingress_bytes"] > 0
    else:
        assert metrics["topology.round_s"] == 0
    if WORKLOADS[name].deltas:
        assert metrics["core.streaming.update_station_calls"] > 0
        assert metrics["cluster.step_s"] > 0
    else:
        assert metrics["cluster.round_s"] > 0
        assert metrics["distributed.transport.frames"] > 0


def _by_station(deployment) -> DistributedDataset:
    dataset = deployment.dataset
    return DistributedDataset(
        station_ids=dataset.station_ids,
        users={uid: dataset.profile(uid) for uid in dataset.user_ids},
        local_patterns={sid: {p.user_id: p for p in ps} for sid, ps in deployment.stations()},
        pattern_length=dataset.pattern_length,
        intervals_per_day=dataset.intervals_per_day,
    )


@pytest.mark.parametrize("name", ["star-10k", "delta-campaign"])
def test_oracle_and_exact_matches_equal_the_library_after_republishing(name):
    deployment = set_up(WORKLOADS[name], seed=11, toy=True)
    try:
        oracle = Oracle(CONFIG)
        queries = deployment.batch(0)
        for index in range(3):
            # Delta: each op re-publishes stations, so the memo must notice.
            deployment.run_op(index)
            dataset = _by_station(deployment)
            expected = run_dimatching(dataset, queries, CONFIG)
            assert oracle.ranking(deployment.stations(), queries) == ranking_of(expected)
            truth = ground_truth_users(dataset, queries, epsilon=0)
            assert truth
            assert exact_matches(deployment.stations(), queries) == truth
    finally:
        deployment.close()


def _ambiguous_reports(users: int) -> list[MatchReport]:
    """Reports with several weights per station and sums above 1."""
    reports = []
    for u in range(users):
        for q in range(2):
            for s in range(3):
                for w in {Fraction(1, 3), Fraction(u % 4 + 1, 5 + s + q), Fraction(1, 2 + u % 3)}:
                    reports.append(MatchReport(f"u{u:03d}", f"s{s}", w, f"q{q}"))
    return reports


def _crowded_reports() -> list[MatchReport]:
    """6 weights at each of 5 stations: too many assignments to try them all."""
    return [MatchReport("u0", f"s{s}", Fraction(j + 1, 20 + s), "q0")
            for s in range(5) for j in range(6)]


# The ranker's plain and columnar paths, and its cut-off for ambiguous reports.
@pytest.mark.parametrize("reports", [_ambiguous_reports(2), _ambiguous_reports(40),
                                     _crowded_reports()])
def test_reference_rank_equals_todays_ranker(reports):
    assert reference_rank(reports) == ranking_of(SimilarityRanker().aggregate(reports))


def test_oracle_rejects_a_changed_score_or_a_dropped_user():
    deployment = set_up(WORKLOADS["star-10k"], seed=8, toy=True)
    try:
        queries = deployment.warmup_queries
        oracle = Oracle(CONFIG)
        results = deployment.warmup.results
        assert oracle.check(results, deployment.stations(), queries)
        assert len(results) >= 2
        first, *rest = results.users
        nudged = RankedResults((RankedUser(first.user_id, first.score + Fraction(1, 997)), *rest))
        assert not oracle.check(nudged, deployment.stations(), queries)
        assert not oracle.check(RankedResults(results.users[:-1]), deployment.stations(), queries)
    finally:
        deployment.close()


def test_a_corrupted_ranking_counts_as_a_failed_operation(monkeypatch):
    original = Cluster.round

    def corrupted(self, *args, **kwargs):
        report = original(self, *args, **kwargs)
        return dataclasses.replace(report, results=RankedResults(report.results.users[:-1]))

    monkeypatch.setattr(Cluster, "round", corrupted)
    record = runner.run("star-10k", seed=9, seconds=0.0, trace=False, toy=True)
    assert not record["correct"]
    # The warm-up round, every timed round and the golden replay fail.
    assert record["failed"] == record["attempted"]
    assert record["detail"]["error_rate"] == 1


def test_a_ranker_giving_wrong_scores_is_caught(monkeypatch):
    original = SimilarityRanker.aggregate

    def halved(self, reports, k=None):
        results = original(self, reports, k)
        return RankedResults(tuple(RankedUser(u.user_id, u.score / 2) for u in results.users))

    monkeypatch.setattr(SimilarityRanker, "aggregate", halved)
    record = runner.run("delta-campaign", seed=9, seconds=0.0, trace=False, toy=True)
    assert not record["correct"]
    assert not any(op["oracle_ok"] for op in record["ops"])
    assert not all(op["ground_truth_ok"] for op in record["ops"])


def test_a_matcher_dropping_a_report_fails_the_golden_replay(monkeypatch):
    original = DIMatchingProtocol.station_match

    def dropping(self, station_id, patterns, artifact):
        return original(self, station_id, patterns, artifact)[1:]

    tally = runner.Tally()
    runner._check_golden(tally, "star-10k")
    assert tally.failed == 0, tally.notes
    # The oracle matches with the program's own matcher; the golden replay
    # compares with rankings committed before the change.
    monkeypatch.setattr(DIMatchingProtocol, "station_match", dropping)
    tally = runner.Tally()
    runner._check_golden(tally, "star-10k")
    assert (tally.attempted, tally.failed) == (1, 1)


def _bindings():
    found = {}
    for probe in tracing.PROBES:
        owner, attr = tracing._resolve(probe.target)
        for holder, name in tracing._bindings(owner, attr):
            found[(holder, name)] = holder.__dict__[name]
    for target in tracing.FRAME_STATS_TARGETS:
        owner, attr = tracing._resolve(target)
        found[(owner, attr)] = owner.__dict__[attr]
    return found


def test_wrappers_restore_every_patched_function():
    before = _bindings()
    recorder = tracing.SpanRecorder()
    installation = tracing.install(recorder)
    try:
        assert all(holder.__dict__[name] is not fn for (holder, name), fn in before.items())
    finally:
        installation.restore()
    assert all(holder.__dict__[name] is fn for (holder, name), fn in before.items())
    # A whole traced run leaves them untouched as well.
    runner.run("tree-10k", seed=10, seconds=0.0, trace=True, toy=True)
    assert all(holder.__dict__[name] is fn for (holder, name), fn in _bindings().items())
    assert _bindings() == before


def test_module_functions_are_patched_under_every_import_name():
    import repro.cluster.facade as facade
    import repro.topology.router as router
    import repro.wire as wire
    import repro.wire.codec as codec

    recorder = tracing.SpanRecorder()
    installation = tracing.install(recorder)
    try:
        assert facade.run_two_tier_round is router.run_two_tier_round
        assert wire.decode is codec.decode
        assert getattr(codec.decode, "__wrapped__", None) is not None
    finally:
        installation.restore()
    assert getattr(codec.decode, "__wrapped__", None) is None


def test_self_time_subtracts_overlapping_children_once():
    spans = [
        tracing.Span(1, "outer", 0.0, 10.0, None, 0),
        tracing.Span(2, "a", 1.0, 4.0, 1, 0),
        tracing.Span(3, "b", 3.0, 6.0, 1, 0),  # overlaps a (another thread)
        tracing.Span(4, "c", 8.0, 12.0, 1, 0),  # runs past the parent's end
    ]
    selfs = tracing.self_times(spans)
    assert selfs[1] == pytest.approx(10.0 - 5.0 - 2.0)
    assert selfs[2] == pytest.approx(3.0)


def test_a_delta_run_stops_after_max_ops_with_seconds_left():
    workload = WORKLOADS["delta-campaign"]
    record = runner.run(workload.name, seed=5, seconds=1e9, trace=False, toy=True)
    assert record["correct"], record["notes"]
    assert record["detail"]["round_samples"] == workload.max_ops
    # The tail's rank stays within the plain steps, which sort below the
    # rotating ones: cycle - 1 of every cycle steps.
    _tail, pct = runner.percentile_tail([1.0] * workload.max_ops)
    plain = workload.max_ops // workload.cycle * (workload.cycle - 1)
    assert math.ceil(pct / 100 * workload.max_ops) <= plain


def test_tail_is_the_highest_percentile_with_ten_samples_above():
    samples = [float(i) for i in range(1, 101)]
    value, pct = runner.percentile_tail(samples)
    assert pct == 90 and value == 90.0
    value, pct = runner.percentile_tail([3.0, 1.0, 2.0])
    assert pct == 50 and value == 2.0


def test_benchmark_json_names_every_workload():
    # star-10k stays runnable by hand; the evaluation's time budget leaves it
    # out, and every layer it runs also runs on tree-10k (README.md).
    assert [w["name"] for w in BENCHMARK["workloads"]] == [
        name for name in WORKLOADS if name != "star-10k"
    ]
    assert BENCHMARK["command"] == ["python3", "roundbench/run.py"]
