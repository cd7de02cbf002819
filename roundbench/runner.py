"""One benchmark run of one workload: set up, time, check, summarise.

Untraced run (``trace=False``) — the end-to-end metrics:

1. set the workload up ``workload.setups`` times, keeping the last deployment;
   ``setup_s`` is the median;
2. run the seed's operation stream until the timed operations add up to
   ``seconds``, at least the workload's ``min_ops`` operations ran, and the
   last batch rotation cycle is complete, or until ``max_ops`` operations ran;
3. before every operation, collect garbage with the clock stopped; after
   every operation, with the clock stopped, check the ranking against the
   :class:`~roundbench.oracle.Oracle` and check that every exact match is
   ranked with score 1;
4. replay the toy window of the golden seed and compare its ranking
   digests with ``golden.json``.

Traced run (``trace=True``) — the per-layer metrics: the first ``window``
operations run once untraced on a fresh deployment and once more on another
fresh deployment with every probe of :mod:`roundbench.tracing` installed.
Both must give the same ranking and transcript digests per operation, and
the golden replay of step 4 follows.

``attempted`` counts every checked operation: the warm-up round, the timed
(or replayed) operations and the golden replay.
"""

from __future__ import annotations

import gc
import json
import math
import os
import platform
import resource
import statistics
import subprocess
import time
import traceback
from dataclasses import dataclass, field
from pathlib import Path

from roundbench import tracing
from roundbench.oracle import Oracle, ground_truth_ok
from roundbench.workloads import (
    CONFIG,
    WORKLOADS,
    Deployment,
    OpResult,
    Workload,
    ranking_digest,
    set_up,
    transcript_digest,
)

#: No operation starts after this many seconds of the process (the run must
#: end within 180 s even on a slow machine); ``min_ops`` always complete.
LAST_START_S = 130.0
#: Consecutive raising operations after which the run gives up.
MAX_CONSECUTIVE_ERRORS = 3

#: The seed of the golden replay, and the ranking digests it must give.
GOLDEN_SEED = 0
GOLDEN_FILE = Path(__file__).resolve().parent / "golden.json"

_PROCESS_START = time.perf_counter()


@dataclass
class Tally:
    attempted: int = 0
    failed: int = 0
    ops: list[dict] = field(default_factory=list)
    notes: list[str] = field(default_factory=list)


def percentile_tail(samples: list[float]) -> tuple[float, int]:
    """The highest whole percentile with at least 10 samples above it.

    Nearest-rank percentiles.  With 20 samples or fewer no percentile above
    the median has 10 samples above it, and the median is reported with
    percentile 50.
    """
    ordered = sorted(samples)
    n = len(ordered)
    for pct in range(99, 50, -1):
        rank = math.ceil(pct / 100 * n)
        if n - rank >= 10:
            return ordered[rank - 1], pct
    return statistics.median(ordered), 50


def environment(seed: int) -> dict:
    import numpy

    root = Path(__file__).resolve().parent.parent
    commit = "unknown"
    if (root / ".git").exists():
        try:
            commit = subprocess.run(
                ["git", "rev-parse", "HEAD"], cwd=root, capture_output=True,
                text=True, timeout=10, check=True,
            ).stdout.strip()
        except (OSError, subprocess.SubprocessError):
            pass
    return {
        "seed": seed,
        "nproc": os.cpu_count(),
        "python": platform.python_version(),
        "numpy": numpy.__version__,
        "bit_backend": CONFIG.bit_backend,
        "executor": CONFIG.executor,
        "git_commit": commit,
    }


def _check(tally: Tally, oracle: Oracle, op: OpResult, transport: str) -> None:
    """Check one operation (untimed) and record its summary."""
    report = op.report
    oracle_ok = oracle.check(report.results, op.stations, op.queries)
    truth_ok, truth_size = ground_truth_ok(report.results, op.stations, op.queries)
    summary = {
        "index": op.index,
        "round_s": op.round_s,
        "publish_s": op.publish_s,
        "queries": report.query_count,
        "ranked": len(report.results),
        "downlink_bytes": report.downlink_bytes,
        "uplink_bytes": report.uplink_bytes,
        "ranking_digest": ranking_digest(report.results),
        "transcript_digest": transcript_digest(report, transport),
        "oracle_ok": oracle_ok,
        "ground_truth_users": truth_size,
        "ground_truth_ok": truth_ok,
    }
    if not (oracle_ok and truth_ok):
        tally.failed += 1
        tally.notes.append(f"op {op.index}: ranking fails the oracle or ground-truth check")
    tally.ops.append(summary)


def _run_ops(tally: Tally, deployment: Deployment, oracle: Oracle, count: int | None,
             seconds: float, recorder: tracing.SpanRecorder | None = None) -> None:
    """Run ops ``0..count-1``, or until ``seconds`` of timed work (and ``min_ops``)."""
    workload = deployment.workload
    timed = 0.0
    consecutive_errors = 0
    index = 0
    while True:
        if count is not None:
            if index >= count:
                return
        elif index >= workload.min_ops and (
            (timed >= seconds and index % workload.cycle == 0)
            or index == workload.max_ops
            or time.perf_counter() - _PROCESS_START > LAST_START_S
        ):
            return
        tally.attempted += 1
        if recorder is not None:
            recorder.op_id = index
        op: OpResult | None = None
        # Every operation starts from a collected heap, so a collection that
        # the oracle's garbage (or the previous operation's) would trigger is
        # not charged to this operation.
        gc.collect()
        try:
            op = deployment.run_op(index)
        except Exception:
            tally.failed += 1
            tally.notes.append(f"op {index} raised:\n{traceback.format_exc()}")
        if recorder is not None:
            recorder.end_op()
            recorder.paused = True
        try:
            if op is None:
                consecutive_errors += 1
                if consecutive_errors >= MAX_CONSECUTIVE_ERRORS:
                    return
            else:
                consecutive_errors = 0
                timed += op.round_s + sum(op.publish_s)
                _check(tally, oracle, op, workload.transport)
        finally:
            if recorder is not None:
                recorder.paused = False
        index += 1


def end_to_end(workload: Workload, tally: Tally, setup_times: list[float]) -> tuple[dict, dict]:
    """The end-to-end metrics, plus the detail that goes only into the record."""
    rounds = [op["round_s"] for op in tally.ops]
    publishes = [t for op in tally.ops for t in op["publish_s"]]
    timed = sum(rounds) + sum(publishes)
    first = tally.ops[: workload.min_ops]
    tail, tail_pct = percentile_tail(rounds)
    metrics = {
        "round_p50_s": (statistics.median(rounds), "s"),
        "round_tail_s": (tail, "s"),
        "queries_per_s": (sum(op["queries"] for op in tally.ops) / timed, "1/s"),
        "downlink_bytes_per_round": (
            statistics.fmean(op["downlink_bytes"] for op in first), "bytes"),
        "uplink_bytes_per_round": (
            statistics.fmean(op["uplink_bytes"] for op in first), "bytes"),
        "setup_s": (statistics.median(setup_times), "s"),
        "peak_rss_mb": (resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024, "MB"),
    }
    detail = {
        "round_tail_percentile": tail_pct,
        "round_samples": len(rounds),
        "publish_p50_s": statistics.median(publishes) if publishes else None,
        "publish_samples": len(publishes),
        "setup_times_s": setup_times,
        "byte_ops": len(first),
    }
    return metrics, detail


@dataclass
class LayerStats:
    calls: int = 0
    #: Inclusive time of the outermost spans of this name (nested ones once).
    total_s: float = 0.0
    self_s: float = 0.0
    sizes: dict[str, float] = field(default_factory=dict)
    #: Calls that produced at least one report (``core.match`` only).
    useful: int = 0


def layer_stats(spans: list[tracing.Span]) -> dict[str, LayerStats]:
    by_id = {span.span_id: span for span in spans}
    selfs = tracing.self_times(spans)
    stats: dict[str, LayerStats] = {}
    for span in spans:
        entry = stats.setdefault(span.name, LayerStats())
        entry.calls += 1
        entry.self_s += selfs[span.span_id]
        parent = by_id.get(span.parent)
        while parent is not None and parent.name != span.name:
            parent = by_id.get(parent.parent)
        if parent is None:
            entry.total_s += span.end - span.start
        for key, value in (span.sizes or {}).items():
            entry.sizes[key] = entry.sizes.get(key, 0.0) + value
        if span.sizes and span.sizes.get("reports", 0) >= 1:
            entry.useful += 1
    return stats


def layer_metrics(recorder: tracing.SpanRecorder, overhead_ratio: float) -> dict:
    """The per-layer metrics from the traced run's spans (totals over the window)."""
    stats = layer_stats(recorder.spans)

    def get(name: str) -> LayerStats:
        return stats.get(name, LayerStats())

    def ratio(numerator: float, denominator: float) -> float:
        return numerator / denominator if denominator else 0.0

    out: dict[str, tuple[float, str]] = {}
    for name in (
        "core.encode", "wire.to_wire", "wire.from_wire", "wire.decode",
        "distributed.transport.broadcast", "distributed.transport.gather",
        "distributed.executor.run", "core.match", "distributed.center.reports_by_sender",
        "core.aggregate", "topology.round", "topology.summarize",
        "core.streaming.update_station", "core.streaming.ship_deltas",
        "core.streaming.replace_queries", "cluster.round", "cluster.step", "cluster.publish",
    ):
        out[f"{name}_s"] = (get(name).total_s, "s")
    for name in (
        "distributed.transport.broadcast", "distributed.transport.gather",
        "distributed.executor.run", "topology.round", "cluster.round", "cluster.step",
    ):
        out[f"{name}_self_s"] = (get(name).self_s, "s")
    for name in ("core.encode", "wire.to_wire", "wire.from_wire", "wire.decode",
                 "core.match", "topology.summarize", "core.streaming.update_station"):
        out[f"{name}_calls"] = (float(get(name).calls), "count")
    out["wire.to_wire_bytes"] = (get("wire.to_wire").sizes.get("bytes", 0.0), "bytes")
    out["wire.decode_per_frame"] = (
        ratio(get("wire.decode").calls, get("wire.from_wire").calls), "ratio")
    out["distributed.transport.frames"] = (float(recorder.frames), "count")
    out["distributed.transport.retransmits"] = (float(recorder.retransmits), "count")
    match = get("core.match")
    out["core.match_reports"] = (match.sizes.get("reports", 0.0), "count")
    out["core.match_useful_ratio"] = (ratio(match.useful, match.calls), "ratio")
    aggregate = get("core.aggregate")
    out["core.aggregate_reports_in"] = (aggregate.sizes.get("reports_in", 0.0), "count")
    out["core.aggregate_ranked_out"] = (aggregate.sizes.get("ranked_out", 0.0), "count")
    out["topology.center_ingress_bytes"] = (
        get("topology.round").sizes.get("center_ingress_bytes", 0.0), "bytes")
    out["trace.overhead_ratio"] = (overhead_ratio, "ratio")
    return out


def layer_table(recorder: tracing.SpanRecorder) -> list[str]:
    """Calls, total and self time of every span name, heaviest self time first."""
    stats = layer_stats(recorder.spans)
    lines = [f"{'layer':42s} {'calls':>8s} {'total_s':>10s} {'self_s':>10s}"]
    for name, entry in sorted(stats.items(), key=lambda kv: -kv[1].self_s):
        lines.append(f"{name:42s} {entry.calls:8d} {entry.total_s:10.4f} {entry.self_s:10.4f}")
    return lines


def run(name: str, seed: int, seconds: float, trace: bool, *, toy: bool = False,
        out_dir: Path | None = None) -> dict:
    """One run; returns the record whose ``metrics`` the benchmark prints."""
    workload = WORKLOADS[name]
    tally = Tally()
    record: dict = {"workload": name, "trace": trace, "seconds": seconds,
                    "environment": environment(seed)}
    oracle = Oracle(CONFIG)
    deployment: Deployment | None = None
    try:
        if not trace:
            setup_times = []
            for _ in range(workload.setups):
                if deployment is not None:
                    deployment.close()
                    deployment = None
                    gc.collect()
                start = time.perf_counter()
                deployment = set_up(workload, seed, toy=toy)
                setup_times.append(time.perf_counter() - start)
            _check_warmup(tally, oracle, deployment)
            _run_ops(tally, deployment, oracle, None, seconds)
            metrics, detail = end_to_end(workload, tally, setup_times)
        else:
            deployment = set_up(workload, seed, toy=toy)
            _check_warmup(tally, oracle, deployment)
            _run_ops(tally, deployment, oracle, workload.window, seconds)
            untraced = list(tally.ops)
            deployment.close()
            deployment = None
            gc.collect()
            deployment = set_up(workload, seed, toy=toy)
            recorder = tracing.SpanRecorder()
            installation = tracing.install(recorder)
            try:
                _run_ops(tally, deployment, oracle, workload.window, seconds, recorder)
            finally:
                installation.restore()
            traced = tally.ops[len(untraced):]
            _compare_digests(tally, untraced, traced)
            overhead = statistics.median(op["round_s"] for op in traced) / statistics.median(
                op["round_s"] for op in untraced)
            metrics = layer_metrics(recorder, overhead)
            detail = {"layer_table": layer_table(recorder), "spans": len(recorder.spans),
                      "traced_ops": len(traced)}
            if out_dir is not None:
                out_dir.mkdir(parents=True, exist_ok=True)
                recorder.write_jsonl(str(out_dir / f"{name}-seed{seed}.spans.jsonl"))
    finally:
        if deployment is not None:
            deployment.close()
    _check_golden(tally, name)
    detail["error_rate"] = tally.failed / tally.attempted
    record.update(
        correct=tally.failed == 0,
        attempted=tally.attempted,
        failed=tally.failed,
        metrics=metrics,
        detail=detail,
        notes=tally.notes,
        ops=tally.ops,
    )
    return record


def _check_warmup(tally: Tally, oracle: Oracle, deployment: Deployment) -> None:
    """Check the untimed warm-up round; this also warms the oracle's matchers."""
    tally.attempted += 1
    if not oracle.check(deployment.warmup.results, deployment.stations(),
                        deployment.warmup_queries):
        tally.failed += 1
        tally.notes.append("warm-up round differs from the oracle")


def toy_digests(name: str) -> list[str]:
    """Ranking digests of the toy window of workload ``name`` on the golden seed."""
    workload = WORKLOADS[name]
    deployment = set_up(workload, GOLDEN_SEED, toy=True)
    try:
        return [ranking_digest(deployment.run_op(index).report.results)
                for index in range(workload.window)]
    finally:
        deployment.close()


def _check_golden(tally: Tally, name: str) -> None:
    """Replay the golden window; its rankings must be the committed ones."""
    tally.attempted += 1
    try:
        ok = toy_digests(name) == json.loads(GOLDEN_FILE.read_text())[name]
    except Exception:
        ok = False
        tally.notes.append(f"golden replay raised:\n{traceback.format_exc()}")
    if not ok:
        tally.failed += 1
        tally.notes.append("golden replay differs from golden.json")


def _compare_digests(tally: Tally, untraced: list[dict], traced: list[dict]) -> None:
    for plain, seen in zip(untraced, traced):
        for key in ("ranking_digest", "transcript_digest", "downlink_bytes", "uplink_bytes"):
            if plain[key] != seen[key]:
                tally.failed += 1
                tally.notes.append(f"op {plain['index']}: traced {key} differs from untraced")
    if len(untraced) != len(traced):
        tally.failed += 1
        tally.notes.append("traced run completed a different number of operations")
