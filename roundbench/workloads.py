"""The four benchmark workloads: seeded inputs, set-up, and the operation stream.

Every workload drives the :class:`repro.cluster.Cluster` facade as one
closed-loop caller — one round or step in flight at a time — on the serial
executor and the NumPy bit backend.  Inputs come only from ``--seed``: the
dataset, every query batch and every re-published station are derived from
it through :func:`repro.utils.rng.derive_seed`, so the same seed replays the
same operations and the same bytes.

An *operation* is what the timer brackets: ``subscribe`` (when the batch
changes) plus ``round()`` or ``step()``.  In ``delta-campaign`` each
operation is preceded by two timed ``publish`` calls, recorded separately.
"""

from __future__ import annotations

import hashlib
import random
import time
from dataclasses import dataclass
from typing import Sequence

from repro.cluster import (
    Cluster,
    ClusterSession,
    ClusterSpec,
    ExecutorSpec,
    ProtocolSpec,
    RoundReport,
    TransportSpec,
)
from repro.core.config import DIMatchingConfig
from repro.core.protocol import RankedResults
from repro.datagen.scale import build_scale_dataset, build_scale_queries
from repro.datagen.workload import DistributedDataset
from repro.timeseries.pattern import PatternSet
from repro.timeseries.query import QueryPattern
from repro.topology.spec import TopologySpec
from repro.utils.rng import derive_seed

#: The protocol every workload runs (the Figure-4 100x tier's settings).
CONFIG = DIMatchingConfig(
    epsilon=0, sample_count=8, hash_count=4, bit_backend="numpy", executor="serial"
)


@dataclass(frozen=True)
class Shape:
    """Dataset and batch sizes of one workload."""

    stations: int
    users_per_station: int
    queries: int


@dataclass(frozen=True)
class Workload:
    """One workload; ``BENCHMARK.json`` and README.md say why each exists."""

    name: str
    shape: Shape
    #: A tiny shape of the same workload, for the benchmark's own tests.
    toy: Shape
    #: The traced run replays exactly the first ``window`` operations.
    window: int
    #: A timed run runs at least the first ``min_ops`` operations, and the
    #: byte metrics are their mean, so they repeat exactly for a seed.
    min_ops: int
    #: A timed run stops after ``max_ops`` operations even before
    #: ``--seconds`` are timed.
    max_ops: int | None = None
    deltas: bool = False
    transport: str = "sim"
    regions: int | None = None
    toy_regions: int | None = None
    #: Set-ups per untraced run; ``setup_s`` is their median.  A TCP set-up
    #: spawns worker processes, and the first one in a process is slower.
    setups: int = 2
    #: Delta workloads: stations re-published before every step, and the
    #: batch rotation period in steps.
    publishes_per_step: int = 0
    rotate_every: int = 0

    @property
    def cycle(self) -> int:
        """A run times whole cycles of this many operations.

        A delta step that rotates the batch costs several plain steps, so a
        run that ended mid-cycle would shift ``queries_per_s`` with the
        number of operations that fit into ``--seconds``.
        """
        return self.rotate_every if self.deltas else 1


WORKLOADS: dict[str, Workload] = {
    w.name: w
    for w in (
        Workload(
            "star-10k",
            Shape(10_000, 1, 16), Shape(40, 1, 4), window=3, min_ops=3,
        ),
        Workload(
            "tree-10k",
            Shape(10_000, 1, 16), Shape(40, 1, 4), window=3, min_ops=3,
            regions=100, toy_regions=4,
        ),
        Workload(
            "delta-campaign",
            # At most 10 rotation cycles: round_tail_s has at least 10
            # samples above it, so with at most 10 rotating steps it falls
            # among the plain steps at any machine speed.
            Shape(64, 200, 32), Shape(8, 10, 4), window=16, min_ops=32, max_ops=80,
            deltas=True,
            publishes_per_step=2, rotate_every=8,
        ),
        Workload(
            "tcp-2",
            Shape(2, 1000, 16), Shape(2, 20, 4), window=16, min_ops=16, transport="tcp",
            setups=5,
        ),
    )
}


def cluster_spec(workload: Workload, *, toy: bool = False) -> ClusterSpec:
    regions = workload.toy_regions if toy else workload.regions
    return ClusterSpec(
        name=workload.name,
        protocol=ProtocolSpec(config=CONFIG),
        transport=TransportSpec(transport=workload.transport),
        executor=ExecutorSpec(kind="serial"),
        topology=(
            TopologySpec(kind="two-tier", regions=regions)
            if regions
            else None
        ),
    )


def ranking_digest(results: RankedResults) -> str:
    lines = "\n".join(f"{entry.user_id}:{entry.score!r}" for entry in results.users)
    return hashlib.sha256(lines.encode("utf-8")).hexdigest()


def transcript_digest(report: RoundReport, transport: str) -> str:
    """Digest of the round's transcript.

    The simulator's transcript is exact.  Over TCP each entry carries a
    measured wall-clock offset and concurrent deliveries interleave freely,
    so only the multiset of (event, frame, attempt, route, kind, bytes) rows
    is compared there.
    """
    if transport == "sim":
        return hashlib.sha256(report.transcript_bytes()).hexdigest()
    rows = sorted(
        f"{e.event} {e.frame_id} {e.attempt} {e.sender} {e.recipient} {e.kind} {e.size_bytes}"
        for e in report.transcript
    )
    return hashlib.sha256("\n".join(rows).encode("utf-8")).hexdigest()


@dataclass
class OpResult:
    """One timed operation: its timings, its report, and what it ran on."""

    index: int
    round_s: float
    publish_s: list[float]
    report: RoundReport
    queries: tuple[QueryPattern, ...]
    stations: list[tuple[str, PatternSet]]


@dataclass
class Deployment:
    """One set-up workload: the cluster plus the inputs of its op stream."""

    workload: Workload
    shape: Shape
    seed: int
    cluster: Cluster
    dataset: DistributedDataset
    #: The patterns each station currently stores, as the benchmark gave them.
    current: dict[str, PatternSet]
    warmup: RoundReport
    warmup_queries: tuple[QueryPattern, ...]
    #: Delta workloads: each station's two pattern sets, swapped on publish.
    alternates: dict[str, tuple[PatternSet, PatternSet]]
    session: ClusterSession | None

    def batch(self, index: int) -> tuple[QueryPattern, ...]:
        return make_batch(self.dataset, self.shape.queries, self.seed, index)

    def stations(self) -> list[tuple[str, PatternSet]]:
        return list(self.current.items())

    def run_op(self, index: int) -> OpResult:
        """Run and time operation ``index`` of the seed's stream."""
        workload = self.workload
        if not workload.deltas:
            queries = self.batch(index)
            start = time.perf_counter()
            self.cluster.subscribe(queries)
            report = self.cluster.round()
            elapsed = time.perf_counter() - start
            return OpResult(index, elapsed, [], report, queries, self.stations())

        rng = random.Random(derive_seed(self.seed, "publish", index))
        publish_s: list[float] = []
        for sid in rng.sample(sorted(self.current), workload.publishes_per_step):
            first, second = self.alternates[sid]
            patterns = second if self.current[sid] is first else first
            start = time.perf_counter()
            self.session.publish(sid, patterns)
            publish_s.append(time.perf_counter() - start)
            self.current[sid] = patterns
        rotate = index % workload.rotate_every == workload.rotate_every - 1
        queries = self.batch(index) if rotate else self.cluster.queries
        start = time.perf_counter()
        if rotate:
            self.session.subscribe(queries)
        report = self.session.step()
        elapsed = time.perf_counter() - start
        return OpResult(index, elapsed, publish_s, report, queries, self.stations())

    def close(self) -> None:
        if self.session is not None:
            self.session.close()
        self.cluster.close()


def make_batch(
    dataset: DistributedDataset, size: int, seed: int, index: int
) -> tuple[QueryPattern, ...]:
    """Query batch ``index`` of the seed's stream (``-1`` is the warm-up batch)."""
    return tuple(build_scale_queries(dataset, size, seed=derive_seed(seed, "batch", index)))


def set_up(workload: Workload, seed: int, *, toy: bool = False) -> Deployment:
    """Build the dataset, the cluster, publish-all and one warm-up round.

    This is exactly what ``setup_s`` times.
    """
    shape = workload.toy if toy else workload.shape
    dataset = build_scale_dataset(
        shape.stations, shape.users_per_station, seed=derive_seed(seed, "dataset")
    )
    cluster = Cluster(cluster_spec(workload, toy=toy), dataset=dataset)
    try:
        current = {sid: dataset.local_patterns_at(sid) for sid in dataset.station_ids}
        current = {sid: patterns for sid, patterns in current.items() if len(patterns)}
        warmup_queries = make_batch(dataset, shape.queries, seed, -1)
        cluster.subscribe(warmup_queries)
        alternates: dict[str, tuple[PatternSet, PatternSet]] = {}
        session = None
        if workload.deltas:
            other = build_scale_dataset(
                shape.stations, shape.users_per_station, seed=derive_seed(seed, "alternate")
            )
            alternates = {
                sid: (patterns, other.local_patterns_at(sid))
                for sid, patterns in current.items()
            }
            session = cluster.open_session(mode="deltas")
            for sid, patterns in current.items():
                session.publish(sid, patterns)
            warmup = session.step()
        else:
            warmup = cluster.round()
        return Deployment(
            workload, shape, seed, cluster, dataset, current, warmup, warmup_queries,
            alternates, session,
        )
    except BaseException:
        cluster.close()
        raise
