"""Spans around the public functions of each layer, installed from outside.

:func:`install` replaces each probed function with a thin wrapper that
records one span per call (name, start, end, parent span, operation id) in a
:class:`SpanRecorder`, then :func:`Installation.restore` puts every original
object back.  Nothing under ``src/`` is edited: the wrappers live only in the
traced run and only for its duration.

A module-level function is often bound under the same name in several
modules (``from x import f``); the installer patches every loaded ``repro``
module that binds the very same object, so a call through any import path is
seen.  Methods are patched on the class that defines them, keeping the
``classmethod`` descriptor shape.
"""

from __future__ import annotations

import importlib
import itertools
import json
import sys
import threading
import time
from collections import defaultdict
from dataclasses import dataclass
from typing import Any, Callable


@dataclass(frozen=True)
class Span:
    span_id: int
    name: str
    start: float
    end: float
    parent: int | None
    op_id: int | None
    #: Sizes attached by the probe (bytes, reports in, users ranked out).
    sizes: dict[str, float] | None = None


class SpanRecorder:
    """In-memory span store; written out as JSON lines when the run ends.

    Spans are opened and closed on whatever thread calls the probed function.
    A span opened on a helper thread (the TCP transport's event loop) with no
    open span of its own takes the driving thread's innermost open span as
    its parent, because that caller is blocked waiting on it.
    """

    def __init__(self) -> None:
        self.spans: list[Span] = []
        self.op_id: int | None = None
        self.paused = False
        self._local = threading.local()
        self._main_ident = threading.get_ident()
        self._main_stack: list[int] = []
        self._ids = itertools.count(1)
        #: Last FrameStats seen per live transport object, per operation.
        self._frame_stats: dict[int, tuple[object, object]] = {}
        self.frames = 0
        self.retransmits = 0

    def _stack(self) -> list[int]:
        if threading.get_ident() == self._main_ident:
            return self._main_stack
        stack = getattr(self._local, "stack", None)
        if stack is None:
            stack = self._local.stack = []
        return stack

    def call(self, name: str, function: Callable, args: tuple, kwargs: dict,
             measure: "Measure | None") -> Any:
        if self.paused:
            return function(*args, **kwargs)
        stack = self._stack()
        if stack:
            parent: int | None = stack[-1]
        elif self._main_stack:
            parent = self._main_stack[-1]
        else:
            parent = None
        span_id = next(self._ids)  # one C call: atomic across threads
        stack.append(span_id)
        start = time.perf_counter()
        try:
            result = function(*args, **kwargs)
        finally:
            end = time.perf_counter()
            stack.pop()
        sizes = measure(args, result) if measure is not None else None
        self.spans.append(Span(span_id, name, start, end, parent, self.op_id, sizes))
        return result

    def note_frame_stats(self, transport: object, stats: object) -> None:
        """Keep the latest ledger of each transport used by the current op."""
        if not self.paused:
            self._frame_stats[id(transport)] = (transport, stats)

    def end_op(self) -> None:
        """Fold the operation's per-transport ledgers into the run totals."""
        for _transport, stats in self._frame_stats.values():
            self.frames += stats.frames_sent
            self.retransmits += stats.retransmit_count
        self._frame_stats.clear()

    def write_jsonl(self, path: str) -> None:
        with open(path, "w", encoding="utf-8") as handle:
            for span in self.spans:
                handle.write(json.dumps(span.__dict__) + "\n")


def self_times(spans: list[Span]) -> dict[int, float]:
    """Each span's duration minus the part of it its children cover."""
    children: dict[int, list[Span]] = defaultdict(list)
    for span in spans:
        if span.parent is not None:
            children[span.parent].append(span)
    result: dict[int, float] = {}
    for span in spans:
        covered = 0.0
        cursor = span.start
        for child in sorted(children.get(span.span_id, ()), key=lambda s: s.start):
            begin = max(child.start, cursor)
            end = min(child.end, span.end)
            if end > begin:
                covered += end - begin
                cursor = end
        result[span.span_id] = span.end - span.start - covered
    return result


#: Sizes of one call, from its ``(args, result)``; ``args[0]`` is ``self``.
Measure = Callable[[tuple, Any], "dict[str, float]"]


@dataclass(frozen=True)
class Probe:
    """One function to wrap: ``module:Qual.name`` and the span name it records."""

    span: str
    target: str
    measure: Measure | None = None


def _trunk_uplink(_args: tuple, result: Any) -> dict[str, float]:
    trunk = sum(t.uplink_bytes for t in result.tier_costs if t.tier == "trunk")
    return {"center_ingress_bytes": float(trunk)}


#: Every layer boundary the traced run records.
PROBES: tuple[Probe, ...] = (
    Probe("cluster.round", "repro.cluster.facade:Cluster.round"),
    Probe("cluster.step", "repro.cluster.facade:ClusterSession.step"),
    Probe("cluster.publish", "repro.cluster.facade:Cluster.publish"),
    Probe("core.encode", "repro.core.dimatching:DIMatchingProtocol.encode"),
    Probe("core.match", "repro.core.dimatching:DIMatchingProtocol.station_match",
          lambda _args, result: {"reports": float(len(result))}),
    Probe("core.aggregate", "repro.core.dimatching:DIMatchingProtocol.aggregate",
          lambda args, result: {"reports_in": float(len(args[1])),
                                "ranked_out": float(len(result))}),
    Probe("wire.to_wire", "repro.distributed.messages:Message.to_wire",
          lambda _args, result: {"bytes": float(len(result))}),
    Probe("wire.from_wire", "repro.distributed.messages:Message.from_wire"),
    Probe("wire.decode", "repro.wire.codec:decode"),
    Probe("distributed.transport.broadcast", "repro.distributed.network:SimulatedNetwork.broadcast"),
    Probe("distributed.transport.gather", "repro.distributed.network:SimulatedNetwork.gather"),
    Probe("distributed.transport.broadcast", "repro.distributed.transport.tcp:TcpTransport.broadcast"),
    Probe("distributed.transport.gather", "repro.distributed.transport.tcp:TcpTransport.gather"),
    Probe("distributed.executor.run", "repro.distributed.executor:ShardedStationRunner.run"),
    Probe("distributed.center.reports_by_sender",
          "repro.distributed.datacenter:DataCenterNode.reports_by_sender"),
    Probe("topology.round", "repro.topology.router:run_two_tier_round", _trunk_uplink),
    Probe("topology.round", "repro.topology.router:ship_two_tier_deltas", _trunk_uplink),
    Probe("topology.summarize", "repro.topology.aggregator:RegionalAggregator.summarize"),
    Probe("core.streaming.update_station",
          "repro.core.streaming:ContinuousMatchingSession.update_station"),
    Probe("core.streaming.ship_deltas",
          "repro.core.streaming:ContinuousMatchingSession.ship_deltas"),
    Probe("core.streaming.replace_queries",
          "repro.core.streaming:ContinuousMatchingSession.replace_queries"),
)

#: Transport ledgers, read (not timed) to count frames and retransmits.
FRAME_STATS_TARGETS = (
    "repro.distributed.network:SimulatedNetwork.frame_stats",
    "repro.distributed.transport.tcp:TcpTransport.frame_stats",
)


def _resolve(target: str) -> tuple[object, str]:
    module_name, _, qualname = target.partition(":")
    owner: object = importlib.import_module(module_name)
    *path, attr = qualname.split(".")
    for part in path:
        owner = getattr(owner, part)
    return owner, attr


def _bindings(owner: object, attr: str) -> list[tuple[object, str]]:
    """Every place the original object is bound: its class, or its modules."""
    if isinstance(owner, type):
        return [(owner, attr)]
    original = getattr(owner, attr)
    return [
        (module, attr)
        for name, module in sorted(sys.modules.items())
        if (name == "repro" or name.startswith("repro."))
        and module is not None
        and module.__dict__.get(attr) is original
    ]


def _wrap(original: object, make: Callable[[Callable], Callable]) -> object:
    """Wrap a function, keeping a classmethod a classmethod."""
    if isinstance(original, classmethod):
        return classmethod(make(original.__func__))
    return make(original)


class Installation:
    """The wrappers of one traced run; :meth:`restore` undoes all of them."""

    def __init__(self) -> None:
        self.saved: list[tuple[object, str, object]] = []

    def patch(self, target: str, make: Callable[[Callable], Callable]) -> None:
        owner, attr = _resolve(target)
        bindings = _bindings(owner, attr)
        first, first_name = bindings[0]
        wrapper = _wrap(first.__dict__[first_name], make)
        for holder, name in bindings:
            self.saved.append((holder, name, holder.__dict__[name]))
            setattr(holder, name, wrapper)

    def restore(self) -> None:
        for holder, name, original in reversed(self.saved):
            setattr(holder, name, original)
        self.saved.clear()


def install(recorder: SpanRecorder) -> Installation:
    """Wrap every probe's function so its calls land in ``recorder``."""

    def make_stats(function: Callable) -> Callable:
        def counted(self: object) -> Any:
            stats = function(self)
            recorder.note_frame_stats(self, stats)
            return stats

        counted.__wrapped__ = function  # type: ignore[attr-defined]
        return counted

    installation = Installation()
    try:
        for probe in PROBES:
            def make(function: Callable, probe: Probe = probe) -> Callable:
                def traced(*args: Any, **kwargs: Any) -> Any:
                    return recorder.call(probe.span, function, args, kwargs, probe.measure)

                traced.__wrapped__ = function  # type: ignore[attr-defined]
                return traced

            installation.patch(probe.target, make)
        for target in FRAME_STATS_TARGETS:
            installation.patch(target, make_stats)
    except BaseException:
        installation.restore()
        raise
    return installation
