"""Spans and counters recorded from outside the program, by wrapping calls.

The benchmark touches no file of the program.  It measures each layer by
replacing a public function at the module attribute its *caller* resolves,
because the program imports by name: ``repro.core.containment`` calls its own
``build_containment_inequality`` binding, so wrapping the defining module
alone would miss those calls.  :data:`TARGETS` is that table.

Spans stay in memory; :func:`self_times` turns them into per-layer self time
(a span's duration minus the part of it its children cover).
"""

from __future__ import annotations

import functools
import importlib
import inspect
import threading
import time
from collections import Counter
from contextlib import contextmanager
from dataclasses import dataclass
from typing import Callable, Dict, List, Optional, Sequence, Tuple

#: Name of the root span opened around each front-door request.
REQUEST = "request"


@dataclass
class Span:
    name: str
    start: float
    end: Optional[float]
    parent: Optional[int]
    request: Optional[int]


class Tracer:
    """In-memory span recorder.

    A span's parent is the innermost open span of its own thread.  A span
    opened on a thread with nothing open (a gateway executor thread, a
    daemon handler thread) takes the most recently opened span still open
    anywhere: the benchmark drives one request at a time, so that span is
    the one that handed the work over.
    """

    def __init__(self) -> None:
        self.spans: List[Span] = []
        self.counts: Counter = Counter()
        self.request: Optional[int] = None
        self._lock = threading.Lock()
        self._local = threading.local()
        self._open: List[int] = []

    def _stack(self) -> List[int]:
        stack = getattr(self._local, "stack", None)
        if stack is None:
            stack = self._local.stack = []
        return stack

    def open(self, name: str) -> int:
        stack = self._stack()
        with self._lock:
            if stack:
                parent = stack[-1]
            else:
                parent = self._open[-1] if self._open else None
            index = len(self.spans)
            self.spans.append(
                Span(name, time.perf_counter(), None, parent, self.request)
            )
            self._open.append(index)
        stack.append(index)
        return index

    def close(self, index: int) -> None:
        end = time.perf_counter()
        stack = self._stack()
        with self._lock:
            self.spans[index].end = end
            self._open.remove(index)
        stack.remove(index)

    @contextmanager
    def span(self, name: str):
        index = self.open(name)
        try:
            yield
        finally:
            self.close(index)

    def count(self, **increments: float) -> None:
        with self._lock:
            for name, amount in increments.items():
                self.counts[name] += amount


def self_times(spans: Sequence[Span]) -> List[float]:
    """Each span's duration minus the union of its children's intervals,
    clipped to the span itself (overlapping siblings are not double-counted)."""
    children: Dict[int, List[Tuple[float, float]]] = {}
    for span in spans:
        if span.parent is not None:
            children.setdefault(span.parent, []).append((span.start, span.end))
    out = []
    for index, span in enumerate(spans):
        covered = 0.0
        reach = span.start
        for start, end in sorted(children.get(index, ())):
            start, end = max(start, reach), min(end, span.end)
            if end > start:
                covered += end - start
                reach = end
        out.append(span.end - span.start - covered)
    return out


def layer_self_times(spans: Sequence[Span]) -> Dict[str, float]:
    """Summed self time per span name."""
    totals: Dict[str, float] = {}
    for span, seconds in zip(spans, self_times(spans)):
        totals[span.name] = totals.get(span.name, 0.0) + seconds
    return totals


# ---------------------------------------------------------------------- #
# What is wrapped, and what each call counts
# ---------------------------------------------------------------------- #
def _count_calls(layer: str):
    def count(tracer, args, result):
        tracer.count(**{f"{layer}.calls": 1})

    return count


def _count_cache_get(tracer, args, result):
    tracer.count(**{"cache.gets": 1, "cache.hits": int(result is not None)})


def _count_store(kind: str):
    def count(tracer, args, result):
        tracer.count(**{f"store.{kind}": 1})

    return count


def _count_pipelines(tracer, args, result):
    tracer.count(**{"engine.pipelines": len(args[1])})


def _count_inequality(tracer, args, result):
    tracer.count(
        **{"inequality.calls": 1, "inequality.branches": len(result.branches)}
    )


def _count_hom_database(tracer, args, result):
    tracer.count(**{"hom.calls": 1, "hom.facts": args[1].total_tuples()})


def _count_hom_query(tracer, args, result):
    # hom(Q2, Q1) is counted into Q1's canonical database: one fact per atom.
    tracer.count(**{"hom.calls": 1, "hom.facts": len(args[1].atoms)})


def _count_block(tracer, args, result):
    tracer.count(**{"lp.block_calls": 1, "lp.requests": len(args[0])})


def _count_scalar(tracer, args, result):
    tracer.count(**{"lp.scalar_calls": 1, "lp.requests": 1})


@dataclass(frozen=True)
class Target:
    """``module:attribute`` (``Class.method`` for methods) and its layer."""

    module: str
    attribute: str
    layer: str
    count: Optional[Callable] = None


TARGETS: Tuple[Target, ...] = (
    Target("repro.service.service", "pair_key_with_labelings", "canonical",
           _count_calls("canonical")),
    Target("repro.service.fleet", "pair_key", "canonical", _count_calls("canonical")),
    Target("repro.service.cache", "PlanCache.get", "cache", _count_cache_get),
    Target("repro.service.cache", "PlanCache.put", "cache"),
    Target("repro.service.service", "rename_result", "evidence",
           _count_calls("evidence")),
    Target("repro.service.cache", "rename_result", "evidence",
           _count_calls("evidence")),
    Target("repro.store.sqlite_store", "VerdictStore.get", "store"),
    Target("repro.store.sqlite_store", "VerdictStore.record", "store",
           _count_store("writes")),
    Target("repro.store.sqlite_store", "VerdictStore.flush", "store",
           _count_store("flushes")),
    Target("repro.service.engine", "BatchEngine.run_specs", "engine",
           _count_pipelines),
    Target("repro.core.containment", "build_containment_inequality", "inequality",
           _count_inequality),
    Target("repro.core.witness", "count_query_homomorphisms", "hom",
           _count_hom_database),
    Target("repro.core.brute_force", "count_query_homomorphisms", "hom",
           _count_hom_database),
    Target("repro.core.containment", "count_query_to_query_homomorphisms", "hom",
           _count_hom_query),
    Target("repro.core.containment", "witness_from_normal_coefficients", "witness",
           _count_calls("witness")),
    Target("repro.core.containment", "witness_from_modular_weights", "witness",
           _count_calls("witness")),
    Target("repro.core.containment", "verify_witness", "witness",
           _count_calls("witness")),
    Target("repro.core.containment", "brute_force_refute", "witness",
           _count_calls("witness")),
    Target("repro.service.engine", "decide_max_ii_many", "lp", _count_block),
    Target("repro.service.engine", "decide_max_ii", "lp", _count_scalar),
    # Only reached when the traced run hosts the fleet in this process.
    Target("repro.service.daemon", "ContainmentDaemon.handle_line", "daemon"),
    Target("repro.service.fleet", "FleetGateway.handle_line", "gateway"),
)


def _wrap(original: Callable, layer: str, count: Optional[Callable], tracer: Tracer):
    if inspect.iscoroutinefunction(original):

        @functools.wraps(original)
        async def traced_async(*args, **kwargs):
            with tracer.span(layer):
                result = await original(*args, **kwargs)
            if count is not None:
                count(tracer, args, result)
            return result

        return traced_async

    @functools.wraps(original)
    def traced(*args, **kwargs):
        with tracer.span(layer):
            result = original(*args, **kwargs)
        if count is not None:
            count(tracer, args, result)
        return result

    return traced


class Instrumentation:
    """Installs the :data:`TARGETS` wrappers for one tracer; a context manager
    that always restores every original attribute on exit."""

    def __init__(self, tracer: Tracer, targets: Sequence[Target] = TARGETS):
        self.tracer = tracer
        self.targets = targets
        self._saved: List[Tuple[object, str, object]] = []

    @staticmethod
    def resolve(target: Target) -> Tuple[object, str]:
        """The object holding the attribute, and the attribute's name."""
        owner = importlib.import_module(target.module)
        *path, name = target.attribute.split(".")
        for part in path:
            owner = getattr(owner, part)
        return owner, name

    def __enter__(self) -> "Instrumentation":
        try:
            for target in self.targets:
                owner, name = self.resolve(target)
                original = owner.__dict__[name]
                self._saved.append((owner, name, original))
                setattr(owner, name, _wrap(original, target.layer, target.count, self.tracer))
        except BaseException:
            self.__exit__()
            raise
        return self

    def __exit__(self, *exc_info) -> None:
        while self._saved:
            owner, name, original = self._saved.pop()
            setattr(owner, name, original)
