"""Compilation telemetry: hierarchical spans, counters, and events.

The instrumentation layer every phase of the SPT pipeline reports
through.  Four primitives:

* **spans** -- wall-clock timed, named, hierarchically nested scopes
  (one per pipeline phase, one per analyzed loop, ...), each carrying
  an attribute dict;
* **counters / gauges** -- monotonically accumulated totals (search
  nodes, cost evaluations, interpreter instructions retired) and
  last-value measurements;
* **histograms** -- log-bucketed distributions (:class:`Histogram`)
  with count/sum/min/max and estimated p50/p90/p99, fed via
  :meth:`Telemetry.observe`; every closed span also auto-observes its
  duration into the ``span.<name>.ms`` histogram, so phase-latency
  distributions come for free;
* **events** -- timestamped structured records (a transform failure, an
  SPT round's fork/commit/re-execution outcome).

The metric exporters in :mod:`repro.obs.sinks` (Prometheus text,
canonical JSON) serialize one run's counters, gauges, histograms and
per-phase span self-times.

Everything is routed to pluggable :mod:`repro.obs.sinks` and kept
in-memory for end-of-run reporting (``repro explain``, the summary
table).

The disabled path is a hard no-op: :data:`NULL_TELEMETRY` is a
singleton whose ``enabled`` attribute is ``False`` and whose methods do
nothing, so instrumented code guards any non-trivial work with one
attribute check::

    if telemetry.enabled:
        telemetry.count("interp.instructions", machine.executed)

and the common un-observed compilation pays only that check.  Span
scopes use ``with telemetry.span(...)``; when disabled this yields a
shared inert context manager without allocating.

Telemetry objects are deliberately not thread-safe: one compilation
drives one telemetry instance from one thread, matching the pipeline.
"""

from __future__ import annotations

import math
import time
from bisect import bisect_left
from typing import Dict, Iterable, List, Optional, Tuple

__all__ = [
    "Event",
    "Histogram",
    "NULL_TELEMETRY",
    "NullTelemetry",
    "Span",
    "Telemetry",
    "folded_stacks",
    "self_durations",
]


class Span:
    """One finished (or in-flight) timed scope."""

    __slots__ = ("name", "attrs", "start", "end", "depth", "parent", "span_id")

    def __init__(
        self,
        name: str,
        attrs: Optional[Dict] = None,
        start: float = 0.0,
        depth: int = 0,
        parent: Optional[int] = None,
        span_id: int = 0,
    ):
        self.name = name
        self.attrs = attrs or {}
        #: Start / end timestamps on the telemetry clock (seconds).
        self.start = start
        self.end: Optional[float] = None
        #: Nesting depth at open time (0 = root).
        self.depth = depth
        #: ``span_id`` of the enclosing span, or None.
        self.parent = parent
        self.span_id = span_id

    @property
    def duration(self) -> float:
        """Wall-clock seconds (0.0 while still open)."""
        return (self.end - self.start) if self.end is not None else 0.0

    def to_dict(self) -> Dict:
        return {
            "name": self.name,
            "start": self.start,
            "duration": self.duration,
            "depth": self.depth,
            "parent": self.parent,
            "span_id": self.span_id,
            "attrs": self.attrs,
        }

    def __repr__(self) -> str:
        return f"Span({self.name!r}, {self.duration * 1e3:.2f}ms, depth={self.depth})"


class Event:
    """One timestamped structured record."""

    __slots__ = ("name", "ts", "attrs", "span_id")

    def __init__(self, name: str, ts: float, attrs: Dict, span_id: Optional[int]):
        self.name = name
        self.ts = ts
        self.attrs = attrs
        #: The span open when the event fired (for trace grouping).
        self.span_id = span_id

    def to_dict(self) -> Dict:
        return {
            "name": self.name,
            "ts": self.ts,
            "span_id": self.span_id,
            "attrs": self.attrs,
        }

    def __repr__(self) -> str:
        return f"Event({self.name!r}, {self.attrs})"


class Histogram:
    """A fixed, log2-bucketed distribution of non-negative samples.

    Buckets are shared by every histogram: powers of two from ``2**-30``
    (~1 ns when measuring milliseconds) to ``2**40``, plus an overflow
    bucket.  The fixed geometry keeps quantile estimates within one
    bucket -- a factor of two -- of the exact value; estimates are
    additionally clamped to the observed ``[min, max]``, so
    single-valued histograms report exactly.

    Zero and negative samples land in the lowest bucket (they occur
    when timers measure below clock resolution); ``sum``/``min``/
    ``max`` still record them exactly.
    """

    #: Bucket upper bounds, shared by all histograms.
    BOUNDS: Tuple[float, ...] = tuple(2.0 ** e for e in range(-30, 41))

    __slots__ = ("count", "sum", "min", "max", "_counts")

    def __init__(self):
        self.count = 0
        self.sum = 0.0
        self.min = math.inf
        self.max = -math.inf
        #: Sparse bucket-index -> sample count (index ``len(BOUNDS)``
        #: is the overflow bucket).
        self._counts: Dict[int, int] = {}

    def observe(self, value: float) -> None:
        self.count += 1
        self.sum += value
        if value < self.min:
            self.min = value
        if value > self.max:
            self.max = value
        index = bisect_left(self.BOUNDS, value)
        self._counts[index] = self._counts.get(index, 0) + 1

    def quantile(self, q: float) -> float:
        """Estimated ``q``-quantile (0 < q <= 1); NaN when empty.

        The estimate is the geometric midpoint of the bucket the rank
        falls in, clamped to the observed ``[min, max]``.
        """
        if not self.count:
            return math.nan
        rank = max(1, math.ceil(q * self.count))
        cumulative = 0
        for index in sorted(self._counts):
            cumulative += self._counts[index]
            if cumulative >= rank:
                if index >= len(self.BOUNDS):
                    return self.max
                upper = self.BOUNDS[index]
                lower = self.BOUNDS[index - 1] if index > 0 else upper / 2.0
                estimate = math.sqrt(lower * upper)
                return min(max(estimate, self.min), self.max)
        return self.max

    def cumulative_buckets(self) -> List[Tuple[float, int]]:
        """``(upper_bound, cumulative_count)`` for the populated bucket
        range (Prometheus ``le`` semantics; overflow bound is +inf)."""
        if not self._counts:
            return []
        buckets: List[Tuple[float, int]] = []
        cumulative = 0
        lowest = min(self._counts)
        highest = max(self._counts)
        for index in range(lowest, highest + 1):
            cumulative += self._counts.get(index, 0)
            bound = (
                self.BOUNDS[index] if index < len(self.BOUNDS) else math.inf
            )
            buckets.append((bound, cumulative))
        return buckets

    def snapshot(self) -> Dict:
        """The canonical JSON-serializable summary of this histogram."""
        empty = not self.count
        return {
            "count": self.count,
            "sum": self.sum,
            "min": None if empty else self.min,
            "max": None if empty else self.max,
            "p50": None if empty else self.quantile(0.50),
            "p90": None if empty else self.quantile(0.90),
            "p99": None if empty else self.quantile(0.99),
            "buckets": [
                [None if math.isinf(bound) else bound, count]
                for bound, count in self.cumulative_buckets()
            ],
        }

    def __repr__(self) -> str:
        if not self.count:
            return "Histogram(empty)"
        return (
            f"Histogram(n={self.count}, sum={self.sum:g}, "
            f"p50={self.quantile(0.5):g})"
        )


def self_durations(spans: Iterable["Span"]) -> Dict[str, float]:
    """Total *self* seconds per span name: each span's duration minus
    its direct children's durations.  Unlike
    :meth:`Telemetry.phase_durations` (inclusive totals, where nested
    phases double-count), self times sum to the root's duration, which
    makes them the unit of the metrics snapshot's ``span.self_ms.*``
    gauges and of ``repro explain --profile``."""
    spans = list(spans)
    child_total: Dict[int, float] = {}
    for span in spans:
        if span.parent is not None:
            child_total[span.parent] = (
                child_total.get(span.parent, 0.0) + span.duration
            )
    totals: Dict[str, float] = {}
    for span in spans:
        self_time = span.duration - child_total.get(span.span_id, 0.0)
        totals[span.name] = totals.get(span.name, 0.0) + max(self_time, 0.0)
    return totals


def folded_stacks(spans: Iterable["Span"]) -> Dict[str, float]:
    """Flamegraph folded-stacks aggregation of a span tree.

    Returns ``{"root;child;grandchild": self_seconds}`` -- one entry
    per distinct span-name path, carrying the total *self* time spent
    there.  The text rendering (``name path <microseconds>`` per line)
    is what ``flamegraph.pl`` / speedscope consume."""
    spans = list(spans)
    by_id = {span.span_id: span for span in spans}
    child_total: Dict[int, float] = {}
    for span in spans:
        if span.parent is not None:
            child_total[span.parent] = (
                child_total.get(span.parent, 0.0) + span.duration
            )
    stacks: Dict[str, float] = {}
    for span in spans:
        names = [span.name]
        parent = span.parent
        while parent is not None:
            outer = by_id.get(parent)
            if outer is None:
                break
            names.append(outer.name)
            parent = outer.parent
        path = ";".join(reversed(names))
        self_time = span.duration - child_total.get(span.span_id, 0.0)
        stacks[path] = stacks.get(path, 0.0) + max(self_time, 0.0)
    return stacks


class _SpanScope:
    """Context manager closing one span (re-entrant per span only)."""

    __slots__ = ("_telemetry", "span")

    def __init__(self, telemetry: "Telemetry", span: Span):
        self._telemetry = telemetry
        self.span = span

    def __enter__(self) -> Span:
        return self.span

    def __exit__(self, exc_type, exc, tb) -> bool:
        self._telemetry._close_span(self.span)
        return False


class _NullScope:
    """Shared inert context manager for the disabled path."""

    __slots__ = ()

    def __enter__(self):
        return None

    def __exit__(self, exc_type, exc, tb) -> bool:
        return False


_NULL_SCOPE = _NullScope()


class Telemetry:
    """A live telemetry collector."""

    enabled = True

    def __init__(self, sinks: Iterable = (), clock=None):
        self.sinks = list(sinks)
        self._clock = clock or time.perf_counter
        self._epoch = self._clock()
        self._stack: List[Span] = []
        self._next_id = 1
        #: Finished spans, in close order.
        self.spans: List[Span] = []
        self.counters: Dict[str, float] = {}
        self.gauges: Dict[str, float] = {}
        self.histograms: Dict[str, Histogram] = {}
        self.events: List[Event] = []
        self._closed = False

    # -- clock ----------------------------------------------------------

    def now(self) -> float:
        """Seconds since this telemetry object was created."""
        return self._clock() - self._epoch

    # -- spans ----------------------------------------------------------

    def span(self, name: str, **attrs) -> _SpanScope:
        """Open a nested span: ``with telemetry.span("pass1"): ...``"""
        span = Span(
            name,
            attrs=attrs or None,
            start=self.now(),
            depth=len(self._stack),
            parent=self._stack[-1].span_id if self._stack else None,
            span_id=self._next_id,
        )
        self._next_id += 1
        self._stack.append(span)
        return _SpanScope(self, span)

    def _close_span(self, span: Span) -> None:
        span.end = self.now()
        # Tolerate mis-nested exits by popping through to the span.
        while self._stack:
            top = self._stack.pop()
            if top is span:
                break
        self.spans.append(span)
        # Every span feeds the per-phase latency distribution, so
        # histograms of pipeline phases need no extra instrumentation.
        self.observe(f"span.{span.name}.ms", span.duration * 1e3)
        for sink in self.sinks:
            sink.on_span(span)

    # -- counters / gauges ----------------------------------------------

    def count(self, name: str, n: float = 1) -> None:
        self.counters[name] = self.counters.get(name, 0) + n

    def gauge(self, name: str, value: float) -> None:
        self.gauges[name] = value

    def merge_counters(self, counters: Dict[str, float]) -> None:
        """Accumulate a counter dict produced elsewhere.

        The batch driver's worker processes cannot share a Telemetry
        instance with the parent; they report plain ``{name: total}``
        dicts over the result queue and the driver folds them in here.
        """
        for name, n in counters.items():
            self.count(name, n)

    # -- histograms -------------------------------------------------------

    def observe(self, name: str, value: float) -> None:
        """Record one sample into the histogram called ``name``."""
        histogram = self.histograms.get(name)
        if histogram is None:
            histogram = self.histograms[name] = Histogram()
        histogram.observe(value)

    # -- events ----------------------------------------------------------

    def event(self, name: str, **attrs) -> None:
        current = self._stack[-1].span_id if self._stack else None
        event = Event(name, self.now(), attrs, current)
        self.events.append(event)
        for sink in self.sinks:
            sink.on_event(event)

    def record_degradation(self, record) -> None:
        """Count and emit one contained fault.

        ``record`` is a :class:`repro.resilience.DegradationRecord`
        (typed loosely here so the obs layer never imports the
        resilience package).  Every firewall routes through this, so
        ``resilience.contained`` is the one counter chaos CI asserts on.
        """
        self.count("resilience.contained")
        self.count(f"resilience.contained.{record.kind}")
        self.event("resilience.degradation", **record.to_dict())

    # -- lifecycle --------------------------------------------------------

    def close(self) -> None:
        """Close any open spans and flush every sink (idempotent)."""
        if self._closed:
            return
        self._closed = True
        while self._stack:
            self._close_span(self._stack[-1])
        for sink in self.sinks:
            sink.on_close(self)

    def __enter__(self) -> "Telemetry":
        return self

    def __exit__(self, exc_type, exc, tb) -> bool:
        self.close()
        return False

    # -- introspection helpers -------------------------------------------

    def spans_named(self, name: str) -> List[Span]:
        return [s for s in self.spans if s.name == name]

    def phase_durations(self) -> Dict[str, float]:
        """Total seconds per span name (the summary table's rows)."""
        totals: Dict[str, float] = {}
        for span in self.spans:
            totals[span.name] = totals.get(span.name, 0.0) + span.duration
        return totals

    def phase_self_durations(self) -> Dict[str, float]:
        """Total *self* seconds per span name (see :func:`self_durations`)."""
        return self_durations(self.spans)

    def folded_stacks(self) -> Dict[str, float]:
        """Flamegraph folded stacks of the span tree
        (see :func:`folded_stacks`)."""
        return folded_stacks(self.spans)


class NullTelemetry:
    """The no-op telemetry every un-observed compilation runs with."""

    enabled = False
    sinks: tuple = ()
    spans: tuple = ()
    events: tuple = ()
    counters: Dict[str, float] = {}
    gauges: Dict[str, float] = {}
    histograms: Dict[str, Histogram] = {}

    def span(self, name: str, **attrs) -> _NullScope:
        return _NULL_SCOPE

    def count(self, name: str, n: float = 1) -> None:
        pass

    def gauge(self, name: str, value: float) -> None:
        pass

    def observe(self, name: str, value: float) -> None:
        pass

    def merge_counters(self, counters: Dict[str, float]) -> None:
        pass

    def event(self, name: str, **attrs) -> None:
        pass

    def record_degradation(self, record) -> None:
        pass

    def close(self) -> None:
        pass

    def now(self) -> float:
        return 0.0

    def __repr__(self) -> str:
        return "NullTelemetry()"


#: Shared disabled singleton; ``telemetry or NULL_TELEMETRY`` is the
#: canonical default for optional telemetry parameters.
NULL_TELEMETRY = NullTelemetry()
