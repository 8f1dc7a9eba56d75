"""Telemetry sinks and metric exporters.

A sink receives finished spans and events as they close and gets one
``on_close`` call with the whole telemetry object at the end of the
run.  Sinks that need global state (the Chrome trace's counter series,
the summary's totals) buffer until ``on_close``.

* :class:`JsonlSink` -- one JSON object per line, written immediately;
  greppable and streamable.
* :class:`ChromeTraceSink` -- a ``chrome://tracing`` / Perfetto
  compatible JSON trace ("traceEvents" array of complete/instant/
  counter events); load the file in a trace viewer to see the phase
  timeline of a compilation.
* :class:`SummarySink` -- renders a human-readable end-of-run table of
  phase durations and counter totals to a stream.

Two stateless exporters serialize one run's :func:`metrics_snapshot`
(counters, gauges, histograms and per-phase span self-times) for
machine consumers; ``--metrics-out`` writes one of them:

* :func:`prometheus_text` -- the Prometheus text exposition format
  (``# TYPE`` headers, cumulative ``_bucket{le=...}`` series per
  histogram);
* :func:`metrics_json` -- the canonical JSON document (sorted keys,
  trailing newline; byte-identical for identical metric states).
"""

from __future__ import annotations

import json
import math
import re
from typing import IO, Dict, List, Optional

from repro.obs.telemetry import (
    Event,
    Span,
    Telemetry,
    folded_stacks,
    self_durations,
)

__all__ = [
    "ChromeTraceSink",
    "JsonlSink",
    "Sink",
    "SummarySink",
    "metrics_json",
    "metrics_snapshot",
    "profile_text",
    "prometheus_text",
    "summary_text",
]


class Sink:
    """Base sink: all hooks default to no-ops."""

    def on_span(self, span: Span) -> None:
        """A span finished."""

    def on_event(self, event: Event) -> None:
        """An event fired."""

    def on_close(self, telemetry: Telemetry) -> None:
        """The run ended; flush buffered output."""


class JsonlSink(Sink):
    """Writes each record as one JSON line the moment it is produced.

    ``path`` may be a filesystem path (opened and owned by the sink) or
    an already-open text stream.
    """

    def __init__(self, path):
        if hasattr(path, "write"):
            self._stream: IO = path
            self._owns = False
        else:
            self._stream = open(path, "w")
            self._owns = True

    def _emit(self, record: dict) -> None:
        self._stream.write(json.dumps(record) + "\n")

    def on_span(self, span: Span) -> None:
        record = {"type": "span"}
        record.update(span.to_dict())
        self._emit(record)

    def on_event(self, event: Event) -> None:
        record = {"type": "event"}
        record.update(event.to_dict())
        self._emit(record)

    def on_close(self, telemetry: Telemetry) -> None:
        for name in sorted(telemetry.counters):
            self._emit(
                {"type": "counter", "name": name, "value": telemetry.counters[name]}
            )
        for name in sorted(telemetry.gauges):
            self._emit(
                {"type": "gauge", "name": name, "value": telemetry.gauges[name]}
            )
        for name in sorted(telemetry.histograms):
            record = {"type": "histogram", "name": name}
            record.update(telemetry.histograms[name].snapshot())
            self._emit(record)
        self._stream.flush()
        if self._owns:
            self._stream.close()


class ChromeTraceSink(Sink):
    """Buffers the run into one Chrome trace-event JSON document.

    Spans become complete ("X") events, telemetry events become
    instants ("i"), and counter totals are emitted as one counter ("C")
    sample at end-of-run, so the viewer's counter track shows the final
    values.  Timestamps are microseconds on the telemetry clock.
    """

    PID = 1
    TID = 1

    def __init__(self, path):
        self._path = path
        self._events: List[dict] = []

    def on_span(self, span: Span) -> None:
        self._events.append(
            {
                "name": span.name,
                "cat": "span",
                "ph": "X",
                "ts": span.start * 1e6,
                "dur": span.duration * 1e6,
                "pid": self.PID,
                "tid": self.TID,
                "args": span.attrs,
            }
        )

    def on_event(self, event: Event) -> None:
        self._events.append(
            {
                "name": event.name,
                "cat": "event",
                "ph": "i",
                "ts": event.ts * 1e6,
                "pid": self.PID,
                "tid": self.TID,
                "s": "t",
                "args": event.attrs,
            }
        )

    def on_close(self, telemetry: Telemetry) -> None:
        end_ts = telemetry.now() * 1e6
        for name in sorted(telemetry.counters):
            self._events.append(
                {
                    "name": name,
                    "cat": "counter",
                    "ph": "C",
                    "ts": end_ts,
                    "pid": self.PID,
                    "tid": self.TID,
                    "args": {"value": telemetry.counters[name]},
                }
            )
        # Complete events arrive in close order; viewers want begin order.
        self._events.sort(key=lambda e: e["ts"])
        document = {
            "traceEvents": self._events,
            "displayTimeUnit": "ms",
            "otherData": {"producer": "repro.obs"},
        }
        if hasattr(self._path, "write"):
            json.dump(document, self._path)
        else:
            with open(self._path, "w") as handle:
                json.dump(document, handle)


def summary_text(telemetry: Telemetry) -> str:
    """The human-readable end-of-run summary table."""
    from repro.report.tables import format_table

    sections: List[str] = []
    durations = telemetry.phase_durations()
    if durations:
        counts = {}
        for span in telemetry.spans:
            counts[span.name] = counts.get(span.name, 0) + 1
        rows = [
            (name, counts[name], f"{durations[name] * 1e3:.2f}")
            for name in sorted(durations, key=durations.get, reverse=True)
        ]
        sections.append(
            format_table(
                ["span", "count", "total ms"], rows, title="telemetry: spans"
            )
        )
    if telemetry.counters:
        rows = [
            (name, f"{telemetry.counters[name]:g}")
            for name in sorted(telemetry.counters)
        ]
        sections.append(
            format_table(["counter", "value"], rows, title="telemetry: counters")
        )
    if telemetry.gauges:
        rows = [
            (name, f"{telemetry.gauges[name]:g}")
            for name in sorted(telemetry.gauges)
        ]
        sections.append(
            format_table(["gauge", "value"], rows, title="telemetry: gauges")
        )
    if telemetry.histograms:
        rows = []
        for name in sorted(telemetry.histograms):
            hist = telemetry.histograms[name]
            rows.append(
                (
                    name,
                    hist.count,
                    f"{hist.sum:.3f}",
                    f"{hist.quantile(0.5):.3f}",
                    f"{hist.quantile(0.9):.3f}",
                    f"{hist.quantile(0.99):.3f}",
                )
            )
        sections.append(
            format_table(
                ["histogram", "count", "sum", "p50", "p90", "p99"],
                rows,
                title="telemetry: histograms",
            )
        )
    if telemetry.events:
        sections.append(f"telemetry: {len(telemetry.events)} events recorded")
    return "\n\n".join(sections) if sections else "telemetry: nothing recorded"


class SummarySink(Sink):
    """Prints :func:`summary_text` to ``stream`` when the run closes."""

    def __init__(self, stream: Optional[IO] = None):
        self._stream = stream

    def on_close(self, telemetry: Telemetry) -> None:
        import sys

        stream = self._stream or sys.stdout
        stream.write(summary_text(telemetry) + "\n")


def profile_text(telemetry: Telemetry) -> str:
    """The per-phase self-time profile: a table sorted by self time plus
    flamegraph "folded stacks" lines (``root;child self_ms``) that feed
    straight into ``flamegraph.pl`` or speedscope."""
    from repro.report.tables import format_table

    if not telemetry.spans:
        return "profile: no spans recorded"
    selfs = self_durations(telemetry.spans)
    inclusive = telemetry.phase_durations()
    counts: Dict[str, int] = {}
    for span in telemetry.spans:
        counts[span.name] = counts.get(span.name, 0) + 1
    total_self = sum(selfs.values()) or 1.0
    rows = [
        (
            name,
            counts[name],
            f"{selfs[name] * 1e3:.2f}",
            f"{inclusive[name] * 1e3:.2f}",
            f"{100.0 * selfs[name] / total_self:.1f}%",
        )
        for name in sorted(selfs, key=selfs.get, reverse=True)
    ]
    table = format_table(
        ["phase", "count", "self ms", "incl ms", "self %"],
        rows,
        title="profile: per-phase self time",
    )
    folded = folded_stacks(telemetry.spans)
    lines = [
        f"{stack} {folded[stack] * 1e3:.3f}"
        for stack in sorted(folded, key=folded.get, reverse=True)
    ]
    return table + "\n\nfolded stacks (ms):\n" + "\n".join(lines)


# --- metric exporters -------------------------------------------------

METRICS_SCHEMA = "repro-metrics/1"


def metrics_snapshot(telemetry: Telemetry) -> Dict:
    """The canonical, JSON-serializable metric set of one run: its
    counters, its gauges plus one ``span.self_ms.<name>`` gauge per span
    name (total self time, :func:`self_durations`), and its
    histograms."""
    gauges = dict(telemetry.gauges)
    for name, seconds in self_durations(telemetry.spans).items():
        gauges[f"span.self_ms.{name}"] = seconds * 1e3
    counters = telemetry.counters
    histograms = telemetry.histograms
    return {
        "schema": METRICS_SCHEMA,
        "counters": {name: counters[name] for name in sorted(counters)},
        "gauges": {name: gauges[name] for name in sorted(gauges)},
        "histograms": {
            name: histograms[name].snapshot() for name in sorted(histograms)
        },
    }


_PROM_NAME_RE = re.compile(r"[^a-zA-Z0-9_:]")


def _prom_name(name: str) -> str:
    """A legal Prometheus metric name: ``repro_``-prefixed, separators
    folded to underscores."""
    return "repro_" + _PROM_NAME_RE.sub("_", name)


def _prom_value(value: float) -> str:
    if value != value:  # NaN
        return "NaN"
    if math.isinf(value):
        return "+Inf" if value > 0 else "-Inf"
    return f"{value:g}"


def prometheus_text(telemetry: Telemetry) -> str:
    """Render a run's metrics in the Prometheus text exposition format
    (version 0.0.4): ``# TYPE`` headers, one sample per line,
    histograms expanded into cumulative ``_bucket{le=...}`` series plus
    ``_sum`` and ``_count``."""
    snapshot = metrics_snapshot(telemetry)
    lines: List[str] = []
    for name, value in snapshot["counters"].items():
        metric = _prom_name(name) + "_total"
        lines.append(f"# TYPE {metric} counter")
        lines.append(f"{metric} {_prom_value(value)}")
    for name, value in snapshot["gauges"].items():
        metric = _prom_name(name)
        lines.append(f"# TYPE {metric} gauge")
        lines.append(f"{metric} {_prom_value(value)}")
    for name, hist in snapshot["histograms"].items():
        metric = _prom_name(name)
        lines.append(f"# TYPE {metric} histogram")
        for bound, count in hist["buckets"]:
            le = "+Inf" if bound is None else _prom_value(bound)
            lines.append(f'{metric}_bucket{{le="{le}"}} {count}')
        if hist["buckets"][-1][0] is not None:
            # Prometheus requires a closing +Inf bucket equal to count.
            lines.append(f'{metric}_bucket{{le="+Inf"}} {hist["count"]}')
        lines.append(f"{metric}_sum {_prom_value(hist['sum'])}")
        lines.append(f"{metric}_count {hist['count']}")
    return "\n".join(lines) + "\n" if lines else ""


def metrics_json(telemetry: Telemetry) -> str:
    """The canonical JSON export: sorted keys, newline-terminated;
    byte-identical for identical metric states."""
    return json.dumps(metrics_snapshot(telemetry), sort_keys=True,
                      indent=2) + "\n"
