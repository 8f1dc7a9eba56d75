"""Observability: compilation telemetry (spans, counters, events,
histograms), pluggable sinks and metric exporters.  See
``docs/observability.md``."""

from repro.obs.sinks import (
    ChromeTraceSink,
    JsonlSink,
    Sink,
    SummarySink,
    metrics_json,
    metrics_snapshot,
    profile_text,
    prometheus_text,
    summary_text,
)
from repro.obs.telemetry import (
    NULL_TELEMETRY,
    Event,
    Histogram,
    NullTelemetry,
    Span,
    Telemetry,
    folded_stacks,
    self_durations,
)

__all__ = [
    "ChromeTraceSink",
    "Event",
    "Histogram",
    "JsonlSink",
    "NULL_TELEMETRY",
    "NullTelemetry",
    "Sink",
    "Span",
    "SummarySink",
    "Telemetry",
    "folded_stacks",
    "metrics_json",
    "metrics_snapshot",
    "profile_text",
    "prometheus_text",
    "self_durations",
    "summary_text",
]
