"""Metrics primitives: histogram math, the metric snapshot, and the
exporters.

The histogram's quantile estimates are gated by a hypothesis property:
for any sample set, every estimate lies within one log2 bucket (a
factor of two) of the exact empirical quantile, and is clamped to the
observed [min, max].  The Prometheus exporter's output is validated
line-by-line against the text exposition format grammar.
"""

import json
import math
import os
import re

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from repro.cli import main
from repro.obs import (
    Histogram,
    metrics_json,
    metrics_snapshot,
    prometheus_text,
)
from repro.resilience.faults import FAULT_ENV_VAR
from tests.obs.test_telemetry import make_telemetry

# -- histogram bucket / quantile math ---------------------------------------


def test_empty_histogram_snapshot():
    hist = Histogram()
    snap = hist.snapshot()
    assert snap["count"] == 0
    assert snap["sum"] == 0.0
    assert snap["min"] is None and snap["max"] is None
    assert snap["p50"] is None
    assert snap["buckets"] == []


def test_histogram_counts_sum_min_max_exactly():
    hist = Histogram()
    for value in [3.0, 0.25, 17.5, 3.0]:
        hist.observe(value)
    assert hist.count == 4
    assert hist.sum == pytest.approx(23.75)
    assert hist.min == 0.25
    assert hist.max == 17.5


def test_single_value_histogram_reports_exact_quantiles():
    hist = Histogram()
    hist.observe(42.0)
    # Clamping to [min, max] makes every quantile exact here.
    assert hist.quantile(0.5) == 42.0
    assert hist.quantile(0.99) == 42.0


def test_cumulative_buckets_are_monotonic_and_le_style():
    hist = Histogram()
    for value in [0.7, 1.5, 3.0, 100.0]:
        hist.observe(value)
    buckets = hist.cumulative_buckets()
    counts = [count for _, count in buckets]
    assert counts == sorted(counts)
    assert counts[-1] == hist.count
    # Every bound holds at least the samples <= it.
    for bound, cumulative in buckets:
        exact = sum(1 for v in [0.7, 1.5, 3.0, 100.0] if v <= bound)
        assert cumulative >= exact


@settings(max_examples=200, deadline=None)
@given(
    st.lists(
        st.floats(
            min_value=1e-6, max_value=1e9,
            allow_nan=False, allow_infinity=False,
        ),
        min_size=1,
        max_size=60,
    ),
    st.sampled_from([0.5, 0.9, 0.99]),
)
def test_quantile_estimate_within_bucket_resolution(samples, q):
    hist = Histogram()
    for value in samples:
        hist.observe(value)
    estimate = hist.quantile(q)
    ordered = sorted(samples)
    exact = ordered[max(1, math.ceil(q * len(ordered))) - 1]
    # The estimate is clamped to the observed range ...
    assert hist.min <= estimate <= hist.max
    # ... and within one log2 bucket (factor of two) of the exact value.
    assert estimate <= exact * 2.0 * (1 + 1e-9)
    assert estimate >= exact / 2.0 * (1 - 1e-9)


# -- the metric snapshot -----------------------------------------------------


def test_metrics_snapshot_shape():
    telemetry, clock = make_telemetry()
    with telemetry.span("outer"):
        clock.advance(0.2)
        with telemetry.span("inner"):
            clock.advance(0.1)
    telemetry.count("requests", 3)
    telemetry.gauge("fuel", 17.0)

    snap = metrics_snapshot(telemetry)
    assert snap["schema"] == "repro-metrics/1"
    assert snap["counters"]["requests"] == 3
    assert snap["gauges"]["fuel"] == 17.0
    # Span self-times arrive as gauges; span latencies as histograms.
    assert snap["gauges"]["span.self_ms.outer"] == pytest.approx(200.0)
    assert snap["gauges"]["span.self_ms.inner"] == pytest.approx(100.0)
    assert snap["histograms"]["span.inner.ms"]["count"] == 1


def test_metrics_snapshot_of_an_empty_run():
    telemetry, _ = make_telemetry()
    assert metrics_snapshot(telemetry) == {
        "schema": "repro-metrics/1",
        "counters": {},
        "gauges": {},
        "histograms": {},
    }
    assert prometheus_text(telemetry) == ""
    assert json.loads(metrics_json(telemetry))["schema"] == "repro-metrics/1"


# -- exporters ---------------------------------------------------------------

_PROM_HELP_OR_TYPE = re.compile(
    r"^# TYPE [a-zA-Z_:][a-zA-Z0-9_:]* (counter|gauge|histogram)$"
)
_PROM_SAMPLE = re.compile(
    r"^[a-zA-Z_:][a-zA-Z0-9_:]*(\{le=\"[^\"]+\"\})? "
    r"(NaN|[+-]?Inf|[-+]?[0-9.eE+-]+)$"
)


def _build_telemetry():
    telemetry, _ = make_telemetry()
    telemetry.count("search.nodes", 25)
    telemetry.gauge("fuel-left", 12.5)
    for value in [0.4, 1.9, 3.0, 250.0]:
        telemetry.observe("phase ms", value)
    return telemetry


def _assert_exposition_grammar(text):
    assert text.endswith("\n")
    for line in text.strip().splitlines():
        assert _PROM_HELP_OR_TYPE.match(line) or _PROM_SAMPLE.match(line), line


def test_prometheus_text_matches_exposition_grammar():
    _assert_exposition_grammar(prometheus_text(_build_telemetry()))


def test_prometheus_text_sanitizes_names_and_prefixes():
    text = prometheus_text(_build_telemetry())
    assert "repro_search_nodes_total 25" in text
    assert "repro_fuel_left 12.5" in text
    assert "repro_phase_ms_sum" in text


def test_prometheus_histogram_buckets_are_cumulative_and_closed():
    text = prometheus_text(_build_telemetry())
    buckets = re.findall(
        r'repro_phase_ms_bucket\{le="([^"]+)"\} (\d+)', text
    )
    counts = [int(count) for _, count in buckets]
    assert counts == sorted(counts)
    assert buckets[-1][0] == "+Inf"
    assert counts[-1] == 4
    assert "repro_phase_ms_count 4" in text


def test_metrics_json_is_canonical_and_round_trips():
    telemetry = _build_telemetry()
    first = metrics_json(telemetry)
    second = metrics_json(telemetry)
    assert first == second
    assert first.endswith("\n")
    document = json.loads(first)
    assert document["schema"] == "repro-metrics/1"
    assert document["histograms"]["phase ms"]["count"] == 4
    # Re-serializing the parsed document canonically gives the same bytes.
    assert json.dumps(document, sort_keys=True, indent=2) + "\n" == first


# -- the exported bytes, pinned ---------------------------------------------


def _pinned_telemetry():
    """Spans (nested, one name twice), a counter bumped twice, a gauge
    and four observations, on the fake clock."""
    telemetry, clock = make_telemetry()
    with telemetry.span("compile"):
        clock.advance(0.125)
        with telemetry.span("search"):
            clock.advance(0.25)
        with telemetry.span("search"):
            clock.advance(0.5)
    telemetry.count("search.nodes", 25)
    telemetry.count("search.nodes", 3)
    telemetry.gauge("fuel-left", 12.5)
    for value in [0.75, 1.5, 3.0, 3.0]:
        telemetry.observe("phase ms", value)
    telemetry.close()
    return telemetry


PINNED_METRICS_JSON = """\
{
  "counters": {
    "search.nodes": 28
  },
  "gauges": {
    "fuel-left": 12.5,
    "span.self_ms.compile": 125.0,
    "span.self_ms.search": 750.0
  },
  "histograms": {
    "phase ms": {
      "buckets": [
        [
          1.0,
          1
        ],
        [
          2.0,
          2
        ],
        [
          4.0,
          4
        ]
      ],
      "count": 4,
      "max": 3.0,
      "min": 0.75,
      "p50": 1.4142135623730951,
      "p90": 2.8284271247461903,
      "p99": 2.8284271247461903,
      "sum": 8.25
    },
    "span.compile.ms": {
      "buckets": [
        [
          1024.0,
          1
        ]
      ],
      "count": 1,
      "max": 875.0,
      "min": 875.0,
      "p50": 875.0,
      "p90": 875.0,
      "p99": 875.0,
      "sum": 875.0
    },
    "span.search.ms": {
      "buckets": [
        [
          256.0,
          1
        ],
        [
          512.0,
          2
        ]
      ],
      "count": 2,
      "max": 500.0,
      "min": 250.0,
      "p50": 250.0,
      "p90": 362.03867196751236,
      "p99": 362.03867196751236,
      "sum": 750.0
    }
  },
  "schema": "repro-metrics/1"
}
"""

PINNED_PROMETHEUS_TEXT = """\
# TYPE repro_search_nodes_total counter
repro_search_nodes_total 28
# TYPE repro_fuel_left gauge
repro_fuel_left 12.5
# TYPE repro_span_self_ms_compile gauge
repro_span_self_ms_compile 125
# TYPE repro_span_self_ms_search gauge
repro_span_self_ms_search 750
# TYPE repro_phase_ms histogram
repro_phase_ms_bucket{le="1"} 1
repro_phase_ms_bucket{le="2"} 2
repro_phase_ms_bucket{le="4"} 4
repro_phase_ms_bucket{le="+Inf"} 4
repro_phase_ms_sum 8.25
repro_phase_ms_count 4
# TYPE repro_span_compile_ms histogram
repro_span_compile_ms_bucket{le="1024"} 1
repro_span_compile_ms_bucket{le="+Inf"} 1
repro_span_compile_ms_sum 875
repro_span_compile_ms_count 1
# TYPE repro_span_search_ms histogram
repro_span_search_ms_bucket{le="256"} 1
repro_span_search_ms_bucket{le="512"} 2
repro_span_search_ms_bucket{le="+Inf"} 2
repro_span_search_ms_sum 750
repro_span_search_ms_count 2
"""


def test_metrics_json_bytes_are_pinned():
    assert metrics_json(_pinned_telemetry()) == PINNED_METRICS_JSON


def test_prometheus_text_bytes_are_pinned():
    assert prometheus_text(_pinned_telemetry()) == PINNED_PROMETHEUS_TEXT


# -- --metrics-out, end to end ----------------------------------------------

NESTED_C = os.path.join(
    os.path.dirname(__file__), os.pardir, "golden", "corpus", "nested.c"
)


def test_compile_metrics_out_writes_json_and_prometheus(tmp_path, capsys):
    json_path = tmp_path / "m.json"
    prom_path = tmp_path / "m.prom"
    for path in (json_path, prom_path):
        assert main(
            ["compile", NESTED_C, "--args", "96", "--metrics-out", str(path)]
        ) == 0
    capsys.readouterr()

    document = json.loads(json_path.read_text())
    assert document["schema"] == "repro-metrics/1"
    assert any(name.startswith("span.self_ms.") for name in document["gauges"])
    assert any(
        name.startswith("span.") and name.endswith(".ms")
        for name in document["histograms"]
    )
    assert document["counters"]

    text = prom_path.read_text()
    _assert_exposition_grammar(text)
    assert "# TYPE repro_span_self_ms_pass1 gauge" in text
    assert 'repro_span_pass1_ms_bucket{le="+Inf"}' in text


def test_injected_phase_slowdown_lands_in_that_phase_self_time(
    tmp_path, capsys, monkeypatch
):
    """Faults fire inside their phase's span, so a ``REPRO_FAULT``
    slowdown of ``search`` is charged to search's own self time."""
    monkeypatch.setenv(FAULT_ENV_VAR, "search:slow:0.1")
    path = tmp_path / "m.json"
    assert main(
        ["compile", NESTED_C, "--args", "96", "--metrics-out", str(path)]
    ) == 0
    capsys.readouterr()
    document = json.loads(path.read_text())
    searches = document["histograms"]["span.search.ms"]["count"]
    assert searches >= 1
    assert document["gauges"]["span.self_ms.search"] >= 100.0 * searches


def test_batch_metrics_out_sums_each_programs_compile_counters(
    tmp_path, capsys
):
    """Batch workers ship their counters to the driver, which adds
    them up: the batch export holds, per counter, the sum of what each
    program's own ``repro compile --metrics-out`` reports."""
    corpus = tmp_path / "corpus"
    corpus.mkdir()
    for name in ("nested.c", "tiny_body.c"):
        source = os.path.join(os.path.dirname(NESTED_C), name)
        with open(source) as handle:
            (corpus / name).write_text(handle.read())

    expected = {}
    for program in sorted(corpus.iterdir()):
        out = tmp_path / f"{program.stem}.json"
        assert main(["compile", str(program), "--args", "32",
                     "--metrics-out", str(out)]) == 0
        for name, value in json.loads(out.read_text())["counters"].items():
            expected[name] = expected.get(name, 0) + value
    batch_out = tmp_path / "batch.json"
    assert main(["batch", str(corpus), "--args", "32", "--jobs", "1",
                 "--no-cache", "--quiet",
                 "--metrics-out", str(batch_out)]) == 0
    capsys.readouterr()

    document = json.loads(batch_out.read_text())
    assert document["schema"] == "repro-metrics/1"
    assert expected["interp.runs"] == 2
    for name, value in expected.items():
        assert document["counters"][name] == value, name
    assert document["counters"]["batch.programs"] == 2
    assert "span.self_ms.batch" in document["gauges"]
    assert document["histograms"]["span.batch.ms"]["count"] == 1


def test_null_telemetry_metric_paths_are_inert():
    from repro.obs import NULL_TELEMETRY

    NULL_TELEMETRY.observe("anything", 1.0)
    assert NULL_TELEMETRY.histograms == {}
