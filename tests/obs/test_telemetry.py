"""Telemetry core: spans, counters, gauges, events, null object, and
the self-time views of the span tree."""

from repro.obs import (
    NULL_TELEMETRY,
    NullTelemetry,
    Telemetry,
    folded_stacks,
    self_durations,
)


class FakeClock:
    """Deterministic clock; advance() moves time forward."""

    def __init__(self):
        self.t = 0.0

    def __call__(self):
        return self.t

    def advance(self, dt):
        self.t += dt


def make_telemetry(**kwargs):
    clock = FakeClock()
    return Telemetry(clock=clock, **kwargs), clock


def test_span_records_duration_and_name():
    telemetry, clock = make_telemetry()
    with telemetry.span("phase", kind="test"):
        clock.advance(0.25)
    (span,) = telemetry.spans
    assert span.name == "phase"
    assert span.duration == 0.25
    assert span.attrs == {"kind": "test"}
    assert span.depth == 0
    assert span.parent is None


def test_spans_nest_with_parent_links():
    telemetry, clock = make_telemetry()
    with telemetry.span("outer") as outer:
        clock.advance(0.1)
        with telemetry.span("inner") as inner:
            clock.advance(0.1)
        with telemetry.span("inner") as inner2:
            clock.advance(0.1)
    assert inner.parent == outer.span_id
    assert inner2.parent == outer.span_id
    assert inner.depth == 1 and outer.depth == 0
    assert inner.span_id != inner2.span_id
    # Children close before the parent.
    assert [s.name for s in telemetry.spans] == ["inner", "inner", "outer"]
    # The parent's interval covers each child's.
    outer_span = telemetry.spans_named("outer")[0]
    for child in telemetry.spans_named("inner"):
        assert outer_span.start <= child.start
        assert child.end <= outer_span.end


def test_counters_accumulate_and_gauges_overwrite():
    telemetry, _ = make_telemetry()
    telemetry.count("hits")
    telemetry.count("hits", 4)
    telemetry.gauge("fuel", 100)
    telemetry.gauge("fuel", 7)
    assert telemetry.counters["hits"] == 5
    assert telemetry.gauges["fuel"] == 7


def test_event_is_associated_with_open_span():
    telemetry, _ = make_telemetry()
    with telemetry.span("work") as span:
        telemetry.event("tick", n=1)
    telemetry.event("tock")
    tick, tock = telemetry.events
    assert tick.span_id == span.span_id
    assert tick.attrs == {"n": 1}
    assert tock.span_id is None


def test_close_finishes_open_spans_and_is_idempotent():
    closes = []

    class Probe:
        def on_span(self, span):
            pass

        def on_event(self, event):
            pass

        def on_close(self, telemetry):
            closes.append(telemetry)

    clock = FakeClock()
    telemetry = Telemetry(sinks=[Probe()], clock=clock)
    telemetry.span("left-open")  # never exited
    telemetry.close()
    telemetry.close()
    assert closes == [telemetry]
    assert telemetry.spans_named("left-open")[0].end is not None


def test_context_manager_closes():
    clock = FakeClock()
    with Telemetry(clock=clock) as telemetry:
        with telemetry.span("p"):
            clock.advance(1.0)
    assert telemetry.phase_durations() == {"p": 1.0}


def test_sinks_see_spans_and_events_in_order():
    seen = []

    class Probe:
        def on_span(self, span):
            seen.append(("span", span.name))

        def on_event(self, event):
            seen.append(("event", event.name))

        def on_close(self, telemetry):
            seen.append(("close", None))

    telemetry = Telemetry(sinks=[Probe()], clock=FakeClock())
    with telemetry.span("a"):
        telemetry.event("e")
    telemetry.close()
    assert seen == [("event", "e"), ("span", "a"), ("close", None)]


def test_null_telemetry_is_inert():
    assert NULL_TELEMETRY.enabled is False
    with NULL_TELEMETRY.span("anything", x=1) as span:
        assert span is None
    NULL_TELEMETRY.count("c")
    NULL_TELEMETRY.gauge("g", 1)
    NULL_TELEMETRY.event("e", y=2)
    NULL_TELEMETRY.close()
    assert NULL_TELEMETRY.counters == {}
    assert NULL_TELEMETRY.spans == ()
    assert isinstance(NULL_TELEMETRY, NullTelemetry)


def test_phase_durations_sums_spans_of_same_name():
    telemetry, clock = make_telemetry()
    for _ in range(3):
        with telemetry.span("loop"):
            clock.advance(0.5)
    assert telemetry.phase_durations() == {"loop": 1.5}


# -- self times and folded stacks ---------------------------------------------


def three_level_run():
    """compile > analyze > search, with time spent at every level."""
    telemetry, clock = make_telemetry()
    with telemetry.span("compile"):
        clock.advance(0.25)
        with telemetry.span("analyze"):
            clock.advance(0.125)
            with telemetry.span("search"):
                clock.advance(0.5)
        clock.advance(0.25)
    return telemetry


def test_self_durations_subtract_only_direct_children():
    telemetry = three_level_run()
    assert self_durations(telemetry.spans) == {
        "compile": 0.5,
        "analyze": 0.125,
        "search": 0.5,
    }
    assert telemetry.phase_self_durations() == self_durations(telemetry.spans)


def test_self_durations_sum_repeated_spans_and_add_up_to_the_root():
    telemetry, clock = make_telemetry()
    with telemetry.span("compile"):
        for _ in range(3):
            with telemetry.span("analyze_loop"):
                clock.advance(0.125)
                with telemetry.span("search"):
                    clock.advance(0.25)
        clock.advance(0.5)
    selfs = self_durations(telemetry.spans)
    assert selfs == {"compile": 0.5, "analyze_loop": 0.375, "search": 0.75}
    (root,) = telemetry.spans_named("compile")
    # Unlike the inclusive phase durations, nothing is counted twice.
    assert sum(selfs.values()) == root.duration
    assert sum(telemetry.phase_durations().values()) > root.duration


def test_folded_stacks_join_span_names_from_the_root():
    telemetry = three_level_run()
    assert folded_stacks(telemetry.spans) == {
        "compile": 0.5,
        "compile;analyze": 0.125,
        "compile;analyze;search": 0.5,
    }
    assert telemetry.folded_stacks() == folded_stacks(telemetry.spans)


def test_folded_stacks_keep_one_name_apart_under_different_parents():
    telemetry, clock = make_telemetry()
    with telemetry.span("compile"):
        for phase, seconds in (("profile", 0.25), ("svp", 0.5), ("svp", 0.5)):
            with telemetry.span(phase):
                with telemetry.span("interp"):
                    clock.advance(seconds)
    folded = folded_stacks(telemetry.spans)
    assert folded == {
        "compile": 0.0,
        "compile;profile": 0.0,
        "compile;svp": 0.0,
        "compile;profile;interp": 0.25,
        "compile;svp;interp": 1.0,
    }
    # The per-name view merges what the stacks keep apart.
    selfs = self_durations(telemetry.spans)
    assert selfs["interp"] == 1.25
    assert sum(folded.values()) == sum(selfs.values())


def test_folded_stacks_start_at_the_outermost_finished_span():
    telemetry, clock = make_telemetry()
    with telemetry.span("compile"):
        with telemetry.span("profile"):
            clock.advance(0.25)
        # Only finished spans are recorded, so mid-run the open parent is
        # not part of the tree yet.
        assert folded_stacks(telemetry.spans) == {"profile": 0.25}
        clock.advance(0.125)
    assert folded_stacks(telemetry.spans) == {
        "compile": 0.125,
        "compile;profile": 0.25,
    }
