"""Unit tests for the wall-clock watchdog."""

import pytest

from repro.resilience.watchdog import (
    POLL_STRIDE,
    ProgramTimeout,
    Watchdog,
    WatchdogTimeout,
)


class FakeClock:
    def __init__(self, now=0.0):
        self.now = now

    def __call__(self):
        return self.now


def test_no_deadline_never_expires():
    dog = Watchdog()
    assert not dog.expired()
    dog.check()
    for _ in range(POLL_STRIDE * 3):
        dog.poll()


def test_expired_flips_when_deadline_passes():
    clock = FakeClock()
    dog = Watchdog(deadline_ms=100.0, clock=clock)
    assert not dog.expired()
    clock.now = 0.099
    assert not dog.expired()
    clock.now = 0.101
    assert dog.expired()


def test_check_raises_watchdog_timeout():
    clock = FakeClock()
    dog = Watchdog(deadline_ms=10.0, clock=clock)
    dog.check()
    clock.now = 1.0
    with pytest.raises(WatchdogTimeout):
        dog.check()


def test_poll_amortizes_clock_reads():
    clock = FakeClock()
    dog = Watchdog(deadline_ms=10.0, clock=clock)
    clock.now = 1.0  # already expired, but poll only looks every stride
    for _ in range(POLL_STRIDE - 1):
        dog.poll()
    with pytest.raises(WatchdogTimeout):
        dog.poll()  # the POLL_STRIDE-th call consults the clock


def test_ambient_stack_and_poll_current():
    assert Watchdog.current() is None
    Watchdog.poll_current()  # no-op with an empty stack

    clock = FakeClock()
    outer = Watchdog(deadline_ms=1000.0, clock=clock).push()
    inner = Watchdog(deadline_ms=10.0, clock=clock).push()
    try:
        assert Watchdog.current() is inner
        clock.now = 0.5  # inner expired, outer not
        with pytest.raises(WatchdogTimeout):
            Watchdog.poll_current()
    finally:
        inner.pop()
        assert Watchdog.current() is outer
        Watchdog.poll_current()  # outer still has 500ms left
        outer.pop()
    assert Watchdog.current() is None


def test_pop_tolerates_misnesting():
    a = Watchdog().push()
    b = Watchdog().push()
    a.pop()  # out of order
    assert Watchdog.current() is b
    b.pop()
    assert Watchdog.current() is None


def test_program_timeout_is_not_a_watchdog_timeout():
    # Containment scopes catch WatchdogTimeout but must pass
    # ProgramTimeout through to the batch worker.
    assert not issubclass(ProgramTimeout, WatchdogTimeout)
