"""Unit tests for the ``$REPRO_FAULT`` chaos-injection hook."""

import time

import pytest

from repro.resilience.faults import (
    FAULT_ENV_VAR,
    HANG_ENV_VAR,
    FaultInjected,
    maybe_inject,
    parse_fault_specs,
    reset_fault_state,
)
from repro.resilience.watchdog import Watchdog, WatchdogTimeout


def test_parse_fault_specs_grammar():
    assert parse_fault_specs("search:raise") == [("search", "raise", None)]
    assert parse_fault_specs("search:raise:2, transform:hang") == [
        ("search", "raise", "2"),
        ("transform", "hang", None),
    ]
    assert parse_fault_specs("profile:slow:0.2") == [
        ("profile", "slow", "0.2")
    ]


@pytest.mark.parametrize(
    "raw",
    [
        "",
        "search",  # no mode
        "search:explode",  # unknown mode
        "search:torn",  # retired mode
        ":raise",  # empty phase
        "a:raise:b:c",  # too many fields
        ",,",
    ],
)
def test_malformed_specs_are_ignored(raw):
    # A typo in a chaos env var must never take the compiler down.
    assert parse_fault_specs(raw) == []


def test_disabled_injection_is_a_noop(monkeypatch):
    monkeypatch.delenv(FAULT_ENV_VAR, raising=False)
    maybe_inject("search")  # nothing armed, nothing raised


def test_raise_mode_unbounded(monkeypatch):
    monkeypatch.setenv(FAULT_ENV_VAR, "search:raise")
    for _ in range(3):
        with pytest.raises(FaultInjected):
            maybe_inject("search")
    maybe_inject("transform")  # other phases unaffected


def test_raise_mode_bounded_fire_count(monkeypatch):
    monkeypatch.setenv(FAULT_ENV_VAR, "search:raise:2")
    with pytest.raises(FaultInjected):
        maybe_inject("search")
    with pytest.raises(FaultInjected):
        maybe_inject("search")
    maybe_inject("search")  # bounded fault is spent after 2 fires


def test_reset_fault_state_rearms_bounded_faults(monkeypatch):
    monkeypatch.setenv(FAULT_ENV_VAR, "search:raise:1")
    with pytest.raises(FaultInjected):
        maybe_inject("search")
    maybe_inject("search")
    reset_fault_state()
    with pytest.raises(FaultInjected):
        maybe_inject("search")


def test_slow_mode_sleeps(monkeypatch):
    monkeypatch.setenv(FAULT_ENV_VAR, "search:slow:0.05")
    started = time.monotonic()
    maybe_inject("search")
    assert time.monotonic() - started >= 0.04


def test_hang_mode_is_cooperative(monkeypatch):
    # A hang under an active phase watchdog is broken by WatchdogTimeout
    # (which the enclosing firewall then contains).
    monkeypatch.setenv(FAULT_ENV_VAR, "search:hang")
    monkeypatch.setenv(HANG_ENV_VAR, "10")
    dog = Watchdog(deadline_ms=50.0).push()
    try:
        started = time.monotonic()
        with pytest.raises(WatchdogTimeout):
            maybe_inject("search")
        assert time.monotonic() - started < 5.0
    finally:
        dog.pop()


def test_hang_mode_gives_up_after_limit(monkeypatch):
    # With no watchdog active the hang wedges visibly but not forever.
    monkeypatch.setenv(FAULT_ENV_VAR, "search:hang")
    monkeypatch.setenv(HANG_ENV_VAR, "0.1")
    started = time.monotonic()
    maybe_inject("search")
    elapsed = time.monotonic() - started
    assert 0.08 <= elapsed < 5.0
