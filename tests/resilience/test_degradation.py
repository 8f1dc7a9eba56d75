"""Unit tests for the degradation taxonomy and record serialization."""

import json

import pytest

from repro.core.transform import TransformError
from repro.profiling.interp import FuelExhausted
from repro.resilience.degradation import (
    ALL_KINDS,
    DegradationRecord,
    KIND_ANALYSIS_ERROR,
    KIND_PROFILE_BUDGET,
    KIND_RESOURCE_GUARD,
    KIND_SEARCH_BUDGET,
    KIND_TRANSFORM_ERROR,
    KIND_WATCHDOG_TIMEOUT,
    classify_exception,
)
from repro.resilience.faults import FaultInjected
from repro.resilience.watchdog import WatchdogTimeout


def test_taxonomy_is_closed_and_stable():
    assert ALL_KINDS == (
        "analysis_error",
        "search_budget",
        "profile_budget",
        "transform_error",
        "watchdog_timeout",
        "resource_guard",
    )


@pytest.mark.parametrize(
    "exc, kind",
    [
        (WatchdogTimeout("deadline"), KIND_WATCHDOG_TIMEOUT),
        (FuelExhausted("out of fuel"), KIND_PROFILE_BUDGET),
        (TransformError("loop refused"), KIND_TRANSFORM_ERROR),
        (RecursionError("max depth"), KIND_RESOURCE_GUARD),
        (MemoryError(), KIND_RESOURCE_GUARD),
        (ValueError("whatever"), KIND_ANALYSIS_ERROR),
        (KeyError("missing"), KIND_ANALYSIS_ERROR),
        (FaultInjected("chaos"), KIND_ANALYSIS_ERROR),
    ],
)
def test_classify_exception(exc, kind):
    assert classify_exception(exc) == kind
    assert kind in ALL_KINDS


def test_from_exception_captures_attribution():
    record = DegradationRecord.from_exception(
        "search",
        WatchdogTimeout("deadline exceeded"),
        loop="main:for_head",
        rung="small_budget",
    )
    assert record.phase == "search"
    assert record.kind == KIND_WATCHDOG_TIMEOUT
    assert record.error_type == "WatchdogTimeout"
    assert record.message == "deadline exceeded"
    assert record.loop == "main:for_head"
    assert record.rung == "small_budget"


def test_to_dict_is_deterministic_and_json_safe():
    record = DegradationRecord.from_exception(
        "depgraph", ValueError("boom"), loop="f:h"
    )
    first = record.to_dict()
    assert first == {
        "phase": "depgraph",
        "kind": KIND_ANALYSIS_ERROR,
        "loop": "f:h",
        "error_type": "ValueError",
        "message": "boom",
    }
    # Byte-stable across repeated serializations (manifests diff these).
    assert json.dumps(first, sort_keys=True) == json.dumps(
        record.to_dict(), sort_keys=True
    )


def test_to_dict_omits_unset_fields():
    record = DegradationRecord(
        phase="search", kind=KIND_SEARCH_BUDGET, message="budget"
    )
    assert record.to_dict() == {
        "phase": "search",
        "kind": KIND_SEARCH_BUDGET,
        "message": "budget",
    }


def test_str_rendering():
    record = DegradationRecord.from_exception(
        "transform", TransformError("nope"), loop="main:L", rung="full"
    )
    assert str(record) == (
        "transform/transform_error [main:L] (rung: full): nope"
    )
