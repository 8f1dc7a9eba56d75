"""Chaos-engineering fault injection (``$REPRO_FAULT``).

Generalizes the batch layer's ``$REPRO_BATCH_CRASH_ON`` hook (which
simulates hard process deaths) to *in-process* faults targeted at
individual firewalled phases.  The spec grammar is::

    REPRO_FAULT = spec[,spec...]
    spec        = phase ":" mode [":" arg]
    mode        = "raise" | "hang" | "slow"

``phase`` names a containment scope ("profile", "depgraph", "search",
"svp", "transform", "region_splits").  Modes:

``raise``
    Raise :class:`FaultInjected` at phase entry.  ``arg`` bounds how
    many times the fault fires in this process (default: unbounded) --
    a bounded fault lets tests watch the degradation ladder *recover*
    on a later rung.
``hang``
    Busy-wait inside the phase.  The hang is cooperative: it traps
    against the innermost active :class:`~repro.resilience.watchdog.
    Watchdog` (raising ``WatchdogTimeout`` for the firewall to
    contain) and gives up after ``$REPRO_FAULT_HANG_S`` seconds
    (default 60) so an unguarded run wedges visibly but not forever.
    An *uncooperative* hang -- one only a SIGALRM program timeout can
    break -- is what the hang looks like to a worker with no phase
    deadline configured.
``slow``
    Sleep ``arg`` seconds (default 0.05) at phase entry, for deadline
    and anytime-search tests.

Injection sites call :func:`maybe_inject` with their phase name; the
disabled path is one environment lookup.
"""

from __future__ import annotations

import os
import time
from typing import Dict, List, Optional, Tuple

from repro.resilience.watchdog import Watchdog

__all__ = [
    "FAULT_ENV_VAR",
    "FaultInjected",
    "HANG_ENV_VAR",
    "maybe_inject",
    "parse_fault_specs",
    "reset_fault_state",
]

FAULT_ENV_VAR = "REPRO_FAULT"
HANG_ENV_VAR = "REPRO_FAULT_HANG_S"

_MODES = ("raise", "hang", "slow")


class FaultInjected(RuntimeError):
    """The synthetic failure ``REPRO_FAULT=<phase>:raise`` raises."""


#: Per-process fire counts per (phase, mode, arg) spec, so bounded
#: ``raise`` specs can stop firing after N injections.
_fired: Dict[Tuple[str, str, Optional[str]], int] = {}


def reset_fault_state() -> None:
    """Forget fire counts (tests re-arming bounded faults)."""
    _fired.clear()


def parse_fault_specs(raw: str) -> List[Tuple[str, str, Optional[str]]]:
    """Parse a ``REPRO_FAULT`` value into (phase, mode, arg) triples.

    Malformed specs are ignored rather than raised: a typo in a chaos
    environment variable must not itself take the compiler down."""
    specs: List[Tuple[str, str, Optional[str]]] = []
    for part in raw.split(","):
        part = part.strip()
        if not part:
            continue
        fields = part.split(":")
        if len(fields) < 2 or len(fields) > 3:
            continue
        phase, mode = fields[0], fields[1]
        if not phase or mode not in _MODES:
            continue
        specs.append((phase, mode, fields[2] if len(fields) == 3 else None))
    return specs


def _hang() -> None:
    limit = 60.0
    raw = os.environ.get(HANG_ENV_VAR)
    if raw:
        try:
            limit = float(raw)
        except ValueError:
            pass
    end = time.monotonic() + limit
    while time.monotonic() < end:
        # Cooperative: an active phase watchdog breaks the hang with
        # WatchdogTimeout; a SIGALRM program timeout breaks the sleep.
        Watchdog.poll_current()
        time.sleep(0.01)


def maybe_inject(phase: str) -> None:
    """Fire any ``REPRO_FAULT`` spec matching ``phase``.

    Called at the entry of every containment scope; does nothing (one
    env lookup) unless the variable is set."""
    raw = os.environ.get(FAULT_ENV_VAR)
    if not raw:
        return
    for spec in parse_fault_specs(raw):
        spec_phase, mode, arg = spec
        if spec_phase != phase:
            continue
        if mode == "raise":
            limit = None
            if arg is not None:
                try:
                    limit = int(arg)
                except ValueError:
                    limit = None
            count = _fired.get(spec, 0)
            if limit is not None and count >= limit:
                continue
            _fired[spec] = count + 1
            raise FaultInjected(
                f"injected fault in phase {phase!r} "
                f"(fire {count + 1}"
                + (f"/{limit})" if limit is not None else ")")
            )
        if mode == "hang":
            _fired[spec] = _fired.get(spec, 0) + 1
            _hang()
        elif mode == "slow":
            delay = 0.05
            if arg is not None:
                try:
                    delay = float(arg)
                except ValueError:
                    pass
            _fired[spec] = _fired.get(spec, 0) + 1
            time.sleep(delay)
