"""Phase firewalls: run one pipeline phase, contain anything it throws.

:func:`run_contained` is the single choke point every firewalled phase
goes through.  It arms the phase watchdog (when a deadline is
configured), fires any matching ``$REPRO_FAULT`` chaos spec, runs the
phase, and converts any escaping exception into a structured
:class:`~repro.resilience.degradation.DegradationRecord` -- the caller
gets ``(None, record)`` instead of a crash and degrades that one loop
(or phase) back to the sequential baseline the SPT model guarantees is
always legal.

Pass-through exceptions: :class:`~repro.resilience.watchdog.
ProgramTimeout` (the batch worker's whole-program SIGALRM) must reach
the worker loop, not be eaten by an inner firewall; ``KeyboardInterrupt``
and ``SystemExit`` derive from ``BaseException`` and are never caught.
"""

from __future__ import annotations

from contextlib import nullcontext
from typing import Callable, Optional, Tuple

from repro.obs.telemetry import NULL_TELEMETRY
from repro.resilience.degradation import DegradationRecord
from repro.resilience.faults import maybe_inject
from repro.resilience.watchdog import ProgramTimeout, Watchdog

__all__ = ["PASSTHROUGH", "run_contained"]

#: Exceptions a firewall must never contain.
PASSTHROUGH = (ProgramTimeout,)


def run_contained(
    phase: str,
    fn: Callable[[Optional[Watchdog]], object],
    *,
    telemetry=NULL_TELEMETRY,
    deadline_ms: Optional[float] = None,
    loop: Optional[str] = None,
    rung: Optional[str] = None,
    span: bool = True,
) -> Tuple[object, Optional[DegradationRecord]]:
    """Run ``fn(watchdog)`` inside the ``phase`` firewall.

    Returns ``(result, None)`` on success or ``(None, record)`` when a
    fault was contained.  ``fn`` receives the armed phase watchdog (or
    None when no ``deadline_ms`` is configured) so it can thread it
    into interpreters and searches; the same watchdog is also published
    on the ambient stack for :meth:`Watchdog.poll_current` callers.
    The firewall opens the ``phase`` span itself, unless ``span=False``
    says the caller already holds it open.
    """
    watchdog: Optional[Watchdog] = None
    if deadline_ms is not None:
        watchdog = Watchdog(deadline_ms=deadline_ms).push()
    attrs = {}
    if loop is not None:
        attrs["loop"] = loop
    if rung is not None:
        attrs["rung"] = rung
    try:
        with telemetry.span(phase, **attrs) if span else nullcontext():
            maybe_inject(phase)
            return fn(watchdog), None
    except PASSTHROUGH:
        raise
    except Exception as exc:  # noqa: BLE001 - the firewall's whole job
        record = DegradationRecord.from_exception(
            phase, exc, loop=loop, rung=rung
        )
        telemetry.record_degradation(record)
        return None, record
    finally:
        if watchdog is not None:
            watchdog.pop()
