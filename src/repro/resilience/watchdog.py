"""Wall-clock watchdogs for long-running phases.

A :class:`Watchdog` bounds one unit of work (a partition search, a
profiling run, a contained pipeline phase) by wall-clock deadline.  Two
usage styles:

* polling -- the search calls :meth:`Watchdog.expired` once per node
  and returns its best-so-far answer when the deadline passes (the
  *anytime* protocol: no exception, just a truncated-but-legal result);
* trapping -- interpreters and containment scopes call
  :meth:`Watchdog.poll`, which raises :class:`WatchdogTimeout` so the
  enclosing firewall converts the overrun into a structured
  degradation.

Clock reads are amortized: ``poll()`` only consults the clock every
:data:`POLL_STRIDE` calls, so a watchdog in an interpreter hot loop
costs one integer increment per instruction.

The active watchdog is also published on a stack
(:meth:`Watchdog.push` / :meth:`Watchdog.pop`, normally managed by
``repro.resilience.containment``) so deep helpers -- including the
fault injector's cooperative ``hang`` mode -- can honor the innermost
deadline via :meth:`Watchdog.poll_current` without threading the
object through every signature.
"""

from __future__ import annotations

import time
from typing import List, Optional

__all__ = [
    "POLL_STRIDE",
    "ProgramTimeout",
    "Watchdog",
    "WatchdogTimeout",
]

#: ``poll()`` consults the clock once per this many calls.
POLL_STRIDE = 256


class WatchdogTimeout(RuntimeError):
    """A watchdog's wall-clock deadline passed (degrades a phase)."""


class ProgramTimeout(RuntimeError):
    """A whole-program compilation overran ``--program-timeout``.

    Raised by the batch worker's SIGALRM handler.  Deliberately *not* a
    :class:`WatchdogTimeout`: containment scopes must let it pass
    through so the worker -- not a per-loop firewall -- decides on the
    degraded retry.
    """


#: Watchdogs currently active, innermost last.  The pipeline is
#: single-threaded per compilation (one process per batch worker), so a
#: plain module list is sufficient and keeps poll_current allocation-free.
_ACTIVE: List["Watchdog"] = []


class Watchdog:
    """One wall-clock guard."""

    __slots__ = ("deadline", "_clock", "_ticks")

    def __init__(self, deadline_ms: Optional[float] = None, clock=None):
        self._clock = clock or time.monotonic
        #: Absolute clock value after which the watchdog is expired
        #: (None = never expires by time).
        self.deadline: Optional[float] = (
            self._clock() + deadline_ms / 1000.0
            if deadline_ms is not None
            else None
        )
        self._ticks = 0

    # -- polling protocol (anytime consumers) ----------------------------

    def expired(self) -> bool:
        """True once the wall-clock deadline has passed."""
        return self.deadline is not None and self._clock() >= self.deadline

    # -- trapping protocol (firewalled consumers) -------------------------

    def check(self) -> None:
        """Raise :class:`WatchdogTimeout` if the deadline has passed."""
        if self.expired():
            raise WatchdogTimeout("watchdog deadline exceeded")

    def poll(self) -> None:
        """Amortized :meth:`check`: consults the clock every
        :data:`POLL_STRIDE` calls, for per-instruction call sites."""
        self._ticks += 1
        if self._ticks % POLL_STRIDE == 0:
            self.check()

    # -- ambient stack -----------------------------------------------------

    def push(self) -> "Watchdog":
        _ACTIVE.append(self)
        return self

    def pop(self) -> None:
        if _ACTIVE and _ACTIVE[-1] is self:
            _ACTIVE.pop()
        elif self in _ACTIVE:  # tolerate mis-nested teardown
            _ACTIVE.remove(self)

    @staticmethod
    def current() -> Optional["Watchdog"]:
        return _ACTIVE[-1] if _ACTIVE else None

    @staticmethod
    def poll_current() -> None:
        """Trap against the innermost active watchdog, if any."""
        if _ACTIVE:
            _ACTIVE[-1].check()

    def __repr__(self) -> str:
        remaining = (
            f"{self.deadline - self._clock():.3f}s left"
            if self.deadline is not None
            else "no deadline"
        )
        return f"Watchdog({remaining})"
