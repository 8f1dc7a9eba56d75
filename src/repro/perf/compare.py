"""Cross-run comparison over ledger records: diffs and the regression
verdict.

Records are aligned on :func:`match_key` -- kind x workload (name,
content hash, args, entry) x config fingerprint -- so a comparison
never confuses "the code got slower" with "we compiled something
else".  Two classes of metric are gated differently:

* **Deterministic metrics** -- simulated cycles and the search/
  selection/transform/spt counters -- are bit-stable across hosts and
  runs; *any* drift between matched records is a failure.
* **Wall-clock metrics** -- total wall time and per-phase self-times --
  are noisy.  They are gated with a relative threshold *and* an
  absolute floor (a 3x blowup of a 0.2 ms phase is measurement noise,
  not a regression), and only when both records came from the same
  host token.
"""

from __future__ import annotations

from dataclasses import dataclass, field
from typing import Dict, List, Optional, Sequence, Tuple

__all__ = [
    "CheckReport",
    "DETERMINISTIC_COUNTER_PREFIXES",
    "check_regression",
    "diff_text",
    "match_key",
]

#: Counters that must be bit-identical between matched runs.
DETERMINISTIC_COUNTER_PREFIXES = (
    "partition.",
    "selection.",
    "transform.",
    "unroll.",
    "spt.",
)

#: Default noise gates for wall-clock comparisons.
DEFAULT_WALL_THRESHOLD = 0.5   # fail beyond +50% ...
DEFAULT_FLOOR_MS = 25.0        # ... and beyond +25 ms absolute.


def match_key(record: Dict) -> Tuple:
    """The alignment key: what must agree for two records to be
    comparable."""
    workload = record.get("workload", {})
    return (
        record.get("kind"),
        workload.get("name"),
        workload.get("sha256"),
        tuple(workload.get("args") or ()),
        workload.get("entry"),
        record.get("fingerprint"),
    )


def _deterministic_counters(record: Dict) -> Dict[str, float]:
    return {
        name: value
        for name, value in record.get("counters", {}).items()
        if name.startswith(DETERMINISTIC_COUNTER_PREFIXES)
    }


def _fmt(value) -> str:
    if value is None:
        return "-"
    if isinstance(value, float):
        return f"{value:.2f}"
    return str(value)


def _delta(old, new) -> str:
    if old is None or new is None:
        return "-"
    diff = new - old
    if old:
        return f"{diff:+.2f} ({diff / old:+.1%})"
    return f"{diff:+.2f}"


def diff_text(old: Dict, new: Dict) -> str:
    """An aligned metric table between two ledger records."""
    from repro.report.tables import format_table

    header = (
        f"run {old.get('run_id')} ({old.get('kind')},"
        f" {old.get('workload', {}).get('name')})"
        f"  ->  run {new.get('run_id')}"
    )
    notes: List[str] = []
    if match_key(old) != match_key(new):
        notes.append(
            "note: records differ in kind/workload/fingerprint -- "
            "wall-clock deltas are not apples-to-apples"
        )
    if old.get("host") != new.get("host"):
        notes.append(
            f"note: different hosts ({old.get('host')} vs"
            f" {new.get('host')}) -- wall-clock deltas are indicative only"
        )

    rows: List[Tuple] = []
    rows.append(
        ("wall_s", _fmt(old.get("wall_s")), _fmt(new.get("wall_s")),
         _delta(old.get("wall_s"), new.get("wall_s")))
    )
    if old.get("cycles") is not None or new.get("cycles") is not None:
        rows.append(
            ("cycles", _fmt(old.get("cycles")), _fmt(new.get("cycles")),
             _delta(old.get("cycles"), new.get("cycles")))
        )
    old_phases = old.get("phase_self_ms", {})
    new_phases = new.get("phase_self_ms", {})
    for name in sorted(set(old_phases) | set(new_phases)):
        rows.append(
            (
                f"phase.{name} (ms)",
                _fmt(old_phases.get(name)),
                _fmt(new_phases.get(name)),
                _delta(old_phases.get(name), new_phases.get(name)),
            )
        )
    old_counters = _deterministic_counters(old)
    new_counters = _deterministic_counters(new)
    for name in sorted(set(old_counters) | set(new_counters)):
        rows.append(
            (
                name,
                _fmt(old_counters.get(name)),
                _fmt(new_counters.get(name)),
                _delta(old_counters.get(name), new_counters.get(name)),
            )
        )
    table = format_table(["metric", "old", "new", "delta"], rows, title=header)
    return "\n".join([table] + notes)


@dataclass
class CheckReport:
    """The outcome of one regression check."""

    ok: bool = True
    failures: List[str] = field(default_factory=list)
    warnings: List[str] = field(default_factory=list)
    compared: int = 0

    def fail(self, message: str) -> None:
        self.ok = False
        self.failures.append(message)

    def lines(self) -> List[str]:
        out = []
        for message in self.warnings:
            out.append(f"warning: {message}")
        for message in self.failures:
            out.append(f"FAIL: {message}")
        verdict = "PASS" if self.ok else "FAIL"
        out.append(
            f"perf check: {verdict}"
            f" ({self.compared} matched record pair(s),"
            f" {len(self.failures)} failure(s))"
        )
        return out


def _latest_by_key(records: Sequence[Dict]) -> Dict[Tuple, Dict]:
    latest: Dict[Tuple, Dict] = {}
    for record in records:
        latest[match_key(record)] = record
    return latest


def check_regression(
    baseline: Sequence[Dict],
    current: Sequence[Dict],
    *,
    wall_threshold: float = DEFAULT_WALL_THRESHOLD,
    floor_ms: float = DEFAULT_FLOOR_MS,
    gate_wall: Optional[bool] = None,
) -> CheckReport:
    """The noise-aware regression verdict between two record sets.

    Each current record is matched to the latest baseline record with
    the same :func:`match_key`; an unmatched record is a warning, but a
    check in which no record matched fails.  Deterministic metrics
    (cycles, the :data:`DETERMINISTIC_COUNTER_PREFIXES` counters) fail
    on any drift, and a deterministic counter of the baseline that the
    current record no longer reports fails too (one only the current
    record reports is a warning).
    Wall-clock metrics fail when they grew by more than
    ``wall_threshold`` relative *and* ``floor_ms`` absolute -- and are
    only gated when the two records share a host token (override with
    ``gate_wall``).
    """
    report = CheckReport()
    base_by_key = _latest_by_key(baseline)
    cur_by_key = _latest_by_key(current)
    if not cur_by_key:
        report.fail("no current records to check")
        return report

    for key, cur in sorted(cur_by_key.items(), key=lambda kv: str(kv[0])):
        base = base_by_key.get(key)
        name = f"{key[0]}:{key[1]}"
        if base is None:
            report.warnings.append(
                f"{name}: no baseline record for this workload/fingerprint"
            )
            continue
        report.compared += 1

        # -- deterministic metrics: any drift is a failure ------------
        if base.get("cycles") is not None and cur.get("cycles") is not None:
            if base["cycles"] != cur["cycles"]:
                report.fail(
                    f"{name}: simulated cycles drifted "
                    f"{base['cycles']:.0f} -> {cur['cycles']:.0f}"
                )
        base_counters = _deterministic_counters(base)
        cur_counters = _deterministic_counters(cur)
        for counter in sorted(base_counters):
            if counter not in cur_counters:
                report.fail(
                    f"{name}: counter {counter} vanished "
                    f"(baseline {base_counters[counter]:g})"
                )
            elif base_counters[counter] != cur_counters[counter]:
                report.fail(
                    f"{name}: counter {counter} drifted "
                    f"{base_counters[counter]:g} -> {cur_counters[counter]:g}"
                )
        for counter in sorted(set(cur_counters) - set(base_counters)):
            report.warnings.append(
                f"{name}: counter {counter} is new "
                f"({cur_counters[counter]:g}; not in the baseline)"
            )
        if base.get("degradations") != cur.get("degradations"):
            report.fail(
                f"{name}: degradation records changed "
                f"({len(base.get('degradations') or [])} -> "
                f"{len(cur.get('degradations') or [])})"
            )

        # -- wall-clock metrics: noise-gated, same-host only ----------
        same_host = base.get("host") == cur.get("host")
        wall_gated = same_host if gate_wall is None else gate_wall
        if not wall_gated:
            if not same_host:
                report.warnings.append(
                    f"{name}: baseline host differs; wall-time gating skipped"
                )
            continue
        base_wall = base.get("wall_s")
        cur_wall = cur.get("wall_s")
        if base_wall is not None and cur_wall is not None:
            grew = (cur_wall - base_wall) * 1e3
            if grew > floor_ms and cur_wall > base_wall * (1 + wall_threshold):
                report.fail(
                    f"{name}: wall time regressed "
                    f"{base_wall:.3f}s -> {cur_wall:.3f}s "
                    f"(+{cur_wall / base_wall - 1:.0%},"
                    f" threshold +{wall_threshold:.0%})"
                )
        base_phases = base.get("phase_self_ms", {})
        cur_phases = cur.get("phase_self_ms", {})
        for phase in sorted(set(base_phases) & set(cur_phases)):
            old_ms = base_phases[phase]
            new_ms = cur_phases[phase]
            if (new_ms - old_ms) > floor_ms and new_ms > old_ms * (
                1 + wall_threshold
            ):
                rel = f"+{new_ms / old_ms - 1:.0%}" if old_ms else "new"
                report.fail(
                    f"{name}: phase {phase!r} self-time regressed "
                    f"{old_ms:.1f}ms -> {new_ms:.1f}ms "
                    f"({rel}, threshold +{wall_threshold:.0%})"
                )
    if not report.compared:
        report.fail(
            f"no current record matched a baseline record "
            f"({len(cur_by_key)} unmatched): nothing was checked"
        )
    return report
