#!/usr/bin/env python
"""The evaluation's numbers, pinned: every suite program under every
configuration preset, simulated and compared against a committed file.

For each ``<program>/<config>`` pair this records what the paper's
figures are drawn from: base cycles and instructions, the SPT run's
sequential cycles, the program's SPT cycles, the result, every
``SptLoopStats`` field of every simulated SPT loop, and the cycles the
SPT run spent in every loop it entered.  Floats are stored exactly (a
JSON float round-trips through ``repr``), so ``--check`` is a bitwise
comparison.

Run from the repository root::

    python scripts/suite_golden.py --check           # exit 1 on any drift
    python scripts/suite_golden.py --write           # regenerate the file

The full check simulates 30 pairs and takes a few minutes.
"""

from __future__ import annotations

import argparse
import json
import os
import sys
import time
from dataclasses import asdict
from typing import Dict, Iterable, List, Optional

ROOT = os.path.dirname(os.path.dirname(os.path.abspath(__file__)))
sys.path.insert(0, os.path.join(ROOT, "src"))

EXPECTED_PATH = os.path.join(
    ROOT, "tests", "golden", "expected", "suite_stats.json"
)


def entry_names() -> List[str]:
    """Every ``<program>/<config>`` pair, config-major."""
    from repro.benchsuite import SUITE
    from repro.core.config import CONFIG_FACTORIES

    return [
        f"{bench.name}/{config}"
        for config in CONFIG_FACTORIES
        for bench in SUITE
    ]


def suite_entry(name: str) -> Dict:
    """Run one ``<program>/<config>`` pair and distill its numbers."""
    from repro.benchsuite import BY_NAME
    from repro.report.experiments import evaluate

    program, config = name.split("/")
    run = evaluate(BY_NAME[program], config)
    return {
        "base_cycles": run.base_cycles,
        "base_instructions": run.base_instructions,
        "base_result": run.base_result_value,
        "result": run.result_value,
        "spt_run_cycles": run.spt_run_cycles,
        "program_spt_cycles": run.program_spt_cycles,
        "loops": [asdict(report.stats) for report in run.loops],
        "loop_cycles": {
            f"{func}:{header}": cycles
            for (func, header), cycles in sorted(run.spt_loop_cycles.items())
        },
    }


def compute(names: Iterable[str], log=None) -> Dict[str, Dict]:
    entries = {}
    for name in names:
        start = time.perf_counter()
        entries[name] = suite_entry(name)
        if log is not None:
            log(f"{name}: program_spt_cycles="
                f"{entries[name]['program_spt_cycles']:.2f} "
                f"({time.perf_counter() - start:.1f} s)")
    return entries


def differences(expected: Dict, actual: Dict) -> List[str]:
    """One line per value of ``actual`` that differs from ``expected``."""
    lines = []
    for name, got in actual.items():
        want = expected.get(name)
        if want is None:
            lines.append(f"{name}: no expected entry")
            continue
        for field in sorted(set(want) | set(got)):
            if want.get(field) != got.get(field):
                lines.append(
                    f"{name}: {field} expected {want.get(field)!r}, "
                    f"got {got.get(field)!r}"
                )
    return lines


def load_expected() -> Dict[str, Dict]:
    with open(EXPECTED_PATH) as handle:
        return json.load(handle)


def main(argv: Optional[List[str]] = None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    mode = parser.add_mutually_exclusive_group(required=True)
    mode.add_argument("--write", action="store_true",
                      help="simulate every pair and write the file")
    mode.add_argument("--check", action="store_true",
                      help="simulate and compare against the file")
    args = parser.parse_args(argv)

    names = entry_names()
    log = lambda line: print(line, flush=True)  # noqa: E731

    if args.write:
        entries = compute(names, log)
        with open(EXPECTED_PATH, "w") as handle:
            json.dump(entries, handle, indent=1, sort_keys=True)
            handle.write("\n")
        print(f"wrote {len(entries)} entries to {EXPECTED_PATH}")
        return 0

    expected = load_expected()
    missing = [name for name in names if name not in expected]
    if missing:
        print(f"FAIL: no expected entry for {', '.join(missing)}")
        return 1
    lines = differences(expected, compute(names, log))
    for line in lines:
        print(f"FAIL: {line}")
    if lines:
        return 1
    print(f"suite golden OK: {len(names)} pairs bit-identical")
    return 0


if __name__ == "__main__":
    sys.exit(main())
