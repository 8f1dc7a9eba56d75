#!/usr/bin/env python
"""Chaos smoke for CI: the compiler must never abort under injected faults.

Runs the golden corpus through ``repro batch --jobs 4`` (and one
``repro compile``) under a ``$REPRO_FAULT`` matrix -- raise and hang
faults in the search, transform and profiling phases -- and asserts:

* every invocation exits 0 (faults are contained, never fatal);
* the manifest has an entry for every corpus program;
* the stats document reports ``degradations > 0`` (each injected
  fault became a typed DegradationRecord, not silence).

Hang faults run with a phase deadline armed, so the watchdog -- not
the injector's give-up cap -- is what breaks them.
"""

import json
import os
import subprocess
import sys
import tempfile

#: The golden corpus, found from this script's location (any working
#: directory will do).
CORPUS = os.path.join(
    os.path.dirname(os.path.dirname(os.path.abspath(__file__))),
    "tests", "golden", "corpus",
)

#: (fault spec, extra CLI flags) -- raise and hang in each phase the
#: acceptance matrix names.
MATRIX = [
    ("search:raise", []),
    ("transform:raise", []),
    ("profile:raise", []),
    ("search:hang", ["--phase-deadline-ms", "250"]),
    ("transform:hang", ["--phase-deadline-ms", "250"]),
    ("profile:hang", ["--phase-deadline-ms", "250"]),
]


def run(cmd, fault):
    env = dict(os.environ)
    env["REPRO_FAULT"] = fault
    # Backstop only: the armed phase deadline should break every hang
    # long before the injector gives up on its own.
    env["REPRO_FAULT_HANG_S"] = "10"
    proc = subprocess.run(cmd, env=env, timeout=600)
    if proc.returncode != 0:
        sys.exit(
            f"FAIL [{fault}]: {' '.join(cmd)} exited {proc.returncode}"
        )


def main():
    programs = sorted(
        name for name in os.listdir(CORPUS) if name.endswith(".c")
    )
    if not programs:
        sys.exit(f"no corpus programs under {CORPUS}")

    for fault, extra in MATRIX:
        with tempfile.TemporaryDirectory() as tmp:
            manifest_path = os.path.join(tmp, "manifest.json")
            stats_path = os.path.join(tmp, "stats.json")
            run(
                [
                    sys.executable, "-m", "repro", "batch", CORPUS,
                    "--jobs", "4", "--args", "96", "--no-cache",
                    "--manifest", manifest_path,
                    "--stats-out", stats_path,
                ] + extra,
                fault,
            )
            manifest = json.load(open(manifest_path))
            stats = json.load(open(stats_path))

        entries = {p["path"] for p in manifest["programs"]}
        missing = [name for name in programs if name not in entries]
        if missing:
            sys.exit(f"FAIL [{fault}]: no manifest entry for {missing}")
        degradations = stats.get("degradations", 0)
        if degradations <= 0:
            sys.exit(
                f"FAIL [{fault}]: expected contained degradations in "
                f"stats, got {degradations}"
            )
        print(
            f"chaos OK [{fault}]: {len(entries)} programs, "
            f"{degradations} contained degradation(s)"
        )

    # Single-program path: repro compile must also survive the chaos.
    run(
        [
            sys.executable, "-m", "repro", "compile",
            os.path.join(CORPUS, "histogram.c"), "--args", "96",
        ],
        "search:raise",
    )
    print("chaos OK [search:raise]: repro compile exited 0")
    print(f"chaos smoke passed: {len(MATRIX)} fault specs")


if __name__ == "__main__":
    main()
