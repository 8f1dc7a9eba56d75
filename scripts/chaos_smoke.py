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

A second matrix targets the snapshot store's IO sites
(``checkpoint.save``, ``checkpoint.restore``; raise, hang and torn
modes): ``repro simulate --checkpoint-every`` and its ``--resume-from
latest`` re-run must exit 0 under every fault and print the same
result line as a clean run -- a snapshot that cannot be saved or read
degrades to a cold start, never to a wrong answer.
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


#: Checkpoint IO faults: every one must be contained (exit 0) and the
#: simulated result must match the clean run.  Hangs at checkpoint
#: sites have no phase watchdog, so the injector's give-up cap (kept
#: short here) is what breaks them.
CHECKPOINT_MATRIX = [
    ("checkpoint.save:raise", "10"),
    ("checkpoint.save:torn", "10"),
    ("checkpoint.save:hang", "0.2"),
    ("checkpoint.restore:raise", "10"),
]


def run(cmd, fault, hang_s="10", capture=False):
    env = dict(os.environ)
    if fault is not None:
        env["REPRO_FAULT"] = fault
    # Backstop only: the armed phase deadline should break every hang
    # long before the injector gives up on its own.
    env["REPRO_FAULT_HANG_S"] = hang_s
    proc = subprocess.run(
        cmd, env=env, timeout=600, capture_output=capture, text=capture
    )
    if proc.returncode != 0:
        sys.exit(
            f"FAIL [{fault}]: {' '.join(cmd)} exited {proc.returncode}"
        )
    return proc.stdout if capture else None


def result_line(stdout, label):
    for line in stdout.splitlines():
        if line.startswith("result"):
            return line
    sys.exit(f"FAIL [{label}]: simulate printed no result line")


def checkpoint_chaos():
    """Checkpoint IO faults: contained, and never a wrong answer."""
    # nested.c selects SPT loops under the best config, so the
    # simulate runs exercise real snapshot traffic.
    program = os.path.join(CORPUS, "nested.c")
    with tempfile.TemporaryDirectory() as tmp:
        clean = result_line(
            run(
                [
                    sys.executable, "-m", "repro", "simulate", program,
                    "--config", "best", "--args", "96",
                ],
                None, capture=True,
            ),
            "clean",
        )
        for fault, hang_s in CHECKPOINT_MATRIX:
            ckpt = os.path.join(tmp, fault.replace(":", "-"))
            sim = result_line(
                run(
                    [
                        sys.executable, "-m", "repro", "simulate",
                        program, "--config", "best", "--args", "96",
                        "--checkpoint-every", "500",
                        "--checkpoint-dir", ckpt,
                    ],
                    fault, hang_s=hang_s, capture=True,
                ),
                fault,
            )
            if sim != clean:
                sys.exit(
                    f"FAIL [{fault}]: faulted simulate result {sim!r} "
                    f"!= clean {clean!r}"
                )
            resumed = result_line(
                run(
                    [
                        sys.executable, "-m", "repro", "simulate",
                        program, "--config", "best", "--args", "96",
                        "--checkpoint-every", "500",
                        "--resume-from", "latest",
                        "--checkpoint-dir", ckpt,
                    ],
                    fault, hang_s=hang_s, capture=True,
                ),
                fault,
            )
            if resumed != clean:
                sys.exit(
                    f"FAIL [{fault}]: faulted resume result {resumed!r} "
                    f"!= clean {clean!r}"
                )
            print(f"chaos OK [{fault}]: simulate + resume")


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

    checkpoint_chaos()
    print(
        f"chaos smoke passed: {len(MATRIX) + len(CHECKPOINT_MATRIX)} "
        f"fault specs"
    )


if __name__ == "__main__":
    main()
