#!/usr/bin/env python
"""Resume smoke for CI: SIGKILL a batch mid-run, resume, byte-identical.

``repro batch --jobs 4 --resume`` over the golden corpus is SIGKILLed
once the journal holds at least one finished entry; the resumed run
must exit 0, report journal-resumed programs, and write a manifest
**byte-identical** (``cmp``-equal) to an uninterrupted run's.

On any failure the working directory (journal, manifests) is copied to
``resume-smoke-artifacts/`` for the CI artifact upload, then the
script exits non-zero.
"""

import glob
import os
import shutil
import subprocess
import sys
import tempfile
import time

#: The golden corpus, found from this script's location (any working
#: directory will do).
CORPUS = os.path.join(
    os.path.dirname(os.path.dirname(os.path.abspath(__file__))),
    "tests", "golden", "corpus",
)
ARTIFACTS = "resume-smoke-artifacts"


def fail(tmp, message):
    if os.path.isdir(ARTIFACTS):
        shutil.rmtree(ARTIFACTS)
    shutil.copytree(tmp, ARTIFACTS)
    sys.exit(f"FAIL: {message}  (state copied to {ARTIFACTS}/)")


def run(cmd, check=True):
    proc = subprocess.run(cmd, capture_output=True, text=True, timeout=600)
    if check and proc.returncode != 0:
        sys.stderr.write(proc.stdout + proc.stderr)
        sys.exit(f"FAIL: {' '.join(cmd)} exited {proc.returncode}")
    return proc


def kill_when(process, condition, timeout_s=60.0):
    """SIGKILL ``process`` as soon as ``condition()`` holds; returns
    True if the kill landed before the process finished on its own."""
    deadline = time.monotonic() + timeout_s
    while time.monotonic() < deadline:
        if process.poll() is not None:
            return False
        if condition():
            process.kill()
            process.wait()
            return True
        time.sleep(0.01)
    process.kill()
    process.wait()
    return False


def batch_smoke(tmp):
    journal_dir = os.path.join(tmp, "journal")
    reference = os.path.join(tmp, "manifest-reference.json")
    resumed_path = os.path.join(tmp, "manifest-resumed.json")
    base = [
        sys.executable, "-m", "repro", "batch", CORPUS,
        "--jobs", "4", "--args", "96", "--no-cache",
    ]
    run(base + ["--manifest", reference])

    resume_cmd = base + [
        "--resume", "--journal-dir", journal_dir,
        "--manifest", resumed_path,
    ]
    killed = False
    for _ in range(5):
        process = subprocess.Popen(
            resume_cmd, stdout=subprocess.DEVNULL, stderr=subprocess.DEVNULL
        )
        journals = lambda: glob.glob(  # noqa: E731
            os.path.join(journal_dir, "v1", "*.journal")
        )
        killed = kill_when(
            process,
            lambda: any(
                os.path.getsize(path) > 0 for path in journals()
            ),
        )
        if killed:
            break
        # Finished before the kill landed: wipe and try a fresh journal.
        for path in journals():
            os.remove(path)
        if os.path.exists(resumed_path):
            os.remove(resumed_path)
    if not killed:
        print("resume smoke: batch kept finishing before SIGKILL")

    proc = run(resume_cmd)
    if killed and "resumed from journal" not in proc.stdout:
        fail(tmp, "resumed batch did not report journal-resumed programs")
    if run(["cmp", reference, resumed_path], check=False).returncode != 0:
        fail(
            tmp,
            "resumed batch manifest is not byte-identical to the "
            "uninterrupted run's",
        )
    print(
        f"resume smoke OK: batch SIGKILL(killed={killed}) + --resume, "
        f"manifest byte-identical"
    )


def main():
    with tempfile.TemporaryDirectory() as tmp:
        batch_smoke(tmp)
    print("resume smoke passed")


if __name__ == "__main__":
    main()
