#!/usr/bin/env python
"""Serve smoke for CI: the daemon must match the CLI and stay warm.

The end-to-end acceptance check for compilation-as-a-service:

1. build the CLI reference manifest (a real ``repro batch --manifest``
   subprocess over the golden corpus);
2. start a ``repro serve`` daemon (4 warm workers, fresh caches) and
   run the corpus through it **twice**;
3. assemble both served passes into canonical manifests and ``cmp``
   them byte-for-byte against the CLI manifest;
4. assert the second pass was served warm: every request answered from
   the memory tier, cache hit rate >= 90%;
5. shut the daemon down gracefully and assert exit code 0.

Writes ``serve_manifest.json`` (the served manifest, for the CI
artifact) next to the CLI's ``manifest1.json`` siblings.
"""

import json
import os
import subprocess
import sys
import tempfile

REPO_ROOT = os.path.dirname(os.path.dirname(os.path.abspath(__file__)))
SRC_DIR = os.path.join(REPO_ROOT, "src")
if SRC_DIR not in sys.path:
    sys.path.insert(0, SRC_DIR)

from repro.batch import build_manifest, manifest_to_bytes  # noqa: E402
from repro.core.config import best_config  # noqa: E402
from repro.serve.client import start_daemon  # noqa: E402

CORPUS = os.path.join("tests", "golden", "corpus")
CONFIG = "best"
ARGS = [96]
ENTRY = "main"
FUEL = 50_000_000
WORKERS = 4


def daemon_env():
    python_path = SRC_DIR
    inherited = os.environ.get("PYTHONPATH")
    if inherited:
        python_path = python_path + os.pathsep + inherited
    return {
        "PYTHONPATH": python_path,
        "REPRO_FAULT": "",
        "REPRO_BATCH_CRASH_ON": "",
        "REPRO_CACHE_DIR": "",
    }


def corpus_requests():
    requests = []
    for name in sorted(os.listdir(CORPUS)):
        if not name.endswith(".c"):
            continue
        with open(os.path.join(CORPUS, name), encoding="utf-8") as handle:
            source = handle.read()
        requests.append(
            {
                "source": source,
                "path": name,
                "config": CONFIG,
                "entry": ENTRY,
                "args": list(ARGS),
                "fuel": FUEL,
            }
        )
    return requests


def served_manifest_bytes(responses):
    entries = [response["entry"] for response in responses]
    return manifest_to_bytes(
        build_manifest(
            entries, CONFIG, best_config().fingerprint(), ENTRY, ARGS, FUEL
        )
    )


def main():
    requests = corpus_requests()
    with tempfile.TemporaryDirectory(prefix="serve-smoke-") as scratch:
        cli_manifest_path = os.path.join(scratch, "cli_manifest.json")
        completed = subprocess.run(
            [
                sys.executable, "-m", "repro", "batch", CORPUS,
                "--jobs", "2",
                "--config", CONFIG,
                "--args", ",".join(str(a) for a in ARGS),
                "--cache-dir", os.path.join(scratch, "cli-cache"),
                "--manifest", cli_manifest_path,
                "--quiet",
            ],
            timeout=600,
        )
        if completed.returncode != 0:
            sys.exit("FAIL: CLI reference batch exited nonzero")
        with open(cli_manifest_path, "rb") as handle:
            cli_manifest = handle.read()

        with start_daemon(
            workers=WORKERS,
            cache_dir=os.path.join(scratch, "serve-cache"),
            env=daemon_env(),
        ) as daemon:
            first = [daemon.client.compile(params) for params in requests]
            second = [daemon.client.compile(params) for params in requests]
            health = daemon.client.healthz()
        exit_code = daemon.returncode

    for label, responses in (("cold", first), ("warm", second)):
        served = served_manifest_bytes(responses)
        if served != cli_manifest:
            sys.exit(
                f"FAIL: {label} served manifest differs from the CLI "
                f"manifest (byte identity broken)"
            )

    warm_tiers = [response["serve"]["tier"] for response in second]
    warm_hits = [tier for tier in warm_tiers if tier in ("memory", "disk")]
    hit_rate = len(warm_hits) / len(warm_tiers)
    if hit_rate < 0.9:
        sys.exit(
            f"FAIL: warm hit rate {hit_rate:.2f} < 0.9 "
            f"(tiers: {warm_tiers})"
        )
    if health["pool"]["crashes"] != 0:
        sys.exit(f"FAIL: unexpected worker crashes: {health['pool']}")
    if exit_code != 0:
        sys.exit(f"FAIL: daemon exited {exit_code}, not 0")

    with open("serve_manifest.json", "wb") as handle:
        handle.write(served_manifest_bytes(second))
    warm_ms = [response["serve"]["wall_ms"] for response in second]
    print(
        "serve smoke OK: served manifests byte-identical to CLI "
        f"({len(requests)} programs x 2 passes), warm hit rate "
        f"{hit_rate:.2f}, warm mean {sum(warm_ms) / len(warm_ms):.2f} ms, "
        f"clean shutdown (exit 0)"
    )
    print(json.dumps(health["pool"], sort_keys=True))


if __name__ == "__main__":
    main()
