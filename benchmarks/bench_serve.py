"""Load test of the ``repro serve`` warm-worker daemon.

Quantifies the two numbers the serving tier exists for, against the
same golden corpus the differential battery diffs:

* **effective parallel speedup** -- wall time for N single-shot
  ``repro compile`` subprocesses (each paying the full interpreter
  import + pipeline warm-up) versus the same N programs compiled
  concurrently against a 4-worker daemon with cold caches;
* **warm-path latency** -- client-observed p50/p90/p99 over a few
  hundred requests served from the in-memory LRU tier.

Emits ``BENCH_serve.json`` (a trajectory entry, like every benchmark
artifact) and asserts the ROADMAP acceptance floors: speedup > 3x at
4 workers, warm p50 < 10 ms.
"""

import os
import subprocess
import sys
import threading
import time

from conftest import emit_json

from repro.serve.client import start_daemon

REPO_ROOT = os.path.abspath(os.path.join(os.path.dirname(__file__), ".."))
SRC_DIR = os.path.join(REPO_ROOT, "src")
CORPUS_DIR = os.path.join(REPO_ROOT, "tests", "golden", "corpus")

CONFIG = "best"
ARGS = [96]
WORKERS = 4
WARM_REQUESTS = 240


def _daemon_env():
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


def _corpus():
    out = []
    for name in sorted(os.listdir(CORPUS_DIR)):
        if not name.endswith(".c"):
            continue
        with open(os.path.join(CORPUS_DIR, name), encoding="utf-8") as f:
            out.append((name, f.read()))
    return out


def _params(name, source):
    return {
        "source": source,
        "path": name,
        "config": CONFIG,
        "args": list(ARGS),
    }


def _percentile(samples, q):
    ordered = sorted(samples)
    index = min(len(ordered) - 1, max(0, round(q * (len(ordered) - 1))))
    return ordered[index]


def test_serve_load(tmp_path):
    corpus = _corpus()
    env = dict(os.environ)
    env.update(_daemon_env())

    # -- baseline: one cold CLI process per program, sequential --------
    cli_seconds = []
    for name, _source in corpus:
        started = time.perf_counter()
        completed = subprocess.run(
            [
                sys.executable, "-m", "repro", "compile",
                os.path.join(CORPUS_DIR, name),
                "--config", CONFIG,
                "--args", ",".join(str(a) for a in ARGS),
            ],
            env=env,
            capture_output=True,
            timeout=300,
        )
        cli_seconds.append(time.perf_counter() - started)
        assert completed.returncode == 0, completed.stderr.decode()
    cli_total_s = sum(cli_seconds)

    with start_daemon(
        workers=WORKERS,
        cache_dir=str(tmp_path / "cache"),
        env=_daemon_env(),
    ) as daemon:
        # -- cold pass: all programs concurrently against 4 workers ----
        cold_wall_ms = [None] * len(corpus)
        failures = []

        def compile_one(index):
            name, source = corpus[index]
            client = daemon.new_client()
            try:
                started = time.perf_counter()
                response = client.compile(_params(name, source))
                cold_wall_ms[index] = (
                    time.perf_counter() - started
                ) * 1e3
                if response["entry"]["status"] != "ok":
                    failures.append(response["entry"])
                if response["serve"]["tier"] != "compute":
                    failures.append(response["serve"])
            finally:
                client.close()

        threads = [
            threading.Thread(target=compile_one, args=(index,))
            for index in range(len(corpus))
        ]
        cold_started = time.perf_counter()
        for thread in threads:
            thread.start()
        for thread in threads:
            thread.join(timeout=300)
        cold_total_s = time.perf_counter() - cold_started
        assert not failures, failures
        assert all(sample is not None for sample in cold_wall_ms)

        # -- warm pass: client-observed latency off the memory tier ----
        client = daemon.client
        warm_ms = []
        for request_index in range(WARM_REQUESTS):
            name, source = corpus[request_index % len(corpus)]
            started = time.perf_counter()
            response = client.compile(_params(name, source))
            warm_ms.append((time.perf_counter() - started) * 1e3)
            assert response["serve"]["tier"] == "memory"
        metrics = daemon.client.metrics()
        health = daemon.client.healthz()

    parallel_speedup = cli_total_s / cold_total_s
    warm_p50 = _percentile(warm_ms, 0.50)
    warm_p90 = _percentile(warm_ms, 0.90)
    warm_p99 = _percentile(warm_ms, 0.99)

    payload = {
        "schema": "repro-bench-serve/1",
        "workers": WORKERS,
        "programs": len(corpus),
        "config": CONFIG,
        "args": ARGS,
        "single_shot_cli": {
            "per_program_s": [round(s, 4) for s in cli_seconds],
            "total_s": round(cli_total_s, 4),
        },
        "served_cold": {
            "total_s": round(cold_total_s, 4),
            "per_request_ms": [round(ms, 3) for ms in cold_wall_ms],
        },
        "served_warm": {
            "requests": WARM_REQUESTS,
            "p50_ms": round(warm_p50, 3),
            "p90_ms": round(warm_p90, 3),
            "p99_ms": round(warm_p99, 3),
            "mean_ms": round(sum(warm_ms) / len(warm_ms), 3),
            "memory_hit_rate": health["memory_cache"]["hit_rate"],
        },
        "parallel_speedup": round(parallel_speedup, 3),
        "daemon": {
            "exit_code": daemon.returncode,
            "pool": health["pool"],
            "responses": metrics["counters"].get("serve.responses", 0),
        },
    }
    path = emit_json("BENCH_serve", payload)
    print(
        f"\nserve: {parallel_speedup:.1f}x parallel speedup over "
        f"single-shot CLI at {WORKERS} workers; warm p50 "
        f"{warm_p50:.2f} ms, p99 {warm_p99:.2f} ms -> {path}"
    )

    # ROADMAP acceptance floors for the serving tier.
    assert daemon.returncode == 0
    assert parallel_speedup > 3.0, payload
    assert warm_p50 < 10.0, payload
