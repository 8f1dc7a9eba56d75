"""Run one benchmark workload at one seed and print its metrics.

Run from the repository root::

    python3 perfbench/run.py --workload cli-simulate --seed 1 --seconds 15 --trace 0

Prints one row per op, a summary line, the unscaled times, a host line,
and as its last line one JSON object
``{"correct", "attempted", "failed", "metrics"}``:
the end-to-end metrics with ``--trace 0``, the per-layer metrics with
``--trace 1``.  See README.md in this directory for the workloads and
every metric.
"""

from __future__ import annotations

import argparse
import contextlib
import functools
import json
import math
import os
import platform
import resource
import shutil
import statistics
import subprocess
import sys
import tempfile
import time
import traceback

BENCH_DIR = os.path.dirname(os.path.abspath(__file__))
ROOT = os.path.dirname(BENCH_DIR)
SRC = os.path.join(ROOT, "src")
WORK = os.path.join(ROOT, ".perfbench_work")

#: The op tail is the highest percentile with at least this many ops
#: beyond it.
TAIL_BEYOND = 10

#: Fresh-interpreter import probes per run for setup_s: half run before
#: the timed section and half after it, so that one burst of host load
#: cannot slow all of them.
IMPORT_PROBES = 6

#: Iterations of the host-speed kernel run before every timed call, and
#: the kernel's time in ms on the reference host (a quiet 2-core host).
#: Every end-to-end time is scaled to that host's speed.
KERNEL_ITERATIONS = 100_000
KERNEL_REF_MS = 6.0


def metric_specs() -> dict:
    """BENCHMARK.json's ``end_to_end`` and ``per_layer`` lists: every
    metric name and unit is defined there only."""
    with open(os.path.join(ROOT, "BENCHMARK.json")) as handle:
        spec = json.load(handle)
    return {"end_to_end": spec["end_to_end"], "per_layer": spec["per_layer"]}


def kernel_ms(iterations: int = KERNEL_ITERATIONS) -> float:
    """A fixed pure-Python kernel's time: how fast the host runs
    interpreted code right now."""
    start = time.perf_counter()
    total = 0
    for i in range(iterations):
        total += i * i
    return (time.perf_counter() - start) * 1e3


def scaled(seconds, kernels):
    """``seconds[i]`` scaled to the reference host's speed.  ``kernels``
    holds one kernel time taken before each call and one after the last;
    call ``i`` is scaled by the median of the kernel times just before
    it, just after it and before the call preceding it, so one jittery
    kernel sample cannot skew it.

    The host this benchmark was built on ran the same work up to twice as
    slow for tens of seconds at a time, and the kernel slowed with it."""
    return [s * KERNEL_REF_MS / statistics.median(kernels[max(0, i - 1):i + 2])
            for i, s in enumerate(seconds)]


def timed_calls(calls):
    """Run ``calls`` in turn; ``(raw seconds, scaled seconds)`` of each."""
    seconds, kernels = [], []
    for call in calls:
        kernels.append(kernel_ms())
        begin = time.perf_counter()
        call()
        seconds.append(time.perf_counter() - begin)
    kernels.append(kernel_ms())
    return seconds, scaled(seconds, kernels)


def tail(values):
    """``(percentile, value)``: the highest nearest-rank percentile with
    at least TAIL_BEYOND values beyond it (the median when there are too
    few values for that)."""
    ordered = sorted(values)
    rank = len(ordered) - TAIL_BEYOND
    if rank < (len(ordered) + 1) // 2:
        return 50, statistics.median(ordered)
    return 100 * rank // len(ordered), ordered[rank - 1]


def geomean(values) -> float:
    return math.exp(statistics.fmean(math.log(v) for v in values)) if values else 0.0


def import_probe(modules) -> None:
    """Start a fresh interpreter that imports ``modules``."""
    subprocess.run(
        [sys.executable, "-c", "import " + ", ".join(modules)],
        env=dict(os.environ, PYTHONPATH=SRC), check=True,
        stdout=subprocess.DEVNULL)


def peak_rss_mb() -> float:
    """Peak RSS of this process or its largest child, whichever is larger."""
    kib = max(resource.getrusage(resource.RUSAGE_SELF).ru_maxrss,
              resource.getrusage(resource.RUSAGE_CHILDREN).ru_maxrss)
    return kib / 1024


def parse_args(argv):
    parser = argparse.ArgumentParser(description=__doc__.split("\n")[0])
    parser.add_argument("--workload", required=True,
                        choices=("suite-eval", "cli-simulate", "batch-rerun"))
    parser.add_argument("--seed", type=int, default=1)
    parser.add_argument("--seconds", type=float, default=15.0,
                        help="the timed section runs as many whole passes "
                             "as fit in this long on a 2-core host, and at "
                             "least two")
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    parser.add_argument("--small", action="store_true",
                        help="reduced inputs and a fixed op count, for the "
                             "exact-count test")
    return parser.parse_args(argv)


def run(args, tmp: str) -> dict:
    calib_before = kernel_ms(1_000_000)
    start = time.perf_counter()
    import repro.cli  # noqa: F401  (timed: cli.import_s)
    import_s = time.perf_counter() - start

    from tracing import Recorder, install, layer_metrics, layer_table
    from workloads import WORKLOADS

    rec = None
    if args.trace:
        rec = Recorder(WORK)
        install(rec)
    workload = WORKLOADS[args.workload](args.seed, small=args.small)

    directories = [os.path.join(tmp, f"setup{k}")
                   for k in range(workload.setup_repeats)]
    for directory in directories:
        os.makedirs(directory)
    raw_setups, setups = timed_calls(
        [functools.partial(workload.setup, d) for d in directories])
    modules = sorted(name for name in sys.modules
                     if name.startswith("repro") and "__main__" not in name)
    probe = functools.partial(import_probe, modules)
    raw_probes, probes = timed_calls([probe] * (IMPORT_PROBES // 2))

    # Closed loop, one op at a time, in whole passes over the schedule:
    # as many as fit in --seconds on a 2-core host, and at least two, so
    # every op is timed twice.  The count never depends on how fast this
    # host runs, so every run makes the same ops.  The host-speed kernel
    # runs before every op and after the last, outside the op's time.
    passes = 2 if args.small else max(
        2, math.floor(args.seconds / workload.pass_seconds))
    latencies, kernels, rows, failed_ops = [], [], [], set()
    if rec is not None:
        rec.active = True
    for i in range(passes * workload.pass_ops):
        workload.prepare(i)
        kernels.append(kernel_ms())
        begin = time.perf_counter()
        try:
            with rec.op(i) if rec is not None else contextlib.nullcontext():
                ok, row = workload.op(i)
        except Exception:  # noqa: BLE001 - a crashed op is a failed op
            traceback.print_exc()
            ok, row = False, "raised"
        latencies.append(time.perf_counter() - begin)
        rows.append(row)
        if not ok:
            failed_ops.add(i)
    kernels.append(kernel_ms())
    if rec is not None:
        rec.active = False
    more_raw, more = timed_calls(
        [probe] * (IMPORT_PROBES - IMPORT_PROBES // 2))
    raw_probes += more_raw
    probes += more
    setup_s = statistics.median(probes) + statistics.median(setups)
    failed_ops.update(workload.finish())

    scaled_latencies = scaled(latencies, kernels)
    for i, (latency, row) in enumerate(zip(latencies, rows)):
        status = "FAIL" if i in failed_ops else "ok"
        print(f"op {i:4d} {args.workload} {latency * 1e3:10.2f} ms "
              f"(scaled {scaled_latencies[i] * 1e3:10.2f} ms)  {row}  {status}")

    # An op repeated in every pass counts once, at the median of its
    # scaled latencies.
    ms = [statistics.median(scaled_latencies[slot::workload.pass_ops]) * 1e3
          for slot in range(workload.pass_ops)]
    pct, tail_ms = tail(ms)
    wall_s = sum(ms) / 1e3
    raw_wall_s = sum(latencies) / passes
    speedup = geomean(workload.speedups)
    print(f"ops {len(ms)} x {passes} pass(es)  wall_s {wall_s:.3f} s/pass  "
          f"op_p50 {statistics.median(ms):.2f} ms  op_tail p{pct} "
          f"{tail_ms:.2f} ms  sim_speedup {speedup:.6f}  "
          f"setup_s {setup_s:.3f} s  (scaled to a {KERNEL_REF_MS} ms kernel)")
    print(f"unscaled: mean pass {raw_wall_s:.3f} s  "
          f"setups {[round(s, 3) for s in raw_setups]} s  "
          f"import probes {[round(p, 3) for p in raw_probes]} s  "
          f"kernel min/median/max {min(kernels):.2f}/"
          f"{statistics.median(kernels):.2f}/{max(kernels):.2f} ms")
    print(f"host.calib_ms before {calib_before:.1f} after "
          f"{kernel_ms(1_000_000):.1f}  cpu_count {os.cpu_count()}  "
          f"python {platform.python_version()}")

    tag = f"{args.workload}-{args.seed}{'-small' if args.small else ''}"
    untraced = os.path.join(WORK, f"untraced-{tag}.json")
    specs = metric_specs()
    if rec is None:
        values = {
            "setup_s": setup_s,
            "wall_s": wall_s,
            "op_p50_ms": statistics.median(ms),
            "op_tail_ms": tail_ms,
            "peak_rss_mb": peak_rss_mb(),
        }
        metrics = {m["name"]: {"value": values[m["name"]], "unit": m["unit"]}
                   for m in specs["end_to_end"]}
        with open(untraced, "w") as handle:
            json.dump(metrics, handle)
    else:
        for line in layer_table(rec, sum(latencies)):
            print(line)
        rec.write(os.path.join(WORK, f"trace-{tag}.json"))
        extra = {"cli.import_s": import_s, "sim_speedup": speedup,
                 "trace.wall_s": wall_s, "trace.ops": len(latencies)}
        metrics = layer_metrics(rec, extra, specs["per_layer"])
        if os.path.exists(untraced):
            with open(untraced) as handle:
                base = json.load(handle)["wall_s"]["value"]
            print(f"tracing overhead: wall_s traced {wall_s:.3f} - untraced "
                  f"{base:.3f} = {wall_s - base:+.3f} s/pass")
    return {"correct": not failed_ops, "attempted": len(latencies),
            "failed": len(failed_ops), "metrics": metrics}


def main(argv=None) -> int:
    args = parse_args(argv)
    if not os.path.isfile(os.path.join(SRC, "repro", "cli.py")):
        print(f"perfbench: no repro sources under {SRC}", file=sys.stderr)
        return 2
    sys.path.insert(0, SRC)
    # Run this process, and every process it starts, on one CPU, so the
    # host-speed kernel times the CPU that does the work: the two CPUs of
    # the host this benchmark was built on differed in speed by up to
    # 1.5x at the same moment.
    os.sched_setaffinity(0, {min(os.sched_getaffinity(0))})
    os.makedirs(WORK, exist_ok=True)
    tmp = os.path.join(WORK, f"tmp-{os.getpid()}")
    os.makedirs(tmp)
    # Everything the run writes, temporary files included, stays in the
    # checkout.
    os.environ["TMPDIR"] = tmp
    tempfile.tempdir = tmp
    try:
        result = run(args, tmp)
    finally:
        shutil.rmtree(tmp, ignore_errors=True)
    print(json.dumps(result), flush=True)
    return 0


if __name__ == "__main__":
    sys.exit(main())
