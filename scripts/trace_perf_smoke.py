#!/usr/bin/env python
"""Trace-interp smoke for CI: traces must be invisible and not slow.

Two independent checks:

1. **Manifest identity.** Compiles the golden corpus through
   ``run_batch`` twice -- once on the fast tier (block-compiled
   interpreter with hot traces; the default), once with
   ``fast_interp=False`` on the reference interpreter -- and asserts
   both runs succeed with **byte-identical** manifests once the
   ``config_fingerprint`` field (which covers ``fast_interp``) is
   dropped: the fast tier cannot change any analysis result.

2. **Speedup floor.** Times the sequential timing measurement (the
   path the fig14-fig19 replication runs) on one benchsuite workload:
   block-compiled interpretation with a per-op ``TimingTracer``
   versus trace-compiled execution with a ``VectorTimingEngine``, and
   asserts the traced side is at least ``MIN_SPEEDUP`` faster with
   bitwise-identical ticks.  The floor is deliberately generous --
   well under the ~5x aggregate recorded in
   ``benchmarks/results/BENCH_interp.json`` -- because shared CI
   runners cannot measure benchmark-grade ratios reliably; it guards
   against the trace layer degenerating into pure overhead.

Rounds are interleaved and best-of-N per side, so load drift on the
runner hits both configurations equally.
"""

import os
import sys
import time

from repro.batch.driver import run_batch
from repro.batch.manifest import manifest_to_bytes

#: The golden corpus, found from this script's location (any working
#: directory will do).
CORPUS = os.path.join(
    os.path.dirname(os.path.dirname(os.path.abspath(__file__))),
    "tests", "golden", "corpus",
)
BATCH_ARGS = (96,)
ROUNDS = 3
MIN_SPEEDUP = 1.5


def check_manifest_identity() -> bool:
    manifests = {}
    for fast in (True, False):
        overrides = None if fast else {"fast_interp": False}
        result = run_batch(
            [CORPUS], args=BATCH_ARGS, jobs=1, use_cache=False,
            config_overrides=overrides,
        )
        if not result.ok:
            print(f"FAIL: batch failed (fast_interp={fast})")
            return False
        manifest = dict(result.manifest)
        del manifest["config_fingerprint"]
        manifests[fast] = manifest_to_bytes(manifest)
    if manifests[True] != manifests[False]:
        print("FAIL: manifests differ between the fast and reference tiers")
        return False
    print("manifest identity OK: fast and reference tiers are byte-identical")
    return True


def check_timing_speedup() -> bool:
    from repro.benchsuite import SUITE
    from repro.benchsuite.runner import _build_clean_module
    from repro.machine.timing import TimingModel, TimingTracer
    from repro.machine.vector_timing import VectorTimingEngine
    from repro.profiling.compiled import make_machine

    bench = next(b for b in SUITE if b.name == "bzip2")
    module = _build_clean_module(bench)
    n = bench.eval_n

    def run_base():
        tracer = TimingTracer(TimingModel())
        machine = make_machine(module)
        machine.add_tracer(tracer)
        machine.run("main", [n])
        return tracer

    def run_trace():
        engine = VectorTimingEngine(TimingModel())
        machine = make_machine(module, timing_engine=engine)
        machine.run("main", [n])
        engine.flush()
        return engine

    base = run_base()
    trace = run_trace()
    if trace.ticks != base.ticks or trace.instructions != base.instructions:
        print("FAIL: trace-engine accounting diverges from per-op tracer")
        return False

    base_s = trace_s = float("inf")
    for _ in range(ROUNDS):
        start = time.perf_counter()
        run_base()
        base_s = min(base_s, time.perf_counter() - start)
        start = time.perf_counter()
        run_trace()
        trace_s = min(trace_s, time.perf_counter() - start)
    speedup = base_s / trace_s
    print(
        f"timing speedup: base={base_s:.3f}s traced={trace_s:.3f}s "
        f"speedup={speedup:.2f}x (floor {MIN_SPEEDUP}x)"
    )
    if speedup < MIN_SPEEDUP:
        print(f"FAIL: speedup {speedup:.2f}x below floor {MIN_SPEEDUP}x")
        return False
    return True


def main() -> int:
    ok = check_manifest_identity()
    ok = check_timing_speedup() and ok
    return 0 if ok else 1


if __name__ == "__main__":
    sys.exit(main())
