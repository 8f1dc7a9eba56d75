"""Span recorder for the traced benchmark run (``--trace 1``).

The recorder wraps calls into the repro layers at the module attributes
the workloads reach them through -- ``repro.cli.compile_spt``,
``repro.benchsuite.runner._timed_run`` and so on -- so the program
itself is untouched.  Every span (name, start, end, parent, op id) is
kept in memory and written out once, when the run ends.  Compiler
phases come from a ``repro.obs.Telemetry`` passed through
``compile_spt``'s own ``telemetry=`` parameter; its phase spans are
copied in as children of the ``core.compile`` span.

Batch workers are forked children of the benchmark process: they
inherit the wrappers and the open ``batch.rerun`` span, record their
own spans, and write them to a file when the worker exits.  The parent
merges those files after each ``run_batch`` call.
"""

from __future__ import annotations

import glob
import json
import os
import time
from collections import defaultdict
from contextlib import contextmanager
from multiprocessing import util as mp_util

#: compile_spt telemetry span names that get a layer of their own;
#: every other compile span (pass1, analyze_loop, selection, ...) counts
#: as core.compile self time.
COMPILE_PHASES = ("unroll", "ssa", "profile", "depgraph", "search", "svp",
                  "transform")

#: Layers whose ``busy_s`` is the inclusive span time: drivers whose
#: insides other metrics break down.  Every other ``busy_s`` is a self
#: time (span duration minus its children's).
INCLUSIVE_LAYERS = ("core.compile", "perf.simulate", "batch.rerun")


class Recorder:
    """In-memory span and count store for one benchmark process."""

    def __init__(self, out_dir: str):
        self.out_dir = out_dir
        self.active = False
        self.op_id = None
        self.spans = []  # [name, start, end, parent, span_id, op_id]
        self.counts = defaultdict(float)
        self._stack = []
        self._prefix = f"{os.getpid()}."
        self._next = 1
        mp_util.register_after_fork(self, Recorder._after_fork)

    def new_id(self) -> str:
        span_id = f"{self._prefix}{self._next}"
        self._next += 1
        return span_id

    @contextmanager
    def span(self, name: str):
        record = [name, time.perf_counter(), None,
                  self._stack[-1] if self._stack else None,
                  self.new_id(), self.op_id]
        self._stack.append(record[4])
        try:
            yield record
        finally:
            record[2] = time.perf_counter()
            self._stack.pop()
            self.spans.append(record)

    @contextmanager
    def op(self, op_id: int):
        self.op_id = op_id
        try:
            with self.span("op"):
                yield
        finally:
            self.op_id = None

    def count(self, name: str, n: float = 1) -> None:
        self.counts[name] += n

    # -- forked batch workers ----------------------------------------------

    def _after_fork(self) -> None:
        # Keep the open-span stack (the parent's batch.rerun span is the
        # worker's root) but drop the parent's finished spans and counts.
        self.spans = []
        self.counts = defaultdict(float)
        self._prefix = f"{os.getpid()}."
        self._next = 1
        mp_util.Finalize(None, self._flush_child, exitpriority=100)

    def _flush_child(self) -> None:
        if not self.spans and not self.counts:
            return
        path = os.path.join(self.out_dir, f"child-spans-{os.getpid()}.json")
        with open(path, "w") as handle:
            json.dump({"spans": self.spans, "counts": self.counts}, handle)

    def merge_children(self) -> None:
        for path in sorted(glob.glob(os.path.join(self.out_dir,
                                                  "child-spans-*.json"))):
            with open(path) as handle:
                data = json.load(handle)
            os.remove(path)
            self.spans.extend(data["spans"])
            for name, n in data["counts"].items():
                self.counts[name] += n

    def write(self, path: str) -> None:
        fields = ("name", "start", "end", "parent", "span_id", "op_id")
        with open(path, "w") as handle:
            json.dump({"spans": [dict(zip(fields, s)) for s in self.spans],
                       "counts": self.counts}, handle)


def _spanned(rec: Recorder, name: str, original, on_result=None):
    def wrapper(*args, **kwargs):
        if not rec.active:
            return original(*args, **kwargs)
        with rec.span(name):
            result = original(*args, **kwargs)
        if on_result is not None:
            on_result(result)
        return result

    return wrapper


def _compile_wrapper(rec: Recorder, original):
    from repro.obs import Telemetry

    def compile_spt(module, config, workload, telemetry=None, **kwargs):
        if not rec.active:
            return original(module, config, workload, telemetry=telemetry,
                            **kwargs)
        telemetry = telemetry if telemetry is not None else Telemetry()
        with rec.span("core.compile") as outer:
            offset = time.perf_counter() - telemetry.now()
            result = original(module, config, workload, telemetry=telemetry,
                              **kwargs)
        ids = {span.span_id: rec.new_id() for span in telemetry.spans}
        for span in telemetry.spans:
            name = ("core." + span.name if span.name in COMPILE_PHASES
                    else "core.compile")
            rec.spans.append([name, offset + span.start, offset + span.end,
                              ids.get(span.parent, outer[4]),
                              ids[span.span_id], rec.op_id])
        partitions = list(result.partitions.values())
        rec.count("core.search.nodes", sum(p.search_nodes for p in partitions))
        rec.count("core.search.cost_evaluations",
                  sum(p.evaluations for p in partitions))
        rec.count("core.search.cost_node_visits",
                  sum(p.cost_node_visits for p in partitions))
        rec.count("core.search.cost_cache_hits",
                  sum(p.cache_hits for p in partitions))
        rec.count("core.loops.candidates", len(result.candidates))
        rec.count("core.loops.selected", len(result.selected))
        rec.count("core.degradations", len(result.degradations))
        return result

    return compile_spt


def install(rec: Recorder) -> None:
    """Wrap the call sites the three workloads go through."""
    import repro.batch
    import repro.batch.worker as worker
    import repro.benchsuite.runner as runner
    import repro.cli as cli
    import repro.machine.spt_sim as spt_sim
    import repro.perf
    import repro.perf.runner as perf_runner

    def counted_frontend(original):
        return _spanned(rec, "frontend", original,
                        lambda _module: rec.count("frontend.calls"))

    def on_replay(stats):
        rec.count("machine.spt_run.ops", stats.total_ops)
        rec.count("machine.spt_replay.spec_ops", stats.spec_ops)
        rec.count("machine.spt_replay.reexec_ops", stats.reexec_ops)

    for module in (runner, cli, worker):
        module.compile_minic = counted_frontend(module.compile_minic)
        module.compile_spt = _compile_wrapper(rec, module.compile_spt)
    cli.load_module = _spanned(rec, "frontend", cli.load_module)
    # The batch cache key: lower the source (compile_minic) and print it.
    worker.canonical_module_text = _spanned(
        rec, "frontend", worker.canonical_module_text)
    runner.simulate_spt_loop = _spanned(
        rec, "machine.spt_replay", runner.simulate_spt_loop, on_replay)
    spt_sim.simulate_spt_loop = _spanned(
        rec, "machine.spt_replay", spt_sim.simulate_spt_loop, on_replay)

    # run_benchmark's two _timed_run calls: the base run, then the SPT
    # run, the only one that passes extra_tracers (its loop collectors).
    timed_run = runner._timed_run

    def spanned_timed_run(*args, **kwargs):
        if not rec.active:
            return timed_run(*args, **kwargs)
        base = "extra_tracers" not in kwargs
        with rec.span("profiling.base_run" if base else "machine.spt_run"):
            accounting, value = timed_run(*args, **kwargs)
        if base:
            rec.count("profiling.base_run.instructions",
                      accounting.instructions)
        return accounting, value

    runner._timed_run = spanned_timed_run

    repro.perf.simulate_program = _spanned(
        rec, "perf.simulate", repro.perf.simulate_program)

    build_simulation = perf_runner.build_simulation

    def spanned_build_simulation(*args, **kwargs):
        machine, tracer, collectors = build_simulation(*args, **kwargs)
        if rec.active:
            run = machine.run

            def spanned_run(*run_args, **run_kwargs):
                with rec.span("machine.spt_run"):
                    value = run(*run_args, **run_kwargs)
                rec.count("perf.simulate.instructions", tracer.instructions)
                return value

            machine.run = spanned_run
        return machine, tracer, collectors

    perf_runner.build_simulation = spanned_build_simulation

    run_batch = repro.batch.run_batch

    def spanned_run_batch(*args, **kwargs):
        if not rec.active:
            return run_batch(*args, **kwargs)
        with rec.span("batch.rerun"):
            result = run_batch(*args, **kwargs)
        rec.merge_children()
        cached = result.stats["cached_programs"]
        rec.count("batch.cache.hits", result.cache_stats.hits)
        rec.count("batch.cache.misses", result.cache_stats.misses)
        rec.count("batch.cache.writes", result.cache_stats.writes)
        rec.count("batch.programs_cached", cached)
        rec.count("batch.programs_recomputed", result.stats["programs"] - cached)
        return result

    repro.batch.run_batch = spanned_run_batch


def _ratio(num: float, den: float) -> float:
    return num / den if den else 0.0


def _nested_in_own_layer(by_id: dict, name: str, parent) -> bool:
    while parent in by_id:
        if by_id[parent][0] == name:
            return True
        parent = by_id[parent][3]
    return False


def layer_times(spans):
    """``(self seconds, inclusive seconds)`` per span name.  A span with
    an ancestor of its own name (a non-phase compile span inside
    ``core.compile``) adds to the self time only: its interval is already
    inside the ancestor's inclusive time."""
    by_id = {span[4]: span for span in spans}
    children = defaultdict(float)
    for _name, start, end, parent, _sid, _op in spans:
        if parent is not None:
            children[parent] += end - start
    self_s = defaultdict(float)
    inclusive = defaultdict(float)
    for name, start, end, parent, span_id, _op in spans:
        self_s[name] += max(0.0, (end - start) - children[span_id])
        if not _nested_in_own_layer(by_id, name, parent):
            inclusive[name] += end - start
    return self_s, inclusive


def layer_metrics(rec: Recorder, extra: dict, metrics) -> dict:
    """Values of ``metrics``, the ``per_layer`` list of BENCHMARK.json;
    ``extra`` supplies the values measured outside the spans (import
    time, sim_speedup, the traced wall time).  A layer a workload never
    reaches has no spans or counts and reports 0.  A metric this function
    does not compute raises KeyError."""
    self_s, inclusive = layer_times(rec.spans)

    def busy(layer):
        return (inclusive if layer in INCLUSIVE_LAYERS else self_s)[layer]

    c = rec.counts
    values = {f"{layer}.busy_s": busy(layer) for layer in (
        "machine.spt_run", "profiling.base_run", "machine.spt_replay",
        "core.compile", "perf.simulate", "frontend", "batch.rerun")}
    for phase in COMPILE_PHASES:
        values[f"core.{phase}.busy_s"] = busy(f"core.{phase}")
    values.update({
        "machine.spt_run.kops_per_s": _ratio(
            c["machine.spt_run.ops"], busy("machine.spt_run")) / 1e3,
        "profiling.base_run.minstr_per_s": _ratio(
            c["profiling.base_run.instructions"],
            busy("profiling.base_run")) / 1e6,
        "machine.spt_replay.reexec_ratio": _ratio(
            c["machine.spt_replay.reexec_ops"],
            c["machine.spt_replay.spec_ops"]),
        "core.search.cost_cache_hit_ratio": _ratio(
            c["core.search.cost_cache_hits"],
            c["core.search.cost_cache_hits"]
            + c["core.search.cost_evaluations"]),
        "perf.simulate.kinstr_per_s": _ratio(
            c["perf.simulate.instructions"], busy("perf.simulate")) / 1e3,
        "batch.cache.hit_ratio": _ratio(
            c["batch.cache.hits"], c["batch.cache.hits"] + c["batch.cache.misses"]),
        "other.busy_s": self_s["op"],
    })
    for name in ("machine.spt_run.ops", "profiling.base_run.instructions",
                 "core.search.nodes", "core.search.cost_evaluations",
                 "core.search.cost_node_visits", "core.loops.candidates",
                 "core.loops.selected", "core.degradations", "frontend.calls",
                 "batch.cache.hits", "batch.cache.misses", "batch.cache.writes",
                 "batch.programs_cached", "batch.programs_recomputed"):
        values[name] = c[name]
    values.update(extra)
    return {m["name"]: {"value": values[m["name"]], "unit": m["unit"]}
            for m in metrics}


def layer_table(rec: Recorder, total_s: float) -> list:
    """Self-time rows, largest first, ending with ``other``."""
    self_s, _ = layer_times(rec.spans)
    other = self_s.pop("op", 0.0)
    rows = sorted(self_s.items(), key=lambda item: -item[1])
    rows.append(("other", other))
    return [f"layer {name:24s} self {seconds:9.3f} s  "
            f"{100 * _ratio(seconds, total_s):5.1f}%"
            for name, seconds in rows]
