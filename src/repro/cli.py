"""Command-line interface.

Usage (also available as ``python -m repro``):

    repro compile prog.c --config best        # two-pass SPT compilation
    repro run prog.c --args 100               # interpret a MiniC program
    repro dump-ir prog.c [--ssa]              # lower (and SSA-convert)
    repro simulate prog.c --args 500          # compile + SPT machine model
    repro explain prog.c [--loop f:header]    # why was each loop (not) selected
    repro report table1 fig14 ...             # regenerate paper results

Compile-like commands accept observability flags: ``--trace-out t.json``
writes a Chrome trace-event timeline of the compilation, ``--log-out
run.jsonl`` a structured JSONL event log, and ``--obs-summary`` prints
the end-of-run telemetry table.

Every command accepts MiniC source (``.c``-style) or textual IR
(detected by the leading ``module``/``func`` keyword).
"""

from __future__ import annotations

import argparse
import math
import os
import sys
from contextlib import contextmanager
from typing import List, Optional

from repro.analysis.loops import LoopNest
from repro.core.config import CONFIG_FACTORIES, SptConfig
from repro.core.pipeline import (
    Workload,
    WorkloadError,
    check_workload,
    compile_spt,
)
from repro.frontend import compile_minic
from repro.ir import format_module, parse_module
from repro.ir.function import Module
from repro.profiling import InterpError, make_machine


def _read_source(path: str) -> str:
    """The program text at ``path`` (``-`` for stdin)."""
    if path == "-":
        return sys.stdin.read()
    with open(path) as handle:
        return handle.read()


def load_module(path: str, name: str = None, source: str = None) -> Module:
    """Load MiniC or textual IR from ``path`` (``-`` for stdin), or from
    ``source`` when the caller has already read ``path``."""
    if source is None:
        source = _read_source(path)
    stripped = source.lstrip()
    module_name = name or (path.rsplit("/", 1)[-1].split(".")[0])
    if stripped.startswith("module ") or stripped.startswith("func "):
        return parse_module(source)
    return compile_minic(source, name=module_name)


def _parse_args_list(raw: Optional[str]) -> List[int]:
    if not raw:
        return []
    try:
        return [int(part) for part in raw.split(",") if part.strip()]
    except ValueError:
        raise WorkloadError(
            f"arguments must be comma-separated integers, got {raw!r}"
        ) from None


def _workload_from_args(args: argparse.Namespace) -> Workload:
    """The run a command's ``--entry`` / ``--args`` / ``--fuel`` name."""
    return Workload(entry=args.entry, args=tuple(_parse_args_list(args.args)),
                    fuel=args.fuel)


def _config_from_args(args: argparse.Namespace) -> SptConfig:
    """Build the SptConfig for a compile-like command, applying the
    fast-path opt-out flags on top of the named preset."""
    config = CONFIG_FACTORIES[args.config]()
    overrides = _override_dict_from_args(args)
    return config.with_overrides(**overrides) if overrides else config


def _override_dict_from_args(args: argparse.Namespace) -> dict:
    """The SptConfig overrides shared by all compile-like commands."""
    overrides = {}
    if getattr(args, "no_fast_interp", False):
        overrides["fast_interp"] = False
    if getattr(args, "no_incremental_cost", False):
        overrides["incremental_cost"] = False
    if getattr(args, "search_deadline_ms", None) is not None:
        overrides["search_deadline_ms"] = args.search_deadline_ms
    if getattr(args, "phase_deadline_ms", None) is not None:
        overrides["phase_deadline_ms"] = args.phase_deadline_ms
    if getattr(args, "no_ladder", False):
        overrides["enable_degradation_ladder"] = False
    return overrides


def _telemetry_from_args(args: argparse.Namespace):
    """Build a Telemetry instance from the --trace-out / --log-out /
    --obs-summary flags, or None when observability is off."""
    from repro.obs import ChromeTraceSink, JsonlSink, Telemetry

    sinks = []
    if getattr(args, "trace_out", None):
        sinks.append(ChromeTraceSink(args.trace_out))
    if getattr(args, "log_out", None):
        sinks.append(JsonlSink(args.log_out))
    if (
        not sinks
        and not getattr(args, "obs_summary", False)
        and not getattr(args, "metrics_out", None)
    ):
        return None
    return Telemetry(sinks=sinks)


def _finish_telemetry(telemetry, args: argparse.Namespace) -> None:
    """Flush sinks, export the metrics snapshot, and print the summary
    table if requested."""
    if telemetry is None:
        return
    telemetry.close()
    metrics_out = getattr(args, "metrics_out", None)
    if metrics_out:
        from repro.obs import metrics_json, prometheus_text

        render = (
            metrics_json if metrics_out.endswith(".json") else prometheus_text
        )
        with open(metrics_out, "w") as handle:
            handle.write(render(telemetry))
    if getattr(args, "obs_summary", False):
        from repro.obs import summary_text

        print()
        print(summary_text(telemetry))


@contextmanager
def _workload_run():
    """Around the run of the user's workload: an interpreter fault there
    (an invalid address, exhausted fuel) is the workload's, reported as
    a :class:`WorkloadError` -- one line on stderr, exit 2."""
    try:
        yield
    except InterpError as exc:
        raise WorkloadError(
            f"the run failed: {type(exc).__name__}: {exc}"
        ) from exc


def _print_degradations(result) -> None:
    """The compilation's contained faults, one line each as ``repro
    explain`` lists them: a fault that changed a verdict shows."""
    if result.degradations:
        print(f"resilience: {len(result.degradations)} contained "
              f"degradation(s)")
        for record in result.degradations:
            print(f"  {record}")


def cmd_run(args: argparse.Namespace) -> int:
    module = load_module(args.source)
    workload = _workload_from_args(args)
    check_workload(module, workload)
    if args.timing:
        from repro.perf.runner import timed_machine

        machine, accounting = timed_machine(module, fuel=args.fuel)
    else:
        machine, accounting = make_machine(module, fuel=args.fuel), None
    with _workload_run():
        result = machine.run(workload.entry, list(workload.args))
    print(f"result: {result}")
    if accounting is not None:
        print(f"instructions: {accounting.instructions}")
        print(f"cycles:       {accounting.cycles:.0f}")
        print(f"IPC:          {accounting.ipc:.3f}")
    return 0


def cmd_dump_ir(args: argparse.Namespace) -> int:
    module = load_module(args.source)
    if args.ssa:
        from repro.ssa import build_ssa, optimize

        for func in module.functions.values():
            build_ssa(func)
            if args.optimize:
                optimize(func)
    print(format_module(module), end="")
    return 0


def cmd_compile(args: argparse.Namespace) -> int:
    module = load_module(args.source)
    config = _config_from_args(args)
    workload = _workload_from_args(args)
    telemetry = _telemetry_from_args(args)
    result = compile_spt(module, config, workload, telemetry=telemetry)

    print(f"configuration: {args.config}")
    print(f"loop candidates: {len(result.candidates)}")
    for candidate in result.candidates:
        partition = candidate.partition
        line = (
            f"  {candidate.func_name}:{candidate.loop.header:20s}"
            f" {candidate.category:22s}"
            f" size={candidate.dynamic_body_size:7.1f}"
            f" trip={candidate.trip_count:8.1f}"
        )
        if partition is not None and not partition.skipped_too_many_vcs:
            line += (
                f" cost={partition.cost:7.2f}"
                f" prefork={partition.prefork_size:6.1f}"
                f" vcs={len(partition.candidates)}"
            )
        if candidate.svp_applied:
            line += " [svp]"
        print(line)
    print(f"selected SPT loops: {[i.header for i in result.spt_loops]}")
    if result.svp_infos:
        print(f"value predictions: {result.svp_infos}")
    _print_degradations(result)
    if args.emit_ir:
        print()
        print(format_module(module), end="")
    _finish_telemetry(telemetry, args)
    return 0


def cmd_simulate(args: argparse.Namespace) -> int:
    from repro.perf import simulate_program

    module = load_module(args.source)
    config = _config_from_args(args)
    train = _parse_args_list(args.train_args or args.args)
    workload = Workload(entry=args.entry, args=tuple(train), fuel=args.fuel)
    eval_args = _parse_args_list(args.args)
    # The evaluation run must fit the entry too: fail before compiling.
    check_workload(module, Workload(entry=args.entry, args=tuple(eval_args)))
    telemetry = _telemetry_from_args(args)
    result = compile_spt(module, config, workload, telemetry=telemetry)
    if not result.spt_loops:
        print("no SPT loops selected; nothing to simulate")
        _print_degradations(result)
        _finish_telemetry(telemetry, args)
        return 1

    with _workload_run():
        if args.checkpoint_every or args.resume_from is not None:
            from repro.checkpoint import run_checkpointed_simulation

            outcome, report = run_checkpointed_simulation(
                module, result, config, entry=args.entry,
                args=tuple(eval_args), fuel=args.fuel,
                checkpoint_every=args.checkpoint_every,
                resume_from=args.resume_from,
                checkpoint_dir=args.checkpoint_dir,
                telemetry=telemetry,
            )
            if report.resumed_from is not None:
                print(f"resumed from snapshot at {report.resumed_from} "
                      f"executed instructions")
            if args.checkpoint_every:
                print(f"snapshots saved: {len(report.saved_at)} "
                      f"(key {report.key[:12]}..., dir {report.directory})")
        else:
            outcome = simulate_program(
                module, result, entry=args.entry, args=eval_args,
                fuel=args.fuel, fast=config.fast_interp, telemetry=telemetry,
            )
    print(f"result: {outcome.result}")
    print(f"single-core cycles: {outcome.seq_cycles:.0f}"
          f"  (IPC {outcome.ipc:.3f})")
    for loop in outcome.loops:
        print(
            f"  loop {loop.func_name}:{loop.header}: "
            f"speedup {loop.loop_speedup:.2f}x, "
            f"misspec {loop.misspeculation_ratio:.3f}, "
            f"{loop.iterations} iterations"
        )
    if outcome.spt_cycles > 0:
        print(f"program SPT cycles: {outcome.spt_cycles:.0f} "
              f"(speedup {outcome.program_speedup:.3f}x)")
    _print_degradations(result)
    _finish_telemetry(telemetry, args)
    return 0


def cmd_dot(args: argparse.Namespace) -> int:
    from repro.analysis.depgraph import build_dep_graph
    from repro.core.costgraph import build_cost_graph
    from repro.core.vcdep import VCDepGraph
    from repro.core.violation import find_violation_candidates
    from repro.report.dot import (
        cfg_to_dot,
        costgraph_to_dot,
        depgraph_to_dot,
        vcdep_to_dot,
    )
    from repro.ssa import build_ssa, optimize

    module = load_module(args.source)
    func = module.functions.get(args.function)
    if func is None:
        print(f"no function {args.function!r}", file=sys.stderr)
        return 2
    if args.what != "cfg" or args.ssa:
        build_ssa(func)
        optimize(func)
    if args.what == "cfg":
        print(cfg_to_dot(func))
        return 0

    nest = LoopNest.build(func)
    if args.loop:
        loop = next((l for l in nest.loops if l.header == args.loop), None)
    else:
        loop = nest.loops[0] if nest.loops else None
    if loop is None:
        print("no such loop (use --loop <header-label>)", file=sys.stderr)
        return 2
    graph = build_dep_graph(module, func, loop)
    if args.what == "depgraph":
        print(depgraph_to_dot(graph))
        return 0
    candidates = find_violation_candidates(graph)
    if args.what == "costgraph":
        print(costgraph_to_dot(build_cost_graph(graph, candidates)))
        return 0
    print(vcdep_to_dot(VCDepGraph(graph, candidates)))
    return 0


def cmd_summary(args: argparse.Namespace) -> int:
    import json

    module = load_module(args.source)
    config = _config_from_args(args)
    workload = _workload_from_args(args)
    telemetry = _telemetry_from_args(args)
    result = compile_spt(module, config, workload, telemetry=telemetry)
    summary = result.to_dict()
    if result.trace_stats:
        # Added here, NOT in to_dict(): batch manifests embed to_dict()
        # and must stay byte-identical whether or not hot traces engaged.
        summary["trace_interp"] = result.trace_stats
    print(json.dumps(summary, indent=2))
    _finish_telemetry(telemetry, args)
    return 0


def cmd_explain(args: argparse.Namespace) -> int:
    from repro.report import explain_text

    source = _read_source(args.source)
    module = load_module(args.source, source=source)
    config = _config_from_args(args)
    workload = _workload_from_args(args)
    telemetry = _telemetry_from_args(args)
    if args.profile and telemetry is None:
        # --profile needs a span tree even when no sink flag was given.
        from repro.obs import Telemetry

        telemetry = Telemetry()
    result = compile_spt(module, config, workload, telemetry=telemetry)
    print(explain_text(result, config, loop=args.loop, verbose=not args.brief))
    if args.cache_dir is not None:
        from repro.batch import ResultCache
        from repro.batch.worker import probe_cache
        from repro.report.explain import cache_probe_text

        cache = ResultCache(args.cache_dir or None)
        probe = probe_cache(source, config, workload, cache)
        if telemetry is not None:
            telemetry.merge_counters(cache.stats.as_counters("batch.cache"))
        print()
        print(cache_probe_text(probe))
    if args.profile:
        from repro.obs import profile_text

        print()
        print(profile_text(telemetry))
    _finish_telemetry(telemetry, args)
    return 0


def cmd_batch(args: argparse.Namespace) -> int:
    import json

    from repro.batch import dump_manifest, run_batch

    overrides = _override_dict_from_args(args)

    telemetry = _telemetry_from_args(args)

    def progress(entry):
        status = entry.get("status")
        if status == "ok":
            summary = entry["summary"]
            selected = len(summary.get("selected", []))
            total = len(summary.get("candidates", []))
            origin = "warm" if entry.get("cached") else "cold"
            print(
                f"  ok      {entry['path']:32s} {selected}/{total} loops"
                f" selected [{origin}]"
            )
        else:
            error = entry.get("error", {})
            detail = error.get("message") or error.get("type") or "?"
            print(f"  {status:7s} {entry['path']:32s} {detail}")

    status = None
    if not args.quiet and sys.stderr.isatty():
        # A single live status line, redrawn in place on stderr so it
        # never pollutes piped stdout output.
        def status(line):
            sys.stderr.write(f"\r\x1b[K{line}")
            sys.stderr.flush()

    try:
        result = run_batch(
            args.inputs,
            config_name=args.config,
            config_overrides=overrides,
            entry=args.entry,
            args=tuple(_parse_args_list(args.args)),
            fuel=args.fuel,
            jobs=args.jobs,
            cache_dir=args.cache_dir,
            use_cache=not args.no_cache,
            cache_max_entries=args.cache_max_entries,
            telemetry=telemetry,
            progress=progress if not args.quiet else None,
            program_timeout=args.program_timeout,
            progress_path=args.progress_json,
            status=status,
            resume=args.resume,
            journal_dir=args.journal_dir,
        )
    except FileNotFoundError as exc:
        print(str(exc), file=sys.stderr)
        return 2
    finally:
        if status is not None:
            sys.stderr.write("\r\x1b[K")
            sys.stderr.flush()

    stats = result.stats
    cache = stats["cache"]
    print(
        f"batch: {stats['ok']}/{stats['programs']} ok"
        f" ({stats['errors']} errors, {stats['crashed']} crashed,"
        f" {stats['timeouts']} timeouts)"
        f" in {stats['wall_seconds']:.2f}s with {stats['jobs']} jobs"
        + (
            f", {stats['resumed_programs']} resumed from journal"
            if stats.get("resumed_programs")
            else ""
        )
    )
    if stats["degradations"] or stats["degraded_programs"]:
        print(
            f"resilience: {stats['degradations']} contained degradation(s)"
            f" across the batch, {stats['degraded_programs']} program(s)"
            f" finished on the degraded retry"
        )
    if not args.no_cache:
        print(
            f"cache: {cache['hits']} hits / {cache['misses']} misses"
            f" ({cache['hit_rate']:.1%} hit rate),"
            f" {cache['writes']} writes, {cache['evictions']} evictions"
            f"  [{stats['cache_dir']}]"
        )
    if args.manifest:
        dump_manifest(result.manifest, args.manifest)
        print(f"manifest written to {args.manifest}")
    if args.stats_out:
        with open(args.stats_out, "w") as handle:
            json.dump(stats, handle, indent=2, sort_keys=True)
            handle.write("\n")
        print(f"run stats written to {args.stats_out}")
    if args.progress_json:
        print(f"live progress document written to {args.progress_json}")
    _finish_telemetry(telemetry, args)
    return 0 if result.ok else 1


def cmd_report(args: argparse.Namespace) -> int:
    from repro.report import (
        figure14_text,
        figure15_text,
        figure16_text,
        figure17_text,
        figure18_text,
        figure19_text,
        table1_text,
    )

    generators = {
        "table1": table1_text,
        "fig14": figure14_text,
        "fig15": figure15_text,
        "fig16": figure16_text,
        "fig17": figure17_text,
        "fig18": figure18_text,
        "fig19": figure19_text,
    }
    targets = args.targets or list(generators)
    for target in targets:
        if target not in generators:
            print(f"unknown report target {target!r}; "
                  f"choose from {sorted(generators)}", file=sys.stderr)
            return 2
    for target in targets:
        print()
        print(generators[target]())
    return 0


def cmd_fuzz(args: argparse.Namespace) -> int:
    from repro.testkit import (
        ORACLE_NAMES,
        base_seed,
        load_corpus,
        replay_entry,
        run_campaign,
        save_reproducer,
    )

    oracles = None
    if args.oracle:
        oracles = sorted(set(args.oracle))
        unknown = [name for name in oracles if name not in ORACLE_NAMES]
        if unknown:
            print(
                f"unknown oracle(s) {', '.join(unknown)}; "
                f"choose from {', '.join(ORACLE_NAMES)}",
                file=sys.stderr,
            )
            return 2

    telemetry = _telemetry_from_args(args)
    seed = args.seed if args.seed is not None else base_seed()

    failed = False
    if args.corpus_dir and not args.skip_corpus_replay:
        entries = load_corpus(args.corpus_dir)
        for entry in entries:
            detail = replay_entry(entry)
            if detail is not None:
                failed = True
                print(f"corpus regression {entry.name}: {detail}")
        if entries:
            print(f"corpus: {len(entries)} reproducer(s) replayed")

    campaign_kwargs = {}
    if telemetry is not None:
        campaign_kwargs["telemetry"] = telemetry
    report = run_campaign(
        seed,
        args.iterations,
        oracles=oracles,
        shrink=not args.no_shrink,
        max_failures=args.max_failures,
        **campaign_kwargs,
    )
    for line in report.summary_lines():
        print(line)
    for failure in report.failures:
        print()
        print(
            f"FAILURE oracle={failure.oracle} seed={failure.seed} "
            f"iteration={failure.iteration}"
        )
        print(f"  {failure.detail}")
        if args.corpus_dir:
            path = save_reproducer(args.corpus_dir, failure)
            print(f"  reproducer written to {path}")
            if failure.snapshot is not None:
                print(
                    f"  snapshot anchor at {failure.snapshot['executed']} "
                    f"executed instructions written alongside"
                )
        else:
            print("  minimized program:")
            for line in failure.reproducer.source().splitlines():
                print(f"    {line}")
    _finish_telemetry(telemetry, args)
    return 1 if (failed or report.failures) else 0


# -- argument parsing ------------------------------------------------------

def _bounded(parse, accept, expected: str):
    """An argparse ``type=``: ``parse`` the text, then require
    ``accept`` of the value, so an out-of-range value is a usage error
    (exit 2) before any work starts."""
    def convert(raw: str):
        try:
            value = parse(raw)
            if accept(value):
                return value
        except ValueError:
            pass
        raise argparse.ArgumentTypeError(f"expected {expected}, got {raw!r}")

    return convert


_positive_float = _bounded(
    float, lambda v: 0 < v < math.inf, "a positive number"
)
_positive_int = _bounded(int, lambda v: v > 0, "a positive integer")
_non_negative_int = _bounded(int, lambda v: v >= 0, "a non-negative integer")
_resume_point = _bounded(
    lambda raw: raw if raw == "latest" else int(raw),
    lambda v: v == "latest" or v >= 0,
    "'latest' or a non-negative integer",
)


def _add_workload(p):
    p.add_argument("--entry", default="main", help="entry function")
    p.add_argument("--args", default="", help="comma-separated int args")
    p.add_argument(
        "--fuel", type=_positive_int, default=50_000_000, metavar="N",
        help="dynamic-instruction budget of each run of the program "
             "(default: 50000000)",
    )


def _add_source(p):
    p.add_argument("source", help="MiniC or textual-IR file ('-' for stdin)")
    _add_workload(p)


def _add_config_options(p):
    p.add_argument("--config", choices=sorted(CONFIG_FACTORIES), default="best")
    p.add_argument(
        "--no-fast-interp", action="store_true",
        help="profile and simulate on the reference interpreter with "
             "per-op timing instead of the fast tier (block-compiled "
             "with hot traces and vectorized timing)",
    )
    p.add_argument(
        "--no-incremental-cost", action="store_true",
        help="use full-recompute cost evaluation in the partition search",
    )
    p.add_argument(
        "--search-deadline-ms", type=_positive_float, default=None,
        metavar="MS",
        help="anytime partition-search deadline: on expiry keep the "
             "best-so-far legal partition (flagged optimal=false)",
    )
    p.add_argument(
        "--phase-deadline-ms", type=_positive_float, default=None,
        metavar="MS",
        help="wall-clock watchdog per firewalled pipeline phase; an "
             "overrunning phase degrades its loop instead of wedging",
    )
    p.add_argument(
        "--no-ladder", action="store_true",
        help="disable the graceful-degradation retry ladder (a "
             "contained fault skips the loop immediately)",
    )


def _add_obs_options(p):
    p.add_argument(
        "--trace-out", default=None, metavar="PATH",
        help="write a Chrome trace-event timeline of the compilation "
             "(open in chrome://tracing or Perfetto)",
    )
    p.add_argument(
        "--log-out", default=None, metavar="PATH",
        help="write a JSONL structured log of spans, events and counters",
    )
    p.add_argument(
        "--obs-summary", action="store_true",
        help="print the end-of-run telemetry summary table",
    )
    p.add_argument(
        "--metrics-out", default=None, metavar="PATH",
        help="write the metrics snapshot (counters, gauges, span "
             "histograms): Prometheus text, or canonical JSON when "
             "PATH ends in .json",
    )


def _run_arguments(p):
    _add_source(p)
    p.add_argument("--timing", action="store_true", help="report cycles/IPC")
    p.set_defaults(fn=cmd_run)


def _dump_ir_arguments(p):
    _add_source(p)
    p.add_argument("--ssa", action="store_true", help="convert to SSA")
    p.add_argument("--optimize", action="store_true", help="run cleanup passes")
    p.set_defaults(fn=cmd_dump_ir)


def _compile_arguments(p):
    _add_source(p)
    _add_config_options(p)
    _add_obs_options(p)
    p.add_argument(
        "--emit-ir", action="store_true", help="print the transformed IR"
    )
    p.set_defaults(fn=cmd_compile)


def _simulate_arguments(p):
    _add_source(p)
    _add_config_options(p)
    _add_obs_options(p)
    p.add_argument("--train-args", default=None,
                   help="profiling args (defaults to --args)")
    p.add_argument(
        "--checkpoint-dir", default=None, metavar="DIR",
        help="snapshot store root (default: $REPRO_CHECKPOINT_DIR, "
             "else <cache-dir>/checkpoints)",
    )
    p.add_argument(
        "--checkpoint-every", type=_non_negative_int, default=0,
        metavar="N",
        help="durably snapshot the whole simulation every N executed "
             "instructions (at the next block boundary); 0 disables",
    )
    p.add_argument(
        "--resume-from", type=_resume_point, default=None, metavar="WHEN",
        help="resume the simulation from a stored snapshot: 'latest' "
             "or an executed-instruction index upper bound",
    )
    p.set_defaults(fn=cmd_simulate)


def _explain_arguments(p):
    _add_source(p)
    _add_config_options(p)
    _add_obs_options(p)
    p.add_argument(
        "--loop", default=None, metavar="FUNC:HEADER",
        help="restrict the report to one loop (e.g. main:for_head)",
    )
    p.add_argument(
        "--brief", action="store_true",
        help="omit the pre-fork region statement listing",
    )
    p.add_argument(
        "--cache-dir", nargs="?", const="", default=None, metavar="DIR",
        help="also report whether this result is warm in the batch "
             "result cache (default dir when no DIR is given)",
    )
    p.add_argument(
        "--profile", action="store_true",
        help="append the per-phase self-time profile and flamegraph "
             "folded stacks aggregated from the compilation span tree",
    )
    p.set_defaults(fn=cmd_explain)


def _batch_arguments(p):
    p.add_argument(
        "inputs", nargs="+",
        help="program files, directories, or glob patterns",
    )
    _add_workload(p)
    _add_config_options(p)
    _add_obs_options(p)
    p.add_argument(
        "--jobs", type=_positive_int, default=None, metavar="N",
        help="worker processes (default: os.cpu_count())",
    )
    p.add_argument(
        "--cache-dir", default=None, metavar="DIR",
        help="persistent result cache location "
             "(default: $REPRO_CACHE_DIR or ~/.cache/repro)",
    )
    p.add_argument(
        "--no-cache", action="store_true",
        help="compile everything cold; do not read or write the cache",
    )
    p.add_argument(
        "--cache-max-entries", type=_non_negative_int, default=None,
        metavar="N",
        help="evict oldest cache entries beyond N after the batch",
    )
    p.add_argument(
        "--manifest", default=None, metavar="PATH",
        help="write the machine-readable batch manifest (JSON)",
    )
    p.add_argument(
        "--stats-out", default=None, metavar="PATH",
        help="write run statistics (wall time, jobs, cache hit rate)",
    )
    p.add_argument(
        "--quiet", action="store_true",
        help="suppress the per-program progress lines",
    )
    p.add_argument(
        "--program-timeout", type=_positive_float, default=None,
        metavar="S",
        help="per-program wall-clock budget in each worker; an "
             "overrunning program is retried once on the degraded "
             "ladder configuration, then reported as status=timeout",
    )
    p.add_argument(
        "--progress-json", default=None, metavar="PATH",
        help="continuously (re)write a machine-readable progress "
             "document (schema repro-batch-progress/2) for external "
             "watchers",
    )
    p.add_argument(
        "--resume", action="store_true",
        help="journal every finished program durably and replay a "
             "previous (crashed or killed) run of this exact batch, "
             "re-queueing only unfinished programs",
    )
    p.add_argument(
        "--journal-dir", default=None, metavar="DIR",
        help="where --resume journals live (default: "
             "<checkpoint-dir>/batches)",
    )
    p.set_defaults(fn=cmd_batch)


def _report_arguments(p):
    p.add_argument("targets", nargs="*", help="table1 fig14 ... (default: all)")
    p.set_defaults(fn=cmd_report)


def _dot_arguments(p):
    p.add_argument("source")
    p.add_argument(
        "what", choices=["cfg", "depgraph", "costgraph", "vcdep"]
    )
    p.add_argument("--function", default="main")
    p.add_argument("--loop", default=None, help="loop header label")
    p.add_argument("--ssa", action="store_true",
                   help="convert to SSA before dumping the CFG")
    p.set_defaults(fn=cmd_dot)


def _summary_arguments(p):
    _add_source(p)
    _add_config_options(p)
    _add_obs_options(p)
    p.set_defaults(fn=cmd_summary)


def _fuzz_arguments(p):
    p.add_argument(
        "--seed", type=int, default=None,
        help="campaign base seed (default: $REPRO_TEST_SEED or 0)",
    )
    p.add_argument(
        "--iterations", type=_non_negative_int, default=100,
        help="number of generated programs (default 100)",
    )
    p.add_argument(
        "--oracle", action="append", default=None, metavar="NAME",
        help="restrict to one oracle (repeatable): "
             "checkpoint, cost, interp, partition, spt",
    )
    p.add_argument(
        "--corpus-dir", default=None, metavar="DIR",
        help="replay this regression corpus first, and write minimized "
             "reproducers for new failures into it",
    )
    p.add_argument(
        "--skip-corpus-replay", action="store_true",
        help="with --corpus-dir, only write new reproducers",
    )
    p.add_argument(
        "--no-shrink", action="store_true",
        help="report failures without delta-debugging them first",
    )
    p.add_argument(
        "--max-failures", type=int, default=1,
        help="stop after this many failures (0 = run the full campaign)",
    )
    _add_obs_options(p)
    p.set_defaults(fn=cmd_fuzz)


#: Every subcommand in ``repro --help`` order: its name, its help line
#: and the function adding its arguments.
_SUBCOMMANDS = (
    ("run", "interpret a program", _run_arguments),
    ("dump-ir", "lower and print the IR", _dump_ir_arguments),
    ("compile", "two-pass SPT compilation", _compile_arguments),
    ("simulate", "compile and run the SPT machine model", _simulate_arguments),
    ("explain", "compile and explain why each loop was (not) selected",
     _explain_arguments),
    ("batch", "compile many programs in parallel with a persistent "
              "result cache", _batch_arguments),
    ("report", "regenerate paper tables/figures", _report_arguments),
    ("dot", "emit Graphviz dumps of compiler graphs", _dot_arguments),
    ("summary", "compile and print a JSON compilation summary",
     _summary_arguments),
    ("fuzz", "differential fuzzing: generated programs vs the oracle "
             "battery", _fuzz_arguments),
)


def _top_level_parser(metavar: Optional[str] = None):
    parser = argparse.ArgumentParser(
        prog="repro",
        description="Cost-driven speculative parallelization (PLDI 2004 reproduction)",
    )
    sub = parser.add_subparsers(dest="command", required=True, metavar=metavar)
    return parser, sub


def build_parser() -> argparse.ArgumentParser:
    """The whole command tree: every subcommand with its arguments."""
    parser, sub = _top_level_parser()
    for name, help_line, add_arguments in _SUBCOMMANDS:
        add_arguments(sub.add_parser(name, help=help_line))
    return parser


def parse_args(argv: List[str] = None) -> argparse.Namespace:
    """Parse a ``repro`` command line.

    Only ``repro``, ``repro --help`` and an unknown command print
    something that needs the whole tree.  Any other command line starts
    with its subcommand's name, so the parser holds that subcommand's
    arguments alone; its usage still names every subcommand, as the
    top-level errors print it (``unrecognized arguments``)."""
    argv = sys.argv[1:] if argv is None else list(argv)
    names = [name for name, _, _ in _SUBCOMMANDS]
    if not argv or argv[0] not in names:
        return build_parser().parse_args(argv)
    parser, sub = _top_level_parser(metavar="{%s}" % ",".join(names))
    for name, help_line, add_arguments in _SUBCOMMANDS:
        if name == argv[0]:
            add_arguments(sub.add_parser(name, help=help_line))
    return parser.parse_args(argv)


def main(argv: List[str] = None) -> int:
    args = parse_args(argv)
    try:
        return args.fn(args)
    except WorkloadError as exc:
        # A user mistake, not a contained degradation: one line, exit 2.
        print(f"repro {args.command}: {exc}", file=sys.stderr)
        return 2
    except BrokenPipeError:
        # A downstream pager or head closed early; detach stdout so the
        # interpreter's shutdown flush stays quiet.
        devnull = os.open(os.devnull, os.O_WRONLY)
        os.dup2(devnull, sys.stdout.fileno())
        return 0


if __name__ == "__main__":
    sys.exit(main())
