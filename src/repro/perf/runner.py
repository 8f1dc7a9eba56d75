"""The one simulation driver.

Every timed run on the machine model is built here, on one of two
tiers with bitwise-identical outcomes: the fast tier (a
:class:`~repro.profiling.compiled.CompiledMachine` with hot traces and a
:class:`~repro.machine.vector_timing.VectorTimingEngine`), or the
reference tier (:class:`~repro.profiling.interp.Machine` with a per-op
:class:`~repro.machine.timing.TimingTracer`), which is the oracle.
``repro simulate``, the suite evaluation and the fuzz oracles all
simulate through :func:`build_simulation` / :func:`simulate_program`;
``repro run --timing`` and the suite's base run take a bare
:func:`timed_machine`.
"""

from __future__ import annotations

from dataclasses import dataclass, field
from typing import Dict, Iterable, List, Sequence, Tuple

from repro.analysis.loops import LoopNest
from repro.machine import spt_sim
from repro.machine.timing import TimingModel, TimingTracer
from repro.machine.vector_timing import VectorTimingEngine
from repro.profiling.compiled import CompiledMachine, make_machine

__all__ = ["SimOutcome", "build_simulation", "simulate_program"]


@dataclass
class SimOutcome:
    """One program's trip through the SPT machine model (equality is
    exact: both tiers must produce the same outcome bit for bit)."""

    result: int
    seq_cycles: float
    ipc: float
    spt_cycles: float
    #: One per simulated SPT loop, in selection order.
    loops: List[spt_sim.SptLoopStats] = field(default_factory=list)
    #: (function, loop header) -> sequential cycles attributed to every
    #: loop the run entered, SPT loop or not.
    loop_cycles: Dict[Tuple[str, str], float] = field(default_factory=dict)

    @property
    def program_speedup(self) -> float:
        return self.seq_cycles / self.spt_cycles if self.spt_cycles else 1.0


def spt_loop_sites(compile_result) -> List[Tuple[str, str, int]]:
    """``(function, header, loop id)`` of every loop ``compile_result``
    transformed, in selection order."""
    return [
        (candidate.func_name, candidate.loop.header, info.loop_id)
        for candidate, info in zip(
            compile_result.selected, compile_result.spt_loops
        )
    ]


def timed_machine(
    module, *, fuel: int = 50_000_000, fast: bool = True, telemetry=None
):
    """The ``(machine, cycle accounting)`` pair one timed run executes
    on: the fast tier, or with ``fast=False`` the reference tier."""
    if fast:
        accounting = VectorTimingEngine(TimingModel())
        machine = make_machine(
            module, fuel=fuel, telemetry=telemetry, timing_engine=accounting
        )
    else:
        accounting = TimingTracer(TimingModel())
        machine = make_machine(module, fuel=fuel, fast=False, telemetry=telemetry)
        machine.add_tracer(accounting)
    return machine, accounting


def build_simulation(
    module,
    loops: Iterable[Tuple[str, str, int]],
    *,
    fuel: int = 50_000_000,
    fast: bool = True,
    telemetry=None,
    collector_type=spt_sim.SptTraceCollector,
):
    """Assemble the ``(machine, cycle accounting, SPT collectors)``
    triple one simulation runs on; ``loops`` are ``(function, header,
    loop id)`` sites in the (already transformed) ``module``.  The
    collectors share the accounting's timing model -- they read each
    load's latency from the cache it has just charged -- and are
    attached after it.  They emit their ``spt.round`` events into
    ``telemetry`` as the run folds them; ``collector_type`` lets a
    checker substitute a
    :class:`~repro.machine.spt_sim.SptTraceCollector` subclass."""
    machine, accounting = timed_machine(
        module, fuel=fuel, fast=fast, telemetry=telemetry
    )
    collectors = []
    for func_name, header, loop_id in loops:
        nest = LoopNest.build(module.function(func_name))
        loop = next((l for l in nest.loops if l.header == header), None)
        if loop is not None:
            collectors.append(collector_type(
                func_name, header, loop.body, loop_id, accounting.model,
                telemetry=telemetry,
            ))
    for collector in collectors:
        machine.add_tracer(collector)
    return machine, accounting, collectors


def run_machine(machine, entry: str, args: Sequence[int]):
    """Run ``machine`` from ``entry`` and return the result.

    The caller owns the machine, so once the run returns its compiled
    code is dropped: the compiled blocks and trace namespaces point back
    at the machine, and would otherwise keep it and its tracers alive
    until the cyclic garbage collector runs."""
    try:
        return machine.run(entry, list(args))
    finally:
        if isinstance(machine, CompiledMachine):
            machine.release_code()


def finalize_simulation(
    result_value, accounting, collectors, telemetry=None
) -> SimOutcome:
    """Finish every collector's loop into the program-level outcome:
    each SPT loop's simulated two-core time replaces its sequential
    time."""
    # Called through the module: perfbench/tracing.py wraps the attribute.
    loops = [
        spt_sim.simulate_spt_loop(collector, telemetry=telemetry)
        for collector in collectors
    ]
    total_delta = 0.0
    for stats in loops:
        total_delta += stats.spt_cycles - stats.seq_cycles
    return SimOutcome(
        result=result_value,
        seq_cycles=accounting.cycles,
        ipc=accounting.ipc,
        spt_cycles=accounting.cycles + total_delta,
        loops=loops,
        loop_cycles=accounting.loop_cycles,
    )


def simulate_program(
    module,
    compile_result,
    *,
    entry: str = "main",
    args: Sequence[int] = (),
    fuel: int = 50_000_000,
    fast: bool = True,
    telemetry=None,
) -> SimOutcome:
    """Run the SPT machine model over ``compile_result``'s selected
    loops and aggregate program-level cycles, on the fast tier or with
    ``fast=False`` the reference tier.

    ``module`` must be the (already transformed) module that
    ``compile_spt`` returned ``compile_result`` for.
    """
    machine, accounting, collectors = build_simulation(
        module, spt_loop_sites(compile_result), fuel=fuel, fast=fast,
        telemetry=telemetry,
    )
    result_value = run_machine(machine, entry, args)
    return finalize_simulation(
        result_value, accounting, collectors, telemetry=telemetry
    )

