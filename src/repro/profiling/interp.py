"""An IR interpreter.

The interpreter is the execution substrate for the whole evaluation
stack: profilers observe it through the :class:`Tracer` hook interface,
and the SPT machine model replays the traces it produces.  It is kept
plain -- one exact per-op block loop -- because it is the one oracle the
fast tier (:mod:`repro.profiling.compiled`) is tested against.

Design notes:

* Values are Python ints/floats/bools; memory is a flat word-addressed
  list with bump allocation.
* Global arrays and function-local arrays are allocated **once** at
  machine construction (like C statics).  Recursion therefore shares
  locals -- the workload suite does not use recursion.
* ``SPT_FORK``/``SPT_KILL`` execute as no-ops here: a transformed SPT
  loop run by this interpreter behaves exactly like the sequential
  original, which is how tests establish transformation correctness.
* Intrinsic (external) functions are Python callables registered on the
  machine; they may read/write machine memory to model impure library
  calls.
"""

from __future__ import annotations

from typing import Callable, Dict, List, Optional, Set

from repro.ir.block import Block
from repro.ir.function import Function, Module
from repro.ir.instr import (
    BinOp,
    Branch,
    Call,
    Copy,
    Instr,
    Jump,
    Load,
    LoadAddr,
    Phi,
    Return,
    SptFork,
    SptKill,
    Store,
    UnOp,
)
from repro.ir.values import Const, Value, Var
from repro.obs.telemetry import NULL_TELEMETRY


class InterpError(RuntimeError):
    """Raised on runtime errors (undefined variable, bad address, ...)."""


class FuelExhausted(InterpError):
    """Raised when the dynamic instruction budget is exceeded."""


class Tracer:
    """Observer interface over interpreter execution.

    All hooks default to no-ops; profilers override the ones they need.
    Hook order for one instruction: ``on_instr`` fires first, then any
    ``on_load``/``on_store``, then ``on_def``.

    A tracer may declare where its hooks act: the per-op hooks inside
    :meth:`op_scope`, ``on_block`` on the blocks of :meth:`block_scope`
    and ``on_edge`` on edges out of the blocks of :meth:`edge_scope`.
    The fast tier (:mod:`repro.profiling.compiled` and its traces)
    calls each hook only there; this interpreter calls every hook
    everywhere, so a scope that is too narrow shows up as a tier
    disagreement.
    """

    def on_enter_function(self, func: Function, args: List) -> None:
        """A function invocation begins."""

    def on_exit_function(self, func: Function, result) -> None:
        """A function invocation returns."""

    def on_block(self, func: Function, block: Block, prev_label: Optional[str]) -> None:
        """Control enters ``block`` (after leaving ``prev_label``)."""

    def on_edge(self, func: Function, src_label: str, dst_label: str) -> None:
        """A CFG edge is traversed."""

    def on_instr(self, func: Function, block: Block, instr: Instr) -> None:
        """An instruction is about to execute."""

    def on_def(self, instr: Instr, value) -> None:
        """``instr`` defined its destination register to ``value``."""

    def on_load(self, instr: Instr, addr: int, value) -> None:
        """A memory read of ``addr`` produced ``value``."""

    def on_store(self, instr: Instr, addr: int, value, old_value) -> None:
        """A memory write set ``addr`` to ``value`` (was ``old_value``)."""

    def on_call(self, instr: Call, args: List) -> None:
        """A call instruction is invoking its callee."""

    # -- for the fast tier (repro.profiling.compiled) --------------------

    def op_scope(self, module: Module) -> Optional[Dict[str, Set[str]]]:
        """The blocks, as function name -> block labels, outside which
        this tracer's per-instruction hooks (``on_instr``, ``on_def``,
        ``on_load``, ``on_store``, ``on_call``) observe nothing; None
        (the default) means everywhere.  The fast tier compiles those
        hooks into these blocks only; this interpreter calls them
        everywhere, so a scope that is too narrow shows up as a tier
        disagreement."""
        return None

    def block_scope(self, module: Module) -> Optional[Dict[str, Set[str]]]:
        """The blocks, as function name -> block labels, outside which
        this tracer's ``on_block`` acts on nothing; None (the default)
        means everywhere.  Like :meth:`op_scope`, it narrows only the
        fast tier's calls."""
        return None

    def edge_scope(self, module: Module) -> Optional[Dict[str, Set[str]]]:
        """The source blocks, as function name -> block labels, outside
        which this tracer's ``on_edge`` acts on nothing; None (the
        default) means everywhere.  It narrows only the fast tier's
        calls."""
        return None

    def op_recorder(
        self, func: Function, block: Block, instr: Instr, run: Callable
    ) -> Optional[Callable]:
        """Optionally, one closure ``op(env)`` that runs ``run(env)``
        (which executes ``instr`` and returns its value) with exactly
        the effect of this tracer's ``on_instr`` before and ``on_def``
        after it.  The fast tier uses it in place of those two hooks
        wherever this tracer alone observes ``instr``; None (the
        default) keeps the hooks."""
        return None

    def trace_recorder(
        self, module: Module, func: Function, block: Block, engine
    ) -> Optional["TraceRecorder"]:
        """Optionally, a :class:`TraceRecorder` that lets hot-trace code
        run ``block`` in place of this tracer's per-op hooks and its
        ``on_edge`` there; ``engine`` is the run's vectorized timing
        engine (or None).  A block traces in a run with per-op tracers
        only where every tracer whose hooks reach it offers one; None
        (the default) keeps the block on the block path."""
        return None


class TraceRecorder:
    """What trace code records for one block on a tracer's behalf.

    After the block's ``on_block`` event, trace code reads the tracer's
    ``_rows``: the list it appends the block's rows to, or None to
    record nothing.  Each executed op appends one tuple row: first the
    op's template, ``templates[(instr, pred)]`` (``pred`` is the
    incoming label for a phi and None otherwise), then its ticks, the
    template's ``ticks`` plus a load's cache ticks or, for a branch,
    ``mispredict_ticks`` when ``predict(id(branch), taken)`` says so.
    A def of a register other than by a load then carries the old value
    (``_reg_values.get(dest)``) and the new one, which it stores into
    ``_reg_values``; a load carries old, new and its address; a store
    its address, the memory's old value and the new one.  ``fork``, if
    not None, records no row: from it on rows go to the list the
    tracer's ``_fork()`` returns."""

    __slots__ = ("tracer", "templates", "fork", "predict", "mispredict_ticks")

    def __init__(self, tracer, templates, fork, predict, mispredict_ticks):
        self.tracer = tracer
        self.templates = templates
        self.fork = fork
        self.predict = predict
        self.mispredict_ticks = mispredict_ticks


def _shift_count(b) -> int:
    count = int(b)
    if count < 0:
        raise InterpError(f"negative shift count {count}")
    return count


_BINOPS: Dict[str, Callable] = {
    "add": lambda a, b: a + b,
    "sub": lambda a, b: a - b,
    "mul": lambda a, b: a * b,
    "and": lambda a, b: int(a) & int(b),
    "or": lambda a, b: int(a) | int(b),
    "xor": lambda a, b: int(a) ^ int(b),
    "shl": lambda a, b: int(a) << _shift_count(b),
    "shr": lambda a, b: int(a) >> _shift_count(b),
    "min": min,
    "max": max,
    "lt": lambda a, b: a < b,
    "le": lambda a, b: a <= b,
    "gt": lambda a, b: a > b,
    "ge": lambda a, b: a >= b,
    "eq": lambda a, b: a == b,
    "ne": lambda a, b: a != b,
}


def _div(a, b):
    if b == 0:
        raise InterpError("division by zero")
    if isinstance(a, float) or isinstance(b, float):
        return a / b
    return int(a / b)  # C-style truncation


def _mod(a, b):
    if b == 0:
        raise InterpError("modulo by zero")
    return a - b * int(a / b)


_UNOPS: Dict[str, Callable] = {
    "neg": lambda a: -a,
    "not": lambda a: not a,
    "abs": abs,
    "i2f": float,
    "f2i": int,
}


class Frame:
    """One function activation."""

    __slots__ = ("func", "env", "block", "prev_label")

    def __init__(self, func: Function):
        self.func = func
        self.env: Dict[str, object] = {}
        self.block: Optional[Block] = None
        self.prev_label: Optional[str] = None


class Machine:
    """Interpreter state: module, flat memory, symbol table, intrinsics."""

    def __init__(
        self, module: Module, fuel: int = 50_000_000, telemetry=None,
        watchdog=None,
    ):
        self.module = module
        self.fuel = fuel
        #: Telemetry collector; the NULL singleton keeps the hot path
        #: to a single ``enabled`` check per :meth:`run`.
        self.telemetry = telemetry or NULL_TELEMETRY
        #: Optional :class:`repro.resilience.Watchdog`; polled at every
        #: fuel spend so a phase deadline can break a wedged or runaway
        #: profiling run.
        self.watchdog = watchdog
        self.executed = 0
        #: Flat word-addressed memory.
        self.memory: List = []
        #: Base address of every array symbol ("func.sym" or "sym").
        self.symbols: Dict[str, int] = {}
        #: Reverse map: for diagnostics, sorted (base, size, name).
        self.regions: List = []
        self.intrinsics: Dict[str, Callable] = {}
        self.tracers: List[Tracer] = []
        self._allocate_statics()

    # -- setup -------------------------------------------------------

    def _alloc(self, name: str, size: int) -> int:
        base = len(self.memory)
        self.memory.extend([0] * size)
        self.symbols[name] = base
        self.regions.append((base, size, name))
        return base

    def _allocate_statics(self) -> None:
        for sym, decl in self.module.globals.items():
            self._alloc(sym, decl.size)
        for func in self.module.functions.values():
            for sym, decl in func.arrays.items():
                self._alloc(f"{func.name}.{sym}", decl.size)

    def register_intrinsic(self, name: str, fn: Callable) -> None:
        """Register an external function ``name(machine, *args) -> value``."""
        self.intrinsics[name] = fn

    def add_tracer(self, tracer: Tracer) -> None:
        self.tracers.append(tracer)

    def symbol_base(self, func: Optional[Function], sym: str) -> int:
        """Resolve an array symbol to its base address."""
        if func is not None:
            scoped = f"{func.name}.{sym}"
            if scoped in self.symbols:
                return self.symbols[scoped]
        if sym in self.symbols:
            return self.symbols[sym]
        raise InterpError(f"unknown array symbol {sym!r}")

    def region_of(self, addr: int) -> Optional[str]:
        """The symbol owning ``addr``, for diagnostics and profiling."""
        for base, size, name in self.regions:
            if base <= addr < base + size:
                return name
        return None

    # -- memory ------------------------------------------------------

    def read_mem(self, addr: int):
        if not 0 <= addr < len(self.memory):
            raise InterpError(f"load from invalid address {addr}")
        return self.memory[addr]

    def write_mem(self, addr: int, value):
        if not 0 <= addr < len(self.memory):
            raise InterpError(f"store to invalid address {addr}")
        self.memory[addr] = value

    # -- execution -----------------------------------------------------

    def run(self, func_name: str, args: List = ()) -> object:
        """Execute ``func_name`` with ``args``; returns its return value."""
        telemetry = self.telemetry
        if not telemetry.enabled:
            return self._execute(func_name, args)

        start_executed = self.executed
        try:
            return self._execute(func_name, args)
        finally:
            telemetry.count("interp.runs")
            telemetry.count(
                "interp.instructions", self.executed - start_executed
            )
            telemetry.gauge("interp.fuel_remaining", self.fuel - self.executed)

    def _execute(self, func_name: str, args: List) -> object:
        """The telemetry-free execution core :meth:`run` wraps."""
        func = self.module.function(func_name)
        return self._call_function(func, list(args))

    def _call_function(self, func: Function, args: List):
        if len(args) != len(func.params):
            raise InterpError(
                f"{func.name} expects {len(func.params)} args, got {len(args)}"
            )
        frame = Frame(func)
        for param, arg in zip(func.params, args):
            frame.env[param.name] = arg
        for tracer in self.tracers:
            tracer.on_enter_function(func, args)
        frame.block = func.entry
        result = None
        while frame.block is not None:
            next_label = self._exec_block(frame)
            if next_label is None:
                result = frame.env.get("$ret")
                break
            for tracer in self.tracers:
                tracer.on_edge(func, frame.block.label, next_label)
            frame.prev_label = frame.block.label
            frame.block = func.block(next_label)

        for tracer in self.tracers:
            tracer.on_exit_function(func, result)
        return result

    def _eval(self, frame: Frame, value: Value):
        if isinstance(value, Const):
            return value.value
        if isinstance(value, Var):
            if value.name not in frame.env:
                raise InterpError(
                    f"use of undefined variable {value.name} in {frame.func.name}"
                )
            return frame.env[value.name]
        raise InterpError(f"cannot evaluate {value!r}")

    def _exec_block(self, frame: Frame) -> Optional[str]:
        """Execute ``frame.block``; return the next label or None on return.

        Every op spends its unit of fuel (and polls the watchdog) before
        it runs, so ``FuelExhausted`` surfaces at the exact op that
        crosses the budget."""
        block = frame.block
        func = frame.func
        tracers = self.tracers
        for tracer in tracers:
            tracer.on_block(func, block, frame.prev_label)

        # Phis evaluate atomically against the incoming environment.
        phi_updates: Dict[str, object] = {}
        index = 0
        for instr in block.instrs:
            if not isinstance(instr, Phi):
                break
            index += 1
            self._spend_fuel()
            for tracer in tracers:
                tracer.on_instr(func, block, instr)
            if frame.prev_label is None:
                raise InterpError(f"phi in entry block {block.label}")
            if frame.prev_label not in instr.incomings:
                raise InterpError(
                    f"phi {instr.dest} has no incoming for {frame.prev_label}"
                )
            value = self._eval(frame, instr.incomings[frame.prev_label])
            phi_updates[instr.dest.name] = value
            for tracer in tracers:
                tracer.on_def(instr, value)
        frame.env.update(phi_updates)

        for instr in block.instrs[index:]:
            self._spend_fuel()
            for tracer in tracers:
                tracer.on_instr(func, block, instr)
            outcome = self._exec_instr(frame, instr)
            if outcome is not _FALLTHROUGH:
                return outcome
        raise InterpError(f"block {block.label} fell off the end")

    def _spend_fuel(self) -> None:
        self.executed += 1
        if self.executed > self.fuel:
            raise FuelExhausted(f"exceeded {self.fuel} dynamic instructions")
        if self.watchdog is not None:
            self.watchdog.poll()

    def _exec_instr(self, frame: Frame, instr: Instr):
        env = frame.env

        if isinstance(instr, BinOp):
            a = self._eval(frame, instr.lhs)
            b = self._eval(frame, instr.rhs)
            if instr.op == "div":
                result = _div(a, b)
            elif instr.op == "mod":
                result = _mod(a, b)
            else:
                result = _BINOPS[instr.op](a, b)
            env[instr.dest.name] = result
            self._trace_def(instr, result)
            return _FALLTHROUGH

        if isinstance(instr, UnOp):
            result = _UNOPS[instr.op](self._eval(frame, instr.src))
            env[instr.dest.name] = result
            self._trace_def(instr, result)
            return _FALLTHROUGH

        if isinstance(instr, Copy):
            result = self._eval(frame, instr.src)
            env[instr.dest.name] = result
            self._trace_def(instr, result)
            return _FALLTHROUGH

        if isinstance(instr, LoadAddr):
            result = self.symbol_base(frame.func, instr.sym)
            env[instr.dest.name] = result
            self._trace_def(instr, result)
            return _FALLTHROUGH

        if isinstance(instr, Load):
            addr = int(self._eval(frame, instr.base)) + int(
                self._eval(frame, instr.offset)
            )
            value = self.read_mem(addr)
            for tracer in self.tracers:
                tracer.on_load(instr, addr, value)
            env[instr.dest.name] = value
            self._trace_def(instr, value)
            return _FALLTHROUGH

        if isinstance(instr, Store):
            addr = int(self._eval(frame, instr.base)) + int(
                self._eval(frame, instr.offset)
            )
            value = self._eval(frame, instr.value)
            old = self.read_mem(addr)
            self.write_mem(addr, value)
            for tracer in self.tracers:
                tracer.on_store(instr, addr, value, old)
            return _FALLTHROUGH

        if isinstance(instr, Call):
            args = [self._eval(frame, a) for a in instr.args]
            for tracer in self.tracers:
                tracer.on_call(instr, args)
            if instr.callee in self.module.functions:
                result = self._call_function(
                    self.module.function(instr.callee), args
                )
            elif instr.callee in self.intrinsics:
                result = self.intrinsics[instr.callee](self, *args)
            else:
                raise InterpError(f"call to unknown function {instr.callee!r}")
            if instr.dest is not None:
                env[instr.dest.name] = result
                self._trace_def(instr, result)
            return _FALLTHROUGH

        if isinstance(instr, Jump):
            return instr.target

        if isinstance(instr, Branch):
            cond = self._eval(frame, instr.cond)
            return instr.iftrue if cond else instr.iffalse

        if isinstance(instr, Return):
            frame.env["$ret"] = (
                self._eval(frame, instr.value) if instr.value is not None else None
            )
            return None

        if isinstance(instr, (SptFork, SptKill)):
            # Sequential semantics: SPT markers are no-ops.
            return _FALLTHROUGH

        raise InterpError(f"cannot execute {instr!r}")

    def _trace_def(self, instr: Instr, value) -> None:
        for tracer in self.tracers:
            tracer.on_def(instr, value)


#: Sentinel: instruction fell through to the next one in the block.
_FALLTHROUGH = object()


def run_module(
    module: Module,
    func_name: str = "main",
    args: List = (),
    tracers: List[Tracer] = (),
    fuel: int = 50_000_000,
    intrinsics: Dict[str, Callable] = None,
    fast: bool = False,
):
    """Convenience wrapper: build a machine, run, return (result, machine).

    The machine comes from :func:`repro.profiling.compiled.make_machine`:
    the reference interpreter by default, the fast tier with
    ``fast=True``.
    """
    from repro.profiling.compiled import make_machine

    machine = make_machine(module, fuel=fuel, fast=fast)
    for name, fn in (intrinsics or {}).items():
        machine.register_intrinsic(name, fn)
    for tracer in tracers:
        machine.add_tracer(tracer)
    result = machine.run(func_name, args)
    return result, machine
