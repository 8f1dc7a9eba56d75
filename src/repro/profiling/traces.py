"""Hot-trace (superblock) compilation for the block-compiled interpreter.

:class:`~repro.profiling.compiled.CompiledMachine` executes one closure
per instruction plus a driver-loop iteration per basic block.  For hot
paths -- loop bodies above all -- even that is mostly dispatch overhead.
This module splices a *recorded* sequence of consecutive blocks into one
specialized Python function compiled with :func:`compile`/``exec``:

* IR virtual registers become Python **locals** -- no environment-dict
  traffic inside the trace;
* opcodes are inlined as native expressions (``add`` becomes ``+``,
  with exactly the reference interpreter's coercions);
* at every conditional branch whose recorded direction stays on the
  trace, a **guard** keeps execution on the fast path; the off-trace arm
  leaves for the trace's one exit epilogue, which spills the locals
  back to the environment and returns control to the block-level
  driver (guard failure is a fall-back, never an error);
* a trace whose recorded path loops back to its entry block compiles to
  a native ``while`` loop, so a whole hot-loop iteration executes
  without touching the driver;
* the vectorized timing engine
  (:class:`repro.machine.vector_timing.VectorTimingEngine`) and the
  edge-profile counters are invoked inline with statically-known
  blocks/labels, preserving the exact event order of block execution;
* in a block whose per-op tracers offer a
  :class:`~repro.profiling.interp.TraceRecorder`, the trace appends
  their rows itself instead of calling their per-op hooks.

Correctness contract: a trace is only installed when it is bitwise
equivalent to block-by-block execution -- same results, same memory,
same ``Machine.executed``, same tracer event streams, same timing-model
interaction order.  Both answer to one oracle, the reference
:class:`~repro.profiling.interp.Machine`: the differential tests and
the fuzz oracle ``interp`` compare the traced fast tier against it.  Undefined-variable uses are preserved through a
``_MISS`` sentinel: locals not provably assigned before use are
materialized as ``env.get(name, _MISS)`` and checked at each use, so
the reference error surfaces at the same instruction.  The only
tolerated divergence is *where* ``FuelExhausted`` lands on runaway
programs: traces settle fuel once per pass (at side exits and at the
back edge) instead of once per block.

Caching and invalidation: traces are keyed by entry label and hold
their full path signature; they live on the per-run
:class:`_CompiledFunction` code object, so any ``run()`` (and hence any
module mutation between runs) discards them.  Within a run, a trace
whose guards fail too often relative to completed passes is dropped and
re-recorded (a changed branch profile re-specializes the path), and
entry labels that repeatedly fail to produce a useful trace are
blacklisted.

Set ``REPRO_TRACE_BAILOUT=<k>`` (see ``repro.resilience.faults`` for
the convention) to force every *k*-th guard evaluation to exit the
trace at its on-trace label -- a semantic no-op that drives the guard
fall-back and write-back machinery for differential testing.
"""

from __future__ import annotations

import hashlib
from typing import Callable, Dict, List, Optional, Tuple

from repro.ir.block import Block
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
from repro.profiling.compiled import _RETURN
from repro.profiling.edge_profile import EdgeProfile
from repro.profiling.interp import (
    FuelExhausted,
    InterpError,
    _div,
    _mod,
    _shift_count,
)

#: Sentinel for "this local has no binding in the environment".
_MISS = object()

#: (digest of the source, filename) -> code object.  Generated trace
#: source is a pure function of the module IR and the machine
#: configuration (everything machine-specific is bound through the exec
#: namespace, never inlined into the text), so re-recording the same
#: hot path -- across runs, machines, or benchmark rounds -- can skip
#: ``builtins.compile``, by far the most expensive step of trace
#: installation.  Keying by digest keeps no source text alive.
_CODE_CACHE: Dict[Tuple[bytes, str], object] = {}
_CODE_CACHE_LIMIT = 512


def _compile_cached(source: str, filename: str):
    key = (hashlib.blake2b(source.encode(), digest_size=20).digest(), filename)
    code = _CODE_CACHE.get(key)
    if code is None:
        if len(_CODE_CACHE) >= _CODE_CACHE_LIMIT:
            _CODE_CACHE.clear()
        code = compile(source, filename, "exec")
        _CODE_CACHE[key] = code
    return code

#: Binary ops inlined as native expressions.  Each template must be
#: semantically identical to the matching ``interp._BINOPS`` lambda,
#: including evaluation order (left operand first) and coercions.
_BINOP_TEMPLATES = {
    "add": "({} + {})",
    "sub": "({} - {})",
    "mul": "({} * {})",
    "and": "(int({}) & int({}))",
    "or": "(int({}) | int({}))",
    "xor": "(int({}) ^ int({}))",
    "shl": "(int({}) << int({}))",
    "shr": "(int({}) >> int({}))",
    "min": "min({}, {})",
    "max": "max({}, {})",
    "lt": "({} < {})",
    "le": "({} <= {})",
    "gt": "({} > {})",
    "ge": "({} >= {})",
    "eq": "({} == {})",
    "ne": "({} != {})",
}

#: Shifts by anything but a non-negative constant check their count the
#: way ``interp._BINOPS`` does (a negative count is an ``InterpError``).
_CHECKED_SHIFT_TEMPLATES = {
    "shl": "(int({}) << _shift_count({}))",
    "shr": "(int({}) >> _shift_count({}))",
}

_UNOP_TEMPLATES = {
    "neg": "(- {})",
    "not": "(not {})",
    "abs": "abs({})",
    "i2f": "float({})",
    "f2i": "int({})",
}


class TraceStats:
    """Lifetime counters of one trace entry point (accumulated across
    recompilations; surfaced via telemetry and ``repro explain``)."""

    __slots__ = (
        "func",
        "entry",
        "path",
        "cyclic",
        "compiles",
        "entries",
        "passes",
        "side_exits",
        "ops_on_trace",
        "invalidations",
        "exit_counts",
        "gen_pass0",
    )

    def __init__(self, func: str, entry: str):
        self.func = func
        self.entry = entry
        self.path: Tuple[str, ...] = ()
        self.cyclic = False
        self.compiles = 0
        self.entries = 0
        self.passes = 0
        self.side_exits = 0
        self.ops_on_trace = 0
        self.invalidations = 0
        #: Side exits of the *current generation*, keyed by the label
        #: of the block whose guard failed.  Reset at each install;
        #: after an invalidation the re-record reads them to truncate
        #: the new path just past its most unstable branch.
        self.exit_counts: Dict[str, int] = {}
        #: ``passes`` at the current generation's install.
        self.gen_pass0 = 0

    @property
    def guard_failure_rate(self) -> float:
        """Side exits per completed pass (a loop's natural exit counts
        as one side exit per entry, so rates well under 1 are healthy)."""
        return self.side_exits / self.passes if self.passes else 0.0

    def as_dict(self) -> Dict[str, object]:
        return {
            "func": self.func,
            "entry": self.entry,
            "path": list(self.path),
            "cyclic": self.cyclic,
            "compiles": self.compiles,
            "entries": self.entries,
            "passes": self.passes,
            "side_exits": self.side_exits,
            "ops_on_trace": self.ops_on_trace,
            "invalidations": self.invalidations,
            "guard_failure_rate": round(self.guard_failure_rate, 6),
        }


class CompiledTrace:
    """One installed trace: the generated function plus bookkeeping."""

    __slots__ = ("fn", "stats", "entry", "path", "cyclic", "pass0", "exit0", "source")

    def __init__(self, fn: Callable, stats: TraceStats, path: Tuple[str, ...], cyclic: bool, source: str):
        self.fn = fn
        self.stats = stats
        self.entry = path[0]
        self.path = path
        self.cyclic = cyclic
        #: ``stats.passes``/``stats.side_exits`` at install time -- the
        #: guard-failure heuristic is evaluated per trace generation.
        self.pass0 = 0
        self.exit0 = 0
        #: Generated Python source (debugging/tests).
        self.source = source


def _undefined(name: str, func_name: str):
    raise InterpError(f"use of undefined variable {name} in {func_name}")


class _Emitter:
    """Indentation-aware source accumulator."""

    def __init__(self):
        self.lines: List[str] = []
        self.level = 0

    def emit(self, line: str) -> None:
        self.lines.append("    " * self.level + line)

    def source(self) -> str:
        return "\n".join(self.lines) + "\n"


class _TraceCompiler:
    """Compiles one recorded block path of one function into source."""

    def __init__(self, cf, path: List[str], cyclic: bool, stats: TraceStats):
        self.cf = cf
        self.machine = cf.machine
        self.func = cf.func
        self.path = list(path)
        self.cyclic = cyclic
        self.stats = stats
        self.ns: Dict[str, object] = {}
        self.out = _Emitter()
        #: IR variable name -> generated local name.
        self.locals: Dict[str, str] = {}
        #: Names assigned so far in pass-1 linear order.
        self.assigned: set = set()
        #: Not-provably-assigned names whose first (guarded) use has
        #: already been emitted.  Trace code is straight-line with
        #: early returns, so emission order is dominance order: after
        #: one guard ran, the local is known bound and later uses can
        #: read it bare.
        self.checked: set = set()
        self.params = {p.name for p in cf.func.params}
        self.temp_counter = 0
        #: Tracer-dict namespace bindings (EdgeProfile specialization).
        self._tracer_dict_names: Dict[str, str] = {}
        #: (executed-instruction prefix sums) fuel charged at each exit.
        self.fuel_so_far = 0
        hooks = cf.hooks
        #: The machine's VectorTimingEngine, or None.  Traces accumulate
        #: dynamic load/branch ticks in a trace local (``_tk``) and fold
        #: them into the engine's pending counter only at settle points
        #: (integer additions commute, and attribution only happens
        #: inside engine calls, which every settle point precedes) --
        #: saves two Python calls per dynamic load/branch.
        self.engine = cf.machine.timing_engine
        self.on_block = hooks.on_block
        self.on_edge = hooks.on_edge
        #: Pure-EdgeProfile observers get inline dict bumps.
        observers = set(self.on_block) | set(self.on_edge)
        self.edge_profiles = (
            tuple(observers)
            if observers and all(type(t) is EdgeProfile for t in observers)
            else None
        )
        self.bailout = getattr(cf.machine, "_trace_bailout", 0)
        #: label -> the TraceRecorders of a block whose per-op tracers
        #: record it from trace code (empty in a run without any).
        self.recorders: Dict[str, tuple] = cf.recorders
        #: Recorders of the block being emitted, and per recorder index
        #: the row sources (row, defined name, new-value local) its
        #: pending batch will append.
        self.block_recs: tuple = ()
        self._batch: Dict[int, List[tuple]] = {}
        #: id(tracer) -> recorder index; ``_C<i>`` is that tracer.
        self._rec_index: Dict[int, int] = {}
        #: id(row template) -> its namespace name.
        self._template_names: Dict[int, str] = {}
        #: Tuple of tracers an event calls -> its namespace name.
        self._tracer_sets: Dict[tuple, str] = {}
        #: Deferred engine block events (index, block, prev_label) for
        #: blocks whose predecessor is a compile-time constant.  Runs
        #: separated only by unguarded edges are emitted as a single
        #: ``E_blocks`` call (see VectorTimingEngine.blocks); the buffer
        #: is flushed before any other engine event, guard, exit or
        #: call, so engine event order is preserved exactly.
        self._blk_events: List[Tuple[int, Block, str]] = []

    # -- naming helpers ----------------------------------------------

    def _local(self, name: str) -> str:
        local = self.locals.get(name)
        if local is None:
            local = f"_v{len(self.locals)}"
            self.locals[name] = local
        return local

    def _const(self, obj) -> str:
        """Bind a Python object into the namespace, return its name."""
        key = f"_c{self.temp_counter}"
        self.temp_counter += 1
        self.ns[key] = obj
        return key

    # -- operand expressions ------------------------------------------

    def _use(self, value: Value) -> str:
        if isinstance(value, Const):
            return repr(value.value)
        if isinstance(value, Var):
            name = value.name
            local = self._local(name)
            if (
                name in self.params
                or name in self.assigned
                or name in self.checked
            ):
                return local
            self.checked.add(name)
            return f"({local} if {local} is not _MISS else _undef({name!r}))"
        raise _Reject(f"cannot evaluate {value!r}")

    def _use_int(self, value: Value) -> str:
        """``int(...)`` coercion as applied by memory-op address math."""
        if isinstance(value, Const):
            return repr(int(value.value))
        return f"int({self._use(value)})"

    def _assign(self, var) -> str:
        local = self._local(var.name)
        self.assigned.add(var.name)
        return local

    # -- structural helpers -------------------------------------------

    def _split(self, label: str) -> Tuple[Block, List[Phi], List[Instr], Instr]:
        """Phi prefix / body / terminator of one block, mirroring
        ``_CompiledFunction.compile_block``."""
        block = self.cf.block_map.get(label)
        if block is None:
            raise _Reject(f"no block {label!r}")
        instrs = block.instrs
        index = 0
        phis: List[Phi] = []
        while index < len(instrs) and isinstance(instrs[index], Phi):
            phis.append(instrs[index])
            index += 1
        body: List[Instr] = []
        terminator: Optional[Instr] = None
        for instr in instrs[index:]:
            if instr.is_terminator:
                terminator = instr
                break
            body.append(instr)
        if terminator is None:
            raise _Reject(f"block {label} falls off the end")
        return block, phis, body, terminator

    @staticmethod
    def _block_fuel(phis, body, terminator) -> int:
        return len(phis) + len(body) + 1

    # -- event emission ------------------------------------------------

    def _emit_block_event(self, index: int, block: Block, prev_expr: str) -> None:
        emit = self.out.emit
        if self.engine is not None:
            if index == 0:
                # Runtime predecessor: must be a standalone event.
                self._emit_tick_settle()
                name = self._bind_block(index, block)
                emit(f"E_block(F, {name}, {prev_expr})")
            else:
                self._blk_events.append((index, block, self.path[index - 1]))
        tracers = self.cf.hooks.in_block(self.func.name, block.label).on_block
        if not tracers:
            return
        if self.edge_profiles is not None:
            key = self._const((self.func.name, block.label))
            for tracer in tracers:
                counts = self._bind_tracer_dict(tracer, "block")
                emit(f"{counts}[{key}] = {counts}.get({key}, 0) + 1")
        else:
            name = self._bind_block(index, block)
            group = self._tracer_set(tracers)
            emit(f"for _t in {group}: _t.on_block(F, {name}, {prev_expr})")

    def _emit_tick_settle(self) -> None:
        """Fold locally accumulated dynamic ticks into the engine.

        Must precede any engine call (which may flush/attribute pending
        ticks) and any return from the trace."""
        if self.engine is not None:
            self.out.emit("if _tk: ENG._pending += _tk; _tk = 0")

    def _flush_block_events(self) -> None:
        """Emit deferred engine block events at the current (block)
        indentation level -- never inside a conditional arm."""
        buf = self._blk_events
        if not buf:
            return
        self._emit_tick_settle()
        emit = self.out.emit
        if len(buf) == 1:
            for index, block, prev in buf:
                name = self._bind_block(index, block)
                emit(f"E_block(F, {name}, {prev!r})")
        else:
            seq = tuple((self.func, block, prev) for _, block, prev in buf)
            self.engine.register_seq(seq)
            emit(f"E_blocks({self._const(seq)})")
        del buf[:]

    def _emit_edge_event(self, src: str, dst: str) -> None:
        tracers = self.cf.hooks.in_block(self.func.name, src).on_edge
        if not tracers:
            return
        emit = self.out.emit
        if self.edge_profiles is not None:
            key = self._const((self.func.name, src, dst))
            for tracer in tracers:
                counts = self._bind_tracer_dict(tracer, "edge")
                emit(f"{counts}[{key}] = {counts}.get({key}, 0) + 1")
            return
        # A recorder's branch row stands in for its on_edge.
        skip = {id(rec.tracer) for rec in self.recorders.get(src, ())}
        tracers = tuple(t for t in tracers if id(t) not in skip)
        if tracers:
            group = self._tracer_set(tracers)
            emit(f"for _t in {group}: _t.on_edge(F, {src!r}, {dst!r})")

    def _tracer_set(self, tracers: tuple) -> str:
        """The namespace name bound to the tracers one event calls."""
        name = self._tracer_sets.get(tracers)
        if name is None:
            name = self._tracer_sets[tracers] = f"_T{len(self._tracer_sets)}"
            self.ns[name] = tracers
        return name

    def _bind_block(self, index: int, block: Block) -> str:
        name = f"B{index}"
        self.ns[name] = block
        return name

    def _bind_tracer_dict(self, tracer, kind: str) -> str:
        key = f"_{kind}c{id(tracer)}"
        name = self._tracer_dict_names.get(key)
        if name is None:
            name = f"_d{len(self._tracer_dict_names)}"
            self._tracer_dict_names[key] = name
            self.ns[name] = (
                tracer.block_counts if kind == "block" else tracer.edge_counts
            )
        return name

    # -- exits -----------------------------------------------------------

    def _emit_exit(self, dst_label: str, src_label: str, side_exit: bool) -> None:
        """Leave the pass loop for the shared epilogue (:meth:`_emit_epilogue`)
        with this exit's destination, source, fuel and side-exit flag."""
        emit = self.out.emit
        emit(
            f"_e = ({dst_label!r}, {src_label!r}, {self.fuel_so_far}, "
            f"{int(side_exit)})"
        )
        emit("break")

    def _emit_epilogue(self) -> None:
        """The one exit sequence of the trace: settle ticks and fuel,
        count a side exit, spill every assigned local that is bound.

        Names bound on entry (parameters, entry-phi results) spill
        unconditionally; the others only if some pass assigned them."""
        emit = self.out.emit
        emit("_d, _s, _f, _x = _e")
        self._emit_tick_settle()
        emit("M.executed += _f")
        emit("T.ops_on_trace += _f")
        emit("if _x:")
        self.out.level += 1
        emit("T.side_exits += 1")
        emit("_xc = T.exit_counts")
        emit("_xc[_s] = _xc.get(_s, 0) + 1")
        self.out.level -= 1
        bound = self.params | {phi.dest.name for phi in self.entry_phis}
        for name, local in self.locals.items():
            if name not in self.all_assigned:
                continue  # read-only: env already agrees
            if name in bound:
                emit(f"env[{name!r}] = {local}")
            else:
                emit(f"if {local} is not _MISS: env[{name!r}] = {local}")
        emit("return (_d, _s)")

    def _emit_bail(self, dst_label: str, src_label: str) -> None:
        """Forced guard-failure hook: exit at the on-trace label."""
        if not self.bailout:
            return
        self._flush_block_events()
        emit = self.out.emit
        emit("if _BAIL():")
        self.out.level += 1
        self._emit_exit(dst_label, src_label, side_exit=True)
        self.out.level -= 1

    # -- recording ---------------------------------------------------------
    #
    # In a block whose per-op tracers record it from trace code (see
    # repro.profiling.interp.TraceRecorder), each recorder ``i`` has
    # ``_r<i>``, the list its rows go to (read after the block event),
    # and a batch of row sources appended in one statement at the
    # block's end or at its fork; the branch row is appended in each
    # arm of the terminator, where the direction is known.

    def _rec_id(self, rec) -> int:
        index = self._rec_index.get(id(rec.tracer))
        if index is None:
            index = self._rec_index[id(rec.tracer)] = len(self._rec_index)
            self.ns[f"_C{index}"] = rec.tracer
            self.ns[f"_P{index}"] = rec.predict
        return index

    def _template_name(self, template) -> str:
        name = self._template_names.get(id(template))
        if name is None:
            name = self._template_names[id(template)] = self._const(template)
        return name

    def _temp(self, prefix: str) -> str:
        name = f"{prefix}{self.temp_counter}"
        self.temp_counter += 1
        return name

    def _emit_gates(self, label: str) -> None:
        """After block ``label``'s event: where each recorder's rows go."""
        self.block_recs = self.recorders.get(label, ())
        for rec in self.block_recs:
            index = self._rec_id(rec)
            self.out.emit(f"_r{index} = _C{index}._rows")
            self._batch[index] = []

    def _queue_row(self, index: int, row: str, dest: Optional[str] = None,
                   local: Optional[str] = None) -> None:
        batch = self._batch[index]
        if dest is not None and any(name == dest for _, name, _ in batch):
            self._flush_rows(index)  # one def per name per batch
        batch.append((row, dest, local))

    def _record(self, instr: Instr, pred: Optional[str] = None,
                extra: Optional[str] = None, tail: str = "") -> None:
        """Queue ``instr``'s row for every recorder of the block: its
        template, ticks (plus ``extra``), def old/new, then ``tail``."""
        dest = getattr(instr, "dest", None)
        dest = dest.name if dest is not None else None
        for rec in self.block_recs:
            index = self._rec_id(rec)
            if instr is rec.fork:
                self._flush_rows(index)
                self.out.emit(
                    f"if _r{index} is not None: _r{index} = _C{index}._fork()"
                )
                continue
            template = rec.templates[(instr, pred)]
            ticks = repr(template.ticks)
            if extra is not None:
                ticks = f"{ticks} + {extra}"
            if dest is None:
                row = f"({self._template_name(template)}, {ticks}{tail})"
                self._queue_row(index, row)
                continue
            local = self.locals[dest]
            row = (
                f"({self._template_name(template)}, {ticks}, "
                f"_g{index}.get({dest!r}), {local}{tail})"
            )
            self._queue_row(index, row, dest, local)

    def _record_entry_phis(self, phis: List[Phi], prev_expr: str) -> None:
        """Queue the entry block's phi rows, whose templates depend on
        the runtime predecessor: ``_EP<i>[pred][k]`` is the template of
        phi ``k`` entered from ``pred``."""
        for rec in self.block_recs:
            index = self._rec_id(rec)
            preds = set.intersection(*(set(phi.incomings) for phi in phis))
            self.ns[f"_EP{index}"] = {
                pred: tuple(rec.templates[(phi, pred)] for phi in phis)
                for pred in preds
            }
            for k, phi in enumerate(phis):
                dest = phi.dest.name
                ticks = rec.templates[(phi, next(iter(phi.incomings)))].ticks
                local = self.locals[dest]
                self._queue_row(
                    index,
                    f"(_EP{index}[{prev_expr}][{k}], {ticks}, "
                    f"_g{index}.get({dest!r}), {local})",
                    dest, local,
                )

    def _flush_rows(self, only: Optional[int] = None) -> None:
        """Append each recorder's queued rows in one statement, then
        store the defs' new values."""
        emit = self.out.emit
        for rec in self.block_recs:
            index = self._rec_id(rec)
            batch = self._batch[index]
            if not batch or (only is not None and index != only):
                continue
            emit(f"if _r{index} is not None:")
            self.out.level += 1
            updates = [
                f"_g{index}[{dest!r}] = {local}"
                for _, dest, local in batch
                if dest is not None
            ]
            if updates:
                emit(f"_g{index} = _C{index}._reg_values")
            if len(batch) == 1:
                emit(f"_r{index}.append({batch[0][0]})")
            else:
                emit(f"_r{index} += ({', '.join(row for row, _, _ in batch)})")
            for line in updates:
                emit(line)
            self.out.level -= 1
            del batch[:]

    def _emit_branch_rows(self, branch: Branch, key: str, taken: bool) -> None:
        for rec in self.block_recs:
            index = self._rec_id(rec)
            template = rec.templates[(branch, None)]
            base = template.ticks
            emit = self.out.emit
            emit(
                f"if _r{index} is not None: _r{index}.append(("
                f"{self._template_name(template)}, {base + rec.mispredict_ticks} "
                f"if _P{index}({key}, {taken}) else {base}))"
            )

    # -- instruction emission -------------------------------------------

    def _emit_instr(self, instr: Instr) -> None:
        emit = self.out.emit
        recorded = bool(self.block_recs)
        if isinstance(instr, BinOp):
            if instr.op == "div":
                expr = f"_div({self._use(instr.lhs)}, {self._use(instr.rhs)})"
            elif instr.op == "mod":
                expr = f"_mod({self._use(instr.lhs)}, {self._use(instr.rhs)})"
            else:
                template = _BINOP_TEMPLATES.get(instr.op)
                if template is None:
                    raise _Reject(f"unknown binop {instr.op!r}")
                if instr.op in _CHECKED_SHIFT_TEMPLATES and not (
                    isinstance(instr.rhs, Const) and int(instr.rhs.value) >= 0
                ):
                    template = _CHECKED_SHIFT_TEMPLATES[instr.op]
                expr = template.format(self._use(instr.lhs), self._use(instr.rhs))
            emit(f"{self._assign(instr.dest)} = {expr}")
        elif isinstance(instr, UnOp):
            template = _UNOP_TEMPLATES.get(instr.op)
            if template is None:
                raise _Reject(f"unknown unop {instr.op!r}")
            emit(f"{self._assign(instr.dest)} = {template.format(self._use(instr.src))}")
        elif isinstance(instr, Copy):
            expr = self._use(instr.src)
            emit(f"{self._assign(instr.dest)} = {expr}")
        elif isinstance(instr, LoadAddr):
            base = self.machine.symbol_base(self.func, instr.sym)
            emit(f"{self._assign(instr.dest)} = {base!r}")
        elif isinstance(instr, Load):
            self._flush_block_events()
            # A recorded load keeps its address and ticks for its row.
            addr = self._temp("_a") if recorded else "_a"
            emit(f"{addr} = {self._use_int(instr.base)} + {self._use_int(instr.offset)}")
            emit("_m = M.memory")
            emit(f"if not (0 <= {addr} < len(_m)):")
            self.out.level += 1
            emit(f'raise InterpError(f"load from invalid address {{{addr}}}")')
            self.out.level -= 1
            emit(f"{self._assign(instr.dest)} = _m[{addr}]")
            if recorded:
                ticks = self._temp("_l")
                emit(f"{ticks} = E_load({addr})")
                emit(f"_tk += {ticks}")
                self._record(instr, extra=ticks, tail=f", {addr}")
                return
            if self.engine is not None:
                emit(f"_tk += E_load({addr})")
            return
        elif isinstance(instr, Store):
            self._flush_block_events()
            addr = self._temp("_a") if recorded else "_a"
            value = self._temp("_s") if recorded else "_val"
            emit(f"{addr} = {self._use_int(instr.base)} + {self._use_int(instr.offset)}")
            emit(f"{value} = {self._use(instr.value)}")
            emit("_m = M.memory")
            emit(f"if not (0 <= {addr} < len(_m)):")
            self.out.level += 1
            # The reference's store reads the old value first.
            emit(f'raise InterpError(f"load from invalid address {{{addr}}}")')
            self.out.level -= 1
            if recorded:
                old = self._temp("_o")
                emit(f"{old} = _m[{addr}]")
                self._record(instr, tail=f", {addr}, {old}, {value}")
            emit(f"_m[{addr}] = {value}")
            if self.engine is not None:
                emit(f"E_store({addr})")
            return
        elif isinstance(instr, Call):
            if recorded:
                raise _Reject("a call's row is built by the hooks")
            self._flush_block_events()
            self._emit_tick_settle()
            invoke = self._const(self._make_invoker(instr))
            args = ", ".join(self._use(a) for a in instr.args)
            call = f"{invoke}([{args}])"
            if instr.dest is not None:
                emit(f"{self._assign(instr.dest)} = {call}")
            else:
                emit(call)
            return
        elif isinstance(instr, (SptFork, SptKill)):
            pass  # sequential no-ops; recorded as rows where observed
        else:
            raise _Reject(f"cannot compile {instr!r}")
        if recorded:
            self._record(instr)

    def _make_invoker(self, instr: Call) -> Callable:
        machine = self.machine
        callee = instr.callee
        if callee in machine.module.functions:
            target = machine.module.functions[callee]

            def invoke(args):
                return machine._call_function(target, args)

            return invoke
        if callee in machine.intrinsics:
            intrinsic = machine.intrinsics[callee]

            def invoke(args):
                return intrinsic(machine, *args)

            return invoke

        def invoke(args):
            raise InterpError(f"call to unknown function {callee!r}")

        return invoke

    # -- phi emission ----------------------------------------------------

    def _emit_phi_assign(self, phis: List[Phi], pred: str) -> None:
        """Parallel phi-batch assignment from the on-trace predecessor."""
        exprs = []
        for phi in phis:
            incoming = phi.incomings.get(pred)
            if incoming is None:
                raise _Reject(f"phi {phi.dest} has no incoming for {pred}")
            exprs.append(self._use(incoming))
        # Right-hand side evaluates fully against pre-assignment state:
        # the parallel semantics of the reference interpreter.
        targets = ", ".join(self._assign(phi.dest) for phi in phis)
        if len(phis) == 1:
            self.out.emit(f"{targets} = {exprs[0]}")
        else:
            self.out.emit(f"{targets} = ({', '.join(exprs)})")

    # -- terminator emission --------------------------------------------

    def _emit_branch_event(self, key: str, taken: str) -> None:
        self.out.emit(f"_tk += E_branch({key}, {taken})")

    def _emit_terminator(self, index: int, label: str, terminator: Instr) -> None:
        """Emit guard/exit/back-edge logic for block ``index``."""
        emit = self.out.emit
        last = index == len(self.path) - 1
        on_target = None
        if not last:
            on_target = self.path[index + 1]
        elif self.cyclic:
            on_target = self.path[0]

        if not isinstance(terminator, Branch) and self.block_recs:
            self._record(terminator)
        self._flush_rows()

        if isinstance(instr := terminator, Return):
            if not last:
                raise _Reject("return mid-trace")
            self._flush_block_events()
            self._emit_tick_settle()
            value = "None" if instr.value is None else self._use(instr.value)
            emit(f"env['$ret'] = {value}")
            emit(f"M.executed += {self.fuel_so_far}")
            emit(f"T.ops_on_trace += {self.fuel_so_far}")
            emit(f"return (_RET, {label!r})")
            return

        if isinstance(terminator, Jump):
            target = terminator.target
            if target not in self.cf.block_map:
                raise _Reject(f"jump to unknown block {target!r}")
            if on_target is not None and target != on_target:
                raise _Reject("recorded path diverges from jump target")
            self._emit_edge_event(label, target)
            if on_target is None:
                self._flush_block_events()
                self._emit_exit(target, label, side_exit=False)
            elif last:
                self._emit_back_edge(label)
            else:
                self._emit_bail(target, label)
            return

        if isinstance(terminator, Branch):
            iftrue, iffalse = terminator.iftrue, terminator.iffalse
            for target in (iftrue, iffalse):
                if target not in self.cf.block_map:
                    raise _Reject(f"branch to unknown block {target!r}")
            self._flush_block_events()
            cond = self._use(terminator.cond)
            key = self._const(id(terminator))
            self.ns.setdefault("_pins", []).append(terminator)  # pin id
            if iftrue == iffalse:
                if on_target is not None and iftrue != on_target:
                    raise _Reject("recorded path diverges from branch target")
                emit(f"_cnd = {cond}")
                if self.engine is not None:
                    self._emit_branch_event(key, "True")
                self._emit_branch_rows(terminator, key, True)
                self._emit_edge_event(label, iftrue)
                if on_target is None:
                    self._emit_exit(iftrue, label, side_exit=False)
                elif last:
                    self._emit_back_edge(label)
                else:
                    self._emit_bail(iftrue, label)
                return
            if on_target is None:
                # Final block of a linear trace: both arms leave.
                emit(f"if {cond}:")
                self.out.level += 1
                if self.engine is not None:
                    self._emit_branch_event(key, "True")
                self._emit_branch_rows(terminator, key, True)
                self._emit_edge_event(label, iftrue)
                self._emit_exit(iftrue, label, side_exit=False)
                self.out.level -= 1
                emit("else:")
                self.out.level += 1
                if self.engine is not None:
                    self._emit_branch_event(key, "False")
                self._emit_branch_rows(terminator, key, False)
                self._emit_edge_event(label, iffalse)
                self._emit_exit(iffalse, label, side_exit=False)
                self.out.level -= 1
                return
            if on_target not in (iftrue, iffalse):
                raise _Reject("recorded path diverges from branch targets")
            stay_on_true = on_target == iftrue
            off_target = iffalse if stay_on_true else iftrue
            # The off-trace arm always emits code (it ends in a return),
            # so the guard tests the *off* condition; the on-trace case
            # falls through to block level, which may emit nothing.
            emit(f"if not ({cond}):" if stay_on_true else f"if {cond}:")
            self.out.level += 1
            if self.engine is not None:
                self._emit_branch_event(key, repr(not stay_on_true))
            self._emit_branch_rows(terminator, key, not stay_on_true)
            self._emit_edge_event(label, off_target)
            self._emit_exit(off_target, label, side_exit=True)
            self.out.level -= 1
            if self.engine is not None:
                self._emit_branch_event(key, repr(stay_on_true))
            self._emit_branch_rows(terminator, key, stay_on_true)
            self._emit_edge_event(label, on_target)
            if last:
                self._emit_back_edge(label)
            else:
                self._emit_bail(on_target, label)
            return

        raise _Reject(f"cannot compile terminator {terminator!r}")

    def _emit_back_edge(self, src_label: str) -> None:
        """Close one pass of a cyclic trace: bail hook, entry-block phi
        update from the latch, fuel settlement, loop-variant prev."""
        emit = self.out.emit
        self._flush_block_events()
        self._emit_bail(self.path[0], src_label)
        entry_phis = self.entry_phis
        if entry_phis:
            self._emit_phi_assign(entry_phis, src_label)
        emit(f"M.executed += {self.fuel_so_far}")
        emit(f"T.ops_on_trace += {self.fuel_so_far}")
        if self.uses_prev_var:
            emit(f"_p = {src_label!r}")

    # -- top level -------------------------------------------------------

    def compile(self) -> Optional[CompiledTrace]:
        try:
            return self._compile()
        except _Reject:
            return None

    def _compile(self) -> CompiledTrace:
        cf = self.cf
        machine = self.machine

        # Pre-split every block up front (any rejection aborts cleanly
        # before code generation).
        parts = [self._split(label) for label in self.path]
        entry_block, entry_phi_list, _, _ = parts[0]
        self.entry_phis = entry_phi_list
        self.uses_prev_var = self.cyclic and (
            self.engine is not None or bool(self.on_block)
            or bool(self.recorders)
        )

        ns = self.ns
        ns.update(
            _MISS=_MISS,
            _RET=_RETURN,
            M=machine,
            T=self.stats,
            F=self.func,
            InterpError=InterpError,
            FuelExhausted=FuelExhausted,
            _div=_div,
            _mod=_mod,
            _shift_count=_shift_count,
        )
        func_name = self.func.name
        ns["_undef"] = lambda name: _undefined(name, func_name)
        if self.engine is not None:
            ns["E_block"] = self.engine.block
            # store() only write-allocates; bind the hierarchy directly.
            ns["E_store"] = self.engine.model.hierarchy.fill_for_write
            # Ticks accumulate in the `_tk` local; bind the raw
            # tick-returning model entry points.
            ns["ENG"] = self.engine
            ns["E_load"] = self.engine.model.hierarchy.access_ticks
            ns["E_branch"] = self.engine.model.branch_ticks
            ns["E_blocks"] = self.engine.blocks
        if self.bailout:
            ns["_BAIL"] = machine._trace_bail
        ns["_FUEL"] = machine.fuel
        ns["_FMSG"] = f"exceeded {machine.fuel} dynamic instructions"

        out = self.out
        out.emit("def _trace(env, prev):")
        out.level += 1
        out.emit("T.entries += 1")

        # Entry-block phis come from an arbitrary off-trace predecessor:
        # apply them through the block-compiled batch machinery.
        if entry_phi_list:
            ns["_entry_phis"] = _make_entry_applier(cf, self.path[0])
            out.emit("_entry_phis(env, prev)")

        # Emit the body into a scratch buffer first: emission discovers
        # every IR name the trace touches, and the preamble that binds
        # those names to locals is then prepended.
        body_lines = self._emit_body(parts)
        preamble = [
            f"{local} = env.get({name!r}, _MISS)"
            for name, local in self.locals.items()
        ]
        for line in preamble:
            out.emit(line)
        out.lines.extend(body_lines)

        source = out.source()
        code = _compile_cached(source, f"<trace {func_name}:{self.path[0]}>")
        exec(code, ns)
        # Popped so the namespace does not refer back to its function: a
        # dropped trace is then freed by reference counting.
        trace = CompiledTrace(
            ns.pop("_trace"), self.stats, tuple(self.path), self.cyclic,
            source,
        )
        return trace

    def _emit_body(self, parts) -> List[str]:
        """Emit the per-pass body into a scratch emitter; returns its
        lines (indented relative to the function body)."""
        outer = self.out
        self.out = _Emitter()
        self.out.level = outer.level
        emit = self.out.emit

        if self.engine is not None:
            emit("_tk = 0")
        if self.uses_prev_var:
            emit("_p = prev")
        # Every exit leaves this loop for the shared epilogue; a linear
        # trace runs its body once.
        emit("while True:")
        self.out.level += 1
        emit("T.passes += 1")
        emit("if M.executed > _FUEL:")
        self.out.level += 1
        emit("raise FuelExhausted(_FMSG)")
        self.out.level -= 1
        if self.machine.watchdog is not None:
            self.ns["_WD"] = self.machine.watchdog
            emit("_WD.poll()")

        self.all_assigned = self._collect_assigned(parts)
        # Register every assigned name up front: a side exit early in
        # the path must still spill names assigned later (bound during
        # an earlier pass of a cyclic trace).  Sorted for deterministic
        # generated source.
        for name in sorted(self.all_assigned):
            self._local(name)
        self.fuel_so_far = 0
        for index, (block, phis, body, terminator) in enumerate(parts):
            label = self.path[index]
            self.fuel_so_far += self._block_fuel(phis, body, terminator)
            if index == 0:
                prev_expr = "_p" if self.uses_prev_var else "prev"
                self._emit_block_event(index, block, prev_expr)
                self._emit_gates(label)
                # Entry phis were applied to env before the preamble
                # (first pass) or by the back-edge section (later
                # passes); mark their dests as bound.  Their rows
                # follow the block event that opens the iteration.
                for phi in phis:
                    self.assigned.add(phi.dest.name)
                    self._local(phi.dest.name)
                if phis and self.block_recs:
                    self._record_entry_phis(phis, prev_expr)
            else:
                self._emit_block_event(index, block, repr(self.path[index - 1]))
                self._emit_gates(label)
                if phis:
                    self._emit_phi_assign(phis, self.path[index - 1])
                    if self.block_recs:
                        for phi in phis:
                            self._record(phi, pred=self.path[index - 1])
            for instr in body:
                self._emit_instr(instr)
            self._emit_terminator(index, label, terminator)

        # Every terminator path ends in an exit/back-edge, all of which
        # flush; a leftover here would mean silently dropped events.
        assert not self._blk_events
        self.out.level -= 1
        self._emit_epilogue()
        lines = self.out.lines
        self.out = outer
        return lines

    def _collect_assigned(self, parts) -> set:
        assigned = set()
        for _, phis, body, _ in parts:
            for phi in phis:
                assigned.add(phi.dest.name)
            for instr in body:
                dest = getattr(instr, "dest", None)
                if dest is not None:
                    assigned.add(dest.name)
        return assigned


class _Reject(Exception):
    """Internal: the recorded path cannot be compiled to a trace."""


def _make_entry_applier(cf, entry_label: str):
    """Apply the entry block's phi batch for a runtime predecessor,
    with exactly the driver-loop semantics but unobserved: a recorded
    entry block records its phis after its block event."""
    block = cf.block_map[entry_label]
    phis = []
    for instr in block.instrs:
        if not isinstance(instr, Phi):
            break
        phis.append(instr)
    batches = {
        prev: tuple(
            (phi.dest.name, cf._accessor(phi.incomings[prev])) for phi in phis
        )
        for prev in phis[0].incomings
        if all(prev in phi.incomings for phi in phis)
    }

    def apply_entry(env, prev):
        if prev is None:
            raise InterpError(f"phi in entry block {entry_label}")
        batch = batches.get(prev)
        if batch is None:
            cf._phi_error(phis, entry_label, prev)
        if len(batch) == 1:
            dest, get = batch[0]
            env[dest] = get(env)
        else:
            updates = [(dest, get(env)) for dest, get in batch]
            for dest, value in updates:
                env[dest] = value

    return apply_entry


def compile_trace(cf, path: List[str], cyclic: bool, stats: TraceStats) -> Optional[CompiledTrace]:
    """Compile a recorded path into a :class:`CompiledTrace`, or return
    ``None`` when the path contains constructs the trace compiler does
    not support (the block-level driver remains fully capable)."""
    try:
        compiler = _TraceCompiler(cf, path, cyclic, stats)
        trace = compiler.compile()
    except InterpError:
        return None
    if trace is not None:
        stats.path = trace.path
        stats.cyclic = cyclic
    return trace
