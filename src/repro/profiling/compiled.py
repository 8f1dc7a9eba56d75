"""Block-compiled interpreter fast path.

:class:`~repro.profiling.interp.Machine` dispatches every dynamic
instruction through an ``isinstance`` chain and evaluates operands
through :meth:`Machine._eval`, paying the full interpretive overhead
50 million times per profiling run.  :class:`CompiledMachine` removes
that overhead by pre-compiling each basic block *once*, on first
execution, into a flat list of specialized closures:

* **operand accessors are resolved at compile time** -- constants are
  captured as Python values, variables become single dict lookups, and
  ``LoadAddr`` folds the symbol table lookup into a constant;
* **opcode dispatch is hoisted** -- the ``_BINOPS`` table lookup happens
  at block-compile time, so executing an ``add`` is one closure call;
* **phi batches are precomputed per predecessor label** -- entering a
  block through label ``L`` applies a prepared (dest, accessor) list
  with the parallel-assignment semantics of the reference interpreter;
* **tracer-aware specialization** -- at ``run()`` time the machine
  inspects which :class:`Tracer` hooks each attached tracer actually
  overrides and emits hook calls only for those, so the common
  zero-tracer (and edge-profile-only) case pays nothing for the
  observer interface; per-instruction hooks are compiled only into the
  blocks a tracer's ``op_scope`` names (``on_block`` and ``on_edge``
  likewise into those of its ``block_scope`` and ``edge_scope``), and
  where one tracer alone observes an op, its ``op_recorder`` closure
  replaces the ``on_instr``/``on_def`` dispatch around it;
* **batched fuel accounting** -- fuel is charged once per block with a
  single comparison instead of once per instruction.

Two further layers stack on top of the block-compiled path:

* **hot-trace splicing**: block paths that stay hot are recorded and
  compiled into single superblock functions with guarded side exits
  (:mod:`repro.profiling.traces`) -- everywhere when no per-op observer
  (``on_instr``, ``on_def``, ``on_load``, ``on_store``, ``on_call``) is
  attached; when one is, only if some observer records blocks from
  trace code, and then on every block outside all per-op scopes and
  on those whose observers all record them
  (:meth:`_CompiledFunction._eligibility`);
* a **vectorized timing engine** (``timing_engine=...``): block-batched
  cycle accounting that replaces a per-op
  :class:`~repro.machine.timing.TimingTracer`
  (:mod:`repro.machine.vector_timing`), driven from the block driver
  and from inside compiled traces.

Semantics match the reference interpreter -- the one oracle -- exactly
on well-formed programs: return values, memory state,
``Machine.executed`` counts and tracer event streams are all identical
(the differential tests in ``tests/profiling/test_compiled.py`` and
``tests/profiling/test_trace_interp.py`` assert this over the whole
benchmark suite, and the fuzz oracle ``interp`` over generated
programs).  The only tolerated divergence is *which* error
surfaces first on already-broken programs: batched fuel may exhaust at
block entry (or, under traces, at a pass boundary) where the reference
interpreter would first hit, say, a division by zero mid-block.
"""

from __future__ import annotations

import os
from typing import Callable, Dict, List, Optional, Tuple

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
from repro.profiling.interp import (
    _BINOPS,
    _UNOPS,
    _div,
    _mod,
    FuelExhausted,
    InterpError,
    Machine,
    Tracer,
)

#: Sentinel returned by terminator closures on function return.
_RETURN = object()

#: Sentinel in ``_CompiledFunction.traces``: this entry label is known
#: not to yield a useful trace; never record it again this run.
_BLACKLISTED = object()

#: Longest recordable path (superblock size cap).
_TRACE_MAX_BLOCKS = 32

#: Trace-count cap per function (memory bound).
_TRACE_MAX_PER_FUNC = 64

#: Hot threshold multiplier for blocks recorded from trace code.
_RECORDED_HOT_FACTOR = 4

#: Tracer hooks fired once per executed instruction; a tracer's
#: ``op_scope`` bounds the blocks they are compiled into.
_PER_OP_HOOKS = ("on_instr", "on_def", "on_load", "on_store", "on_call")

#: Tracer hook names that affect compiled code generation.
_HOOK_NAMES = (
    "on_enter_function",
    "on_exit_function",
    "on_block",
    "on_edge",
) + _PER_OP_HOOKS


def _no_op(env) -> None:
    return None


class _Hooks:
    """Tracers bucketed by the hooks they actually override.

    A tracer subscribes to a hook iff its class overrides the base
    :class:`Tracer` method; un-overridden no-op hooks are elided from
    the compiled code entirely.  :meth:`in_block` narrows the
    per-instruction buckets to the tracers whose ``op_scope`` holds a
    block, and ``on_block`` / ``on_edge`` to those whose
    ``block_scope`` / ``edge_scope`` does.
    """

    __slots__ = _HOOK_NAMES + (
        "scopes", "block_scopes", "edge_scopes", "per_op_tracers",
        "recording",
    )

    def __init__(self, tracers, module: Module):
        for name in _HOOK_NAMES:
            base = getattr(Tracer, name)
            setattr(self, name, tuple(
                t for t in tracers if getattr(type(t), name, base) is not base
            ))
        #: Every tracer with a per-instruction hook.
        self.per_op_tracers = tuple(
            t for t in tracers
            if any(t in getattr(self, n) for n in _PER_OP_HOOKS)
        )
        #: Whether one of them can record blocks from trace code.
        self.recording = any(
            type(t).trace_recorder is not Tracer.trace_recorder
            for t in self.per_op_tracers
        )
        #: id(tracer) -> function name -> labels, for every per-op
        #: tracer that declares a scope.
        self.scopes = _declared(self.per_op_tracers, "op_scope", module)
        #: The same for ``on_block`` and ``on_edge`` (source blocks).
        self.block_scopes = _declared(self.on_block, "block_scope", module)
        self.edge_scopes = _declared(self.on_edge, "edge_scope", module)

    @property
    def per_op(self) -> bool:
        """Whether any per-instruction hook is attached anywhere (hot
        traces then run only where its tracers record them)."""
        return any(getattr(self, name) for name in _PER_OP_HOOKS)

    def in_block(self, func_name: str, label: str) -> "_Hooks":
        """These hooks, with each per-instruction bucket, ``on_block``
        and ``on_edge`` (for edges out of the block) narrowed to the
        tracers whose scope holds block ``label`` of ``func_name``."""
        if not (self.scopes or self.block_scopes or self.edge_scopes):
            return self
        narrowed = object.__new__(_Hooks)
        for name in self.__slots__:
            setattr(narrowed, name, getattr(self, name))
        for name in _PER_OP_HOOKS:
            setattr(narrowed, name, _within(
                getattr(self, name), self.scopes, func_name, label
            ))
        narrowed.on_block = _within(
            self.on_block, self.block_scopes, func_name, label
        )
        narrowed.on_edge = _within(
            self.on_edge, self.edge_scopes, func_name, label
        )
        return narrowed


def _declared(tracers, method: str, module: Module) -> Dict[int, Dict[str, set]]:
    """id(tracer) -> function name -> labels, for each of ``tracers``
    whose scope ``method`` declares a scope."""
    scopes = {}
    for tracer in tracers:
        scope = getattr(tracer, method)(module)
        if scope is not None:
            scopes[id(tracer)] = scope
    return scopes


def _within(tracers, scopes, func_name: str, label: str) -> tuple:
    """The tracers that declare no scope or whose scope holds ``label``
    of ``func_name``."""
    return tuple(
        t for t in tracers
        if id(t) not in scopes or label in scopes[id(t)].get(func_name, ())
    )


class _CompiledBlock:
    """One basic block lowered to closures."""

    __slots__ = (
        "block", "fuel", "ops", "term", "phis", "phi_batches", "on_block",
        "on_edge",
    )

    def __init__(self, block: Block):
        self.block = block
        #: Fuel charged on entry: the instructions the reference
        #: interpreter would execute in this block.
        self.fuel = 0
        #: Straight-line (non-phi, non-terminator) closures.
        self.ops: Tuple[Callable, ...] = ()
        #: Terminator closure: env -> next label | _RETURN (or raises).
        self.term: Callable = None
        #: The phi prefix (for diagnostics), or ().
        self.phis: Tuple[Phi, ...] = ()
        #: prev label -> precomputed batch of (dest_name, accessor)
        #: pairs (the accessor runs the phi's hooks too), or None when
        #: the block has no phis.
        self.phi_batches: Optional[Dict[str, tuple]] = None
        #: The tracers whose ``on_block`` this block's entry calls, and
        #: whose ``on_edge`` the edges out of it call.
        self.on_block: tuple = ()
        self.on_edge: tuple = ()


class _CompiledFunction:
    """Lazily block-compiled code for one function on one machine."""

    def __init__(self, machine: "CompiledMachine", func: Function, hooks: _Hooks):
        self.machine = machine
        self.func = func
        self.hooks = hooks
        self.block_map = func.block_map()
        self.blocks: Dict[str, _CompiledBlock] = {}
        #: entry label -> CompiledTrace | _BLACKLISTED.
        self.traces: Dict[str, object] = {}
        #: entry label -> executions since the last (re)record.
        self.hot_counts: Dict[str, int] = {}
        #: entry label -> unusable-recording count (blacklist after 3).
        self.reject_counts: Dict[str, int] = {}
        #: label -> the TraceRecorders of a block that traces although
        #: per-op tracers observe it (see :meth:`_eligibility`).
        self.recorders: Dict[str, tuple] = {}
        #: entry label -> (path, cyclic) of its last recording while
        #: that recording waits for a second, agreeing one.
        self.unconfirmed: Dict[str, tuple] = {}
        #: Labels that never join a trace.
        self.untraceable = frozenset()
        if hooks.recording:
            self._eligibility()
        #: Whether any block of this function may trace.
        self.tracing = not hooks.per_op or hooks.recording
        #: Installed-trace budget; untraceable labels sit in ``traces``
        #: as blacklisted entries on top of it.
        self.trace_budget = _TRACE_MAX_PER_FUNC + len(self.untraceable)
        if self.tracing:
            for label in self.untraceable:
                self.traces[label] = _BLACKLISTED

    def _eligibility(self) -> None:
        """With per-op tracers attached, a block their per-op hooks
        reach may trace only where every such tracer offers a
        :class:`~repro.profiling.interp.TraceRecorder` for it; a block
        outside every scope traces as in an unobserved run."""
        func = self.func
        module = self.machine.module
        engine = self.machine.timing_engine
        scopes = self.hooks.scopes
        per_op = self.hooks.per_op_tracers
        untraceable = set()
        for block in func.blocks:
            label = block.label
            offers = tuple(
                t.trace_recorder(module, func, block, engine)
                for t in per_op
                if id(t) not in scopes
                or label in scopes[id(t)].get(func.name, ())
            )
            if not offers:
                continue
            if all(offer is not None for offer in offers):
                self.recorders[label] = offers
            else:
                untraceable.add(label)
        self.untraceable = frozenset(untraceable)

    # -- operand accessors -------------------------------------------

    def _accessor(self, value: Value) -> Callable:
        if isinstance(value, Const):
            const = value.value
            return lambda env: const
        if isinstance(value, Var):
            name = value.name
            func_name = self.func.name

            def get(env):
                try:
                    return env[name]
                except KeyError:
                    raise InterpError(
                        f"use of undefined variable {name} in {func_name}"
                    ) from None

            return get
        raise InterpError(f"cannot evaluate {value!r}")

    # -- per-instruction cores ---------------------------------------
    #
    # A core executes one instruction against an environment and
    # returns the defined value (or None for pure effects); ``hooks``
    # are the block's, and the on_instr/on_def wrapping happens in
    # :meth:`_observed`.

    def _binop_core(self, instr: BinOp, hooks: _Hooks) -> Callable:
        dest = instr.dest.name
        if instr.op == "div":
            fn = _div
        elif instr.op == "mod":
            fn = _mod
        else:
            fn = _BINOPS[instr.op]
        lhs, rhs = instr.lhs, instr.rhs
        func_name = self.func.name
        # The Var/Var and Var/Const shapes dominate hot loops; inline
        # the environment lookups so one closure call executes the op.
        if isinstance(lhs, Var) and isinstance(rhs, Var):
            n1, n2 = lhs.name, rhs.name

            def core(env):
                try:
                    value = fn(env[n1], env[n2])
                except KeyError as exc:
                    raise InterpError(
                        f"use of undefined variable {exc.args[0]} in {func_name}"
                    ) from None
                env[dest] = value
                return value

            return core
        if isinstance(lhs, Var) and isinstance(rhs, Const):
            n1, c2 = lhs.name, rhs.value

            def core(env):
                try:
                    value = fn(env[n1], c2)
                except KeyError:
                    raise InterpError(
                        f"use of undefined variable {n1} in {func_name}"
                    ) from None
                env[dest] = value
                return value

            return core
        get_lhs = self._accessor(lhs)
        get_rhs = self._accessor(rhs)

        def core(env):
            value = fn(get_lhs(env), get_rhs(env))
            env[dest] = value
            return value

        return core

    def _unop_core(self, instr: UnOp, hooks: _Hooks) -> Callable:
        dest = instr.dest.name
        fn = _UNOPS[instr.op]
        get_src = self._accessor(instr.src)

        def core(env):
            value = fn(get_src(env))
            env[dest] = value
            return value

        return core

    def _copy_core(self, instr: Copy, hooks: _Hooks) -> Callable:
        dest = instr.dest.name
        get_src = self._accessor(instr.src)

        def core(env):
            value = get_src(env)
            env[dest] = value
            return value

        return core

    def _loadaddr_core(self, instr: LoadAddr, hooks: _Hooks) -> Callable:
        # The symbol table is fixed at machine construction; fold the
        # lookup into a constant.
        base = self.machine.symbol_base(self.func, instr.sym)
        dest = instr.dest.name

        def core(env):
            env[dest] = base
            return base

        return core

    def _load_core(self, instr: Load, hooks: _Hooks) -> Callable:
        dest = instr.dest.name
        get_base = self._accessor(instr.base)
        get_off = self._accessor(instr.offset)
        machine = self.machine
        on_load = hooks.on_load
        engine = machine.timing_engine
        if on_load:
            e_load = engine.load if engine is not None else None

            def core(env):
                addr = int(get_base(env)) + int(get_off(env))
                value = machine.read_mem(addr)
                if e_load is not None:
                    e_load(addr)
                for t in on_load:
                    t.on_load(instr, addr, value)
                env[dest] = value
                return value

            return core

        if engine is not None:
            e_load = engine.load

            def core(env):
                addr = int(get_base(env)) + int(get_off(env))
                mem = machine.memory
                if 0 <= addr < len(mem):
                    value = mem[addr]
                else:
                    raise InterpError(f"load from invalid address {addr}")
                e_load(addr)
                env[dest] = value
                return value

            return core

        def core(env):
            addr = int(get_base(env)) + int(get_off(env))
            mem = machine.memory
            if 0 <= addr < len(mem):
                value = mem[addr]
            else:
                raise InterpError(f"load from invalid address {addr}")
            env[dest] = value
            return value

        return core

    def _store_core(self, instr: Store, hooks: _Hooks) -> Callable:
        # An out-of-range store fails as in the reference interpreter,
        # whose store reads the old value first: "load from invalid
        # address".
        get_base = self._accessor(instr.base)
        get_off = self._accessor(instr.offset)
        get_value = self._accessor(instr.value)
        machine = self.machine
        on_store = hooks.on_store
        engine = machine.timing_engine
        if on_store:
            e_store = (
                engine.model.hierarchy.fill_for_write
                if engine is not None
                else None
            )

            def core(env):
                addr = int(get_base(env)) + int(get_off(env))
                value = get_value(env)
                old = machine.read_mem(addr)
                machine.write_mem(addr, value)
                if e_store is not None:
                    e_store(addr)
                for t in on_store:
                    t.on_store(instr, addr, value, old)
                return None

            return core

        if engine is not None:
            # store() only write-allocates; bind the hierarchy directly.
            e_store = engine.model.hierarchy.fill_for_write

            def core(env):
                addr = int(get_base(env)) + int(get_off(env))
                value = get_value(env)
                mem = machine.memory
                if 0 <= addr < len(mem):
                    mem[addr] = value
                else:
                    raise InterpError(f"load from invalid address {addr}")
                e_store(addr)
                return None

            return core

        def core(env):
            addr = int(get_base(env)) + int(get_off(env))
            value = get_value(env)
            mem = machine.memory
            if 0 <= addr < len(mem):
                mem[addr] = value
            else:
                raise InterpError(f"load from invalid address {addr}")
            return None

        return core

    def _call_core(self, instr: Call, hooks: _Hooks) -> Callable:
        machine = self.machine
        arg_accessors = tuple(self._accessor(a) for a in instr.args)
        on_call = hooks.on_call
        callee = instr.callee
        dest = instr.dest.name if instr.dest is not None else None

        # Resolve the callee at compile time (functions and intrinsics
        # are both registered before execution starts).
        if callee in machine.module.functions:
            target = machine.module.functions[callee]

            def invoke(args):
                return machine._call_function(target, args)

        elif callee in machine.intrinsics:
            intrinsic = machine.intrinsics[callee]

            def invoke(args):
                return intrinsic(machine, *args)

        else:

            def invoke(args):
                raise InterpError(f"call to unknown function {callee!r}")

        def core(env):
            args = [get(env) for get in arg_accessors]
            for t in on_call:
                t.on_call(instr, args)
            value = invoke(args)
            if dest is not None:
                env[dest] = value
            return value

        return core

    def _raise_core(self, instr: Instr, hooks: _Hooks) -> Callable:
        def core(env):
            raise InterpError(f"cannot execute {instr!r}")

        return core

    @staticmethod
    def _marker_core(instr: Instr, hooks: _Hooks) -> Optional[Callable]:
        # SPT markers are sequential no-ops: they exist only for
        # on_instr hooks, and are dropped where none observes them.
        return _no_op if hooks.on_instr else None

    # -- terminators ---------------------------------------------------

    def _compile_term(self, block: Block, instr: Optional[Instr]) -> Callable:
        if instr is None:
            label = block.label

            def term(env):
                raise InterpError(f"block {label} fell off the end")

        elif isinstance(instr, Jump):
            target = instr.target

            def term(env):
                return target

        elif isinstance(instr, Branch):
            get_cond = self._accessor(instr.cond)
            iftrue, iffalse = instr.iftrue, instr.iffalse
            engine = self.machine.timing_engine
            if engine is not None:
                e_branch = engine.branch
                key = id(instr)
                # taken == (destination is iftrue), degenerate
                # same-target branches included (mirrors TimingTracer).
                same = iftrue == iffalse

                def term(env, _pin=instr):
                    if get_cond(env):
                        e_branch(key, True)
                        return iftrue
                    e_branch(key, same)
                    return iffalse

            else:

                def term(env):
                    return iftrue if get_cond(env) else iffalse

        elif isinstance(instr, Return):
            if instr.value is None:

                def term(env):
                    env["$ret"] = None
                    return _RETURN

            else:
                get_value = self._accessor(instr.value)

                def term(env):
                    env["$ret"] = get_value(env)
                    return _RETURN

        else:
            raise InterpError(f"cannot execute {instr!r}")
        return term

    # -- hook wrapping -------------------------------------------------

    def _observed(
        self, core: Callable, block: Block, instr: Instr, hooks: _Hooks
    ) -> Callable:
        """Apply the block's ``on_instr``/``on_def`` hooks around
        ``core``: through the observing tracer's ``op_recorder`` when it
        is the only one and offers one, else hook by hook."""
        on_instr = hooks.on_instr
        on_def = hooks.on_def if instr.dest is not None else ()
        if not on_instr and not on_def:
            return core
        func = self.func
        observers = {id(t): t for t in on_instr + on_def}
        if len(observers) == 1:
            (tracer,) = observers.values()
            op = tracer.op_recorder(func, block, instr, core)
            if op is not None:
                return op
        if on_instr and on_def:

            def op(env):
                for t in on_instr:
                    t.on_instr(func, block, instr)
                value = core(env)
                for t in on_def:
                    t.on_def(instr, value)
                return value

        elif on_instr:

            def op(env):
                for t in on_instr:
                    t.on_instr(func, block, instr)
                return core(env)

        else:

            def op(env):
                value = core(env)
                for t in on_def:
                    t.on_def(instr, value)
                return value

        return op

    # -- block compilation ----------------------------------------------

    _CORES = {
        BinOp: "_binop_core",
        UnOp: "_unop_core",
        Copy: "_copy_core",
        LoadAddr: "_loadaddr_core",
        Load: "_load_core",
        Store: "_store_core",
        Call: "_call_core",
        SptFork: "_marker_core",
        SptKill: "_marker_core",
    }

    def compile_block(self, label: str) -> _CompiledBlock:
        block = self.block_map[label]
        hooks = self.hooks.in_block(self.func.name, label)
        cb = _CompiledBlock(block)
        cb.on_block = hooks.on_block
        cb.on_edge = hooks.on_edge

        # Split the phi prefix from the straight-line body; stop at the
        # first terminator (the reference interpreter never executes
        # past it, and neither does the fuel accounting).
        instrs = block.instrs
        index = 0
        phis: List[Phi] = []
        while index < len(instrs) and isinstance(instrs[index], Phi):
            phis.append(instrs[index])
            index += 1

        body: List[Instr] = []
        terminator: Optional[Instr] = None
        executed = len(phis)
        for instr in instrs[index:]:
            executed += 1
            if instr.is_terminator:
                terminator = instr
                break
            body.append(instr)
        cb.fuel = executed
        cb.phis = tuple(phis)

        if phis:
            batches: Dict[str, tuple] = {}
            labels = set()
            for phi in phis:
                labels.update(phi.incomings)
            for prev in labels:
                if not all(prev in phi.incomings for phi in phis):
                    continue  # executor raises the per-phi error lazily
                batches[prev] = tuple(
                    (phi.dest.name, self._observed(
                        self._accessor(phi.incomings[prev]), block, phi, hooks
                    ))
                    for phi in phis
                )
            cb.phi_batches = batches

        ops: List[Callable] = []
        for instr in body:
            # A phi after the prefix (or any unknown op) raises.
            maker = self._CORES.get(type(instr), "_raise_core")
            core = getattr(self, maker)(instr, hooks)
            if core is not None:
                ops.append(self._observed(core, block, instr, hooks))
        cb.ops = tuple(ops)
        cb.term = self._compile_term(block, terminator)
        if terminator is not None:
            cb.term = self._observed(cb.term, block, terminator, hooks)
        return cb

    # -- phi execution helpers ------------------------------------------

    @staticmethod
    def _phi_error(phis, label: str, prev_label: str):
        for phi in phis:
            if prev_label not in phi.incomings:
                raise InterpError(
                    f"phi {phi.dest} has no incoming for {prev_label}"
                )
        raise InterpError(
            f"no phi batch for predecessor {prev_label} in {label}"
        )

    # -- the interpreter loop -------------------------------------------

    def call(self, args: List):
        func = self.func
        machine = self.machine
        hooks = self.hooks
        if len(args) != len(func.params):
            raise InterpError(
                f"{func.name} expects {len(func.params)} args, got {len(args)}"
            )
        env: Dict[str, object] = {}
        for param, arg in zip(func.params, args):
            env[param.name] = arg
        for t in hooks.on_enter_function:
            t.on_enter_function(func, args)
        engine = machine.timing_engine
        if engine is not None:
            engine.enter(func, args)

        blocks = self.blocks
        fuel = machine.fuel
        label = func.entry.label
        prev_label: Optional[str] = None
        traces = self.traces if self.tracing else None
        hot_counts = self.hot_counts
        hot_threshold = machine.trace_hot_threshold
        # A recorded trace costs several times a plain one to compile:
        # admit only entries that stay hot for longer.
        recorded_threshold = hot_threshold * _RECORDED_HOT_FACTOR
        recorders = self.recorders
        trace_budget = self.trace_budget
        untraceable = self.untraceable
        recording: Optional[List[str]] = None
        rec_seen = None

        while True:
            if traces is not None:
                tr = traces.get(label)
                if tr is None:
                    count = hot_counts.get(label, 0) + 1
                    hot_counts[label] = count
                    # ``>=`` not ``==``: a block can cross the threshold
                    # while another recording is active (or while the
                    # per-function trace budget is full) and must still
                    # get its recording at the next opportunity --
                    # unrolled steady-state loop bodies reach their
                    # threshold inside the guard copy's recording.
                    if (
                        count >= hot_threshold
                        and recording is None
                        and len(traces) < trace_budget
                        and (label not in recorders
                             or count >= recorded_threshold)
                    ):
                        hot_counts[label] = 0
                        recording = [label]
                        rec_seen = {label}
                elif tr is not _BLACKLISTED and recording is None:
                    # (An active recording bypasses installed traces:
                    # letting one run would leave a multi-block hole
                    # in the recorded path.)
                    nxt, last = tr.fn(env, prev_label)
                    stats = tr.stats
                    passes = stats.passes - tr.pass0
                    if (
                        passes >= 64
                        and not passes & 63
                        and (stats.side_exits - tr.exit0) * 2 > passes
                    ):
                        # The recorded direction stopped matching the
                        # branch profile: drop and re-record.  (The
                        # check runs every 64th pass: one failed check
                        # means the next 63 can't flip the verdict to
                        # a *worse* trace than re-recording costs.)
                        self._drop_trace(label, tr)
                    if nxt is _RETURN:
                        result = env.get("$ret")
                        break
                    # The trace already emitted the edge into ``nxt``.
                    prev_label = last
                    label = nxt
                    continue

            cb = blocks.get(label)
            if cb is None:
                cb = self.compile_block(label)
                blocks[label] = cb

            machine.executed += cb.fuel
            if machine.executed > fuel:
                raise FuelExhausted(f"exceeded {fuel} dynamic instructions")
            if machine.watchdog is not None:
                machine.watchdog.poll()

            if engine is not None:
                engine.block(func, cb.block, prev_label)
            if cb.on_block:
                for t in cb.on_block:
                    t.on_block(func, cb.block, prev_label)

            batches = cb.phi_batches
            if batches is not None:
                if prev_label is None:
                    raise InterpError(f"phi in entry block {label}")
                batch = batches.get(prev_label)
                if batch is None:
                    self._phi_error(cb.phis, label, prev_label)
                if len(batch) == 1:
                    dest, get = batch[0]
                    env[dest] = get(env)
                else:
                    updates = [(dest, get(env)) for dest, get in batch]
                    for dest, value in updates:
                        env[dest] = value

            for op in cb.ops:
                op(env)
            nxt = cb.term(env)

            if recording is not None:
                cyclic = None
                if nxt is _RETURN:
                    cyclic = False
                elif nxt == recording[0]:
                    cyclic = True
                elif (
                    len(recording) >= _TRACE_MAX_BLOCKS
                    or nxt in rec_seen
                    or nxt in untraceable
                ):
                    # Recording runs *through* blocks that already
                    # anchor other traces: aborting there would chop
                    # loop bodies with branch diamonds into chains of
                    # short linear traces that bounce off the
                    # dispatcher once per link, instead of one cyclic
                    # trace per iteration.
                    cyclic = False
                else:
                    recording.append(nxt)
                    rec_seen.add(nxt)
                if cyclic is not None:
                    self._finish_recording(recording, cyclic)
                    recording = None
                    rec_seen = None

            if nxt is _RETURN:
                result = env.get("$ret")
                break
            if nxt not in self.block_map:
                raise KeyError(f"no block {nxt!r} in function {func.name}")
            if cb.on_edge:
                for t in cb.on_edge:
                    t.on_edge(func, label, nxt)
            prev_label = label
            label = nxt

        if engine is not None:
            engine.exit(func, result)
        for t in hooks.on_exit_function:
            t.on_exit_function(func, result)
        return result

    # -- trace lifecycle -------------------------------------------------

    def _finish_recording(self, path: List[str], cyclic: bool) -> None:
        """Compile a completed recording and install (or veto) it."""
        from repro.profiling.traces import compile_trace

        machine = self.machine
        entry = path[0]
        stats = machine._trace_stats.get((self.func.name, entry))
        if stats is not None and stats.exit_counts:
            # Guard-failure feedback from the invalidated previous
            # generation: cut the new path where the *cumulative*
            # failure rate of the guards kept so far crosses a third
            # of the passes (the block at the cut stays; its failing
            # guard becomes an unguarded computed exit).  Without
            # this, re-records of paths crossing data-dependent
            # diamonds churn through identical high-failure traces
            # into the blacklist -- and a per-guard threshold alone
            # misses paths whose failures are spread across many
            # mildly unstable branches.
            gen_passes = stats.passes - stats.gen_pass0
            cum = 0
            for index, lbl in enumerate(path):
                cum += stats.exit_counts.get(lbl, 0)
                if cum * 3 > gen_passes:
                    del path[index + 1:]
                    cyclic = False
                    break
        if entry in self.recorders:
            # A recorded trace costs several plain ones to compile, and
            # a path through data-dependent branches is rarely taken
            # twice: record the entry twice and compile what the two
            # recordings share (cut, like a guard-failure cut, at the
            # block whose branch they disagree on).
            seen = self.unconfirmed.pop(entry, None)
            if seen is None:
                self.unconfirmed[entry] = (list(path), cyclic)
                self.hot_counts[entry] = 0
                return
            if seen != (path, cyclic):
                keep = 0
                for a, b in zip(seen[0], path):
                    if a != b:
                        break
                    keep += 1
                del path[keep:]
                cyclic = False
        if (
            not cyclic
            and len(path) < 2
            and len(self.block_map[entry].instrs) < 5
        ):
            # A single-block linear trace over a tiny block cannot
            # beat the block path; re-record later (the same entry may
            # loop next time), but give up after a few useless
            # recordings.  A *meaty* single block is still worth
            # installing: its ops run natively and the data-dependent
            # branch that truncated the path here becomes an unguarded
            # computed exit.
            rejects = self.reject_counts.get(entry, 0) + 1
            self.reject_counts[entry] = rejects
            if rejects >= 3:
                self.traces[entry] = _BLACKLISTED
                machine.trace_rejects += 1
            else:
                self.hot_counts[entry] = 0
            return
        if stats is None:
            stats = machine._trace_stats_for(self.func.name, entry)
        trace = compile_trace(self, path, cyclic, stats)
        if trace is None:
            # Structurally untraceable (unsupported op, malformed phi,
            # path/CFG mismatch): never try this entry again.
            self.traces[entry] = _BLACKLISTED
            machine.trace_rejects += 1
            return
        stats.compiles += 1
        stats.exit_counts = {}
        stats.gen_pass0 = stats.passes
        trace.pass0 = stats.passes
        trace.exit0 = stats.side_exits
        self.traces[entry] = trace

    def _drop_trace(self, entry: str, trace) -> None:
        trace.stats.invalidations += 1
        self.machine.trace_invalidations += 1
        if trace.stats.compiles >= 3:
            self.traces[entry] = _BLACKLISTED
        else:
            del self.traces[entry]
            self.hot_counts[entry] = 0


class CompiledMachine(Machine):
    """A :class:`Machine` that executes through the compiled fast path.

    Same ``run``/``add_tracer``/``register_intrinsic`` API and the same
    memory and symbol layout (both are inherited untouched).  Blocks
    are compiled lazily on first execution and the compiled code is
    discarded whenever ``run`` is invoked, so modules mutated between
    runs are always re-lowered.  Hot block paths are spliced into
    superblock traces (:mod:`repro.profiling.traces`) wherever no
    per-op observer is attached or the observers record them; a
    :class:`~repro.machine.vector_timing.VectorTimingEngine` passed as
    ``timing_engine`` receives block-batched timing events from both
    the block driver and compiled traces.  Build it through
    :func:`make_machine`.
    """

    def __init__(
        self, module: Module, fuel: int = 50_000_000, telemetry=None,
        watchdog=None, timing_engine=None, trace_hot_threshold: int = 16,
    ):
        super().__init__(
            module, fuel=fuel, telemetry=telemetry, watchdog=watchdog
        )
        self._hooks: Optional[_Hooks] = None
        self._code: Dict[str, _CompiledFunction] = {}
        self.timing_engine = timing_engine
        #: Block executions before an entry label starts recording.
        self.trace_hot_threshold = trace_hot_threshold
        #: (func_name, entry_label) -> TraceStats, accumulated across
        #: runs and recompilations (telemetry / ``repro explain``).
        self._trace_stats: Dict[Tuple[str, str], object] = {}
        self.trace_rejects = 0
        self.trace_invalidations = 0
        #: REPRO_TRACE_BAILOUT=<k>: force every k-th guard evaluation
        #: to side-exit at its on-trace label (differential testing).
        try:
            self._trace_bailout = int(
                os.environ.get("REPRO_TRACE_BAILOUT", "0") or 0
            )
        except ValueError:
            self._trace_bailout = 0
        self._bail_counter = 0

    # -- trace bookkeeping --------------------------------------------

    def _trace_stats_for(self, func_name: str, entry: str):
        from repro.profiling.traces import TraceStats

        key = (func_name, entry)
        stats = self._trace_stats.get(key)
        if stats is None:
            stats = TraceStats(func_name, entry)
            self._trace_stats[key] = stats
        return stats

    def _trace_bail(self) -> bool:
        self._bail_counter += 1
        return self._bail_counter % self._trace_bailout == 0

    def release_code(self) -> None:
        """Drop the last run's compiled code.  Compiled blocks and traces
        refer back to the machine (and a trace's entry-phi helper to its
        compiled function), so until this runs a finished machine and
        its tracers live until the cyclic garbage collector finds them.
        The next ``run`` recompiles."""
        for code in self._code.values():
            code.traces.clear()
        self._code = {}

    def trace_report(self) -> Dict[str, Dict[str, object]]:
        """Per-entry trace statistics: ``{"func:entry": {...}}``."""
        return {
            f"{fn}:{entry}": stats.as_dict()
            for (fn, entry), stats in sorted(self._trace_stats.items())
        }

    def _execute(self, func_name: str, args: List) -> object:
        # Specialize for the tracers attached *now*; invalidate code
        # compiled for a previous run (or a mutated module).  Traces
        # live on the per-run code objects, so they are invalidated
        # here too.
        self._hooks = _Hooks(self.tracers, self.module)
        self._code = {}
        if not self.telemetry.enabled:
            return super()._execute(func_name, args)
        before = self._trace_counters()
        try:
            return super()._execute(func_name, args)
        finally:
            after = self._trace_counters()
            for name, value in after.items():
                delta = value - before.get(name, 0)
                if delta:
                    self.telemetry.count(f"trace.{name}", delta)

    def _trace_counters(self) -> Dict[str, int]:
        totals = {
            "compiles": 0,
            "entries": 0,
            "passes": 0,
            "side_exits": 0,
            "ops_on_trace": 0,
        }
        for stats in self._trace_stats.values():
            totals["compiles"] += stats.compiles
            totals["entries"] += stats.entries
            totals["passes"] += stats.passes
            totals["side_exits"] += stats.side_exits
            totals["ops_on_trace"] += stats.ops_on_trace
        totals["rejects"] = self.trace_rejects
        totals["invalidations"] = self.trace_invalidations
        return totals

    def _call_function(self, func: Function, args: List):
        if self._hooks is None:
            self._hooks = _Hooks(self.tracers, self.module)
        code = self._code.get(func.name)
        if code is None:
            code = _CompiledFunction(self, func, self._hooks)
            self._code[func.name] = code
        return code.call(args)


def make_machine(
    module: Module, fuel: int = 50_000_000, fast: bool = True, telemetry=None,
    watchdog=None, timing_engine=None,
) -> Machine:
    """Build the fast machine -- block-compiled with hot traces -- or the
    reference one with ``fast=False``.

    ``timing_engine`` attaches a vectorized timing engine, which
    requires ``fast=True``.
    """
    if fast:
        return CompiledMachine(
            module, fuel=fuel, telemetry=telemetry, watchdog=watchdog,
            timing_engine=timing_engine,
        )
    if timing_engine is not None:
        raise ValueError(
            "the vectorized timing engine requires the compiled fast path "
            "(fast=True)"
        )
    return Machine(module, fuel=fuel, telemetry=telemetry, watchdog=watchdog)
