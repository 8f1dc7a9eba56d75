"""The SPT (speculative parallel threading) machine model (paper §8).

The simulated machine is a tightly-coupled two-core system: a main core
that executes the main thread and commits state, and a speculative core
that runs the next loop iteration from a register snapshot taken at the
fork, with its stores buffered.  Fork costs 6 cycles and commit 5 (§8).

Rather than lock-stepping two pipelines, the simulator replays the
*transformed* program sequentially under the timing model, recording
the dynamic operations of each SPT-loop iteration, and folds
consecutive iteration pairs into SPT rounds as soon as both complete:

* main runs iteration ``i`` (pre-fork, fork, post-fork);
* the speculative core runs iteration ``i+1`` concurrently, starting
  from the fork-time context;
* a speculative operation *misspeculates* when it consumes a register
  or memory value the main thread's post-fork region redefines with a
  **different value** (value-based detection: silent re-stores do not
  violate), or when it depends on another misspeculated operation;
* at the join the main core commits (5 cycles) and re-executes the
  misspeculated operations.

Round wall-clock::

    t_round = t_pre(i) + fork + max(t_post(i), t_iter(i+1))
            + commit + t_reexec(i+1)

versus ``t_iter(i) + t_iter(i+1)`` sequentially.  A trailing unpaired
iteration runs on the main core alone (its fork is wasted).  A folded
round leaves only running totals behind, so the collector never holds
more than the unpaired iteration and the one in flight.

Because the replay executes the real transformed code, the measured
re-execution ratios are *observed* quantities -- exactly what Figure 19
plots against the compiler's misspeculation cost estimates.
"""

from __future__ import annotations

from dataclasses import asdict, dataclass
from itertools import chain
from operator import itemgetter
from typing import Dict, Iterable, List, Optional, Set, Tuple

from repro.ir.block import Block
from repro.ir.function import Function, Module
from repro.ir.instr import Branch, Call, Instr, Load, Phi, SptFork, Store
from repro.ir.values import Var
from repro.machine.branchpred import BranchPredictor
from repro.machine.timing import MISPREDICT_TICKS, TICKS_PER_CYCLE, TimingModel
from repro.obs.telemetry import NULL_TELEMETRY
from repro.profiling.interp import TraceRecorder, Tracer

FORK_TICKS = 600
COMMIT_TICKS = 500
FORK_CYCLES = FORK_TICKS / TICKS_PER_CYCLE
COMMIT_CYCLES = COMMIT_TICKS / TICKS_PER_CYCLE

#: The hooks whose work trace code does itself in a recorded block.
_TRACE_REPLACED_HOOKS = (
    "on_instr", "on_def", "on_load", "on_store", "on_edge",
)


#: Row kinds (``_OpTemplate.kind``).  Every recorded op is one row, a
#: tuple or (while hooks still fill it in) a list: ``row[0]`` is the
#: op's template, ``row[1]`` its ticks -- the base ticks plus a load's
#: cache ticks, a branch's misprediction ticks or a call's callee work
#: -- and the rest are the op's dynamic values:
#:
#: * ``OP``, ``BRANCH``: nothing more;
#: * ``DEF`` (a register def other than a load or a call): old, new;
#: * ``LOAD``: old, new, address;
#: * ``STORE``: address, old, new;
#: * ``CALL``: old, new (of its result, if any), the set of addresses
#:   read inside the call, and address -> (old, new) of those written.
#:
#: The register a def writes, the registers an op reads, the base ticks
#: and the header flag are static and stay in the template.
OP, DEF, LOAD, STORE, BRANCH, CALL = range(6)
#: The template kind of this loop's own fork marker, which records no
#: row: it moves the iteration's recording from ``pre`` to ``post``.
FORK = 6

_ticks_of = itemgetter(1)


class OpRecord:
    """A read-only view of one recorded row (tests and checkers read
    records through :attr:`IterationTrace.ops`; the fold reads rows).

    Latency is held as integer ticks (``ticks``); the ``latency``
    property converts to float cycles."""

    __slots__ = ("row", "pre_fork")

    def __init__(self, row, pre_fork: bool):
        self.row = row
        self.pre_fork = pre_fork

    def _field(self, kinds, index):
        return self.row[index] if self.row[0].kind in kinds else None

    @property
    def instr(self) -> Instr:
        return self.row[0].instr

    @property
    def ticks(self) -> int:
        return self.row[1]

    @property
    def latency(self) -> float:
        return self.row[1] / TICKS_PER_CYCLE

    @property
    def uses(self) -> Tuple[str, ...]:
        return self.row[0].uses

    @property
    def def_name(self) -> Optional[str]:
        template = self.row[0]
        return template.dest if template.kind in (DEF, LOAD, CALL) else None

    @property
    def def_old(self):
        return self._field((DEF, LOAD, CALL), 2)

    @property
    def def_new(self):
        return self._field((DEF, LOAD, CALL), 3)

    @property
    def load_addr(self) -> Optional[int]:
        return self._field((LOAD,), 4)

    @property
    def store_addr(self) -> Optional[int]:
        return self._field((STORE,), 2)

    @property
    def store_old(self):
        return self._field((STORE,), 3)

    @property
    def store_new(self):
        return self._field((STORE,), 4)

    @property
    def mem_reads(self) -> Optional[Set[int]]:
        return self._field((CALL,), 4)

    @property
    def mem_writes(self) -> Optional[Dict[int, Tuple]]:
        return self._field((CALL,), 5)


class IterationTrace:
    """All rows of one loop iteration, in execution order: ``pre`` holds
    those recorded before the fork (region A for a region collector),
    ``post`` the rest."""

    __slots__ = ("pre", "post", "pre_ticks", "post_ticks")

    def __init__(self):
        self.pre: List = []
        self.post: List = []
        #: Ticks of the rows before / after the fork, summed by
        #: :meth:`seal` once the iteration is complete.
        self.pre_ticks = 0
        self.post_ticks = 0

    def seal(self) -> None:
        """Sum the finished iteration's pre- and post-fork ticks once."""
        self.pre_ticks = sum(map(_ticks_of, self.pre))
        self.post_ticks = sum(map(_ticks_of, self.post))

    @property
    def total_ticks(self) -> int:
        return self.pre_ticks + self.post_ticks

    @property
    def n_ops(self) -> int:
        return len(self.pre) + len(self.post)

    @property
    def rows(self) -> List:
        return self.pre + self.post

    @property
    def ops(self) -> List[OpRecord]:
        """Every row as an :class:`OpRecord` view, in execution order."""
        return [OpRecord(row, True) for row in self.pre] + [
            OpRecord(row, False) for row in self.post
        ]


class _OpTemplate:
    """What one loop-body instruction contributes to every row of it:
    its kind, base ticks, the registers it reads (a phi has one template
    per incoming edge, ``pred``), the register it defines, and whether
    it sits in the header."""

    __slots__ = ("instr", "kind", "ticks", "uses", "dest", "header_op", "pred")

    def __init__(
        self, collector: "SptTraceCollector", instr: Instr, header_op: bool,
        pred: Optional[str] = None,
    ):
        self.instr = instr
        self.ticks = collector.model.base_ticks(instr)
        self.pred = pred
        if isinstance(instr, Phi):
            incoming = instr.incomings.get(pred)
            self.uses = (incoming.name,) if isinstance(incoming, Var) else ()
        else:
            self.uses = tuple(
                value.name for value in instr.uses() if isinstance(value, Var)
            )
        self.dest = instr.dest.name if instr.dest is not None else None
        self.header_op = header_op
        if isinstance(instr, Call):
            self.kind = CALL
        elif isinstance(instr, SptFork) and instr.loop_id == collector.loop_id:
            self.kind = FORK
        elif isinstance(instr, Load):
            self.kind = LOAD
        elif isinstance(instr, Store):
            self.kind = STORE
        elif isinstance(instr, Branch):
            self.kind = BRANCH
        elif self.dest is not None:
            self.kind = DEF
        else:
            self.kind = OP

    def hook_row(self) -> List:
        """A row for the hooks to fill in as the op's events arrive."""
        kind = self.kind
        if kind == DEF:
            return [self, self.ticks, None, None]
        if kind in (LOAD, STORE):
            return [self, self.ticks, None, None, None]
        if kind == CALL:
            return [self, self.ticks, None, None, set(), {}]
        return [self, self.ticks]


class SptTraceCollector(Tracer):
    """Tracer that folds one SPT loop's iterations into SPT rounds.

    Must observe the *transformed* function.  Operations executed inside
    callees are aggregated into the call-site's record (the call becomes
    one atomic op with a read/write address set), matching how the cost
    model treats calls.

    ``model`` is the run's own timing model: a load's latency is the
    one the run's accounting has just charged on the shared
    :class:`~repro.machine.cache.MemoryHierarchy`, so the collector
    must be attached after that accounting (a recorded load the
    hierarchy has not just charged raises) and simulates no cache of
    its own.  It keeps a private :class:`BranchPredictor`, because its
    branch history differs from the run's (callee branches and
    recursive frames).

    Each finished iteration either waits as the unpaired main-thread
    iteration or completes a round with the one waiting; a folded round
    only updates :attr:`stats` and :attr:`counts`.  With enabled
    ``telemetry`` every round emits one ``spt.round`` event (fork,
    commit, re-execution outcome) as it folds.
    """

    def __init__(
        self,
        func_name: str,
        header: str,
        body_labels: Set[str],
        loop_id: int,
        model: TimingModel,
        telemetry=None,
    ):
        self.func_name = func_name
        self.header = header
        self.body_labels = set(body_labels)
        self.loop_id = loop_id
        self.model = model
        self.predictor = BranchPredictor()
        self.telemetry = telemetry if telemetry is not None else NULL_TELEMETRY
        #: Running totals of every folded round.
        self.stats = SptLoopStats(func_name, header)
        #: ``spt.*`` telemetry counter totals of the folded rounds.
        self.counts: Dict[str, int] = {}
        #: The current invocation's unpaired iteration, awaiting the
        #: speculative iteration it forks.
        self._unpaired: Optional[IterationTrace] = None
        #: Rounds folded in the current invocation.
        self._round = 0
        #: A new invocation started but has completed no iteration yet.
        self._opened = False
        self._current: Optional[IterationTrace] = None
        #: The list the target's next row goes to: ``_current.pre``
        #: before the fork, ``_current.post`` after it, None while no
        #: iteration is open.
        self._rows: Optional[List] = None
        self._depth_in_target = 0  # frames below the target function
        self._call_stack: List[List] = []
        self._reg_values: Dict[str, object] = {}
        self._prev_label: Optional[str] = None
        #: The row whose instruction's events are still arriving.
        self._pending_op: Optional[List] = None
        self._entered_body = False
        self._frame_is_target: List[bool] = []
        self._templates: Dict[Instr, _OpTemplate] = {}
        self._phi_templates: Dict[Instr, Dict[str, _OpTemplate]] = {}
        #: (module, :meth:`_reach` of it): a run asks for every block.
        self._reach_memo = None

    # -- tracer hooks ----------------------------------------------------

    def on_enter_function(self, func: Function, args) -> None:
        self._frame_is_target.append(func.name == self.func_name)
        if self._current is not None and func.name != self.func_name:
            self._depth_in_target += 1

    def on_exit_function(self, func: Function, result) -> None:
        was_target = self._frame_is_target.pop()
        if self._current is not None and not was_target:
            self._depth_in_target -= 1
            if self._depth_in_target == 0 and self._call_stack:
                self._call_stack.pop()
        if was_target and self._current is not None:
            self._finish_iteration()
            self._finish_invocation()

    def on_block(self, func: Function, block: Block, prev_label) -> None:
        if not self._frame_is_target or not self._frame_is_target[-1]:
            return
        if func.name != self.func_name:
            return
        self._prev_label = prev_label
        if block.label == self.header:
            if prev_label is not None and prev_label in self.body_labels:
                self._finish_iteration()
                self._start_iteration()
            else:
                self._finish_iteration()
                self._finish_invocation()
                self._start_invocation()
                self._start_iteration()
        elif self._current is not None and block.label not in self.body_labels:
            # Left the loop (exit edge).
            self._finish_iteration()
            self._finish_invocation()
        elif self._current is not None:
            self._entered_body = True

    def _start_invocation(self) -> None:
        # Pairing restarts at the new invocation's first iteration; the
        # previous invocation keeps its unpaired iteration until then.
        self._opened = True

    def _finish_invocation(self) -> None:
        # An invocation that completed no iteration never happened: the
        # previous one stays open for pairing.
        self._opened = False

    def _start_iteration(self) -> None:
        self._current = IterationTrace()
        self._rows = self._current.pre
        self._entered_body = False

    def _fork(self) -> List:
        """This loop's fork executed: later rows are post-fork."""
        rows = self._rows = self._current.post
        return rows

    def _finish_iteration(self) -> None:
        # The final header pass that fails the loop test is not an
        # iteration -- it never reaches the body.
        current = self._current
        if (
            current is not None
            and (current.pre or current.post)
            and self._entered_body
        ):
            current.seal()
            self._complete(current)
        self._current = None
        self._rows = None
        self._pending_op = None
        self._call_stack = []
        self._depth_in_target = 0

    # -- folding -----------------------------------------------------

    def _complete(self, trace: IterationTrace) -> None:
        """Fold one finished (sealed) iteration into the running totals."""
        if self._opened:
            self._flush()
            self._opened = False
            self._round = 0
        stats = self.stats
        if self._unpaired is None and self._round == 0:
            stats.invocations += 1
        t_spec = trace.total_ticks
        n_ops = trace.n_ops
        stats.iterations += 1
        stats.seq_ticks += t_spec
        stats.total_ops += n_ops
        stats.prefork_ticks += trace.pre_ticks
        main = self._unpaired
        if main is None:
            self._unpaired = trace
            return
        self._unpaired = None
        reexec_ticks, reexec_ops = _replay_speculative(
            chain(trace.pre, trace.post), *_stale(main.post)
        )
        round_ticks = (
            main.pre_ticks
            + FORK_TICKS
            + max(main.post_ticks, t_spec)
            + COMMIT_TICKS
            + reexec_ticks
        )
        stats.spt_ticks += round_ticks
        stats.spec_ops += n_ops
        stats.spec_ticks += t_spec
        stats.reexec_ops += reexec_ops
        stats.reexec_ticks += reexec_ticks
        self._count("spt.rounds")
        self._count("spt.forks")
        self._count("spt.commits")
        self._count("spt.reexec_ops", reexec_ops)
        if reexec_ops:
            self._count("spt.misspeculation_events")
        self._emit_round(
            committed=True,
            spec_ops=n_ops,
            reexec_ops=reexec_ops,
            reexec_cycles=round(reexec_ticks / TICKS_PER_CYCLE, 3),
            round_cycles=round(round_ticks / TICKS_PER_CYCLE, 3),
        )

    def _flush(self) -> None:
        """Fold the unpaired trailing iteration: main runs it alone; the
        fork it issued spawns a doomed thread (killed at exit)."""
        main = self._unpaired
        if main is None:
            return
        self._unpaired = None
        self.stats.spt_ticks += main.total_ticks + FORK_TICKS
        self._count("spt.forks")
        self._count("spt.wasted_forks")
        self._emit_round(committed=False, spec_ops=0, reexec_ops=0)

    def _count(self, name: str, n: int = 1) -> None:
        self.counts[name] = self.counts.get(name, 0) + n

    def _emit_round(self, **outcome) -> None:
        if self.telemetry.enabled:
            self.telemetry.event(
                "spt.round",
                loop=f"{self.func_name}:{self.header}",
                invocation=self.stats.invocations - 1,
                round=self._round,
                **outcome,
            )
        self._round += 1

    # -- op recording ------------------------------------------------

    def _record(self) -> Optional[List]:
        """The row receiving the current event (call aggregate when
        inside a callee)."""
        if self._current is None:
            return None
        if self._call_stack:
            return self._call_stack[-1]
        return self._pending_op

    def _template(self, block: Block, instr: Instr) -> _OpTemplate:
        """The template of a non-phi instruction of the loop body."""
        template = self._templates.get(instr)
        if template is None:
            template = self._templates[instr] = _OpTemplate(
                self, instr, block.label == self.header
            )
        return template

    def _phi_templates_of(
        self, phi: Phi, header_op: bool
    ) -> Dict[str, _OpTemplate]:
        """Incoming label -> the template of ``phi`` entered from it."""
        templates = self._phi_templates.get(phi)
        if templates is None:
            templates = self._phi_templates[phi] = {
                pred: _OpTemplate(self, phi, header_op, pred)
                for pred in phi.incomings
            }
        return templates

    def _template_at(self, block: Block, instr: Instr) -> _OpTemplate:
        """The template of ``instr`` as it executes now (a phi's depends
        on the edge just taken)."""
        if not isinstance(instr, Phi):
            return self._template(block, instr)
        header_op = block.label == self.header
        template = self._phi_templates_of(instr, header_op).get(self._prev_label)
        if template is None:
            # No incoming for this edge: the op raises right after.
            template = _OpTemplate(self, instr, header_op, self._prev_label)
        return template

    def on_instr(self, func: Function, block: Block, instr: Instr) -> None:
        if self._current is None:
            return
        in_target = self._depth_in_target == 0 and func.name == self.func_name
        if in_target and block.label not in self.body_labels:
            return

        if in_target:
            template = self._template_at(block, instr)
            if template.kind == FORK:
                self._rows = self._current.post
                return
            row = template.hook_row()
            self._rows.append(row)
            self._pending_op = row
            if template.kind == CALL:
                self._call_stack.append(row)
        else:
            # Inside a callee: charge latency onto the call aggregate.
            record = self._record()
            if record is not None:
                record[1] += self.model.base_ticks(instr)

    def on_edge(self, func: Function, src_label: str, dst_label: str) -> None:
        if self._current is None:
            return
        record = self._pending_op
        if (
            record is not None
            and record[0].kind == BRANCH
            and self._depth_in_target == 0
            and func.name == self.func_name
        ):
            branch = record[0].instr
            record[1] += self._branch_ticks(branch, dst_label == branch.iftrue)
        elif self._call_stack and isinstance(
            func.block(src_label).terminator, Branch
        ):
            branch = func.block(src_label).terminator
            taken = dst_label == branch.iftrue
            self._call_stack[-1][1] += self._branch_ticks(branch, taken)

    def _branch_ticks(self, branch: Branch, taken: bool) -> int:
        if self.predictor.predict_and_update(id(branch), taken):
            return MISPREDICT_TICKS
        return 0

    def on_def(self, instr: Instr, value) -> None:
        if self._current is None:
            return
        call_stack = self._call_stack
        if call_stack and (
            self._depth_in_target > 0 or instr is not call_stack[-1][0].instr
        ):
            return  # callee-internal registers are invisible outside
        record = self._pending_op
        if record is None or record[0].instr is not instr:
            # A call's return value lands on the call record itself.
            if call_stack and call_stack[-1][0].instr is instr:
                record = call_stack[-1]
            else:
                return
        if instr.dest is not None:
            name = instr.dest.name
            regs = self._reg_values
            record[2] = regs.get(name)
            record[3] = value
            regs[name] = value

    def on_load(self, instr: Instr, addr: int, value) -> None:
        if self._current is None:
            return
        # The run's accounting has just charged this load on the shared
        # hierarchy; its latency is the one the op pays.
        hierarchy = self.model.hierarchy
        if hierarchy.last_addr != addr:
            raise RuntimeError(
                f"{type(self).__name__}: load of {addr} was not charged on "
                "the collector's hierarchy; attach the collector after a "
                "timing accounting that shares its model"
            )
        ticks = hierarchy.last_ticks
        if self._call_stack:
            record = self._call_stack[-1]
            record[1] += ticks
            record[4].add(addr)
            return
        record = self._pending_op
        if record is None or record[0].instr is not instr:
            return
        record[1] += ticks
        record[4] = addr

    def on_store(self, instr: Instr, addr: int, value, old_value) -> None:
        if self._current is None:
            return
        if self._call_stack:
            writes = self._call_stack[-1][5]
            old = writes.get(addr, (old_value, None))[0]
            writes[addr] = (old, value)
            return
        record = self._pending_op
        if record is None or record[0].instr is not instr:
            return
        record[2] = addr
        record[3] = old_value
        record[4] = value

    # -- the fast tier's view ------------------------------------------

    def op_scope(self, module: Module) -> Dict[str, Set[str]]:
        """The loop body, every block of each function the body can
        reach through calls, and so all of the target function when the
        body can call back into it: outside these blocks no op runs
        while an iteration is open, so the per-op hooks see nothing."""
        return {
            name: set(self.body_labels) if labels is None else labels
            for name, labels in self._reach(module).items()
        }

    def block_scope(self, module: Module) -> Optional[Dict[str, Set[str]]]:
        """The header, the body and the blocks the loop exits to, or all
        of the target function when the body can call back into it (a
        nested frame's block event ends the open iteration).  Elsewhere
        ``on_block`` only notes the edge for phis: an iteration is open
        only inside the loop, and control leaves it through an exit
        block, whose event closes the iteration.  A subclass overriding
        ``on_block`` gets no scope unless it declares its own."""
        if self._hooks_overridden(("on_block",)):
            return None
        return self._event_blocks(module)

    def _event_blocks(self, module: Module) -> Dict[str, Set[str]]:
        labels = self._reach(module)[self.func_name]
        if labels is None:
            loop = self.body_labels | {self.header}
            labels = set(loop)
            for block in module.functions[self.func_name].blocks:
                if block.label in loop:
                    labels.update(block.successors())
        return {self.func_name: set(labels)}

    def edge_scope(self, module: Module) -> Optional[Dict[str, Set[str]]]:
        """``on_edge`` acts only with an iteration open, on a branch of
        the body or inside a call aggregate: on edges out of
        :meth:`op_scope`.  A subclass overriding ``on_edge`` gets no
        scope."""
        if self._hooks_overridden(("on_edge",)):
            return None
        return self.op_scope(module)

    def _reach(self, module: Module) -> Dict[str, Optional[Set[str]]]:
        """Function -> every block label, for each function the body
        reaches through calls; the target maps to None unless the body
        can call back into it."""
        memo = self._reach_memo
        if memo is not None and memo[0] is module:
            return memo[1]
        target = module.functions[self.func_name]
        reach: Dict[str, Optional[Set[str]]] = {self.func_name: None}
        pending = _callees(
            block for block in target.blocks if block.label in self.body_labels
        )
        reached: Set[str] = set()
        while pending:
            name = pending.pop()
            func = module.functions.get(name)
            if func is None or name in reached:
                continue
            reached.add(name)
            reach[name] = {block.label for block in func.blocks}
            pending.extend(_callees(func.blocks))
        self._reach_memo = (module, reach)
        return reach

    def _hooks_overridden(self, names) -> bool:
        cls = type(self)
        return any(
            getattr(cls, name) is not getattr(SptTraceCollector, name)
            for name in names
        )

    def op_recorder(self, func: Function, block: Block, instr: Instr, run):
        """One closure that runs ``run(env)`` and records ``instr`` as
        ``on_instr`` before and ``on_def`` after it would, for a body op
        of the target function that is neither a call nor the fork.

        Outside an iteration it only runs the op (both hooks would
        return at once); in a callee frame or beside an open call
        aggregate it calls the hooks themselves.  A subclass overriding
        either hook gets no recorder, so it sees every event."""
        if (
            self._hooks_overridden(("on_instr", "on_def"))
            or func.name != self.func_name
            or block.label not in self.body_labels
        ):
            return None
        collector = self
        on_instr = self.on_instr
        on_def = self.on_def
        if isinstance(instr, Phi):
            templates = self._phi_templates_of(
                instr, block.label == self.header
            )
            dest = instr.dest.name

            def op(env):
                rows = collector._rows
                if rows is None:
                    return run(env)
                if collector._depth_in_target or collector._call_stack:
                    on_instr(func, block, instr)
                    value = run(env)
                    on_def(instr, value)
                    return value
                template = templates[collector._prev_label]
                value = run(env)
                regs = collector._reg_values
                rows.append((template, template.ticks, regs.get(dest), value))
                regs[dest] = value
                return value

            return op
        template = self._template(block, instr)
        kind = template.kind
        if kind == CALL or kind == FORK:
            return None
        ticks = template.ticks
        dest = template.dest

        if kind == DEF:

            def op(env):
                rows = collector._rows
                if rows is None:
                    return run(env)
                if collector._depth_in_target or collector._call_stack:
                    on_instr(func, block, instr)
                    value = run(env)
                    on_def(instr, value)
                    return value
                value = run(env)
                regs = collector._reg_values
                rows.append((template, ticks, regs.get(dest), value))
                regs[dest] = value
                return value

            return op

        def op(env):
            rows = collector._rows
            if rows is None:
                return run(env)
            if collector._depth_in_target or collector._call_stack:
                on_instr(func, block, instr)
                value = run(env)
                if dest is not None:
                    on_def(instr, value)
                return value
            # The op's own load, store or edge event fills the row in.
            row = template.hook_row()
            rows.append(row)
            collector._pending_op = row
            value = run(env)
            if dest is not None:
                regs = collector._reg_values
                row[2] = regs.get(dest)
                row[3] = value
                regs[dest] = value
            return value

        return op

    def trace_recorder(
        self, module: Module, func: Function, block: Block, engine
    ) -> Optional[TraceRecorder]:
        """Record ``block`` from trace code: offered for a call-free body
        block of the target function when no per-op hook or ``on_edge``
        is overridden, the run's ``engine`` charges loads on this
        collector's hierarchy, and the body cannot call back into the
        target (so no call aggregate is ever open at a block boundary
        of a recorded block)."""
        if (
            func.name != self.func_name
            or block.label not in self.body_labels
            or self._hooks_overridden(_TRACE_REPLACED_HOOKS)
            or engine is None
            or engine.model.hierarchy is not self.model.hierarchy
            or any(isinstance(instr, Call) for instr in block.instrs)
            or self._reach(module)[self.func_name] is not None
        ):
            return None
        fork = None
        templates: Dict[Tuple[Instr, Optional[str]], _OpTemplate] = {}
        for instr in block.instrs:
            if isinstance(instr, Phi):
                header_op = block.label == self.header
                for pred, template in self._phi_templates_of(
                    instr, header_op
                ).items():
                    templates[(instr, pred)] = template
                continue
            template = self._template(block, instr)
            templates[(instr, None)] = template
            if template.kind == FORK:
                fork = instr
        return TraceRecorder(
            self, templates, fork, self.predictor.predict_and_update,
            MISPREDICT_TICKS,
        )

    # -- checkpointing ------------------------------------------------

    @staticmethod
    def _encode_row(row, key_of) -> List:
        template = row[0]
        fields = [key_of(id(template.instr)), template.header_op, template.pred]
        if template.kind == CALL:
            fields += [
                row[1], row[2], row[3], sorted(row[4]),
                sorted([addr, old, new] for addr, (old, new) in row[5].items()),
            ]
        else:
            fields += row[1:]
        return fields

    def _decode_row(self, fields: List, instr_of) -> List:
        instr = instr_of(fields[0])
        header_op, pred = bool(fields[1]), fields[2]
        if isinstance(instr, Phi):
            template = self._phi_templates_of(instr, header_op)[pred]
        else:
            template = self._templates.get(instr)
            if template is None:
                template = self._templates[instr] = _OpTemplate(
                    self, instr, header_op
                )
        row = [template] + list(fields[3:])
        if template.kind == CALL:
            row[4] = set(row[4])
            row[5] = {addr: (old, new) for addr, old, new in row[5]}
        return row

    def snapshot_state(self, key_of) -> Dict:
        """Plain-data snapshot at an entry-frame block boundary.

        At such a boundary no call is in flight (calls complete within
        their block), so the call-aggregation stack must be empty.  The
        folded totals, the unpaired iteration, the in-progress iteration
        (``_current``) and the collector's private branch predictor are
        captured; finished rounds are already folded away, and the cache
        is the run's own (snapshotted with the timing accounting), so
        the snapshot does not grow with the run.  ``_pending_op`` is
        transient (only consulted while its instruction's events are
        still being delivered) and restores as None."""
        if self._call_stack or self._depth_in_target:
            raise ValueError(
                "SptTraceCollector snapshot outside a block boundary "
                "(call in flight)"
            )

        def encode(trace: Optional[IterationTrace]) -> Optional[Dict]:
            if trace is None:
                return None
            return {
                "pre": [self._encode_row(row, key_of) for row in trace.pre],
                "post": [self._encode_row(row, key_of) for row in trace.post],
            }

        current = self._current
        return {
            "stats": asdict(self.stats),
            "counts": dict(self.counts),
            "unpaired": encode(self._unpaired),
            "round": self._round,
            "opened": self._opened,
            "current": encode(current),
            "in_pre_fork": current is not None and self._rows is current.pre,
            "reg_values": dict(self._reg_values),
            "prev_label": self._prev_label,
            "entered_body": self._entered_body,
            "frame_is_target": list(self._frame_is_target),
            "predictor": self.predictor.snapshot_state(key_of),
        }

    def restore_state(self, state: Dict, instr_of, id_of) -> None:
        """Inverse of :meth:`snapshot_state`.  ``instr_of`` maps an
        instruction key to the live instruction; ``id_of`` to its id."""

        def decode(rows: Optional[Dict]) -> Optional[IterationTrace]:
            if rows is None:
                return None
            trace = IterationTrace()
            trace.pre = [self._decode_row(f, instr_of) for f in rows["pre"]]
            trace.post = [self._decode_row(f, instr_of) for f in rows["post"]]
            return trace

        self.stats = SptLoopStats(**state["stats"])
        self.counts = dict(state["counts"])
        self._unpaired = decode(state["unpaired"])
        if self._unpaired is not None:
            self._unpaired.seal()
        self._round = int(state["round"])
        self._opened = bool(state["opened"])
        current = self._current = decode(state["current"])
        if current is None:
            self._rows = None
        else:
            self._rows = current.pre if state["in_pre_fork"] else current.post
        self._reg_values = dict(state["reg_values"])
        self._prev_label = state["prev_label"]
        self._entered_body = bool(state["entered_body"])
        self._frame_is_target = [bool(f) for f in state["frame_is_target"]]
        self._depth_in_target = 0
        self._call_stack = []
        self._pending_op = None
        self.predictor.restore_state(state["predictor"], id_of)


def _callees(blocks: Iterable[Block]) -> List[str]:
    return [
        instr.callee
        for block in blocks
        for instr in block.instrs
        if isinstance(instr, Call)
    ]


@dataclass(repr=False)
class SptLoopStats:
    """Simulated SPT statistics of one loop.

    Cycle totals accumulate as integer ticks (``*_ticks`` fields); the
    ``*_cycles`` properties expose float cycles (exact conversions)."""

    func_name: str
    header: str
    invocations: int = 0
    iterations: int = 0
    seq_ticks: int = 0
    spt_ticks: int = 0
    #: Dynamic operations executed speculatively / re-executed.
    spec_ops: int = 0
    reexec_ops: int = 0
    reexec_ticks: int = 0
    spec_ticks: int = 0
    #: Dynamic instruction count per iteration (body size, Fig 17).
    total_ops: int = 0
    prefork_ticks: int = 0

    @property
    def seq_cycles(self) -> float:
        return self.seq_ticks / TICKS_PER_CYCLE

    @property
    def spt_cycles(self) -> float:
        return self.spt_ticks / TICKS_PER_CYCLE

    @property
    def reexec_cycles(self) -> float:
        return self.reexec_ticks / TICKS_PER_CYCLE

    @property
    def spec_cycles(self) -> float:
        return self.spec_ticks / TICKS_PER_CYCLE

    @property
    def key(self) -> Tuple[str, str]:
        return (self.func_name, self.header)

    @property
    def loop_speedup(self) -> float:
        return self.seq_ticks / self.spt_ticks if self.spt_ticks else 1.0

    @property
    def misspeculation_ratio(self) -> float:
        return self.reexec_ops / self.spec_ops if self.spec_ops else 0.0

    @property
    def reexecution_ratio(self) -> float:
        """Fraction of speculative computation re-executed (Fig 19 y-axis)."""
        return self.reexec_ticks / self.spec_ticks if self.spec_ticks else 0.0

    @property
    def avg_body_ops(self) -> float:
        return self.total_ops / self.iterations if self.iterations else 0.0

    @property
    def prefork_fraction(self) -> float:
        return self.prefork_ticks / self.seq_ticks if self.seq_ticks else 0.0

    def __repr__(self) -> str:
        return (
            f"SptLoopStats({self.func_name}:{self.header}, "
            f"speedup={self.loop_speedup:.2f}, "
            f"misspec={self.misspeculation_ratio:.3f})"
        )


def _stale(rows: Iterable) -> Tuple[Set[str], Set[int]]:
    """Register names and memory addresses ``rows`` redefine and leave
    holding a different value than before the first of them wrote it
    (silent re-stores are not stale)."""
    reg_before: Dict[str, object] = {}
    reg_after: Dict[str, object] = {}
    mem_before: Dict[int, object] = {}
    mem_after: Dict[int, object] = {}
    for row in rows:
        template = row[0]
        kind = template.kind
        if kind == DEF or kind == LOAD:
            name = template.dest
            if name not in reg_before:
                reg_before[name] = row[2]
            reg_after[name] = row[3]
        elif kind == STORE:
            addr = row[2]
            if addr not in mem_before:
                mem_before[addr] = row[3]
            mem_after[addr] = row[4]
        elif kind == CALL:
            name = template.dest
            if name is not None:
                if name not in reg_before:
                    reg_before[name] = row[2]
                reg_after[name] = row[3]
            for addr, (old, new) in row[5].items():
                if addr not in mem_before:
                    mem_before[addr] = old
                mem_after[addr] = new
    return (
        {name for name, new in reg_after.items() if reg_before[name] != new},
        {addr for addr, new in mem_after.items() if mem_before[addr] != new},
    )


def _post_fork_stale(trace: IterationTrace) -> Tuple[Set[str], Set[int]]:
    """The locations the main thread changes after the fork: what a
    speculative iteration started at the fork reads stale."""
    return _stale(trace.post)


def _replay_speculative(
    spec_rows: Iterable,
    stale_regs: Set[str],
    stale_addrs: Set[int],
) -> Tuple[int, int]:
    """Walk the speculative iteration's rows, propagating misspeculation
    from the stale locations.

    Returns (re-executed ticks, re-executed op count)."""
    if not stale_regs and not stale_addrs:
        return 0, 0  # nothing is stale, so nothing can taint
    # A location reads wrong while stale and not yet redefined this
    # iteration, or after a tainted op redefined it; a clean
    # redefinition heals it (later readers observe a correct value).
    bad_regs = set(stale_regs)
    bad_addrs = set(stale_addrs)
    reexec_ticks = 0
    reexec_ops = 0
    for row in spec_rows:
        template = row[0]
        kind = template.kind
        if kind == DEF:
            if bad_regs.isdisjoint(template.uses):
                bad_regs.discard(template.dest)
            else:
                reexec_ticks += row[1]
                reexec_ops += 1
                bad_regs.add(template.dest)
        elif kind == LOAD:
            if row[4] in bad_addrs or not bad_regs.isdisjoint(template.uses):
                reexec_ticks += row[1]
                reexec_ops += 1
                bad_regs.add(template.dest)
            else:
                bad_regs.discard(template.dest)
        elif kind == STORE:
            if bad_regs.isdisjoint(template.uses):
                bad_addrs.discard(row[2])
            else:
                reexec_ticks += row[1]
                reexec_ops += 1
                bad_addrs.add(row[2])
        elif kind == CALL:
            name = template.dest
            if not bad_regs.isdisjoint(template.uses) or (
                row[4] and not bad_addrs.isdisjoint(row[4])
            ):
                reexec_ticks += row[1]
                reexec_ops += 1
                if name is not None:
                    bad_regs.add(name)
                bad_addrs.update(row[5])
            else:
                if name is not None:
                    bad_regs.discard(name)
                bad_addrs.difference_update(row[5])
        elif not bad_regs.isdisjoint(template.uses):
            reexec_ticks += row[1]
            reexec_ops += 1
    return reexec_ticks, reexec_ops


def simulate_spt_loop(collector: SptTraceCollector, telemetry=None) -> SptLoopStats:
    """Finish ``collector``'s loop once its run is over: fold the last
    unpaired iteration and return the loop's sequential vs. SPT totals.

    With enabled ``telemetry`` the fork/commit/misspeculation totals of
    every folded round accumulate as ``spt.*`` counters.  They come from
    the folded totals, so a run resumed from a snapshot reports the
    same counters as an uninterrupted one.
    """
    collector._flush()
    if telemetry is not None and telemetry.enabled:
        telemetry.merge_counters(collector.counts)
        telemetry.count("spt.loops_simulated")
    return collector.stats
