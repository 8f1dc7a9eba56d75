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
from typing import Dict, Iterable, List, Optional, Set, Tuple

from repro.ir.block import Block
from repro.ir.function import Function, Module
from repro.ir.instr import Branch, Call, Instr, Phi, SptFork
from repro.ir.values import Var
from repro.machine.branchpred import BranchPredictor
from repro.machine.timing import MISPREDICT_TICKS, TICKS_PER_CYCLE, TimingModel
from repro.obs.telemetry import NULL_TELEMETRY
from repro.profiling.interp import Tracer

FORK_TICKS = 600
COMMIT_TICKS = 500
FORK_CYCLES = FORK_TICKS / TICKS_PER_CYCLE
COMMIT_CYCLES = COMMIT_TICKS / TICKS_PER_CYCLE


class OpRecord:
    """One dynamic operation inside an SPT loop iteration.

    Latency is held as integer ticks (``ticks``); the ``latency``
    property converts to float cycles for external readers."""

    __slots__ = (
        "instr",
        "ticks",
        "uses",
        "def_name",
        "def_old",
        "def_new",
        "load_addr",
        "load_value",
        "store_addr",
        "store_old",
        "store_new",
        "mem_reads",
        "mem_writes",
        "pre_fork",
        "header_op",
    )

    def __init__(
        self,
        instr: Instr,
        ticks: int = 0,
        uses: Tuple[str, ...] = (),
        pre_fork: bool = False,
        header_op: bool = False,
    ):
        self.instr = instr
        self.ticks = ticks
        #: Register names read (with phis resolved to the taken
        #: incoming); shared with the instruction's template.
        self.uses = uses
        self.def_name: Optional[str] = None
        self.def_old = None
        self.def_new = None
        self.load_addr: Optional[int] = None
        self.load_value = None
        self.store_addr: Optional[int] = None
        self.store_old = None
        self.store_new = None
        #: For aggregated calls: addresses read / written inside.
        self.mem_reads: Optional[Set[int]] = None
        self.mem_writes: Optional[Dict[int, Tuple]] = None
        self.pre_fork = pre_fork
        #: Set for loop-header ops (used by the region simulator: header
        #: values resolve before the fork).
        self.header_op = header_op

    @property
    def latency(self) -> float:
        return self.ticks / TICKS_PER_CYCLE


class IterationTrace:
    """All operations of one loop iteration, in execution order."""

    __slots__ = ("ops", "pre_ticks", "post_ticks")

    def __init__(self):
        self.ops: List[OpRecord] = []
        #: Ticks of the ops before / after the fork, summed by
        #: :meth:`seal` once the iteration is complete.
        self.pre_ticks = 0
        self.post_ticks = 0

    def seal(self) -> None:
        """Sum the finished iteration's pre- and post-fork ticks once."""
        pre = post = 0
        for op in self.ops:
            if op.pre_fork:
                pre += op.ticks
            else:
                post += op.ticks
        self.pre_ticks = pre
        self.post_ticks = post

    @property
    def total_ticks(self) -> int:
        return self.pre_ticks + self.post_ticks


class _OpTemplate:
    """What one loop-body instruction contributes to every record of it:
    base ticks, the registers it reads (None for a phi, whose use
    depends on the edge taken), the register it defines, whether it is
    a call or this loop's fork, and whether it sits in the header."""

    __slots__ = ("ticks", "uses", "dest", "call", "fork", "header_op")

    def __init__(self, collector: "SptTraceCollector", block: Block, instr: Instr):
        self.ticks = collector.model.base_ticks(instr)
        self.uses = None if isinstance(instr, Phi) else tuple(
            value.name for value in instr.uses() if isinstance(value, Var)
        )
        self.dest = instr.dest.name if instr.dest is not None else None
        self.call = isinstance(instr, Call)
        self.fork = (
            isinstance(instr, SptFork) and instr.loop_id == collector.loop_id
        )
        self.header_op = block.label == collector.header


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
        self._in_pre_fork = False
        self._depth_in_target = 0  # frames below the target function
        self._call_stack: List[OpRecord] = []
        self._reg_values: Dict[str, object] = {}
        self._prev_label: Optional[str] = None
        self._pending_op: Optional[OpRecord] = None
        self._entered_body = False
        self._frame_is_target: List[bool] = []
        self._templates: Dict[Instr, _OpTemplate] = {}

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
        self._in_pre_fork = True
        self._entered_body = False

    def _finish_iteration(self) -> None:
        # The final header pass that fails the loop test is not an
        # iteration -- it never reaches the body.
        if (
            self._current is not None
            and self._current.ops
            and self._entered_body
        ):
            self._current.seal()
            self._complete(self._current)
        self._current = None
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
        stats.iterations += 1
        stats.seq_ticks += t_spec
        stats.total_ops += len(trace.ops)
        stats.prefork_ticks += trace.pre_ticks
        main = self._unpaired
        if main is None:
            self._unpaired = trace
            return
        self._unpaired = None
        reexec_ticks, reexec_ops = _replay_speculative(
            trace.ops, *_post_fork_stale(main)
        )
        round_ticks = (
            main.pre_ticks
            + FORK_TICKS
            + max(main.post_ticks, t_spec)
            + COMMIT_TICKS
            + reexec_ticks
        )
        stats.spt_ticks += round_ticks
        stats.spec_ops += len(trace.ops)
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
            spec_ops=len(trace.ops),
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

    def _record(self) -> Optional[OpRecord]:
        """The record receiving the current event (call aggregate when
        inside a callee)."""
        if self._current is None:
            return None
        if self._call_stack:
            return self._call_stack[-1]
        return self._pending_op

    def _template(self, block: Block, instr: Instr) -> _OpTemplate:
        template = self._templates.get(instr)
        if template is None:
            template = self._templates[instr] = _OpTemplate(self, block, instr)
        return template

    def _phi_uses(self, phi: Phi) -> Tuple[str, ...]:
        incoming = phi.incomings.get(self._prev_label)
        return (incoming.name,) if isinstance(incoming, Var) else ()

    def on_instr(self, func: Function, block: Block, instr: Instr) -> None:
        if self._current is None:
            return
        in_target = self._depth_in_target == 0 and func.name == self.func_name
        if in_target and block.label not in self.body_labels:
            return

        if in_target:
            template = self._template(block, instr)
            if template.fork:
                self._in_pre_fork = False
                return
            uses = template.uses
            op = OpRecord(
                instr,
                template.ticks,
                self._phi_uses(instr) if uses is None else uses,
                self._in_pre_fork,
                template.header_op,
            )
            self._current.ops.append(op)
            self._pending_op = op
            if template.call:
                op.mem_reads = set()
                op.mem_writes = {}
                self._call_stack.append(op)
        else:
            # Inside a callee: charge latency onto the call aggregate.
            record = self._record()
            if record is not None:
                record.ticks += self.model.base_ticks(instr)

    def on_edge(self, func: Function, src_label: str, dst_label: str) -> None:
        if self._current is None:
            return
        record = self._pending_op
        if (
            record is not None
            and isinstance(record.instr, Branch)
            and self._depth_in_target == 0
            and func.name == self.func_name
        ):
            taken = dst_label == record.instr.iftrue
            record.ticks += self._branch_ticks(record.instr, taken)
        elif self._call_stack and isinstance(
            func.block(src_label).terminator, Branch
        ):
            branch = func.block(src_label).terminator
            taken = dst_label == branch.iftrue
            self._call_stack[-1].ticks += self._branch_ticks(branch, taken)

    def _branch_ticks(self, branch: Branch, taken: bool) -> int:
        if self.predictor.predict_and_update(id(branch), taken):
            return MISPREDICT_TICKS
        return 0

    def on_def(self, instr: Instr, value) -> None:
        if self._current is None:
            return
        if self._call_stack and (
            self._depth_in_target > 0 or instr is not self._call_stack[-1].instr
        ):
            return  # callee-internal registers are invisible outside
        record = self._pending_op
        if record is None or record.instr is not instr:
            # A call's return value lands on the call record itself.
            if self._call_stack and self._call_stack[-1].instr is instr:
                record = self._call_stack[-1]
            else:
                return
        if instr.dest is not None:
            name = instr.dest.name
            record.def_name = name
            record.def_old = self._reg_values.get(name)
            record.def_new = value
            self._reg_values[name] = value

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
            record.ticks += ticks
            record.mem_reads.add(addr)
            return
        record = self._pending_op
        if record is None or record.instr is not instr:
            return
        record.ticks += ticks
        record.load_addr = addr
        record.load_value = value

    def on_store(self, instr: Instr, addr: int, value, old_value) -> None:
        if self._current is None:
            return
        if self._call_stack:
            record = self._call_stack[-1]
            old = record.mem_writes.get(addr, (old_value, None))[0]
            record.mem_writes[addr] = (old, value)
            return
        record = self._pending_op
        if record is None or record.instr is not instr:
            return
        record.store_addr = addr
        record.store_old = old_value
        record.store_new = value

    # -- the fast tier's view ------------------------------------------

    def op_scope(self, module: Module) -> Dict[str, Set[str]]:
        """The loop body, every block of each function the body can
        reach through calls, and so all of the target function when the
        body can call back into it: outside these blocks no op runs
        while an iteration is open, so the per-op hooks see nothing."""
        target = module.functions[self.func_name]
        scope = {self.func_name: set(self.body_labels)}
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
            scope[name] = {block.label for block in func.blocks}
            pending.extend(_callees(func.blocks))
        return scope

    def op_recorder(self, func: Function, block: Block, instr: Instr, run):
        """One closure that runs ``run(env)`` and records ``instr`` as
        ``on_instr`` before and ``on_def`` after it would, for a body op
        of the target function that is neither a call nor the fork.

        Outside an iteration it only runs the op (both hooks would
        return at once); in a callee frame or beside an open call
        aggregate it calls the hooks themselves.  A subclass overriding
        either hook gets no recorder, so it sees every event."""
        cls = type(self)
        if (
            cls.on_instr is not SptTraceCollector.on_instr
            or cls.on_def is not SptTraceCollector.on_def
            or func.name != self.func_name
            or block.label not in self.body_labels
        ):
            return None
        template = self._template(block, instr)
        if template.call or template.fork:
            return None
        ticks = template.ticks
        uses = template.uses
        dest = template.dest
        header_op = template.header_op
        on_instr = self.on_instr
        on_def = self.on_def
        collector = self

        def op(env):
            current = collector._current
            if current is None:
                return run(env)
            if collector._depth_in_target or collector._call_stack:
                on_instr(func, block, instr)
                value = run(env)
                if dest is not None:
                    on_def(instr, value)
                return value
            record = OpRecord(
                instr,
                ticks,
                collector._phi_uses(instr) if uses is None else uses,
                collector._in_pre_fork,
                header_op,
            )
            current.ops.append(record)
            collector._pending_op = record
            value = run(env)
            if dest is not None:
                regs = collector._reg_values
                record.def_name = dest
                record.def_old = regs.get(dest)
                record.def_new = value
                regs[dest] = value
            return value

        return op

    # -- checkpointing ------------------------------------------------

    @staticmethod
    def _encode_op(op: OpRecord, key_of) -> List:
        return [
            key_of(id(op.instr)),
            op.ticks,
            list(op.uses),
            op.def_name,
            op.def_old,
            op.def_new,
            op.load_addr,
            op.load_value,
            op.store_addr,
            op.store_old,
            op.store_new,
            sorted(op.mem_reads) if op.mem_reads is not None else None,
            (
                sorted(
                    [addr, old, new]
                    for addr, (old, new) in op.mem_writes.items()
                )
                if op.mem_writes is not None
                else None
            ),
            op.pre_fork,
            op.header_op,
        ]

    @staticmethod
    def _decode_op(fields: List, instr_of) -> OpRecord:
        op = OpRecord(instr_of(fields[0]))
        (
            op.ticks,
            uses,
            op.def_name,
            op.def_old,
            op.def_new,
            op.load_addr,
            op.load_value,
            op.store_addr,
            op.store_old,
            op.store_new,
            mem_reads,
            mem_writes,
            op.pre_fork,
            op.header_op,
        ) = fields[1:]
        op.uses = tuple(uses)
        op.mem_reads = set(mem_reads) if mem_reads is not None else None
        op.mem_writes = (
            {addr: (old, new) for addr, old, new in mem_writes}
            if mem_writes is not None
            else None
        )
        return op

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

        def encode(trace: Optional[IterationTrace]) -> Optional[List]:
            if trace is None:
                return None
            return [self._encode_op(op, key_of) for op in trace.ops]

        return {
            "stats": asdict(self.stats),
            "counts": dict(self.counts),
            "unpaired": encode(self._unpaired),
            "round": self._round,
            "opened": self._opened,
            "current": encode(self._current),
            "in_pre_fork": self._in_pre_fork,
            "reg_values": dict(self._reg_values),
            "prev_label": self._prev_label,
            "entered_body": self._entered_body,
            "frame_is_target": list(self._frame_is_target),
            "predictor": self.predictor.snapshot_state(key_of),
        }

    def restore_state(self, state: Dict, instr_of, id_of) -> None:
        """Inverse of :meth:`snapshot_state`.  ``instr_of`` maps an
        instruction key to the live instruction; ``id_of`` to its id."""

        def decode(ops: Optional[List]) -> Optional[IterationTrace]:
            if ops is None:
                return None
            trace = IterationTrace()
            trace.ops = [self._decode_op(fields, instr_of) for fields in ops]
            return trace

        self.stats = SptLoopStats(**state["stats"])
        self.counts = dict(state["counts"])
        self._unpaired = decode(state["unpaired"])
        if self._unpaired is not None:
            self._unpaired.seal()
        self._round = int(state["round"])
        self._opened = bool(state["opened"])
        self._current = decode(state["current"])
        self._in_pre_fork = bool(state["in_pre_fork"])
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
    def prefork_cycles(self) -> float:
        return self.prefork_ticks / TICKS_PER_CYCLE

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


def _stale(ops: Iterable[OpRecord]) -> Tuple[Set[str], Set[int]]:
    """Register names and memory addresses ``ops`` redefine and leave
    holding a different value than before the first of them wrote it
    (silent re-stores are not stale)."""
    reg: Dict[str, Tuple] = {}  # location -> (value before, value after)
    mem: Dict[int, Tuple] = {}
    for op in ops:
        if op.def_name is not None:
            first = reg.get(op.def_name)
            reg[op.def_name] = (
                op.def_old if first is None else first[0], op.def_new
            )
        if op.store_addr is not None:
            first = mem.get(op.store_addr)
            mem[op.store_addr] = (
                op.store_old if first is None else first[0], op.store_new
            )
        if op.mem_writes:
            for addr, (old, new) in op.mem_writes.items():
                first = mem.get(addr)
                mem[addr] = (old if first is None else first[0], new)
    return (
        {name for name, (old, new) in reg.items() if old != new},
        {addr for addr, (old, new) in mem.items() if old != new},
    )


def _post_fork_stale(trace: IterationTrace) -> Tuple[Set[str], Set[int]]:
    """The locations the main thread changes after the fork: what a
    speculative iteration started at the fork reads stale."""
    return _stale(op for op in trace.ops if not op.pre_fork)


def _replay_speculative(
    spec_ops: Iterable[OpRecord],
    stale_regs: Set[str],
    stale_addrs: Set[int],
) -> Tuple[int, int]:
    """Walk the speculative iteration's ops, propagating misspeculation
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
    for op in spec_ops:
        tainted = (
            not bad_regs.isdisjoint(op.uses)
            or (op.load_addr is not None and op.load_addr in bad_addrs)
            or (op.mem_reads and not bad_addrs.isdisjoint(op.mem_reads))
        )
        if tainted:
            reexec_ticks += op.ticks
            reexec_ops += 1
            if op.def_name is not None:
                bad_regs.add(op.def_name)
            if op.store_addr is not None:
                bad_addrs.add(op.store_addr)
            if op.mem_writes:
                bad_addrs.update(op.mem_writes)
        else:
            if op.def_name is not None:
                bad_regs.discard(op.def_name)
            if op.store_addr is not None:
                bad_addrs.discard(op.store_addr)
            if op.mem_writes:
                bad_addrs.difference_update(op.mem_writes)
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
