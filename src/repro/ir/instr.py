"""Three-address IR instructions.

Every instruction exposes a uniform interface used by the analyses:

* :attr:`Instr.dest` -- the defined :class:`~repro.ir.values.Var`
  (``None`` for pure effects such as stores and branches),
* :meth:`Instr.uses` -- the operand values read,
* :meth:`Instr.replace_use` -- operand substitution (SSA renaming,
  copy propagation, SPT temp insertion),
* :attr:`Instr.cost` -- the amount of computation in "elementary
  operations", the unit in which the paper measures misspeculation cost
  (§4.2.4: ``sum v(c) * Cost(c)``).

The two SPT pseudo-instructions of the paper's execution model,
``SPT_FORK`` and ``SPT_KILL`` (§1, Figure 2), are first-class
instructions so the transformed loops remain ordinary IR.
"""

from __future__ import annotations

import copy as _copy
from typing import Dict, List, Optional

from repro.ir.types import BOOL, FLOAT, INT, PTR, Type, join
from repro.ir.values import Const, Value, Var

#: Comparison opcodes (produce BOOL).
COMPARISONS = ("lt", "le", "gt", "ge", "eq", "ne")

#: Arithmetic / logical opcodes accepted by :class:`BinOp`.
BINARY_OPS = (
    "add",
    "sub",
    "mul",
    "div",
    "mod",
    "and",
    "or",
    "xor",
    "shl",
    "shr",
    "min",
    "max",
) + COMPARISONS

#: Opcodes accepted by :class:`UnOp`.
UNARY_OPS = ("neg", "not", "abs", "i2f", "f2i")

#: Default dynamic cost of a call whose body is unknown to the cost model.
DEFAULT_CALL_COST = 20


class Instr:
    """Base class for IR instructions."""

    #: Printable opcode; subclasses override.
    opcode = "instr"

    #: Whether the instruction ends a basic block.
    is_terminator = False

    def __init__(self):
        #: Optional source-position / provenance tag carried through
        #: transformations (used by tests and diagnostics).
        self.tag: Optional[str] = None

    @property
    def dest(self) -> Optional[Var]:
        """The register this instruction defines, if any."""
        return None

    def uses(self) -> List[Value]:
        """The operand values read by this instruction."""
        return []

    def replace_use(self, old: Value, new: Value) -> None:
        """Replace every read of ``old`` with ``new`` (in place)."""

    @property
    def cost(self) -> int:
        """Amount of computation, in elementary operations (paper §4.2.4)."""
        return 1

    @property
    def has_side_effects(self) -> bool:
        """Whether removing the instruction could change program behaviour."""
        return False

    @property
    def reads_memory(self) -> bool:
        return False

    @property
    def writes_memory(self) -> bool:
        return False

    def clone(self) -> "Instr":
        """A structural copy, safe to insert elsewhere.

        Operand values are shared: nothing mutates a ``Var`` or
        ``Const`` in place (operands change through :meth:`replace_use`
        and the ``dest`` setters).  Subclasses holding a mutable
        container give the copy its own."""
        return _copy.copy(self)

    def __repr__(self) -> str:
        from repro.ir.printer import format_instr

        return f"<{format_instr(self)}>"


class BinOp(Instr):
    """``dest = lhs <op> rhs``."""

    opcode = "binop"

    def __init__(self, op: str, dest: Var, lhs: Value, rhs: Value):
        super().__init__()
        if op not in BINARY_OPS:
            raise ValueError(f"unknown binary op {op!r}")
        self.op = op
        self._dest = dest
        self.lhs = lhs
        self.rhs = rhs

    @property
    def dest(self) -> Var:
        return self._dest

    @dest.setter
    def dest(self, var: Var) -> None:
        self._dest = var

    def uses(self) -> List[Value]:
        return [self.lhs, self.rhs]

    def replace_use(self, old: Value, new: Value) -> None:
        if self.lhs == old:
            self.lhs = new
        if self.rhs == old:
            self.rhs = new

    @property
    def cost(self) -> int:
        # Division and modulo are markedly more expensive on in-order
        # cores; everything else counts as one elementary operation.
        return 4 if self.op in ("div", "mod") else 1


class UnOp(Instr):
    """``dest = <op> src``."""

    opcode = "unop"

    def __init__(self, op: str, dest: Var, src: Value):
        super().__init__()
        if op not in UNARY_OPS:
            raise ValueError(f"unknown unary op {op!r}")
        self.op = op
        self._dest = dest
        self.src = src

    @property
    def dest(self) -> Var:
        return self._dest

    @dest.setter
    def dest(self, var: Var) -> None:
        self._dest = var

    def uses(self) -> List[Value]:
        return [self.src]

    def replace_use(self, old: Value, new: Value) -> None:
        if self.src == old:
            self.src = new


class Copy(Instr):
    """``dest = src`` -- register copy.

    Inserted by SSA destruction and by the SPT transformation's
    temporary-variable insertion (paper Figure 11).
    """

    opcode = "copy"

    def __init__(self, dest: Var, src: Value):
        super().__init__()
        self._dest = dest
        self.src = src

    @property
    def dest(self) -> Var:
        return self._dest

    @dest.setter
    def dest(self, var: Var) -> None:
        self._dest = var

    def uses(self) -> List[Value]:
        return [self.src]

    def replace_use(self, old: Value, new: Value) -> None:
        if self.src == old:
            self.src = new


class LoadAddr(Instr):
    """``dest = &sym`` -- materialize the base address of an array symbol.

    Arrays (function locals and module globals) live in the interpreter's
    flat memory; this instruction is the only way an address enters the
    register file, which keeps the type-based alias analysis exact for
    non-escaping symbols.
    """

    opcode = "addr"

    def __init__(self, dest: Var, sym: str):
        super().__init__()
        self._dest = dest
        self.sym = sym

    @property
    def dest(self) -> Var:
        return self._dest

    @dest.setter
    def dest(self, var: Var) -> None:
        self._dest = var


class Load(Instr):
    """``dest = mem[base + offset]``.

    ``sym`` is an optional disambiguation hint: the source-level symbol
    this access provably belongs to, or ``None`` when unknown (e.g. the
    address came through arbitrary pointer arithmetic).
    """

    opcode = "load"

    def __init__(self, dest: Var, base: Value, offset: Value, sym: str = None):
        super().__init__()
        self._dest = dest
        self.base = base
        self.offset = offset
        self.sym = sym

    @property
    def dest(self) -> Var:
        return self._dest

    @dest.setter
    def dest(self, var: Var) -> None:
        self._dest = var

    def uses(self) -> List[Value]:
        return [self.base, self.offset]

    def replace_use(self, old: Value, new: Value) -> None:
        if self.base == old:
            self.base = new
        if self.offset == old:
            self.offset = new

    @property
    def reads_memory(self) -> bool:
        return True


class Store(Instr):
    """``mem[base + offset] = value``."""

    opcode = "store"

    def __init__(self, base: Value, offset: Value, value: Value, sym: str = None):
        super().__init__()
        self.base = base
        self.offset = offset
        self.value = value
        self.sym = sym

    def uses(self) -> List[Value]:
        return [self.base, self.offset, self.value]

    def replace_use(self, old: Value, new: Value) -> None:
        if self.base == old:
            self.base = new
        if self.offset == old:
            self.offset = new
        if self.value == old:
            self.value = new

    @property
    def has_side_effects(self) -> bool:
        return True

    @property
    def writes_memory(self) -> bool:
        return True


class Call(Instr):
    """``dest = callee(args...)`` (or a bare call when ``dest is None``).

    ``pure`` marks calls the compiler may treat as side-effect free; an
    impure call both reads and writes unknown memory, which is exactly the
    conservatism that produces the paper's Figure 19 outliers (function
    calls modifying globals unknown to the caller loop).
    """

    opcode = "call"

    def __init__(
        self,
        dest: Optional[Var],
        callee: str,
        args: List[Value],
        pure: bool = False,
    ):
        super().__init__()
        self._dest = dest
        self.callee = callee
        self.args = list(args)
        self.pure = pure

    @property
    def dest(self) -> Optional[Var]:
        return self._dest

    @dest.setter
    def dest(self, var: Optional[Var]) -> None:
        self._dest = var

    def clone(self) -> "Call":
        new = _copy.copy(self)
        new.args = list(self.args)
        return new

    def uses(self) -> List[Value]:
        return list(self.args)

    def replace_use(self, old: Value, new: Value) -> None:
        self.args = [new if a == old else a for a in self.args]

    @property
    def cost(self) -> int:
        return DEFAULT_CALL_COST

    @property
    def has_side_effects(self) -> bool:
        return not self.pure

    @property
    def reads_memory(self) -> bool:
        return not self.pure

    @property
    def writes_memory(self) -> bool:
        return not self.pure


class Phi(Instr):
    """SSA phi node: ``dest = phi [pred_label -> value, ...]``."""

    opcode = "phi"

    def __init__(self, dest: Var, incomings: Dict[str, Value] = None):
        super().__init__()
        self._dest = dest
        #: Mapping from predecessor block label to the incoming value.
        self.incomings: Dict[str, Value] = dict(incomings or {})

    @property
    def dest(self) -> Var:
        return self._dest

    @dest.setter
    def dest(self, var: Var) -> None:
        self._dest = var

    def clone(self) -> "Phi":
        new = _copy.copy(self)
        new.incomings = dict(self.incomings)
        return new

    def uses(self) -> List[Value]:
        return list(self.incomings.values())

    def replace_use(self, old: Value, new: Value) -> None:
        for label, value in list(self.incomings.items()):
            if value == old:
                self.incomings[label] = new

    @property
    def cost(self) -> int:
        # Phis are resolved by copies on edges; they model no computation.
        return 0


class Jump(Instr):
    """Unconditional jump to ``target`` (a block label)."""

    opcode = "jump"
    is_terminator = True

    def __init__(self, target: str):
        super().__init__()
        self.target = target

    def targets(self) -> List[str]:
        return [self.target]

    @property
    def cost(self) -> int:
        return 0


class Branch(Instr):
    """Conditional branch: ``if cond goto iftrue else goto iffalse``."""

    opcode = "br"
    is_terminator = True

    def __init__(self, cond: Value, iftrue: str, iffalse: str):
        super().__init__()
        self.cond = cond
        self.iftrue = iftrue
        self.iffalse = iffalse

    def uses(self) -> List[Value]:
        return [self.cond]

    def replace_use(self, old: Value, new: Value) -> None:
        if self.cond == old:
            self.cond = new

    def targets(self) -> List[str]:
        return [self.iftrue, self.iffalse]


class Return(Instr):
    """Function return, optionally with a value."""

    opcode = "ret"
    is_terminator = True

    def __init__(self, value: Optional[Value] = None):
        super().__init__()
        self.value = value

    def uses(self) -> List[Value]:
        return [self.value] if self.value is not None else []

    def replace_use(self, old: Value, new: Value) -> None:
        if self.value == old:
            self.value = new

    def targets(self) -> List[str]:
        return []

    @property
    def has_side_effects(self) -> bool:
        return True


class SptFork(Instr):
    """``SPT_FORK(loop_id)`` -- spawn a speculative thread for the next
    iteration (paper Figure 2).  Everything textually before the fork in
    the loop body is the *pre-fork region*; everything after is the
    *post-fork region*.
    """

    opcode = "spt_fork"

    def __init__(self, loop_id: int):
        super().__init__()
        self.loop_id = loop_id

    @property
    def has_side_effects(self) -> bool:
        return True

    @property
    def cost(self) -> int:
        return 0


class SptKill(Instr):
    """``SPT_KILL(loop_id)`` -- kill any running speculative thread,
    executed at SPT loop exit (paper §1)."""

    opcode = "spt_kill"

    def __init__(self, loop_id: int):
        super().__init__()
        self.loop_id = loop_id

    @property
    def has_side_effects(self) -> bool:
        return True

    @property
    def cost(self) -> int:
        return 0
