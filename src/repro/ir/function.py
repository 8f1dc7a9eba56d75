"""Functions and modules."""

from __future__ import annotations

from typing import Dict, Iterator, List, Optional, Sequence

from repro.ir.block import Block
from repro.ir.instr import Instr
from repro.ir.values import Var


class ArrayDecl:
    """A declared array symbol (function-local or module-global).

    ``size`` is the element count; elements are word-sized.  ``escapes``
    marks symbols whose address may leave the function (passed to calls),
    which the type-based alias analysis must then treat conservatively.
    """

    def __init__(self, sym: str, size: int, escapes: bool = False):
        self.sym = sym
        self.size = size
        self.escapes = escapes

    def __repr__(self) -> str:
        return f"ArrayDecl({self.sym}[{self.size}])"


class Function:
    """An IR function: ordered basic blocks, the first being the entry."""

    def __init__(self, name: str, params: Sequence[Var] = ()):
        self.name = name
        self.params: List[Var] = list(params)
        self.blocks: List[Block] = []
        #: Function-local array declarations, keyed by symbol.
        self.arrays: Dict[str, ArrayDecl] = {}
        self._next_temp = 0
        #: Labels handed out by :meth:`fresh_label` but not yet realized
        #: as blocks (lowering reserves labels ahead of creation).
        self._reserved_labels: set = set()

    # -- structure ---------------------------------------------------

    @property
    def entry(self) -> Block:
        if not self.blocks:
            raise ValueError(f"function {self.name} has no blocks")
        return self.blocks[0]

    def block(self, label: str) -> Block:
        """Look up a block by label; raises ``KeyError`` if absent."""
        for blk in self.blocks:
            if blk.label == label:
                return blk
        raise KeyError(f"no block {label!r} in function {self.name}")

    def block_map(self) -> Dict[str, Block]:
        return {blk.label: blk for blk in self.blocks}

    def has_block(self, label: str) -> bool:
        for blk in self.blocks:
            if blk.label == label:
                return True
        return False

    def instructions(self) -> Iterator[Instr]:
        """All instructions in block order."""
        for blk in self.blocks:
            yield from blk.instrs

    # -- mutation ----------------------------------------------------

    def add_block(self, label: str) -> Block:
        if self.has_block(label):
            raise ValueError(f"duplicate block label {label!r}")
        blk = Block(label)
        self.blocks.append(blk)
        return blk

    def fresh_label(self, hint: str = "bb") -> str:
        """An unused block label derived from ``hint``.

        The label is reserved: a second call with the same hint returns
        a different name even before any block is created.
        """
        def taken(label: str) -> bool:
            return self.has_block(label) or label in self._reserved_labels

        candidate = hint
        index = 1
        while taken(candidate):
            candidate = f"{hint}{index}"
            index += 1
        self._reserved_labels.add(candidate)
        return candidate

    def fresh_var(self, hint: str = "t", type=None) -> Var:
        """A fresh temporary register with a function-unique name."""
        from repro.ir.types import INT

        name = f"{hint}${self._next_temp}"
        self._next_temp += 1
        return Var(name, type if type is not None else INT)

    def declare_array(self, sym: str, size: int, escapes: bool = False) -> ArrayDecl:
        decl = ArrayDecl(sym, size, escapes)
        self.arrays[sym] = decl
        return decl

    def __repr__(self) -> str:
        return f"Function({self.name}, {len(self.blocks)} blocks)"


class Module:
    """A compilation unit: functions plus global array symbols."""

    def __init__(self, name: str = "module"):
        self.name = name
        self.functions: Dict[str, Function] = {}
        #: Module-global arrays, keyed by symbol.
        self.globals: Dict[str, ArrayDecl] = {}

    def add_function(self, func: Function) -> Function:
        if func.name in self.functions:
            raise ValueError(f"duplicate function {func.name!r}")
        self.functions[func.name] = func
        return func

    def function(self, name: str) -> Function:
        return self.functions[name]

    def declare_global(self, sym: str, size: int, escapes: bool = False) -> ArrayDecl:
        decl = ArrayDecl(sym, size, escapes)
        self.globals[sym] = decl
        return decl

    def lookup_array(self, func: Optional[Function], sym: str) -> Optional[ArrayDecl]:
        """Resolve ``sym`` against ``func``'s locals then module globals."""
        if func is not None and sym in func.arrays:
            return func.arrays[sym]
        return self.globals.get(sym)

    def __repr__(self) -> str:
        return f"Module({self.name}, {len(self.functions)} functions)"
