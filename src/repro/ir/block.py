"""Basic blocks."""

from __future__ import annotations

from typing import Iterator, List, Optional

from repro.ir.instr import Instr, Phi


class Block:
    """A basic block: a label plus a straight-line instruction list.

    The last instruction, when present and marked ``is_terminator``, is
    the block terminator.  Phi nodes, when present, form a prefix of the
    instruction list (enforced by the verifier).
    """

    def __init__(self, label: str):
        self.label = label
        self.instrs: List[Instr] = []
        #: Free-form pass annotations (e.g. the frontend tags loop
        #: headers with ``loop_kind: "for" | "while"``, the paper's
        #: loop-unrolling pragma equivalent).
        self.annotations: dict = {}

    # -- structure ---------------------------------------------------

    @property
    def terminator(self) -> Optional[Instr]:
        """The block terminator, or ``None`` for an unterminated block."""
        if self.instrs and self.instrs[-1].is_terminator:
            return self.instrs[-1]
        return None

    def successors(self) -> List[str]:
        """Labels of successor blocks (empty for return / unterminated)."""
        term = self.terminator
        if term is None:
            return []
        return term.targets()

    def phis(self) -> Iterator[Phi]:
        """The phi-node prefix of this block."""
        for instr in self.instrs:
            if isinstance(instr, Phi):
                yield instr
            else:
                break

    # -- mutation ----------------------------------------------------

    def append(self, instr: Instr) -> Instr:
        """Append ``instr``; raises if the block is already terminated."""
        if self.terminator is not None:
            raise ValueError(f"block {self.label} is already terminated")
        self.instrs.append(instr)
        return instr

    def insert_before_terminator(self, instr: Instr) -> Instr:
        """Insert ``instr`` just before the terminator (or append)."""
        if self.terminator is not None:
            self.instrs.insert(len(self.instrs) - 1, instr)
        else:
            self.instrs.append(instr)
        return instr

    def add_phi(self, phi: Phi) -> Phi:
        """Insert ``phi`` at the end of the phi prefix."""
        index = 0
        while index < len(self.instrs) and isinstance(self.instrs[index], Phi):
            index += 1
        self.instrs.insert(index, phi)
        return phi

    def __repr__(self) -> str:
        return f"Block({self.label}, {len(self.instrs)} instrs)"

    def __iter__(self) -> Iterator[Instr]:
        return iter(self.instrs)

    def __len__(self) -> int:
        return len(self.instrs)
