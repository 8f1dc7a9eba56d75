"""Interprocedural mod/ref summaries.

The paper's *anticipated best compilation* manually applied "the export
of global variables beyond their visible scopes" -- making the memory a
callee touches visible to the caller's dependence analysis instead of
assuming a call clobbers everything.  This module automates the
equivalent: a bottom-up fixpoint over the call graph computes, per
function, the canonical symbol sets it may read and write; calls to
summarized functions then participate in alias queries with those sets
rather than as universal clobbers.

Canonical symbol names are ``sym`` for globals and ``func.sym`` for
function-local (static) arrays, matching the interpreter's symbol
table.  ``None`` in a set marks unknown memory (raw pointers, escaped
arrays, intrinsics).
"""

from __future__ import annotations

from typing import Dict, Optional, Set

from repro.analysis import alias as alias_mod
from repro.ir.function import Function, Module
from repro.ir.instr import Call, Instr, Load, Store
from repro.ir.values import Const

SymSet = Set[Optional[str]]


class ModRefSummaries:
    """Per-function read/write symbol sets."""

    def __init__(self, module: Module):
        self.module = module
        self.reads: Dict[str, SymSet] = {}
        self.writes: Dict[str, SymSet] = {}
        self._compute()

    # -- construction ------------------------------------------------------

    def _canon(self, func: Function, sym: Optional[str]) -> Optional[str]:
        if sym is None:
            return None
        if sym in func.arrays:
            return f"{func.name}.{sym}"
        return sym

    def _compute(self) -> None:
        for name in self.module.functions:
            self.reads[name] = set()
            self.writes[name] = set()

        changed = True
        while changed:
            changed = False
            for name, func in self.module.functions.items():
                new_reads: SymSet = set()
                new_writes: SymSet = set()
                for instr in func.instructions():
                    if isinstance(instr, Load):
                        new_reads.add(self._canon(func, instr.sym))
                    elif isinstance(instr, Store):
                        new_writes.add(self._canon(func, instr.sym))
                    elif isinstance(instr, Call) and not instr.pure:
                        if instr.callee in self.module.functions:
                            new_reads |= self.reads[instr.callee]
                            new_writes |= self.writes[instr.callee]
                        else:
                            # Unknown external/intrinsic call.
                            new_reads.add(None)
                            new_writes.add(None)
                if new_reads - self.reads[name] or new_writes - self.writes[name]:
                    self.reads[name] |= new_reads
                    self.writes[name] |= new_writes
                    changed = True

    # -- queries -------------------------------------------------------------

    def call_reads(self, call: Call) -> bool:
        if call.pure:
            return False
        if call.callee in self.module.functions:
            return bool(self.reads[call.callee])
        return True

    def call_writes(self, call: Call) -> bool:
        if call.pure:
            return False
        if call.callee in self.module.functions:
            return bool(self.writes[call.callee])
        return True

    def _node_syms(self, func: Function, instr: Instr) -> SymSet:
        """Canonical symbols ``instr`` may access (reads or writes)."""
        if isinstance(instr, Call):
            if instr.pure:
                return set()
            if instr.callee in self.module.functions:
                return self.reads[instr.callee] | self.writes[instr.callee]
            return {None}
        raw = alias_mod.access_syms(instr)
        return {self._canon(func, sym) for sym in raw}

    def _escapes(self, canonical: Optional[str]) -> bool:
        if canonical is None:
            return True
        if "." in canonical:
            func_name, sym = canonical.split(".", 1)
            func = self.module.functions.get(func_name)
            decl = func.arrays.get(sym) if func is not None else None
        else:
            decl = self.module.globals.get(canonical)
        return decl is None or decl.escapes

    def may_alias(self, func: Function, a: Instr, b: Instr) -> bool:
        """Alias query using call summaries where available."""
        syms_a = self._node_syms(func, a)
        syms_b = self._node_syms(func, b)
        if not syms_a or not syms_b:
            return False
        if any(self._escapes(s) for s in syms_a) or any(
            self._escapes(s) for s in syms_b
        ):
            return True
        if not (syms_a & syms_b):
            return False
        if (
            isinstance(a, (Load, Store))
            and isinstance(b, (Load, Store))
            and a.base == b.base
            and isinstance(a.offset, Const)
            and isinstance(b.offset, Const)
        ):
            return a.offset.value == b.offset.value
        return True
