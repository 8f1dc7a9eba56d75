"""Textual IR printer.

The format round-trips through :mod:`repro.ir.parser`::

    module m
    global cost[1]

    func foo(n) {
      local buf[64]
    entry:
      i = copy 0
      jump head
    head:
      i.2 = phi [entry: i, body: i.3]
      c = lt i.2, n
      br c, body, exit
    ...
    }
"""

from __future__ import annotations

from typing import List, Optional

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
from repro.ir.values import Const, Value


def format_value(value: Value) -> str:
    if isinstance(value, Const) and isinstance(value.value, float):
        return repr(value.value)
    return str(value)


def format_instr(instr: Instr) -> str:
    """Render one instruction in the textual syntax."""
    if isinstance(instr, BinOp):
        return (
            f"{instr.dest} = {instr.op} "
            f"{format_value(instr.lhs)}, {format_value(instr.rhs)}"
        )
    if isinstance(instr, UnOp):
        return f"{instr.dest} = {instr.op} {format_value(instr.src)}"
    if isinstance(instr, Copy):
        return f"{instr.dest} = copy {format_value(instr.src)}"
    if isinstance(instr, LoadAddr):
        return f"{instr.dest} = addr {instr.sym}"
    if isinstance(instr, Load):
        text = (
            f"{instr.dest} = load "
            f"{format_value(instr.base)}, {format_value(instr.offset)}"
        )
        return f"{text} !{instr.sym}" if instr.sym else text
    if isinstance(instr, Store):
        text = (
            f"store {format_value(instr.base)}, "
            f"{format_value(instr.offset)}, {format_value(instr.value)}"
        )
        return f"{text} !{instr.sym}" if instr.sym else text
    if isinstance(instr, Call):
        args = ", ".join(format_value(a) for a in instr.args)
        pure = "pure " if instr.pure else ""
        if instr.dest is not None:
            return f"{instr.dest} = call {pure}{instr.callee}({args})"
        return f"call {pure}{instr.callee}({args})"
    if isinstance(instr, Phi):
        pairs = ", ".join(
            f"{label}: {format_value(value)}"
            for label, value in sorted(instr.incomings.items())
        )
        return f"{instr.dest} = phi [{pairs}]"
    if isinstance(instr, Jump):
        return f"jump {instr.target}"
    if isinstance(instr, Branch):
        return f"br {format_value(instr.cond)}, {instr.iftrue}, {instr.iffalse}"
    if isinstance(instr, Return):
        if instr.value is not None:
            return f"ret {format_value(instr.value)}"
        return "ret"
    if isinstance(instr, SptFork):
        return f"spt_fork {instr.loop_id}"
    if isinstance(instr, SptKill):
        return f"spt_kill {instr.loop_id}"
    raise TypeError(f"cannot print {instr!r}")


def format_block(block: Block) -> str:
    lines = [f"{block.label}:"]
    for instr in block.instrs:
        lines.append(f"  {format_instr(instr)}")
    return "\n".join(lines)


def format_function(func: Function) -> str:
    params = ", ".join(str(p) for p in func.params)
    lines: List[str] = [f"func {func.name}({params}) {{"]
    for decl in func.arrays.values():
        escapes = " escapes" if decl.escapes else ""
        lines.append(f"  local {decl.sym}[{decl.size}]{escapes}")
    for block in func.blocks:
        lines.append(format_block(block))
    lines.append("}")
    return "\n".join(lines)


def format_module(module: Module, name: Optional[str] = None) -> str:
    """The module's textual IR; ``name`` overrides the module name."""
    lines: List[str] = [f"module {name or module.name}"]
    for decl in module.globals.values():
        escapes = " escapes" if decl.escapes else ""
        lines.append(f"global {decl.sym}[{decl.size}]{escapes}")
    for func in module.functions.values():
        lines.append("")
        lines.append(format_function(func))
    return "\n".join(lines) + "\n"
