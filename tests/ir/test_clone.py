"""``Instr.clone``: a structural copy that shares its operand values and
owns its mutable containers, for every instruction class."""

import inspect

import pytest

from repro.ir import instr as instr_module
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
from repro.ir.printer import format_instr
from repro.ir.types import FLOAT
from repro.ir.values import Const, Var

a, b, c, d = Var("a"), Var("b"), Var("c"), Var("d")
x = Var("x", FLOAT)


def examples():
    return [
        BinOp("add", d, a, Const(3)),
        UnOp("i2f", x, a),
        Copy(d, Const(1.5, FLOAT)),
        LoadAddr(d, "A"),
        Load(d, a, b, sym="A"),
        Store(a, b, c, sym="A"),
        Call(d, "helper", [a, b, Const(7)]),
        Call(None, "effect", [c], pure=False),
        Phi(d, {"left": a, "right": Const(0)}),
        Jump("exit"),
        Branch(c, "body", "exit"),
        Return(a),
        Return(),
        SptFork(1),
        SptKill(1),
    ]


def test_every_instruction_class_is_covered():
    classes = {
        cls for _, cls in inspect.getmembers(instr_module, inspect.isclass)
        if issubclass(cls, Instr) and cls is not Instr
        and cls.__module__ == instr_module.__name__
    }
    assert classes == {type(instr) for instr in examples()}


@pytest.mark.parametrize("instr", examples(), ids=lambda i: format_instr(i))
def test_clone_prints_like_the_original_and_shares_operands(instr):
    clone = instr.clone()
    assert clone is not instr
    assert type(clone) is type(instr)
    assert format_instr(clone) == format_instr(instr)
    assert clone.tag == instr.tag
    for mine, theirs in zip(clone.uses(), instr.uses()):
        assert mine is theirs
    assert clone.dest is instr.dest


@pytest.mark.parametrize("instr", examples(), ids=lambda i: format_instr(i))
def test_mutating_a_clone_leaves_the_original_unchanged(instr):
    before = format_instr(instr)
    uses_before = list(instr.uses())
    clone = instr.clone()
    fresh = Var("fresh")
    for used in clone.uses():
        clone.replace_use(used, fresh)
    if clone.dest is not None:
        clone.dest = Var("other")
    if isinstance(clone, Phi):
        clone.incomings["extra"] = fresh
        clone.incomings.pop("left")
    if isinstance(clone, Call):
        clone.args.append(fresh)
    for attr in ("target", "iftrue", "iffalse"):
        if hasattr(clone, attr):
            setattr(clone, attr, "elsewhere")
    assert format_instr(instr) == before
    assert instr.uses() == uses_before
    assert all(u is v for u, v in zip(instr.uses(), uses_before))
