"""SSA construction, verification, and cleanup tests."""

from repro.ir import Module, Var, parse_function, parse_module, verify_function
from repro.ssa import (
    build_ssa,
    copy_propagate,
    destruct_ssa,
    eliminate_dead_code,
    fold_constants,
    optimize,
)

LOOP = """\
func summing(n) {
entry:
  i = copy 0
  s = copy 0
  jump head
head:
  c = lt i, n
  br c, body, exit
body:
  s = add s, i
  i = add i, 1
  jump head
exit:
  ret s
}
"""

DIAMOND = """\
func pick(x) {
entry:
  c = lt x, 0
  br c, neg, pos
neg:
  y = sub 0, x
  jump join
pos:
  y = copy x
  jump join
join:
  ret y
}
"""


def _module_with(func):
    module = Module("t")
    module.add_function(func)
    return module


def test_ssa_form_verifies():
    func = parse_function(LOOP)
    build_ssa(func)
    verify_function(_module_with(func), func, ssa=True)


def test_loop_variables_get_header_phis():
    func = parse_function(LOOP)
    build_ssa(func)
    head = func.block("head")
    phi_bases = sorted(phi.dest.base for phi in head.phis())
    assert phi_bases == ["i", "s"]


def test_diamond_join_gets_phi():
    func = parse_function(DIAMOND)
    build_ssa(func)
    join = func.block("join")
    phis = list(join.phis())
    assert len(phis) == 1
    assert phis[0].dest.base == "y"
    assert set(phis[0].incomings) == {"neg", "pos"}


def test_single_assignment_property():
    func = parse_function(LOOP)
    build_ssa(func)
    defined = [p.name for p in func.params]
    for instr in func.instructions():
        if instr.dest is not None:
            assert instr.dest.name not in defined
            defined.append(instr.dest.name)


def test_destruct_removes_all_phis_and_verifies():
    func = parse_function(LOOP)
    build_ssa(func)
    destruct_ssa(func)
    assert all(instr.opcode != "phi" for instr in func.instructions())
    verify_function(_module_with(func), func, ssa=False)


def test_copy_propagation_shortens_chains():
    func = parse_function(
        """\
func f(x) {
entry:
  a = copy x
  b = copy a
  c = add b, 1
  ret c
}
"""
    )
    build_ssa(func)
    copy_propagate(func)
    eliminate_dead_code(func)
    add = next(i for i in func.instructions() if i.opcode == "binop")
    assert add.lhs.base == "x"
    # Both copies become dead after propagation.
    copies = [i for i in func.instructions() if i.opcode == "copy"]
    assert copies == []


def test_constant_folding_folds_arith():
    func = parse_function(
        """\
func f() {
entry:
  a = add 2, 3
  b = mul a, 4
  ret b
}
"""
    )
    build_ssa(func)
    optimize(func)
    ret = func.block("entry").terminator
    assert str(ret.value) == "20" or any(
        i.opcode == "copy" and str(i.src) == "20" for i in func.instructions()
    )


def test_constant_folding_leaves_faulting_ops_to_run_time():
    """Folding evaluates through the interpreter's operators: an op the
    interpreter would fault on stays in the code and faults only if it
    runs."""
    func = parse_function(
        """\
func f() {
entry:
  a = shl 1, 3
  b = shl 1, -1
  c = shr 8, -2
  d = div 7, 0
  e = mod 7, 0
  ret a
}
"""
    )
    assert fold_constants(func) == 1
    kept = [i.op for i in func.instructions() if i.opcode == "binop"]
    assert kept == ["shl", "shr", "div", "mod"]


def test_dead_code_elimination_keeps_side_effects():
    func = parse_function(
        """\
func f(x) {
entry:
  unused = add x, 1
  call log(x)
  ret x
}
"""
    )
    build_ssa(func)
    eliminate_dead_code(func)
    opcodes = [i.opcode for i in func.instructions()]
    assert "binop" not in opcodes
    assert "call" in opcodes


def test_branch_simplification_on_constants():
    func = parse_function(
        """\
func f() {
entry:
  c = lt 1, 2
  jump test
test:
  br c, yes, no
yes:
  ret 1
no:
  ret 0
}
"""
    )
    build_ssa(func)
    optimize(func)
    term = func.block("test").terminator
    assert term.opcode == "jump"
    assert term.target == "yes"
