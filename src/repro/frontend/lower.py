"""Lowering MiniC ASTs to the (pre-SSA) IR.

Design notes:

* scalars become mutable IR registers named after the source variable;
  SSA construction versions them later;
* every referenced array gets its base address materialized once in the
  entry block (``LoadAddr``), so all accesses carry an exact symbol hint
  for the type-based alias analysis;
* ``for`` headers are annotated ``loop_kind: "for"`` and ``while``
  headers ``"while"`` -- the unroller's pragma (paper §7.1: ORC could
  only unroll counted DO loops);
* ``&&``/``||`` short-circuit through control flow;
* assignments into ``float`` scalars/arrays insert ``i2f`` so integer
  values promote like C.
"""

from __future__ import annotations

from typing import Dict, List, Optional, Tuple

from repro.frontend import ast
from repro.frontend.sema import ProgramInfo, analyze
from repro.ir.builder import Builder
from repro.ir.function import Function, Module
from repro.ir.values import Const, Value, Var


class LowerError(ValueError):
    pass


class _FunctionLowerer:
    def __init__(self, info: ProgramInfo, module: Module, func_def: ast.FuncDef):
        self.info = info
        self.module = module
        self.func_def = func_def
        self.kinds: Dict[str, Tuple] = func_def.symbol_kinds  # set by sema
        self.func = Function(func_def.name, [Var(p.name) for p in func_def.params])
        self.builder = Builder(self.func)
        #: array sym -> Var holding its base address
        self.array_bases: Dict[str, Var] = {}
        #: stack of (continue_target, break_target)
        self.loop_targets: List[Tuple[str, str]] = []

    # -- plumbing -----------------------------------------------------------

    def fresh(self, hint: str = "t") -> Var:
        return self.func.fresh_var(hint)

    def terminated(self) -> bool:
        return self.builder.block.terminator is not None

    def start_block(self, hint: str) -> str:
        label = self.func.fresh_label(hint)
        self.builder.new_block(label)
        return label

    def ensure_open_block(self) -> None:
        """After a return/break, further statements are unreachable; give
        them a fresh (dead) block so lowering stays total."""
        if self.terminated():
            self.start_block("dead")

    def _is_float_target(self, kind: Tuple) -> bool:
        if kind[0] == "float":
            return True
        return kind[0] == "array" and kind[1] == "float"

    def _coerce_float(self, value: Value) -> Value:
        if isinstance(value, Const):
            return Const(float(value.value))
        dest = self.fresh("f")
        self.builder.unop("i2f", dest, value)
        return dest

    # -- entry ---------------------------------------------------------------

    def lower(self) -> Function:
        self.builder.new_block("entry")
        # Declare and materialize arrays up front.
        used_arrays = _collect_array_names(self.func_def)
        for name, kind in self.kinds.items():
            if kind[0] != "array":
                continue
            if name not in self.info.globals:
                self.func.declare_array(name, kind[2])
            if name in used_arrays:
                base = Var(f"{name}$base")
                self.builder.addr(base, name)
                self.array_bases[name] = base

        self.lower_block(self.func_def.body)
        if not self.terminated():
            if self.func_def.return_type == "void":
                self.builder.ret()
            else:
                self.builder.ret(0)
        return self.func

    # -- statements -----------------------------------------------------------

    def lower_block(self, block: ast.Block) -> None:
        for stmt in block.stmts:
            self.ensure_open_block()
            self.lower_stmt(stmt)

    def lower_stmt(self, stmt: ast.Stmt) -> None:
        if isinstance(stmt, ast.Block):
            self.lower_block(stmt)
        elif isinstance(stmt, ast.VarDecl):
            if stmt.array_size is None and stmt.init is not None:
                value = self.lower_expr(stmt.init)
                if stmt.type_name == "float":
                    value = self._coerce_float(value)
                self.builder.copy(Var(stmt.name), value)
        elif isinstance(stmt, ast.Assign):
            self.lower_assign(stmt)
        elif isinstance(stmt, ast.ExprStmt):
            if isinstance(stmt.expr, ast.CallExpr):
                self.lower_call(stmt.expr, want_value=False)
            else:
                self.lower_expr(stmt.expr)
        elif isinstance(stmt, ast.If):
            self.lower_if(stmt)
        elif isinstance(stmt, ast.While):
            self.lower_while(stmt)
        elif isinstance(stmt, ast.For):
            self.lower_for(stmt)
        elif isinstance(stmt, ast.Break):
            self.builder.jump(self.loop_targets[-1][1])
        elif isinstance(stmt, ast.Continue):
            self.builder.jump(self.loop_targets[-1][0])
        elif isinstance(stmt, ast.Return):
            if stmt.value is not None:
                self.builder.ret(self.lower_expr(stmt.value))
            else:
                self.builder.ret()
        else:
            raise LowerError(f"cannot lower {stmt!r}")

    def lower_assign(self, stmt: ast.Assign) -> None:
        target = stmt.target
        if isinstance(target, ast.VarRef):
            kind = self.kinds[target.name]
            # Peephole: `x = a <op> b` computes straight into x (keeps
            # `i = i + 1` recognizable to the counted-loop unroller).
            if (
                not self._is_float_target(kind)
                and isinstance(stmt.value, ast.Binary)
                and stmt.value.op in self._BINOPS
            ):
                lhs = self.lower_expr(stmt.value.lhs)
                rhs = self.lower_expr(stmt.value.rhs)
                self.builder.binop(
                    self._BINOPS[stmt.value.op], Var(target.name), lhs, rhs
                )
                return
            value = self.lower_expr(stmt.value)
            if self._is_float_target(kind):
                value = self._coerce_float(value)
            self.builder.copy(Var(target.name), value)
        else:
            assert isinstance(target, ast.ArrayRef)
            kind = self.kinds[target.name]
            value = self.lower_expr(stmt.value)
            if self._is_float_target(kind):
                value = self._coerce_float(value)
            index = self.lower_expr(target.index)
            self.builder.store(
                self.array_bases[target.name], index, value, sym=target.name
            )

    def lower_if(self, stmt: ast.If) -> None:
        cond = self.lower_expr(stmt.cond)
        then_label = self.func.fresh_label("then")
        join_label = self.func.fresh_label("endif")
        else_label = (
            self.func.fresh_label("else") if stmt.else_body is not None else join_label
        )
        self.builder.branch(cond, then_label, else_label)

        self.builder.new_block(then_label)
        self.lower_block(stmt.then_body)
        if not self.terminated():
            self.builder.jump(join_label)

        if stmt.else_body is not None:
            self.builder.new_block(else_label)
            self.lower_block(stmt.else_body)
            if not self.terminated():
                self.builder.jump(join_label)

        self.builder.new_block(join_label)

    def lower_while(self, stmt: ast.While) -> None:
        head = self.func.fresh_label("while_head")
        body = self.func.fresh_label("while_body")
        exit_label = self.func.fresh_label("while_exit")
        self.builder.jump(head)

        head_block = self.builder.new_block(head)
        head_block.annotations["loop_kind"] = "while"
        cond = self.lower_expr(stmt.cond)
        self.builder.branch(cond, body, exit_label)

        self.builder.new_block(body)
        self.loop_targets.append((head, exit_label))
        self.lower_block(stmt.body)
        self.loop_targets.pop()
        if not self.terminated():
            self.builder.jump(head)

        self.builder.new_block(exit_label)

    def lower_for(self, stmt: ast.For) -> None:
        head = self.func.fresh_label("for_head")
        body = self.func.fresh_label("for_body")
        latch = self.func.fresh_label("for_latch")
        exit_label = self.func.fresh_label("for_exit")

        if stmt.init is not None:
            self.lower_stmt(stmt.init)
        self.builder.jump(head)

        head_block = self.builder.new_block(head)
        head_block.annotations["loop_kind"] = "for"
        if stmt.cond is not None:
            cond = self.lower_expr(stmt.cond)
            self.builder.branch(cond, body, exit_label)
        else:
            self.builder.jump(body)

        self.builder.new_block(body)
        self.loop_targets.append((latch, exit_label))
        self.lower_block(stmt.body)
        self.loop_targets.pop()
        if not self.terminated():
            self.builder.jump(latch)

        self.builder.new_block(latch)
        if stmt.step is not None:
            self.lower_stmt(stmt.step)
        self.builder.jump(head)

        self.builder.new_block(exit_label)

    # -- expressions -----------------------------------------------------------

    _BINOPS = {
        "+": "add",
        "-": "sub",
        "*": "mul",
        "/": "div",
        "%": "mod",
        "<<": "shl",
        ">>": "shr",
        "&": "and",
        "|": "or",
        "^": "xor",
        "<": "lt",
        "<=": "le",
        ">": "gt",
        ">=": "ge",
        "==": "eq",
        "!=": "ne",
    }

    def lower_expr(self, expr: ast.Expr) -> Value:
        if isinstance(expr, ast.IntLit):
            return Const(expr.value)
        if isinstance(expr, ast.FloatLit):
            return Const(expr.value)
        if isinstance(expr, ast.VarRef):
            return Var(expr.name)
        if isinstance(expr, ast.ArrayRef):
            index = self.lower_expr(expr.index)
            dest = self.fresh(f"{expr.name}_v")
            self.builder.load(dest, self.array_bases[expr.name], index, sym=expr.name)
            return dest
        if isinstance(expr, ast.Unary):
            operand = self.lower_expr(expr.operand)
            dest = self.fresh("u")
            if expr.op == "-":
                self.builder.unop("neg", dest, operand)
            elif expr.op == "!":
                self.builder.unop("not", dest, operand)
            elif expr.op == "~":
                self.builder.binop("xor", dest, operand, -1)
            else:
                raise LowerError(f"bad unary {expr.op!r}")
            return dest
        if isinstance(expr, ast.Binary):
            if expr.op in ("&&", "||"):
                return self.lower_short_circuit(expr)
            lhs = self.lower_expr(expr.lhs)
            rhs = self.lower_expr(expr.rhs)
            dest = self.fresh("t")
            self.builder.binop(self._BINOPS[expr.op], dest, lhs, rhs)
            return dest
        if isinstance(expr, ast.CallExpr):
            return self.lower_call(expr, want_value=True)
        raise LowerError(f"cannot lower {expr!r}")

    def lower_short_circuit(self, expr: ast.Binary) -> Value:
        result = self.fresh("sc")
        rhs_label = self.func.fresh_label("sc_rhs")
        end_label = self.func.fresh_label("sc_end")
        lhs = self.lower_expr(expr.lhs)
        if expr.op == "&&":
            self.builder.copy(result, 0)
            self.builder.branch(lhs, rhs_label, end_label)
        else:
            self.builder.copy(result, 1)
            self.builder.branch(lhs, end_label, rhs_label)
        self.builder.new_block(rhs_label)
        rhs = self.lower_expr(expr.rhs)
        self.builder.binop("ne", result, rhs, 0)
        self.builder.jump(end_label)
        self.builder.new_block(end_label)
        return result

    def lower_call(self, expr: ast.CallExpr, want_value: bool) -> Optional[Var]:
        args = [self.lower_expr(arg) for arg in expr.args]
        pure = self.info.externs.get(expr.name, False)
        dest = self.fresh(f"{expr.name}_r") if want_value else None
        self.builder.call(dest, expr.name, args, pure=pure)
        return dest


def _collect_array_names(func_def: ast.FuncDef) -> set:
    names = set()

    def walk_expr(expr: ast.Expr) -> None:
        if isinstance(expr, ast.ArrayRef):
            names.add(expr.name)
            walk_expr(expr.index)
        elif isinstance(expr, ast.Unary):
            walk_expr(expr.operand)
        elif isinstance(expr, ast.Binary):
            walk_expr(expr.lhs)
            walk_expr(expr.rhs)
        elif isinstance(expr, ast.CallExpr):
            for arg in expr.args:
                walk_expr(arg)

    def walk_stmt(stmt: ast.Stmt) -> None:
        if isinstance(stmt, ast.Block):
            for inner in stmt.stmts:
                walk_stmt(inner)
        elif isinstance(stmt, ast.VarDecl) and stmt.init is not None:
            walk_expr(stmt.init)
        elif isinstance(stmt, ast.Assign):
            walk_expr(stmt.target)
            walk_expr(stmt.value)
        elif isinstance(stmt, ast.ExprStmt):
            walk_expr(stmt.expr)
        elif isinstance(stmt, ast.If):
            walk_expr(stmt.cond)
            walk_stmt(stmt.then_body)
            if stmt.else_body is not None:
                walk_stmt(stmt.else_body)
        elif isinstance(stmt, ast.While):
            walk_expr(stmt.cond)
            walk_stmt(stmt.body)
        elif isinstance(stmt, ast.For):
            if stmt.init is not None:
                walk_stmt(stmt.init)
            if stmt.cond is not None:
                walk_expr(stmt.cond)
            if stmt.step is not None:
                walk_stmt(stmt.step)
            walk_stmt(stmt.body)
        elif isinstance(stmt, ast.Return) and stmt.value is not None:
            walk_expr(stmt.value)

    walk_stmt(func_def.body)
    return names


def lower_program(program: ast.Program, name: str = "module") -> Module:
    """Lower a checked AST to an IR module."""
    info = analyze(program)
    module = Module(name)
    for decl in program.globals:
        module.declare_global(decl.name, decl.array_size, escapes=decl.aliased)
    for func_def in program.functions:
        module.add_function(_FunctionLowerer(info, module, func_def).lower())
    return module


def compile_minic(source: str, name: str = "module") -> Module:
    """Front door: MiniC source text to an IR module (pre-SSA)."""
    from repro.frontend.parser import parse_source

    return lower_program(parse_source(source), name)
