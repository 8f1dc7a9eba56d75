"""Semantic analysis for MiniC.

Checks performed:

* every variable/array reference resolves to a declaration (parameter,
  local, or global array);
* arrays are always indexed, scalars never are;
* no duplicate declarations within one function (MiniC uses
  function-level scoping: a name is declared at most once per function);
* calls to defined functions have matching arity; calls to declared
  externs (or undeclared names) are treated as intrinsics;
* ``break``/``continue`` appear only inside loops;
* a ``void`` function never returns a value, a typed one always does.

The analysis annotates each ``FuncDef`` with ``symbol_kinds``: a map
from name to ``("int",) | ("float",) | ("array", elem, size)`` that the
lowering consumes.
"""

from __future__ import annotations

from typing import Dict, Tuple

from repro.frontend import ast

Kind = Tuple


class SemaError(ValueError):
    def __init__(self, message: str, line: int):
        super().__init__(f"line {line}: {message}")
        self.line = line


class ProgramInfo:
    """Program-level symbol information produced by :func:`analyze`."""

    def __init__(self, program: ast.Program):
        self.program = program
        self.functions: Dict[str, ast.FuncDef] = {}
        self.globals: Dict[str, ast.GlobalDecl] = {}
        #: extern name -> pure flag
        self.externs: Dict[str, bool] = {}


def analyze(program: ast.Program) -> ProgramInfo:
    """Check ``program``; raises :class:`SemaError` on the first error."""
    info = ProgramInfo(program)

    for decl in program.globals:
        if decl.name in info.globals:
            raise SemaError(f"duplicate global {decl.name!r}", decl.line)
        if decl.type_name not in ("int", "float"):
            raise SemaError(f"bad global type {decl.type_name!r}", decl.line)
        info.globals[decl.name] = decl
    for decl in program.externs:
        info.externs[decl.name] = decl.pure
    for func in program.functions:
        if func.name in info.functions:
            raise SemaError(f"duplicate function {func.name!r}", func.line)
        info.functions[func.name] = func

    for func in program.functions:
        _check_function(info, func)
    return info


def _check_function(info: ProgramInfo, func: ast.FuncDef) -> None:
    kinds: Dict[str, Kind] = {}
    for name, decl in info.globals.items():
        kinds[name] = ("array", decl.type_name, decl.array_size)
    for param in func.params:
        if param.type_name not in ("int", "float"):
            raise SemaError(f"bad parameter type {param.type_name!r}", func.line)
        if param.name in kinds and kinds[param.name][0] != "array":
            raise SemaError(f"duplicate parameter {param.name!r}", func.line)
        kinds[param.name] = (param.type_name,)

    declared_locals: set = set()

    def check_block(block: ast.Block, loop_depth: int) -> None:
        block_decls: set = set()
        for stmt in block.stmts:
            if isinstance(stmt, ast.VarDecl):
                if stmt.name in block_decls:
                    raise SemaError(
                        f"duplicate declaration of {stmt.name!r}", stmt.line
                    )
                block_decls.add(stmt.name)
            check_stmt(stmt, loop_depth)

    def check_stmt(stmt: ast.Stmt, loop_depth: int) -> None:
        if isinstance(stmt, ast.Block):
            check_block(stmt, loop_depth)
        elif isinstance(stmt, ast.VarDecl):
            if stmt.array_size is not None:
                new_kind: Kind = ("array", stmt.type_name, stmt.array_size)
            else:
                new_kind = (stmt.type_name,)
            existing = kinds.get(stmt.name)
            if existing is not None and stmt.name in info.globals:
                raise SemaError(
                    f"local {stmt.name!r} shadows a global array", stmt.line
                )
            if existing is not None and existing != new_kind:
                raise SemaError(
                    f"conflicting redeclaration of {stmt.name!r}", stmt.line
                )
            if existing is not None and new_kind[0] == "array":
                # Two arrays of the same name would share storage.
                raise SemaError(f"duplicate array {stmt.name!r}", stmt.line)
            # MiniC uses function-level scoping; redeclaring the same
            # scalar (e.g. a second `for (int i = ...)`) is benign.
            declared_locals.add(stmt.name)
            kinds[stmt.name] = new_kind
            if stmt.array_size is not None:
                if stmt.init is not None:
                    raise SemaError("arrays take no initializer", stmt.line)
            elif stmt.init is not None:
                check_expr(stmt.init)
        elif isinstance(stmt, ast.Assign):
            check_lvalue(stmt.target)
            check_expr(stmt.value)
        elif isinstance(stmt, ast.ExprStmt):
            check_expr(stmt.expr)
        elif isinstance(stmt, ast.If):
            check_expr(stmt.cond)
            check_block(stmt.then_body, loop_depth)
            if stmt.else_body is not None:
                check_block(stmt.else_body, loop_depth)
        elif isinstance(stmt, ast.While):
            check_expr(stmt.cond)
            check_block(stmt.body, loop_depth + 1)
        elif isinstance(stmt, ast.For):
            if stmt.init is not None:
                check_stmt(stmt.init, loop_depth)
            if stmt.cond is not None:
                check_expr(stmt.cond)
            if stmt.step is not None:
                check_stmt(stmt.step, loop_depth)
            check_block(stmt.body, loop_depth + 1)
        elif isinstance(stmt, ast.Break):
            if loop_depth == 0:
                raise SemaError("break outside loop", stmt.line)
        elif isinstance(stmt, ast.Continue):
            if loop_depth == 0:
                raise SemaError("continue outside loop", stmt.line)
        elif isinstance(stmt, ast.Return):
            if func.return_type == "void" and stmt.value is not None:
                raise SemaError("void function returns a value", stmt.line)
            if func.return_type != "void" and stmt.value is None:
                raise SemaError("missing return value", stmt.line)
            if stmt.value is not None:
                check_expr(stmt.value)
        else:
            raise SemaError(f"unknown statement {stmt!r}", stmt.line)

    def check_lvalue(expr: ast.Expr) -> None:
        if isinstance(expr, ast.VarRef):
            kind = kinds.get(expr.name)
            if kind is None:
                raise SemaError(f"undeclared variable {expr.name!r}", expr.line)
            if kind[0] == "array":
                raise SemaError(f"array {expr.name!r} assigned without index", expr.line)
        elif isinstance(expr, ast.ArrayRef):
            kind = kinds.get(expr.name)
            if kind is None:
                raise SemaError(f"undeclared array {expr.name!r}", expr.line)
            if kind[0] != "array":
                raise SemaError(f"{expr.name!r} is not an array", expr.line)
            check_expr(expr.index)
        else:
            raise SemaError("assignment target is not an lvalue", expr.line)

    def check_expr(expr: ast.Expr) -> None:
        if isinstance(expr, (ast.IntLit, ast.FloatLit)):
            return
        if isinstance(expr, ast.VarRef):
            kind = kinds.get(expr.name)
            if kind is None:
                raise SemaError(f"undeclared variable {expr.name!r}", expr.line)
            if kind[0] == "array":
                raise SemaError(f"array {expr.name!r} used without index", expr.line)
            return
        if isinstance(expr, ast.ArrayRef):
            check_lvalue(expr)
            return
        if isinstance(expr, ast.Unary):
            check_expr(expr.operand)
            return
        if isinstance(expr, ast.Binary):
            check_expr(expr.lhs)
            check_expr(expr.rhs)
            return
        if isinstance(expr, ast.CallExpr):
            target = info.functions.get(expr.name)
            if target is not None and len(target.params) != len(expr.args):
                raise SemaError(
                    f"{expr.name!r} expects {len(target.params)} args, "
                    f"got {len(expr.args)}",
                    expr.line,
                )
            for arg in expr.args:
                check_expr(arg)
            return
        raise SemaError(f"unknown expression {expr!r}", expr.line)

    check_block(func.body, 0)
    func.symbol_kinds = kinds  # type: ignore[attr-defined]
