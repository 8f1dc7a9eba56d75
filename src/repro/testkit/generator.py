"""Seeded random MiniC program generator.

Programs are built as a small statement/expression tree
(:class:`ProgramSpec`) that renders to MiniC source, rather than as raw
text, so the delta-debugging shrinker (:mod:`repro.testkit.shrink`) can
remove statements and simplify expressions structurally and always
produce a program that still parses.

Every generated program is **total by construction**:

* ``for`` loops count a dedicated induction variable up to a constant
  (or ``n & mask``) bound, and generated assignments never target
  induction variables;
* ``while`` loops count a dedicated variable down, decrementing as the
  *first* body statement so ``continue`` cannot skip it;
* division and modulo render with a ``(... & 7) + 1`` divisor, shift
  amounts are masked to ``& 7``, and array indexes are masked to the
  (power-of-two) array size;
* every scalar assignment is masked to 16 bits, keeping values bounded.

The size knobs (:class:`GenConfig`) control loop nesting depth,
statements per block, scalar/array counts, irregular control flow
(``break``/``continue``), and function calls -- the program shapes the
paper's pass 1 has to evaluate (§3.2).
"""

from __future__ import annotations

import copy
import random
from dataclasses import dataclass, field
from typing import List, Optional, Union

__all__ = [
    "ArrayDecl",
    "Assign",
    "Bin",
    "BreakIf",
    "CallExpr",
    "Cmp",
    "Expr",
    "ForStmt",
    "GenConfig",
    "Helper",
    "IfStmt",
    "LoadExpr",
    "Num",
    "ProgramSpec",
    "Ref",
    "Stmt",
    "StoreStmt",
    "WhileStmt",
    "generate_program",
    "random_gen_config",
]

#: Scalar assignments are masked to this, keeping values bounded.
VALUE_MASK = 65535

_ARITH_OPS = ("+", "-", "*", "&", "|", "^", "<<", ">>", "/", "%")
_CMP_OPS = ("<", "<=", ">", ">=", "==", "!=")


# -- configuration ----------------------------------------------------------


@dataclass
class GenConfig:
    """Size and shape knobs for one generated program."""

    #: Maximum loop nesting depth (1 = flat loops only).
    max_depth: int = 2
    #: Maximum statements per generated block.
    max_stmts: int = 4
    #: Maximum expression tree depth.
    max_expr_depth: int = 3
    n_scalars: int = 4
    n_arrays: int = 2
    #: Array length; must be a power of two (indexes mask to size-1).
    array_size: int = 64
    #: Outermost for-loop trip counts are drawn from [2, max_outer_trip].
    max_outer_trip: int = 24
    #: Nested loop trip counts are drawn from [2, max_inner_trip].
    max_inner_trip: int = 6
    #: Probability an array is declared ``aliased`` (pointer-reachable).
    p_aliased: float = 0.5
    allow_while: bool = True
    #: Irregular control flow: guarded ``break``/``continue``.
    allow_irregular: bool = True
    allow_calls: bool = True
    allow_div: bool = True

    def __post_init__(self):
        if self.array_size & (self.array_size - 1):
            raise ValueError("array_size must be a power of two")
        if self.max_depth < 1 or self.max_stmts < 1:
            raise ValueError("need max_depth >= 1 and max_stmts >= 1")


def random_gen_config(rng: random.Random) -> GenConfig:
    """Draw a GenConfig, varying the knobs the fuzz campaign sweeps."""
    return GenConfig(
        max_depth=rng.randint(1, 3),
        max_stmts=rng.randint(2, 5),
        max_expr_depth=rng.randint(2, 3),
        n_scalars=rng.randint(2, 5),
        n_arrays=rng.randint(1, 3),
        array_size=rng.choice((32, 64, 128)),
        max_outer_trip=rng.choice((8, 16, 24)),
        p_aliased=rng.choice((0.0, 0.5, 1.0)),
        allow_while=rng.random() < 0.7,
        allow_irregular=rng.random() < 0.7,
        allow_calls=rng.random() < 0.8,
    )


# -- expression nodes -------------------------------------------------------


class Expr:
    """Base expression node."""

    def render(self) -> str:
        raise NotImplementedError


class Num(Expr):
    def __init__(self, value: int):
        self.value = int(value)

    def render(self) -> str:
        return str(self.value)


class Ref(Expr):
    def __init__(self, name: str):
        self.name = name

    def render(self) -> str:
        return self.name


class LoadExpr(Expr):
    """``A[(index) & mask]``"""

    def __init__(self, array: str, index: Expr, mask: int):
        self.array = array
        self.index = index
        self.mask = mask

    def render(self) -> str:
        return f"{self.array}[({self.index.render()}) & {self.mask}]"


class Bin(Expr):
    """Arithmetic with runtime-error-proof rendering."""

    def __init__(self, op: str, a: Expr, b: Expr):
        self.op = op
        self.a = a
        self.b = b

    def render(self) -> str:
        a, b = self.a.render(), self.b.render()
        if self.op in ("/", "%"):
            return f"(({a}) {self.op} ((({b}) & 7) + 1))"
        if self.op in ("<<", ">>"):
            return f"(({a}) {self.op} (({b}) & 7))"
        return f"(({a}) {self.op} ({b}))"


class Cmp(Expr):
    def __init__(self, op: str, a: Expr, b: Expr):
        self.op = op
        self.a = a
        self.b = b

    def render(self) -> str:
        return f"(({self.a.render()}) {self.op} ({self.b.render()}))"


class CallExpr(Expr):
    def __init__(self, name: str, args: List[Expr]):
        self.name = name
        self.args = args

    def render(self) -> str:
        inner = ", ".join(a.render() for a in self.args)
        return f"{self.name}({inner})"


# -- statement nodes --------------------------------------------------------


class Stmt:
    """Base statement node; ``emit`` appends rendered lines."""

    def emit(self, lines: List[str], indent: str) -> None:
        raise NotImplementedError


class Assign(Stmt):
    """``name = (expr) & VALUE_MASK;`` -- targets scalars only."""

    def __init__(self, name: str, expr: Expr):
        self.name = name
        self.expr = expr

    def emit(self, lines: List[str], indent: str) -> None:
        lines.append(f"{indent}{self.name} = ({self.expr.render()}) & {VALUE_MASK};")


class StoreStmt(Stmt):
    def __init__(self, array: str, index: Expr, expr: Expr, mask: int):
        self.array = array
        self.index = index
        self.expr = expr
        self.mask = mask

    def emit(self, lines: List[str], indent: str) -> None:
        lines.append(
            f"{indent}{self.array}[({self.index.render()}) & {self.mask}]"
            f" = ({self.expr.render()}) & {VALUE_MASK};"
        )


class IfStmt(Stmt):
    def __init__(self, cond: Expr, then: List[Stmt], orelse: Optional[List[Stmt]] = None):
        self.cond = cond
        self.then = then
        self.orelse = orelse if orelse else []

    def emit(self, lines: List[str], indent: str) -> None:
        lines.append(f"{indent}if ({self.cond.render()}) {{")
        for stmt in self.then:
            stmt.emit(lines, indent + "    ")
        if self.orelse:
            lines.append(f"{indent}}} else {{")
            for stmt in self.orelse:
                stmt.emit(lines, indent + "    ")
        lines.append(f"{indent}}}")


class ForStmt(Stmt):
    """``for (int var = 0; var < bound; var++) { ... }``

    ``var`` is a dedicated induction variable no generated statement
    assigns, so termination is structural.
    """

    def __init__(self, var: str, bound: Expr, body: List[Stmt]):
        self.var = var
        self.bound = bound
        self.body = body

    def emit(self, lines: List[str], indent: str) -> None:
        lines.append(
            f"{indent}for (int {self.var} = 0; "
            f"{self.var} < {self.bound.render()}; {self.var}++) {{"
        )
        for stmt in self.body:
            stmt.emit(lines, indent + "    ")
        lines.append(f"{indent}}}")


class WhileStmt(Stmt):
    """Bounded countdown while-loop.

    The decrement is the first body statement, so a generated
    ``continue`` deeper in the body can never skip it.
    """

    def __init__(self, var: str, start: int, body: List[Stmt]):
        self.var = var
        self.start = int(start)
        self.body = body

    def emit(self, lines: List[str], indent: str) -> None:
        lines.append(f"{indent}{self.var} = {self.start};")
        lines.append(f"{indent}while ({self.var} > 0) {{")
        lines.append(f"{indent}    {self.var} = {self.var} - 1;")
        for stmt in self.body:
            stmt.emit(lines, indent + "    ")
        lines.append(f"{indent}}}")


class BreakIf(Stmt):
    """``if (cond) { break; }`` (or ``continue``) -- irregular control flow."""

    def __init__(self, cond: Expr, kind: str = "break"):
        if kind not in ("break", "continue"):
            raise ValueError(kind)
        self.cond = cond
        self.kind = kind

    def emit(self, lines: List[str], indent: str) -> None:
        lines.append(f"{indent}if ({self.cond.render()}) {{ {self.kind}; }}")


# -- program spec -----------------------------------------------------------


@dataclass
class ArrayDecl:
    name: str
    size: int
    aliased: bool = False

    def render(self) -> str:
        suffix = " aliased" if self.aliased else ""
        return f"global int {self.name}[{self.size}]{suffix};"


@dataclass
class Helper:
    """``int name(int x) { return (expr) & VALUE_MASK; }``"""

    name: str
    expr: Expr

    def render(self) -> str:
        return (
            f"int {self.name}(int x) {{\n"
            f"    return ({self.expr.render()}) & {VALUE_MASK};\n"
            f"}}"
        )


@dataclass
class ProgramSpec:
    """A renderable, shrinkable MiniC program (entry ``main(n)``)."""

    arrays: List[ArrayDecl] = field(default_factory=list)
    helpers: List[Helper] = field(default_factory=list)
    #: (name, initial value) for every scalar, declared at main() top.
    scalars: List[tuple] = field(default_factory=list)
    #: Countdown variables owned by WhileStmt nodes (declared as int = 0).
    while_vars: List[str] = field(default_factory=list)
    body: List[Stmt] = field(default_factory=list)
    #: Array cells folded into the return checksum: (array name, index).
    checksum_cells: List[tuple] = field(default_factory=list)

    def clone(self) -> "ProgramSpec":
        return copy.deepcopy(self)

    def source(self) -> str:
        lines: List[str] = []
        for arr in self.arrays:
            lines.append(arr.render())
        if self.arrays:
            lines.append("")
        for helper in self.helpers:
            lines.append(helper.render())
            lines.append("")
        lines.append("int main(int n) {")
        for name, init in self.scalars:
            lines.append(f"    int {name} = {init};")
        for name in self.while_vars:
            lines.append(f"    int {name} = 0;")
        for stmt in self.body:
            stmt.emit(lines, "    ")
        terms = [name for name, _ in self.scalars]
        terms += [f"{arr}[{idx}]" for arr, idx in self.checksum_cells]
        if not terms:
            terms = ["0"]
        lines.append(f"    return ({' + '.join(terms)}) & 1048575;")
        lines.append("}")
        return "\n".join(lines) + "\n"


# -- the generator ----------------------------------------------------------


class _Generator:
    def __init__(self, rng: random.Random, config: GenConfig):
        self.rng = rng
        self.config = config
        self.spec = ProgramSpec()
        self._loop_counter = 0
        self._while_counter = 0

    # -- naming ------------------------------------------------------------

    def _fresh_loop_var(self) -> str:
        name = f"i{self._loop_counter}"
        self._loop_counter += 1
        return name

    def _fresh_while_var(self) -> str:
        name = f"w{self._while_counter}"
        self._while_counter += 1
        self.spec.while_vars.append(name)
        return name

    # -- expressions -------------------------------------------------------

    def _scalar_names(self) -> List[str]:
        return [name for name, _ in self.spec.scalars]

    def gen_expr(self, depth: int, loop_vars: List[str]) -> Expr:
        rng = self.rng
        leaves = ["num", "ref"]
        inner = []
        if self.spec.arrays:
            inner.append("load")
        inner.append("bin")
        if self.config.allow_calls and self.spec.helpers:
            inner.append("call")
        kind = rng.choice(leaves if depth <= 0 else leaves + inner * 2)
        if kind == "num":
            return Num(rng.randint(0, 255))
        if kind == "ref":
            pool = self._scalar_names() + loop_vars + ["n"]
            return Ref(rng.choice(pool))
        if kind == "load":
            arr = rng.choice(self.spec.arrays)
            return LoadExpr(
                arr.name, self.gen_expr(depth - 1, loop_vars), arr.size - 1
            )
        if kind == "call":
            helper = rng.choice(self.spec.helpers)
            return CallExpr(helper.name, [self.gen_expr(depth - 1, loop_vars)])
        ops = _ARITH_OPS if self.config.allow_div else _ARITH_OPS[:-2]
        return Bin(
            rng.choice(ops),
            self.gen_expr(depth - 1, loop_vars),
            self.gen_expr(depth - 1, loop_vars),
        )

    def gen_cond(self, loop_vars: List[str]) -> Expr:
        return Cmp(
            self.rng.choice(_CMP_OPS),
            self.gen_expr(1, loop_vars),
            self.gen_expr(1, loop_vars),
        )

    # -- statements --------------------------------------------------------

    def gen_stmt(self, depth: int, loop_depth: int, loop_vars: List[str]) -> Stmt:
        rng = self.rng
        choices = ["assign", "assign", "store"]
        if depth > 0:
            choices += ["if", "for", "for"]
            if self.config.allow_while:
                choices.append("while")
        if loop_depth > 0 and self.config.allow_irregular:
            choices.append("irregular")
        kind = rng.choice(choices)

        if kind == "assign":
            name = rng.choice(self._scalar_names())
            expr = self.gen_expr(self.config.max_expr_depth, loop_vars)
            if rng.random() < 0.6:
                # Read-modify-write: the shape that carries values across
                # iterations and creates violation candidates.
                expr = Bin(rng.choice(("+", "-", "^", "&")), Ref(name), expr)
            return Assign(name, expr)
        if kind == "store":
            arr = rng.choice(self.spec.arrays)
            return StoreStmt(
                arr.name,
                self.gen_expr(1, loop_vars),
                self.gen_expr(self.config.max_expr_depth - 1, loop_vars),
                arr.size - 1,
            )
        if kind == "if":
            then = self.gen_block(depth - 1, loop_depth, loop_vars, force_loop=False)
            orelse = (
                self.gen_block(depth - 1, loop_depth, loop_vars, force_loop=False)
                if rng.random() < 0.4
                else None
            )
            return IfStmt(self.gen_cond(loop_vars), then, orelse)
        if kind == "for":
            return self.gen_for(depth, loop_depth, loop_vars)
        if kind == "while":
            var = self._fresh_while_var()
            body = self.gen_block(
                depth - 1, loop_depth + 1, loop_vars, force_loop=False
            )
            return WhileStmt(var, rng.randint(2, self.config.max_inner_trip + 2), body)
        # irregular
        return BreakIf(
            self.gen_cond(loop_vars),
            self.rng.choice(("break", "continue")),
        )

    def gen_for(self, depth: int, loop_depth: int, loop_vars: List[str]) -> ForStmt:
        rng = self.rng
        var = self._fresh_loop_var()
        if loop_depth == 0:
            if rng.random() < 0.5:
                bound: Expr = Num(rng.randint(2, self.config.max_outer_trip))
            else:
                bound = Bin("&", Ref("n"), Num(self.config.max_outer_trip - 1 | 7))
        else:
            bound = Num(rng.randint(2, self.config.max_inner_trip))
        body = self.gen_block(
            depth - 1, loop_depth + 1, loop_vars + [var], force_loop=False
        )
        # Guarantee a cross-iteration carrier so the loop exercises the
        # violation-candidate machinery more often than not.
        if rng.random() < 0.8:
            name = rng.choice(self._scalar_names())
            body.insert(
                rng.randint(0, len(body)),
                Assign(name, Bin("+", Ref(name), self.gen_expr(1, loop_vars + [var]))),
            )
        return ForStmt(var, bound, body)

    def gen_block(
        self, depth: int, loop_depth: int, loop_vars: List[str], force_loop: bool
    ) -> List[Stmt]:
        count = self.rng.randint(1, self.config.max_stmts)
        stmts = [
            self.gen_stmt(depth, loop_depth, loop_vars) for _ in range(count)
        ]
        if force_loop and not any(isinstance(s, ForStmt) for s in stmts):
            stmts.append(self.gen_for(depth, loop_depth, loop_vars))
        return stmts

    # -- whole programs ----------------------------------------------------

    def generate(self) -> ProgramSpec:
        rng, config, spec = self.rng, self.config, self.spec
        for index in range(config.n_arrays):
            spec.arrays.append(
                ArrayDecl(
                    name=chr(ord("A") + index),
                    size=config.array_size,
                    aliased=rng.random() < config.p_aliased,
                )
            )
        for index in range(config.n_scalars):
            spec.scalars.append((f"s{index}", (index * 7 + 3) & 255))
        if config.allow_calls:
            for index in range(rng.randint(1, 2)):
                body: Expr = Bin(
                    rng.choice(("+", "^", "*")),
                    Bin("*", Ref("x"), Num(rng.randint(2, 13))),
                    Num(rng.randint(1, 63)),
                )
                if spec.arrays and rng.random() < 0.5:
                    arr = rng.choice(spec.arrays)
                    body = Bin("+", body, LoadExpr(arr.name, Ref("x"), arr.size - 1))
                spec.helpers.append(Helper(f"helper{index}", body))

        # Deterministic array initialization, itself ordinary loops the
        # shrinker may discard.
        for arr in spec.arrays:
            var = self._fresh_loop_var()
            spec.body.append(
                ForStmt(
                    var,
                    Num(arr.size),
                    [
                        StoreStmt(
                            arr.name,
                            Ref(var),
                            Bin("*", Ref(var), Num(rng.randint(3, 37))),
                            arr.size - 1,
                        )
                    ],
                )
            )

        spec.body.extend(
            self.gen_block(config.max_depth, 0, [], force_loop=True)
        )
        for arr in spec.arrays[:2]:
            spec.checksum_cells.append((arr.name, rng.randint(0, arr.size - 1)))
        return spec


def generate_program(
    rng: Union[int, random.Random], config: Optional[GenConfig] = None
) -> ProgramSpec:
    """Generate one program; ``rng`` is a seed or a ``random.Random``."""
    if not isinstance(rng, random.Random):
        rng = random.Random(rng)
    return _Generator(rng, config or GenConfig()).generate()
