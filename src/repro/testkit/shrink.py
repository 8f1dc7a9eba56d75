"""Delta-debugging shrinker for generated MiniC programs.

Given a :class:`~repro.testkit.generator.ProgramSpec` and a predicate
``still_fails(spec) -> bool``, :func:`shrink_program` greedily removes
structure while the predicate keeps holding, in ddmin spirit but
operating on the statement tree instead of on lines:

1. drop whole statements (chunked halving over every block, including
   nested loop/if bodies);
2. hoist loop and ``if`` bodies into their parent block (removing the
   wrapper but keeping the effects the failure may depend on);
3. simplify expressions (replace by a leaf operand or by ``0``/``1``);
4. drop unused helpers, arrays, scalars and checksum cells.

The predicate must be deterministic -- oracles re-derive their RNG from
the failure's seed coordinates on every call (see
:mod:`repro.testkit.runner`), so a shrink session replays exactly.
"""

from __future__ import annotations

from typing import Callable, List, Tuple

from .generator import (
    Assign,
    Bin,
    BreakIf,
    CallExpr,
    Cmp,
    Expr,
    ForStmt,
    IfStmt,
    LoadExpr,
    Num,
    ProgramSpec,
    Stmt,
    StoreStmt,
    WhileStmt,
)

__all__ = ["shrink_program"]

Predicate = Callable[[ProgramSpec], bool]


def _blocks(spec: ProgramSpec) -> List[List[Stmt]]:
    """Every mutable statement list in the program, outermost first."""
    found: List[List[Stmt]] = []

    def visit(block: List[Stmt]) -> None:
        found.append(block)
        for stmt in block:
            if isinstance(stmt, (ForStmt, WhileStmt)):
                visit(stmt.body)
            elif isinstance(stmt, IfStmt):
                visit(stmt.then)
                if stmt.orelse:
                    visit(stmt.orelse)

    visit(spec.body)
    return found


def _stmt_count(spec: ProgramSpec) -> int:
    return sum(len(b) for b in _blocks(spec))


def _try(spec: ProgramSpec, mutate: Callable[[ProgramSpec], bool],
         predicate: Predicate) -> Tuple[ProgramSpec, bool]:
    """Apply ``mutate`` to a clone; keep the clone if it still fails."""
    trial = spec.clone()
    if not mutate(trial):
        return spec, False
    try:
        if predicate(trial):
            return trial, True
    except Exception:
        # A predicate that errors out on the mutant (rather than
        # returning False) just means this mutant is not a keeper.
        pass
    return spec, False


# -- pass 1: statement removal ---------------------------------------------


def _drop_range(block_index: int, start: int, stop: int):
    def mutate(trial: ProgramSpec) -> bool:
        blocks = _blocks(trial)
        if block_index >= len(blocks):
            return False
        block = blocks[block_index]
        if stop > len(block) or start >= stop:
            return False
        del block[start:stop]
        return True

    return mutate


def _shrink_statements(spec: ProgramSpec, predicate: Predicate) -> ProgramSpec:
    progress = True
    while progress:
        progress = False
        for block_index in range(len(_blocks(spec))):
            blocks = _blocks(spec)
            if block_index >= len(blocks):
                break
            size = max(1, len(blocks[block_index]) // 2)
            while size >= 1:
                start = 0
                while True:
                    blocks = _blocks(spec)
                    if block_index >= len(blocks):
                        break
                    block = blocks[block_index]
                    if start >= len(block):
                        break
                    stop = min(start + size, len(block))
                    spec, kept = _try(
                        spec, _drop_range(block_index, start, stop), predicate
                    )
                    if kept:
                        progress = True
                    else:
                        start = stop
                size //= 2
    return spec


# -- pass 2: unwrap loop/if bodies -----------------------------------------


def _unwrap_at(block_index: int, stmt_index: int):
    def mutate(trial: ProgramSpec) -> bool:
        blocks = _blocks(trial)
        if block_index >= len(blocks):
            return False
        block = blocks[block_index]
        if stmt_index >= len(block):
            return False
        stmt = block[stmt_index]
        if isinstance(stmt, ForStmt):
            # Run the body once with the induction variable pinned to 0.
            inner: List[Stmt] = [Assign(stmt.var, Num(0))] + stmt.body
            trial.scalars.append((stmt.var, 0))
            block[stmt_index:stmt_index + 1] = inner
            return True
        if isinstance(stmt, WhileStmt):
            block[stmt_index:stmt_index + 1] = stmt.body
            return True
        if isinstance(stmt, IfStmt):
            block[stmt_index:stmt_index + 1] = stmt.then + stmt.orelse
            return True
        return False

    return mutate


def _shrink_wrappers(spec: ProgramSpec, predicate: Predicate) -> ProgramSpec:
    progress = True
    while progress:
        progress = False
        for block_index in range(len(_blocks(spec))):
            blocks = _blocks(spec)
            if block_index >= len(blocks):
                break
            for stmt_index in range(len(blocks[block_index])):
                spec, kept = _try(
                    spec, _unwrap_at(block_index, stmt_index), predicate
                )
                if kept:
                    progress = True
                    break  # block list shifted; restart this block
            if progress:
                break
    return spec


# -- pass 3: expression simplification --------------------------------------


def _expr_slots(spec: ProgramSpec):
    """(get, set) accessor pairs for every expression in the program."""
    slots = []

    def add(obj, attr):
        slots.append(
            (lambda: getattr(obj, attr),
             lambda value: setattr(obj, attr, value))
        )

    def visit_expr(expr: Expr) -> None:
        for attr in ("a", "b", "index", "cond"):
            child = getattr(expr, attr, None)
            if isinstance(child, Expr):
                visit_expr(child)
        if isinstance(expr, CallExpr):
            for arg in expr.args:
                visit_expr(arg)

    def visit_stmt(stmt: Stmt) -> None:
        if isinstance(stmt, Assign):
            add(stmt, "expr")
            visit_expr(stmt.expr)
        elif isinstance(stmt, StoreStmt):
            add(stmt, "index")
            add(stmt, "expr")
            visit_expr(stmt.index)
            visit_expr(stmt.expr)
        elif isinstance(stmt, IfStmt):
            add(stmt, "cond")
            visit_expr(stmt.cond)
            for child in stmt.then + stmt.orelse:
                visit_stmt(child)
        elif isinstance(stmt, BreakIf):
            add(stmt, "cond")
            visit_expr(stmt.cond)
        elif isinstance(stmt, ForStmt):
            add(stmt, "bound")
            for child in stmt.body:
                visit_stmt(child)
        elif isinstance(stmt, WhileStmt):
            for child in stmt.body:
                visit_stmt(child)

    for stmt in spec.body:
        visit_stmt(stmt)
    for helper in spec.helpers:
        add(helper, "expr")
    return slots


def _replacements(expr: Expr) -> List[Expr]:
    if isinstance(expr, Num):
        return [Num(0)] if expr.value != 0 else []
    out: List[Expr] = []
    if isinstance(expr, (Bin, Cmp)):
        out += [expr.a, expr.b]
    elif isinstance(expr, LoadExpr):
        out.append(expr.index)
    elif isinstance(expr, CallExpr):
        out += list(expr.args)
    out += [Num(1), Num(0)]
    return out


def _replace_slot(slot_index: int, choice_index: int):
    def mutate(trial: ProgramSpec) -> bool:
        slots = _expr_slots(trial)
        if slot_index >= len(slots):
            return False
        get, put = slots[slot_index]
        options = _replacements(get())
        if choice_index >= len(options):
            return False
        put(options[choice_index])
        return True

    return mutate


def _shrink_expressions(spec: ProgramSpec, predicate: Predicate) -> ProgramSpec:
    progress = True
    rounds = 0
    while progress and rounds < 8:
        progress = False
        rounds += 1
        for slot_index in range(len(_expr_slots(spec))):
            for choice_index in range(4):
                spec, kept = _try(
                    spec, _replace_slot(slot_index, choice_index), predicate
                )
                if kept:
                    progress = True
                    break
    return spec


# -- pass 4: declaration cleanup -------------------------------------------


def _drop_decl(kind: str, index: int):
    def mutate(trial: ProgramSpec) -> bool:
        seq = getattr(trial, kind)
        if index >= len(seq):
            return False
        del seq[index]
        return True

    return mutate


def _shrink_decls(spec: ProgramSpec, predicate: Predicate) -> ProgramSpec:
    for kind in ("checksum_cells", "helpers", "arrays", "scalars", "while_vars"):
        index = len(getattr(spec, kind))
        while index > 0:
            index -= 1
            spec, _ = _try(spec, _drop_decl(kind, index), predicate)
    return spec


# -- driver -----------------------------------------------------------------


def shrink_program(
    spec: ProgramSpec,
    predicate: Predicate,
    max_rounds: int = 6,
) -> ProgramSpec:
    """Minimize ``spec`` while ``predicate`` keeps returning True.

    The original ``spec`` is never mutated.  The result is the smallest
    variant found; it is guaranteed to satisfy ``predicate`` (the input
    must, too -- if it does not, the input is returned unchanged).
    """
    try:
        if not predicate(spec):
            return spec
    except Exception:
        return spec
    spec = spec.clone()
    for _ in range(max_rounds):
        before = (_stmt_count(spec), len(spec.source()))
        spec = _shrink_statements(spec, predicate)
        spec = _shrink_wrappers(spec, predicate)
        spec = _shrink_expressions(spec, predicate)
        spec = _shrink_decls(spec, predicate)
        if (_stmt_count(spec), len(spec.source())) == before:
            break
    return spec
