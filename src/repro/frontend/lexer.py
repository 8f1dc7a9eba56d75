"""Lexer for MiniC, the small C-like language the workload suite is
written in.

MiniC exists so the synthetic SPEC2000Int-like benchmarks (paper §8) can
be authored as readable source instead of hand-written IR.  The language
covers what the workloads need: ``int``/``float`` scalars, fixed-size
arrays, functions, ``if``/``while``/``for``/``break``/``continue``, and
C expression syntax.
"""

from __future__ import annotations

from typing import List, NamedTuple

KEYWORDS = {
    "int",
    "float",
    "void",
    "if",
    "else",
    "while",
    "for",
    "return",
    "break",
    "continue",
    "global",
    "extern",
    "pure",
    "aliased",
}

#: Multi-character operators, longest first so maximal munch works.
MULTI_OPS = [
    "<<=",
    ">>=",
    "&&",
    "||",
    "==",
    "!=",
    "<=",
    ">=",
    "<<",
    ">>",
    "+=",
    "-=",
    "*=",
    "/=",
    "%=",
    "++",
    "--",
]

SINGLE_OPS = "+-*/%<>=!&|^~(){}[];,"


class Token(NamedTuple):
    kind: str  # "ident" | "keyword" | "int" | "float" | "op" | "eof"
    text: str
    line: int
    column: int


class LexError(ValueError):
    def __init__(self, message: str, line: int, column: int):
        super().__init__(f"{line}:{column}: {message}")
        self.line = line
        self.column = column


def tokenize(source: str) -> List[Token]:
    """Produce the token stream, ending with one ``eof`` token."""
    tokens: List[Token] = []
    line = 1
    column = 1
    index = 0
    length = len(source)

    def error(message: str) -> LexError:
        return LexError(message, line, column)

    while index < length:
        ch = source[index]

        if ch == "\n":
            line += 1
            column = 1
            index += 1
            continue
        if ch in " \t\r":
            index += 1
            column += 1
            continue

        # Comments: // to end of line, /* ... */ possibly multi-line.
        if source.startswith("//", index):
            while index < length and source[index] != "\n":
                index += 1
            continue
        if source.startswith("/*", index):
            end = source.find("*/", index + 2)
            if end < 0:
                raise error("unterminated comment")
            for skipped in source[index:end]:
                if skipped == "\n":
                    line += 1
                    column = 1
                else:
                    column += 1
            index = end + 2
            column += 2
            continue

        start_line, start_column = line, column

        if ch.isdigit() or (
            ch == "." and index + 1 < length and source[index + 1].isdigit()
        ):
            end = index
            is_float = False
            while end < length and (source[end].isdigit() or source[end] == "."):
                if source[end] == ".":
                    if is_float:
                        raise error("malformed number")
                    is_float = True
                end += 1
            if end < length and source[end] in "eE":
                is_float = True
                end += 1
                if end < length and source[end] in "+-":
                    end += 1
                while end < length and source[end].isdigit():
                    end += 1
            text = source[index:end]
            kind = "float" if is_float else "int"
            tokens.append(Token(kind, text, start_line, start_column))
            column += end - index
            index = end
            continue

        if ch.isalpha() or ch == "_":
            end = index
            while end < length and (source[end].isalnum() or source[end] == "_"):
                end += 1
            text = source[index:end]
            kind = "keyword" if text in KEYWORDS else "ident"
            tokens.append(Token(kind, text, start_line, start_column))
            column += end - index
            index = end
            continue

        matched = None
        for op in MULTI_OPS:
            if source.startswith(op, index):
                matched = op
                break
        if matched is None and ch in SINGLE_OPS:
            matched = ch
        if matched is None:
            raise error(f"unexpected character {ch!r}")
        tokens.append(Token("op", matched, start_line, start_column))
        index += len(matched)
        column += len(matched)

    tokens.append(Token("eof", "", line, column))
    return tokens
