"""``repro.cli.parse_args`` builds only the invoked subcommand's parser;
its help, usage and error output must be byte-identical to the whole
tree's (``build_parser()``), and so must what it parses."""

import contextlib
import io

import pytest

from repro.cli import _SUBCOMMANDS, build_parser, parse_args

COMMANDS = [name for name, _, _ in _SUBCOMMANDS]


def rendered(parse, argv):
    """``(stdout, stderr, exit code or parsed namespace)`` of one parse."""
    out, err = io.StringIO(), io.StringIO()
    with contextlib.redirect_stdout(out), contextlib.redirect_stderr(err):
        try:
            outcome = vars(parse(argv))
        except SystemExit as exc:
            outcome = exc.code
    return out.getvalue(), err.getvalue(), outcome


ARGVS = (
    [[], ["--help"], ["-h"], ["bogus"], ["--bogus"], ["-h", "simulate"]]
    + [[name, "--help"] for name in COMMANDS]
    + [[name] for name in COMMANDS]
    + [[name, "prog.c", "--no-such-flag"] for name in COMMANDS]
    + [
        ["simulate", "prog.c", "--config", "nope"],
        ["fuzz", "--iterations", "many"],
        ["dot", "prog.c", "nope"],
        # Parses cleanly: the namespaces must agree.
        ["simulate", "prog.c", "--args", "40", "--train-args", "8"],
        ["compile", "prog.c", "--config", "basic", "--emit-ir"],
        ["batch", "a.c", "b.c", "--jobs", "2"],
        ["run", "prog.c", "--args", "5", "--timing"],
        ["dump-ir", "prog.c", "--ssa", "--optimize"],
        ["explain", "prog.c", "--loop", "main:for_head", "--profile",
         "--cache-dir"],
        ["report", "table1", "fig14"],
        ["dot", "prog.c", "cfg", "--function", "main", "--ssa"],
        ["summary", "prog.c", "--metrics-out", "m.json", "--obs-summary"],
        ["fuzz", "--seed", "0", "--iterations", "5", "--oracle", "interp",
         "--oracle", "spt"],
    ]
)


@pytest.mark.parametrize("argv", ARGVS, ids=lambda argv: " ".join(argv) or "-")
def test_one_subcommand_parser_renders_like_the_whole_tree(argv, monkeypatch):
    monkeypatch.setenv("COLUMNS", "80")
    whole = rendered(lambda a: build_parser().parse_args(a), argv)
    assert rendered(parse_args, argv) == whole
