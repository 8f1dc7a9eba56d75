"""``repro.cli.parse_args`` builds only the invoked subcommand's parser;
its help, usage and error output must be byte-identical to the whole
tree's (``build_parser()``), and so must what it parses.  An option
value out of its range is a usage error at parse time."""

import contextlib
import io
import os

import pytest

from repro.cli import _SUBCOMMANDS, build_parser, main, parse_args

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
        ["simulate", "prog.c", "--fuel", "0"],
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


PROGRAM = os.path.join(
    os.path.dirname(__file__), os.pardir, "golden", "corpus", "nested.c"
)


def _bad_value(command, option, *value):
    """One command line whose ``option`` value is out of range, or whose
    option no longer exists."""
    program = [] if command == "fuzz" else [PROGRAM, "--args", "96"]
    return pytest.param(
        [command, *program, option, *value], option,
        id=" ".join([command, option, *value]),
    )


@pytest.mark.parametrize(
    "argv, option",
    [
        _bad_value("simulate", "--resume-from", "latest"),
        _bad_value("simulate", "--checkpoint-every", "5"),
        _bad_value("simulate", "--checkpoint-dir", "ckpt"),
        _bad_value("simulate", "--fuel", "0"),
        _bad_value("simulate", "--search-deadline-ms", "-1"),
        _bad_value("simulate", "--phase-deadline-ms", "0"),
        _bad_value("compile", "--search-deadline-ms", "-1"),
        _bad_value("compile", "--phase-deadline-ms", "0"),
        _bad_value("compile", "--checkpoint-phases"),
        _bad_value("batch", "--stall-timeout"),
        _bad_value("batch", "--program-timeout", "-1"),
        _bad_value("batch", "--jobs", "-3"),
        _bad_value("batch", "--jobs", "0"),
        _bad_value("batch", "--cache-max-entries", "-1"),
        _bad_value("fuzz", "--iterations", "-1"),
        _bad_value("compile", "--search-deadline-ms", "inf"),
        _bad_value("batch", "--program-timeout", "nan"),
        _bad_value("compile", "--fuel", "0"),
        _bad_value("compile", "--fuel", "-5"),
    ],
)
def test_bad_option_value_is_a_usage_error_before_any_work(
    argv, option, capsys, monkeypatch, tmp_path
):
    # Should a value slip through, the run it starts stays in tmp_path.
    monkeypatch.setenv("REPRO_CACHE_DIR", str(tmp_path))
    with pytest.raises(SystemExit) as exit_info:
        main(argv)
    assert exit_info.value.code == 2
    captured = capsys.readouterr()
    assert captured.out == ""
    error = captured.err.strip().splitlines()[-1]
    assert "error:" in error and option in error
    assert "Traceback" not in captured.err


def _boundary(command, option, value, expected):
    """One command line whose ``option`` sits on the edge of its range."""
    program = [] if command == "fuzz" else ["prog.c"]
    dest = option.lstrip("-").replace("-", "_")
    return pytest.param(
        [command, *program, option, value], dest, expected,
        id=" ".join([command, option, value]),
    )


@pytest.mark.parametrize(
    "argv, dest, expected",
    [
        _boundary("simulate", "--fuel", "1", 1),
        _boundary("simulate", "--search-deadline-ms", "0.5", 0.5),
        _boundary("simulate", "--phase-deadline-ms", "1e-3", 0.001),
        _boundary("compile", "--search-deadline-ms", "0.5", 0.5),
        _boundary("compile", "--phase-deadline-ms", "1e-3", 0.001),
        _boundary("batch", "--program-timeout", "2", 2.0),
        _boundary("batch", "--jobs", "1", 1),
        _boundary("batch", "--cache-max-entries", "0", 0),
        _boundary("fuzz", "--iterations", "0", 0),
        _boundary("compile", "--fuel", "1", 1),
    ],
)
def test_in_range_boundary_value_parses_to_its_type(argv, dest, expected):
    value = getattr(parse_args(argv), dest)
    assert value == expected and type(value) is type(expected)
