"""A workload that does not fit the entry function is a usage error:
one line on stderr and exit 2 from every compile-like command, and a
``status: "error"`` batch entry -- never a contained profiling
degradation with verdicts computed from an empty profile."""

import os

import pytest

from repro.batch import run_batch
from repro.cli import main
from repro.core.config import best_config
from repro.core.pipeline import Workload, WorkloadError, compile_spt
from repro.frontend import compile_minic

PROGRAM = """
global int data[256];

int main(int n) {
    int s = 0;
    for (int i = 0; i < n; i++) {
        int x = (i * 37) & 255;
        data[x] = data[x] + 1;
        s += x & 7;
    }
    return s;
}
"""


@pytest.fixture
def program(tmp_path):
    path = tmp_path / "prog.c"
    path.write_text(PROGRAM)
    return str(path)


ARITY = "main expects 1 argument(s)"


def _case(argv, reason):
    return pytest.param(
        argv, reason, id="-".join(a for a in argv if "{" not in a)
    )


def _not_integers(raw):
    return f"arguments must be comma-separated integers, got {raw!r}"


@pytest.mark.parametrize(
    "argv, reason",
    [
        _case(["compile", "{p}"], ARITY),
        _case(["compile", "{p}", "--args", "1,2"], ARITY),
        _case(["compile", "{p}", "--args", "64", "--entry", "nope"], "'nope'"),
        _case(["summary", "{p}"], ARITY),
        _case(["explain", "{p}"], ARITY),
        _case(["run", "{p}"], ARITY),
        _case(["simulate", "{p}"], ARITY),
        # eval args missing
        _case(["simulate", "{p}", "--train-args", "64"], ARITY),
        _case(
            ["simulate", "{p}", "--args", "64", "--train-args", "1,2"], ARITY
        ),
        _case(["run", "{p}", "--args", "x"], _not_integers("x")),
        _case(["simulate", "{p}", "--args", "x"], _not_integers("x")),
        _case(
            ["simulate", "{p}", "--args", "64", "--train-args", "1.5"],
            _not_integers("1.5"),
        ),
        _case(["compile", "{p}", "--args", "1.5"], _not_integers("1.5")),
        _case(["summary", "{p}", "--args", "x"], _not_integers("x")),
        _case(["explain", "{p}", "--args", "2.5"], _not_integers("2.5")),
        _case(
            ["batch", "{p}", "--args", "x", "--no-cache"], _not_integers("x")
        ),
    ],
)
def test_wrong_workload_is_a_one_line_usage_error(
    program, capsys, argv, reason
):
    argv = [a.format(p=program) for a in argv]
    assert main(argv) == 2
    captured = capsys.readouterr()
    assert captured.out == ""
    lines = captured.err.strip().splitlines()
    assert len(lines) == 1
    assert lines[0].startswith(f"repro {argv[0]}: ")
    assert reason in lines[0]


#: The golden corpus's stream_scan.c with both ``& 511`` masks removed:
#: in bounds at the training size, out of bounds at n = 1000.
OUT_OF_BOUNDS = """
global int data[512];
global int out[512];

int main(int n) {
    int s = 0;
    for (int i = 0; i < n; i++) {
        int x = data[i];
        int a = x * 3 + i;
        int b = (a << 2) ^ x;
        out[i] = b & 1023;
        s += b & 31;
    }
    return s;
}
"""

NESTED = os.path.join(
    os.path.dirname(__file__), "..", "golden", "corpus", "nested.c"
)


@pytest.mark.parametrize("command", ["run", "simulate"])
@pytest.mark.parametrize(
    "program, flags, message",
    [
        ("oob", ["--args", "1000"],
         "InterpError: load from invalid address 1024"),
        ("nested", ["--args", "96", "--fuel", "20000"],
         "FuelExhausted: exceeded 20000 dynamic instructions"),
    ],
    ids=["out-of-bounds", "fuel"],
)
def test_faulting_run_is_a_one_line_usage_error(
    tmp_path, capsys, command, program, flags, message
):
    path = NESTED
    if program == "oob":
        path = tmp_path / "oob.c"
        path.write_text(OUT_OF_BOUNDS)
    argv = [command, str(path), *flags]
    if command == "simulate":
        argv += ["--train-args", "96"]  # training itself must not fault
    assert main(argv) == 2
    captured = capsys.readouterr()
    assert captured.out == ""
    lines = captured.err.strip().splitlines()
    assert lines == [f"repro {command}: the run failed: {message}"]


def test_fuel_bounds_the_profiling_run(capsys):
    # Over its --fuel budget the profiling run is a contained
    # degradation, not a usage error: the compilation still finishes.
    assert main(["compile", NESTED, "--args", "96", "--fuel", "1000"]) == 0
    assert (
        "resilience: 1 contained degradation(s)\n"
        "  profile/profile_budget: exceeded 1000 dynamic instructions\n"
    ) in capsys.readouterr().out


def test_compile_spt_rejects_before_any_work():
    module = compile_minic(PROGRAM)
    with pytest.raises(WorkloadError, match=r"expects 1 argument\(s\), got 0"):
        compile_spt(module, best_config(), Workload(args=()))
    with pytest.raises(WorkloadError, match="not found"):
        compile_spt(module, best_config(), Workload(entry="f", args=(1,)))


def test_batch_entry_with_wrong_arity_is_an_error(program):
    result = run_batch([program], args=(), jobs=1, use_cache=False)
    (entry,) = result.entries
    assert entry["status"] == "error"
    assert entry["error"]["type"] == "WorkloadError"
    assert result.stats["degradations"] == 0


#: The count goes negative at i = k + 1: at once for k = -1, and for
#: k = 40 after the loop has run hot (on a trace in the fast tier).
VARIABLE_SHIFT = """
int main(int k) {
    int s = 0;
    for (int i = 0; i < 64; i++) {
        s = (s + (1 << (k - i))) & 65535;
    }
    return s;
}
"""


@pytest.mark.parametrize("k", ["-1", "40"])
def test_negative_shift_count_is_a_one_line_workload_error(tmp_path, capsys, k):
    path = tmp_path / "shift.c"
    path.write_text(VARIABLE_SHIFT)
    assert main(["run", str(path), f"--args={k}"]) == 2
    captured = capsys.readouterr()
    assert captured.out == ""
    assert captured.err.strip().splitlines() == [
        "repro run: the run failed: InterpError: negative shift count -1"
    ]


def test_constant_negative_shift_compiles(tmp_path, capsys):
    """Constant folding leaves ``1 << -1`` to run time instead of
    crashing the compiler; the path holding it never runs."""
    path = tmp_path / "shift.c"
    path.write_text(PROGRAM.replace(
        "int s = 0;", "int s = 0;\n    if (n < 0) { return 1 << -1; }"
    ))
    assert main(["compile", str(path), "--args", "64"]) == 0
    assert "selected SPT loops" in capsys.readouterr().out
    assert main(["run", str(path), "--args", "64"]) == 0
