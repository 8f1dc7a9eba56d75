"""A workload that does not fit the entry function is a usage error:
one line on stderr and exit 2 from every compile-like command, and a
``status: "error"`` batch entry -- never a contained profiling
degradation with verdicts computed from an empty profile."""

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


@pytest.mark.parametrize(
    "argv",
    [
        ["compile", "{p}"],
        ["compile", "{p}", "--args", "1,2"],
        ["compile", "{p}", "--args", "64", "--entry", "nope"],
        ["summary", "{p}"],
        ["explain", "{p}"],
        ["run", "{p}"],
        ["simulate", "{p}"],
        ["simulate", "{p}", "--train-args", "64"],  # eval args missing
        ["simulate", "{p}", "--args", "64", "--train-args", "1,2"],
        ["perf", "record", "{p}", "--ledger-dir", "{d}"],
    ],
    ids=lambda argv: "-".join(a for a in argv if "{" not in a),
)
def test_wrong_workload_is_a_one_line_usage_error(
    program, tmp_path, capsys, argv
):
    argv = [a.format(p=program, d=str(tmp_path / "ledger")) for a in argv]
    assert main(argv) == 2
    captured = capsys.readouterr()
    assert captured.out == ""
    lines = captured.err.strip().splitlines()
    assert len(lines) == 1
    assert lines[0].startswith(f"repro {argv[0]}: ")
    assert "main expects 1 argument(s)" in lines[0] or "'nope'" in lines[0]


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
