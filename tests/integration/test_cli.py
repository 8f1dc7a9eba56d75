"""CLI tests (driving main() directly; stdout via capsys)."""

import pytest

from repro.cli import main

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

IR_PROGRAM = """\
module tiny
func main(n) {
entry:
  s = copy 0
  i = copy 0
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


@pytest.fixture
def minic_file(tmp_path):
    path = tmp_path / "prog.c"
    path.write_text(PROGRAM)
    return str(path)


@pytest.fixture
def ir_file(tmp_path):
    path = tmp_path / "prog.ir"
    path.write_text(IR_PROGRAM)
    return str(path)


def test_run_minic(minic_file, capsys):
    assert main(["run", minic_file, "--args", "16"]) == 0
    out = capsys.readouterr().out
    assert "result:" in out


def test_run_with_timing(minic_file, capsys):
    assert main(["run", minic_file, "--args", "100", "--timing"]) == 0
    out = capsys.readouterr().out
    assert "IPC:" in out
    assert "cycles:" in out


def test_run_textual_ir(ir_file, capsys):
    assert main(["run", ir_file, "--args", "10"]) == 0
    assert "result: 45" in capsys.readouterr().out


def test_dump_ir_roundtrips(minic_file, capsys):
    assert main(["dump-ir", minic_file]) == 0
    text = capsys.readouterr().out
    from repro.ir import parse_module

    module = parse_module(text)
    assert "main" in module.functions


def test_dump_ir_ssa(minic_file, capsys):
    assert main(["dump-ir", minic_file, "--ssa", "--optimize"]) == 0
    text = capsys.readouterr().out
    assert "phi" in text


def test_compile_reports_candidates(minic_file, capsys):
    assert main(["compile", minic_file, "--args", "200", "--config", "best"]) == 0
    out = capsys.readouterr().out
    assert "loop candidates:" in out
    assert "selected SPT loops:" in out


def test_compile_emit_ir_contains_fork(minic_file, capsys):
    assert main(
        ["compile", minic_file, "--args", "200", "--emit-ir"]
    ) == 0
    out = capsys.readouterr().out
    if "selected SPT loops: []" not in out:
        assert "spt_fork" in out


def test_simulate(minic_file, capsys):
    code = main(["simulate", minic_file, "--args", "400", "--train-args", "150"])
    out = capsys.readouterr().out
    if code == 0:
        assert "speedup" in out
    else:
        assert "no SPT loops" in out


def test_simulate_selects_and_reports_speedup(minic_file, capsys):
    """With a big enough workload the demo loop is selected, and the
    machine model prints per-loop and whole-program speedups."""
    assert main(
        ["simulate", minic_file, "--args", "600", "--train-args", "200"]
    ) == 0
    out = capsys.readouterr().out
    assert "result:" in out
    assert "single-core cycles:" in out
    assert "speedup" in out
    assert "program SPT cycles:" in out


def test_simulate_exit_code_when_nothing_selected(ir_file, capsys):
    """The tiny IR loop falls below the body-size floor: simulate must
    say so and exit non-zero."""
    assert main(["simulate", ir_file, "--args", "4"]) == 1
    assert "no SPT loops" in capsys.readouterr().out


def test_report_rejects_unknown_target(capsys):
    assert main(["report", "figNOPE"]) == 2
    assert "unknown report target" in capsys.readouterr().err


def test_report_runs_requested_targets(monkeypatch, capsys):
    """`repro report` dispatches to the named generators in order.

    The real generators run the full benchmark suite (minutes), so they
    are stubbed; dispatch, ordering and output plumbing are what this
    exercises.
    """
    import repro.report as report_mod

    for name in (
        "table1_text", "figure14_text", "figure15_text", "figure16_text",
        "figure17_text", "figure18_text", "figure19_text",
    ):
        tag = name.replace("_text", "").replace("figure", "fig")
        monkeypatch.setattr(
            report_mod, name, lambda tag=tag: f"<{tag} output>"
        )
    assert main(["report", "fig15", "table1"]) == 0
    out = capsys.readouterr().out
    assert "<fig15 output>" in out
    assert "<table1 output>" in out
    assert out.index("<fig15 output>") < out.index("<table1 output>")
    assert "<fig14 output>" not in out

    assert main(["report"]) == 0  # no targets = all of them
    out = capsys.readouterr().out
    for tag in ("table1", "fig14", "fig15", "fig16", "fig17", "fig18", "fig19"):
        assert f"<{tag} output>" in out


def test_dot_subcommand(minic_file, capsys):
    for what in ("cfg", "depgraph", "costgraph", "vcdep"):
        assert main(["dot", minic_file, what]) == 0, what
        out = capsys.readouterr().out
        assert out.startswith("digraph"), what


def test_summary_subcommand_emits_json(minic_file, capsys):
    import json

    assert main(["summary", minic_file, "--args", "100"]) == 0
    payload = json.loads(capsys.readouterr().out)
    assert "candidates" in payload
    assert "categories" in payload
    assert isinstance(payload["selected"], list)


def test_fast_path_opt_out_flags(minic_file, capsys):
    """--no-fast-interp/--no-incremental-cost select the reference
    implementations but do not change any compilation decision."""
    import json

    assert main(["summary", minic_file, "--args", "100"]) == 0
    fast = json.loads(capsys.readouterr().out)
    assert main(
        [
            "summary", minic_file, "--args", "100",
            "--no-fast-interp", "--no-incremental-cost",
        ]
    ) == 0
    slow = json.loads(capsys.readouterr().out)

    def strip(report):
        for cand in report["candidates"]:
            for key in (
                "cost_evaluations", "cost_cache_hit_rate", "cost_node_visits"
            ):
                cand.pop(key, None)
        return report

    assert strip(fast) == strip(slow)


def test_compile_accepts_opt_out_flags(minic_file, capsys):
    assert main(["compile", minic_file, "--args", "64", "--no-fast-interp"]) == 0
    assert "loop candidates" in capsys.readouterr().out


def test_compile_trace_out_is_valid_chrome_trace(minic_file, tmp_path, capsys):
    import json

    trace = tmp_path / "trace.json"
    assert main(
        ["compile", minic_file, "--args", "200", "--trace-out", str(trace)]
    ) == 0
    capsys.readouterr()
    document = json.loads(trace.read_text())
    names = {e["name"] for e in document["traceEvents"] if e["ph"] == "X"}
    assert {"unroll", "ssa", "profile", "pass1", "selection", "transform"} <= names


def test_compile_log_out_and_summary(minic_file, tmp_path, capsys):
    import json

    log = tmp_path / "run.jsonl"
    assert main(
        [
            "compile", minic_file, "--args", "200",
            "--log-out", str(log), "--obs-summary",
        ]
    ) == 0
    out = capsys.readouterr().out
    assert "telemetry: spans" in out
    assert "telemetry: counters" in out
    records = [json.loads(line) for line in log.read_text().splitlines()]
    assert {"span", "counter"} <= {r["type"] for r in records}


def test_simulate_log_out_records_spt_rounds(minic_file, tmp_path, capsys):
    import json

    log = tmp_path / "sim.jsonl"
    code = main(
        [
            "simulate", minic_file, "--args", "600", "--train-args", "200",
            "--log-out", str(log),
        ]
    )
    capsys.readouterr()
    assert code == 0
    records = [json.loads(line) for line in log.read_text().splitlines()]
    rounds = [
        r for r in records if r["type"] == "event" and r["name"] == "spt.round"
    ]
    assert rounds
    assert {"loop", "round", "committed", "reexec_ops"} <= set(rounds[0]["attrs"])


def test_explain_reports_rejection_criteria(minic_file, capsys):
    assert main(["explain", minic_file, "--args", "200"]) == 0
    out = capsys.readouterr().out
    assert "loop candidates" in out
    assert "verdict" in out
    # At least one loop is explained with body size and thresholds.
    assert "body size" in out
    assert "selectable range" in out


def test_explain_loop_filter_and_unknown_loop(minic_file, capsys):
    assert main(["explain", minic_file, "--args", "200", "--loop", "zz:nope"]) == 2
    captured = capsys.readouterr()
    assert captured.out == ""
    assert captured.err.startswith("no loop candidate 'zz:nope' (known: ")
    assert len(captured.err.splitlines()) == 1


def test_explain_known_loop_prints_that_loop_alone(minic_file, capsys):
    assert main(["explain", minic_file, "--args", "200"]) == 0
    headers = [
        line for line in capsys.readouterr().out.splitlines()
        if line.startswith("loop ")
    ]
    assert headers
    key = headers[-1].split()[1]
    assert main(["explain", minic_file, "--args", "200", "--loop", key]) == 0
    captured = capsys.readouterr()
    assert captured.err == ""
    assert [
        line for line in captured.out.splitlines() if line.startswith("loop ")
    ] == [headers[-1]]


def test_explain_profile_leaves_the_explanation_unchanged(minic_file, capsys):
    assert main(["explain", minic_file, "--args", "200"]) == 0
    plain = capsys.readouterr().out
    assert main(["explain", minic_file, "--args", "200", "--profile"]) == 0
    out = capsys.readouterr().out
    assert out.startswith(plain)
    assert out[len(plain):].startswith("\nprofile: per-phase self time\n")


def test_explain_profile_covers_every_compile_phase(minic_file, capsys):
    assert main(["explain", minic_file, "--args", "200", "--profile"]) == 0
    out = capsys.readouterr().out
    profile = out[out.index("profile: per-phase self time"):]
    table, folded = profile.split("\n\nfolded stacks (ms):\n")
    phases = {line.split()[0] for line in table.splitlines()[3:]}
    assert {
        "unroll", "ssa", "profile", "pass1", "selection", "transform"
    } <= phases
    stacks = [line.rsplit(" ", 1) for line in folded.strip().splitlines()]
    # Every stack is a path of the table's phases, with a self time.
    assert {name for path, _ in stacks for name in path.split(";")} == phases
    assert all(float(ms) >= 0.0 for _, ms in stacks)
