"""``repro fuzz`` CLI tests (driving main() directly; stdout via capsys)."""

import json

import pytest

from repro.cli import main
from repro.testkit import ORACLE_NAMES, load_corpus


def test_fuzz_clean_run(capsys):
    assert main(["fuzz", "--seed", "0", "--iterations", "2"]) == 0
    out = capsys.readouterr().out
    assert "fuzz: seed=0 iterations=2" in out
    assert "cost: 2 checked, 0 failed" in out
    assert "spt: 2 checked, 0 failed" in out


def test_fuzz_runs_the_four_oracles_by_default(capsys):
    assert main(["fuzz", "--seed", "0", "--iterations", "1"]) == 0
    out = capsys.readouterr().out
    assert "oracles=cost,interp,partition,spt" in out.splitlines()[0]


def test_fuzz_oracle_subset(capsys):
    assert main(["fuzz", "--seed", "1", "--iterations", "1",
                 "--oracle", "interp", "--oracle", "cost"]) == 0
    out = capsys.readouterr().out
    assert "oracles=cost,interp" in out or "oracles=interp,cost" in out
    assert "partition" not in out


def test_fuzz_rejects_unknown_oracle(capsys):
    assert main(["fuzz", "--oracle", "bogus"]) == 2
    err = capsys.readouterr().err
    assert "unknown oracle" in err


def test_fuzz_rejects_the_retired_checkpoint_oracle(capsys):
    assert main(["fuzz", "--oracle", "checkpoint"]) == 2
    captured = capsys.readouterr()
    assert captured.out == ""
    assert captured.err.strip() == (
        "unknown oracle(s) checkpoint; choose from "
        + ", ".join(ORACLE_NAMES)
    )
    assert ORACLE_NAMES == ("cost", "interp", "partition", "spt")


def test_fuzz_help_lists_every_oracle(capsys):
    with pytest.raises(SystemExit):
        main(["fuzz", "--help"])
    out = " ".join(capsys.readouterr().out.split())
    assert f"(repeatable): {', '.join(ORACLE_NAMES)}" in out


def test_fuzz_failure_writes_corpus_and_exits_nonzero(
    tmp_path, capsys, monkeypatch
):
    from repro.core.costmodel import IncrementalCostEvaluator

    original = IncrementalCostEvaluator._total
    monkeypatch.setattr(
        IncrementalCostEvaluator,
        "_total",
        lambda self, v: original(self, v) + 1.0,
    )
    corpus = tmp_path / "corpus"
    code = main([
        "fuzz", "--seed", "0", "--iterations", "20",
        "--oracle", "cost", "--corpus-dir", str(corpus),
        "--skip-corpus-replay",
    ])
    assert code == 1
    out = capsys.readouterr().out
    assert "FAILURE" in out
    entries = load_corpus(str(corpus))
    assert len(entries) == 1
    assert entries[0].oracle == "cost"


def test_fuzz_replays_corpus_before_campaign(tmp_path, capsys):
    corpus = tmp_path / "corpus"
    corpus.mkdir()
    (corpus / "interp-seed5-iter0.c").write_text(
        "// repro-fuzz reproducer\n"
        "// oracle: interp\n"
        "// seed: 5\n"
        "// iteration: 0\n"
        "\n"
        "int main(int n) { return n & 7; }\n"
    )
    code = main(["fuzz", "--seed", "5", "--iterations", "1",
                 "--oracle", "interp", "--corpus-dir", str(corpus)])
    assert code == 0
    out = capsys.readouterr().out
    assert "corpus: 1 reproducer(s) replayed" in out


def test_fuzz_telemetry_counters(tmp_path, capsys):
    log = tmp_path / "fuzz.jsonl"
    assert main(["fuzz", "--seed", "0", "--iterations", "2",
                 "--oracle", "cost", "--log-out", str(log)]) == 0
    capsys.readouterr()
    events = [json.loads(line) for line in log.read_text().splitlines()]
    counters = [e for e in events if e.get("type") == "counter"]
    assert any(
        e.get("name") == "fuzz.cost.checked" and e.get("value") == 2
        for e in counters
    ), counters


def test_fuzz_inline_reproducer_without_corpus_dir(capsys, monkeypatch):
    from repro.profiling import compiled

    original = compiled.CompiledMachine.run

    def broken(self, func_name, args=()):
        return original(self, func_name, args) + 1

    monkeypatch.setattr(compiled.CompiledMachine, "run", broken)
    code = main(["fuzz", "--seed", "0", "--iterations", "5",
                 "--oracle", "interp", "--no-shrink"])
    assert code == 1
    out = capsys.readouterr().out
    assert "FAILURE" in out
    assert "int main(int n)" in out  # program printed inline
