"""``repro simulate`` resumed from a snapshot reports what the
uninterrupted run reports: the same outcome lines and the same
``spt.*`` counters, which come from the folded per-loop totals the
snapshot carries."""

import glob
import json
import os

import pytest

from repro.checkpoint import CheckpointStore
from repro.cli import main

NESTED = os.path.join(
    os.path.dirname(__file__), "..", "golden", "corpus", "nested.c"
)
BOOKKEEPING = ("snapshots saved", "resumed from snapshot")


def _simulate(capsys, log, *extra):
    code = main([
        "simulate", NESTED, "--config", "best", "--args", "96",
        "--log-out", str(log), *extra,
    ])
    out = capsys.readouterr().out
    assert code == 0, out
    counters = {
        record["name"]: record["value"]
        for record in map(json.loads, log.read_text().splitlines())
        if record["type"] == "counter" and record["name"].startswith("spt.")
    }
    return out, counters


def _outcome(out):
    return [line for line in out.splitlines() if not line.startswith(BOOKKEEPING)]


@pytest.mark.parametrize("resume_point", ["latest", "middle"])
def test_resumed_simulate_reports_the_uninterrupted_counters(
    tmp_path, capsys, resume_point
):
    clean_out, clean_counters = _simulate(capsys, tmp_path / "clean.jsonl")
    assert clean_counters.get("spt.rounds", 0) > 0

    ckpt = str(tmp_path / "ckpt")
    checkpointed = ["--checkpoint-every", "200", "--checkpoint-dir", ckpt]
    _simulate(capsys, tmp_path / "saving.jsonl", *checkpointed)
    saved = sorted(
        int(os.path.basename(path)[:-len(".json")])
        for path in glob.glob(os.path.join(
            CheckpointStore(ckpt).version_dir, "*", "*", "*.json"
        ))
    )
    assert len(saved) > 2
    point = "latest" if resume_point == "latest" else str(saved[len(saved) // 2])

    resumed_out, resumed_counters = _simulate(
        capsys, tmp_path / "resumed.jsonl", *checkpointed,
        "--resume-from", point,
    )
    assert "resumed from snapshot" in resumed_out
    assert _outcome(resumed_out) == _outcome(clean_out)
    assert resumed_counters == clean_counters
