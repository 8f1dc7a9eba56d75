"""Golden regression test: what ``repro simulate`` prints for the
checked-in corpus.

``tests/golden/expected/corpus_simulate_report.json`` stores, per
program of ``tests/golden/corpus``, the exit code, stdout and stderr of
``repro simulate <program> --args 96``: the human report (result,
single-core cycles and IPC, one line per SPT loop, program SPT cycles,
degradations) or the nothing-selected notice.  Both simulation tiers
must print it byte for byte: the fast tier by default and the reference
tier under ``--no-fast-interp``.  Regenerate intentionally with::

    pytest tests/golden/test_corpus_simulate_report.py --update-goldens
"""

import json
import os

import pytest

from repro.cli import main

CORPUS_DIR = os.path.join(os.path.dirname(__file__), "corpus")
EXPECTED_PATH = os.path.join(
    os.path.dirname(__file__), "expected", "corpus_simulate_report.json"
)

PROGRAMS = sorted(
    name for name in os.listdir(CORPUS_DIR) if name.endswith(".c")
)
TIERS = {"fast": [], "reference": ["--no-fast-interp"]}


def simulate_report(name: str, flags, capsys) -> dict:
    """Exit code and output of one ``repro simulate`` run."""
    capsys.readouterr()
    code = main(
        ["simulate", os.path.join(CORPUS_DIR, name), "--args", "96", *flags]
    )
    captured = capsys.readouterr()
    return {"exit": code, "stdout": captured.out, "stderr": captured.err}


def load_expected() -> dict:
    with open(EXPECTED_PATH) as handle:
        return json.load(handle)


def test_report_golden_covers_the_corpus(capsys, update_goldens):
    if update_goldens:
        reports = {
            name: simulate_report(name, TIERS["fast"], capsys)
            for name in PROGRAMS
        }
        with open(EXPECTED_PATH, "w") as handle:
            json.dump(reports, handle, indent=2, sort_keys=True)
            handle.write("\n")
        pytest.skip("golden snapshot regenerated")
    expected = load_expected()
    assert sorted(expected) == PROGRAMS
    # Some programs select and simulate loops, or the snapshot stops
    # guarding the per-loop report lines.
    assert any(report["exit"] == 0 for report in expected.values())


@pytest.mark.parametrize("name", PROGRAMS)
@pytest.mark.parametrize("tier", sorted(TIERS))
def test_simulate_report_matches_golden(tier, name, capsys, update_goldens):
    if update_goldens:
        pytest.skip("golden snapshot being regenerated")
    expected = load_expected()[name]
    assert simulate_report(name, TIERS[tier], capsys) == expected, (
        f"`repro simulate {name} --args 96` ({tier} tier) deviates from the "
        "golden snapshot; if the change is intentional, refresh with "
        "--update-goldens"
    )
