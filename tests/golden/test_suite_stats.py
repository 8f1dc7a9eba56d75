"""The evaluation's numbers stay bit-identical: two cheap entries of
``tests/golden/expected/suite_stats.json`` re-simulated here (CI checks
all thirty with ``python scripts/suite_golden.py --check``)."""

import importlib.util
import os

ROOT = os.path.join(os.path.dirname(__file__), "..", "..")


def _suite_golden():
    spec = importlib.util.spec_from_file_location(
        "suite_golden", os.path.join(ROOT, "scripts", "suite_golden.py")
    )
    module = importlib.util.module_from_spec(spec)
    spec.loader.exec_module(module)
    return module


def test_cheap_suite_entries_match_the_committed_numbers():
    golden = _suite_golden()
    expected = golden.load_expected()
    assert set(expected) == set(golden.entry_names())
    # Both simulate an SPT loop that misspeculates.
    names = ["gap/best", "crafty/best"]
    actual = golden.compute(names)
    assert all(actual[name]["loops"] for name in names)
    assert golden.differences(expected, actual) == []
