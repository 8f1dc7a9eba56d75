"""The quick examples run to completion against the current API.

Each runs as its own process, the way a reader runs it.  The slow
``full_evaluation.py`` (the whole paper evaluation) is left out.
"""

import os
import subprocess
import sys

import pytest

REPO_ROOT = os.path.abspath(
    os.path.join(os.path.dirname(__file__), "..", "..")
)
SRC_DIR = os.path.join(REPO_ROOT, "src")
EXAMPLES_DIR = os.path.join(REPO_ROOT, "examples")

QUICK_EXAMPLES = [
    "quickstart.py",
    "cost_model_walkthrough.py",
    "dependence_profiling.py",
    "partition_explorer.py",
    "value_prediction.py",
]


@pytest.mark.parametrize("name", QUICK_EXAMPLES)
def test_example_runs(name):
    python_path = SRC_DIR
    if os.environ.get("PYTHONPATH"):
        python_path += os.pathsep + os.environ["PYTHONPATH"]
    completed = subprocess.run(
        [sys.executable, os.path.join(EXAMPLES_DIR, name)],
        cwd=REPO_ROOT,
        env=dict(os.environ, PYTHONPATH=python_path),
        capture_output=True,
        text=True,
        timeout=120,
    )
    assert completed.returncode == 0, completed.stderr
