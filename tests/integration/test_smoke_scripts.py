"""The smoke scripts find the golden corpus next to themselves, so they
run from any working directory, not only the repository root."""

import importlib.util
import os

import pytest

HERE = os.path.dirname(os.path.abspath(__file__))
SCRIPTS = os.path.join(HERE, "..", "..", "scripts")
CORPUS = os.path.join(HERE, "..", "golden", "corpus")


@pytest.mark.parametrize(
    "script", ["chaos_smoke", "resume_smoke", "trace_perf_smoke"]
)
def test_corpus_resolves_from_another_directory(script, tmp_path,
                                                monkeypatch):
    monkeypatch.chdir(tmp_path)
    spec = importlib.util.spec_from_file_location(
        f"_{script}", os.path.join(SCRIPTS, f"{script}.py"))
    module = importlib.util.module_from_spec(spec)
    spec.loader.exec_module(module)
    assert os.path.isdir(module.CORPUS)
    assert os.path.samefile(module.CORPUS, CORPUS)
