"""CLI tests for ``repro batch`` and ``repro explain --cache-dir``."""

import glob
import io
import json
import os

import pytest

from repro.cli import main

PROGRAM = """
global int data[128];

int main(int n) {
    int s = 0;
    for (int i = 0; i < n; i++) {
        int x = data[i & 127];
        int y = (x * 13 + i) ^ (x >> 2);
        data[i & 127] = y & 255;
        s += y & 7;
    }
    return s;
}
"""


@pytest.fixture
def corpus(tmp_path):
    corpus_dir = tmp_path / "corpus"
    corpus_dir.mkdir()
    for index in range(3):
        (corpus_dir / f"p{index}.c").write_text(
            PROGRAM.replace("y & 7", f"y & {7 + index}")
        )
    return corpus_dir


def test_batch_cli_end_to_end(corpus, tmp_path, capsys):
    manifest_path = str(tmp_path / "manifest.json")
    stats_path = str(tmp_path / "stats.json")
    cache_dir = str(tmp_path / "cache")
    code = main(
        [
            "batch", str(corpus),
            "--args", "48",
            "--jobs", "2",
            "--cache-dir", cache_dir,
            "--manifest", manifest_path,
            "--stats-out", stats_path,
        ]
    )
    assert code == 0
    out = capsys.readouterr().out
    assert "batch: 3/3 ok" in out
    assert "cache:" in out

    with open(manifest_path) as handle:
        manifest = json.load(handle)
    assert [p["path"] for p in manifest["programs"]] == [
        "p0.c", "p1.c", "p2.c",
    ]
    with open(stats_path) as handle:
        stats = json.load(handle)
    assert stats["programs"] == 3 and stats["ok"] == 3

    # Second (warm) run: identical manifest bytes, >=90% hit rate.
    manifest2_path = str(tmp_path / "manifest2.json")
    stats2_path = str(tmp_path / "stats2.json")
    code = main(
        [
            "batch", str(corpus),
            "--args", "48",
            "--jobs", "2",
            "--cache-dir", cache_dir,
            "--manifest", manifest2_path,
            "--stats-out", stats2_path,
        ]
    )
    assert code == 0
    with open(manifest_path, "rb") as a, open(manifest2_path, "rb") as b:
        assert a.read() == b.read()
    with open(stats2_path) as handle:
        assert json.load(handle)["cache"]["hit_rate"] >= 0.9


def test_batch_cli_failure_exit_code(corpus, tmp_path, capsys):
    (corpus / "bad.c").write_text("int main( { }")
    code = main(
        ["batch", str(corpus), "--args", "48", "--jobs", "1",
         "--cache-dir", str(tmp_path / "cache")]
    )
    assert code == 1
    assert "error" in capsys.readouterr().out


def test_batch_cli_unknown_input(tmp_path, capsys):
    code = main(
        ["batch", str(tmp_path / "nope-*.c"), "--cache-dir",
         str(tmp_path / "cache")]
    )
    assert code == 2


def test_batch_cli_obs_summary(corpus, tmp_path, capsys):
    code = main(
        ["batch", str(corpus), "--args", "48", "--jobs", "1",
         "--cache-dir", str(tmp_path / "cache"), "--obs-summary"]
    )
    assert code == 0
    out = capsys.readouterr().out
    assert "batch.cache.misses" in out


def test_explain_cache_dir_probe(corpus, tmp_path, capsys, monkeypatch):
    program = str(corpus / "p0.c")
    cache_dir = str(tmp_path / "cache")

    assert main(["explain", program, "--args", "48",
                 "--cache-dir", cache_dir]) == 0
    out = capsys.readouterr().out
    assert "result cache" in out
    assert "MISS" in out

    # Warm the cache through a batch run, then explain sees a HIT.
    assert main(["batch", program, "--args", "48", "--jobs", "1",
                 "--cache-dir", cache_dir, "--quiet"]) == 0
    capsys.readouterr()
    assert main(["explain", program, "--args", "48",
                 "--cache-dir", cache_dir]) == 0
    out = capsys.readouterr().out
    assert "HIT" in out
    assert "a batch run would serve this result warm" in out

    # A program read from stdin probes the same entry.
    monkeypatch.setattr("sys.stdin", io.StringIO((corpus / "p0.c").read_text()))
    assert main(["explain", "-", "--args", "48",
                 "--cache-dir", cache_dir]) == 0
    assert "HIT" in capsys.readouterr().out


def test_batch_resume_journals_under_the_default_cache_dir(
    corpus, tmp_path, capsys, monkeypatch
):
    """Without ``--journal-dir``, ``--resume`` journals under
    ``$REPRO_CACHE_DIR/journals`` whatever ``--cache-dir`` says, and a
    re-run replays every program from there."""
    monkeypatch.setenv("REPRO_CACHE_DIR", str(tmp_path / "env"))
    cache_dir = str(tmp_path / "cache")
    argv = ["batch", str(corpus), "--args", "48", "--resume",
            "--cache-dir", cache_dir]
    assert main(argv) == 0
    assert "resumed from journal" not in capsys.readouterr().out
    journals = glob.glob(
        os.path.join(str(tmp_path), "env", "journals", "v1", "*.journal")
    )
    assert len(journals) == 1
    assert not glob.glob(os.path.join(cache_dir, "**", "*.journal"),
                         recursive=True)
    with open(journals[0]) as handle:
        assert len(handle.readlines()) == 3

    assert main(argv) == 0
    assert "3 resumed from journal" in capsys.readouterr().out
