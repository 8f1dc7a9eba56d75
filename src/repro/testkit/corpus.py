"""Regression corpus: minimized reproducers saved as MiniC files.

Every failure the fuzzer finds is written as an ordinary ``.c`` file
whose leading comment block records its replay coordinates::

    // repro-fuzz reproducer
    // oracle: cost
    // seed: 17
    // iteration: 342
    // detail: main:L3 step 4: cost 12.5 (full) != 13.5 (incremental)

Replaying an entry means running its oracle over the file's source with
the RNG re-derived from the recorded coordinates -- byte-identical to
the campaign run that found it.  The checked-in corpus under
``tests/testkit/corpus/`` is replayed as ordinary pytest cases, so a
once-found bug can never quietly return.
"""

from __future__ import annotations

import os
from dataclasses import dataclass
from typing import List, Optional

from .oracles import ORACLE_NAMES, run_oracle
from .seeding import derive_rng

__all__ = ["CorpusEntry", "load_corpus", "replay_entry", "save_reproducer"]

_MAGIC = "// repro-fuzz reproducer"


@dataclass
class CorpusEntry:
    """One reproducer: MiniC source plus its replay coordinates."""

    path: str
    oracle: str
    seed: int
    iteration: int
    source: str
    detail: str = ""

    @property
    def name(self) -> str:
        return os.path.splitext(os.path.basename(self.path))[0]


def save_reproducer(directory: str, failure) -> str:
    """Write a :class:`~repro.testkit.runner.FuzzFailure` as a corpus
    file; returns the path.  The *minimized* program is saved when the
    shrinker produced one."""
    os.makedirs(directory, exist_ok=True)
    spec = failure.reproducer
    detail = failure.shrunk_detail or failure.detail
    path = os.path.join(
        directory,
        f"{failure.oracle}-seed{failure.seed}-iter{failure.iteration}.c",
    )
    header = [
        _MAGIC,
        f"// oracle: {failure.oracle}",
        f"// seed: {failure.seed}",
        f"// iteration: {failure.iteration}",
        f"// detail: {' '.join(detail.split())}",
        "",
    ]
    with open(path, "w", encoding="utf-8") as handle:
        handle.write("\n".join(header))
        handle.write(spec.source())
    return path


def _parse_entry(path: str, text: str) -> Optional[CorpusEntry]:
    lines = text.splitlines()
    if not lines or lines[0].strip() != _MAGIC:
        return None
    fields = {}
    body_start = 1
    for index, line in enumerate(lines[1:], start=1):
        stripped = line.strip()
        if stripped.startswith("//") and ":" in stripped:
            key, _, value = stripped[2:].partition(":")
            fields[key.strip()] = value.strip()
            body_start = index + 1
        else:
            break
    oracle = fields.get("oracle", "")
    if oracle not in ORACLE_NAMES:
        raise ValueError(f"{path}: unknown or missing oracle {oracle!r}")
    return CorpusEntry(
        path=path,
        oracle=oracle,
        seed=int(fields.get("seed", "0"), 0),
        iteration=int(fields.get("iteration", "0"), 0),
        source="\n".join(lines[body_start:]).lstrip("\n").rstrip("\n") + "\n",
        detail=fields.get("detail", ""),
    )


def load_corpus(directory: str) -> List[CorpusEntry]:
    """All reproducers in ``directory``, sorted by file name.

    Files without the reproducer magic line are ignored (the directory
    may hold a README); malformed metadata raises."""
    entries: List[CorpusEntry] = []
    if not os.path.isdir(directory):
        return entries
    for name in sorted(os.listdir(directory)):
        if not name.endswith(".c"):
            continue
        path = os.path.join(directory, name)
        with open(path, "r", encoding="utf-8") as handle:
            text = handle.read()
        entry = _parse_entry(path, text)
        if entry is not None:
            entries.append(entry)
    return entries


def replay_entry(entry: CorpusEntry) -> Optional[str]:
    """Re-run the entry's oracle on its source; None means it passes
    (i.e. the bug it once reproduced stays fixed)."""
    rng = derive_rng(entry.seed, entry.iteration, entry.oracle)
    return run_oracle(entry.oracle, entry.source, rng)
