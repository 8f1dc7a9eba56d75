"""Differential-oracle fuzzing testkit.

A seeded MiniC program generator (:mod:`~repro.testkit.generator`), a
battery of four differential oracles cross-checking the framework's
paired implementations (:mod:`~repro.testkit.oracles`), a structural
delta-debugging shrinker (:mod:`~repro.testkit.shrink`), the campaign
driver behind ``repro fuzz`` (:mod:`~repro.testkit.runner`), and the
regression corpus format (:mod:`~repro.testkit.corpus`).  All
randomness flows through :mod:`~repro.testkit.seeding`.

Hypothesis strategies live in :mod:`repro.testkit.strategies`, which is
not imported here so the core testkit works without hypothesis.
"""

from repro.testkit.corpus import (
    CorpusEntry,
    load_corpus,
    replay_entry,
    save_reproducer,
)
from repro.testkit.generator import (
    GenConfig,
    ProgramSpec,
    generate_program,
    random_gen_config,
)
from repro.testkit.oracles import ORACLE_NAMES, run_oracle
from repro.testkit.runner import (
    FuzzFailure,
    FuzzReport,
    oracle_predicate,
    run_campaign,
)
from repro.testkit.seeding import SEED_ENV, base_seed, derive_rng, derive_seed
from repro.testkit.shrink import shrink_program

__all__ = [
    "CorpusEntry",
    "FuzzFailure",
    "FuzzReport",
    "GenConfig",
    "ORACLE_NAMES",
    "ProgramSpec",
    "SEED_ENV",
    "base_seed",
    "derive_rng",
    "derive_seed",
    "generate_program",
    "load_corpus",
    "oracle_predicate",
    "random_gen_config",
    "replay_entry",
    "run_campaign",
    "run_oracle",
    "save_reproducer",
    "shrink_program",
]
