"""Parallel batch compilation with a persistent content-addressed
result cache.  See ``docs/batching.md``.

* :func:`run_batch` / :class:`BatchResult` -- the multi-process driver
  behind ``repro batch``;
* :class:`WorkerPool` -- the compile-worker pool ``run_batch`` drives;
* :class:`ResultCache` -- the SHA-256-keyed persistent cache
  (``~/.cache/repro`` by default), a :class:`repro.util.ContentStore`;
* :mod:`repro.batch.manifest` -- the canonical machine-readable
  manifest CI diffs.
"""

from repro.batch.cache import (
    CACHE_FORMAT_VERSION,
    ResultCache,
    default_cache_dir,
)
from repro.batch.driver import BatchResult, expand_inputs, run_batch
from repro.batch.lifecycle import CRASH_ENV_VAR, CRASH_EXIT_CODE, WorkerPool
from repro.batch.manifest import (
    MANIFEST_SCHEMA,
    build_manifest,
    dump_manifest,
    load_manifest,
    manifest_to_bytes,
)
from repro.batch.worker import canonical_module_text, compile_program_task

__all__ = [
    "BatchResult",
    "CACHE_FORMAT_VERSION",
    "CRASH_ENV_VAR",
    "CRASH_EXIT_CODE",
    "MANIFEST_SCHEMA",
    "ResultCache",
    "WorkerPool",
    "build_manifest",
    "canonical_module_text",
    "compile_program_task",
    "default_cache_dir",
    "dump_manifest",
    "expand_inputs",
    "load_manifest",
    "manifest_to_bytes",
    "run_batch",
]
