"""Shared fixtures for the serving-daemon test battery.

Every test talks to a *real* daemon: a ``python -m repro serve``
subprocess spawned through :func:`repro.serve.client.start_daemon`,
with a hygienic environment (no inherited fault-injection or cache
variables) and a per-test cache directory.  The golden MiniC corpus
and its pinned workload are the same ones the batch goldens use, so
served results are directly diffable against the committed manifest
world.
"""

import os

import pytest

from repro.batch import build_manifest, manifest_to_bytes
from repro.core.config import CONFIG_FACTORIES
from repro.serve.client import start_daemon

REPO_ROOT = os.path.abspath(
    os.path.join(os.path.dirname(__file__), "..", "..")
)
SRC_DIR = os.path.join(REPO_ROOT, "src")
CORPUS_DIR = os.path.join(REPO_ROOT, "tests", "golden", "corpus")

#: The pinned golden workload (keep in sync with tests/golden).
GOLDEN_ARGS = [96]
GOLDEN_CONFIG = "best"
GOLDEN_ENTRY = "main"
GOLDEN_FUEL = 50_000_000


def corpus_paths():
    return sorted(
        os.path.join(CORPUS_DIR, name)
        for name in os.listdir(CORPUS_DIR)
        if name.endswith(".c")
    )


def corpus_sources():
    """``[(basename, source), ...]`` over the golden corpus."""
    out = []
    for path in corpus_paths():
        with open(path, "r", encoding="utf-8") as handle:
            out.append((os.path.basename(path), handle.read()))
    return out


def compile_params(name, source, **overrides):
    params = {
        "source": source,
        "path": name,
        "config": GOLDEN_CONFIG,
        "entry": GOLDEN_ENTRY,
        "args": list(GOLDEN_ARGS),
        "fuel": GOLDEN_FUEL,
    }
    params.update(overrides)
    return params


def served_manifest_bytes(entries, config=GOLDEN_CONFIG,
                          args=GOLDEN_ARGS, entry=GOLDEN_ENTRY,
                          fuel=GOLDEN_FUEL):
    """Assemble served entries into canonical manifest bytes, exactly
    as ``repro batch --manifest`` does."""
    fingerprint = CONFIG_FACTORIES[config]().fingerprint()
    return manifest_to_bytes(
        build_manifest(entries, config, fingerprint, entry, args, fuel)
    )


def daemon_env(extra=None):
    """Environment overlay for spawned daemons: the repo's ``src`` on
    PYTHONPATH, and any ambient chaos/cache variables neutralized so a
    developer's shell cannot perturb the battery."""
    python_path = SRC_DIR
    inherited = os.environ.get("PYTHONPATH")
    if inherited:
        python_path = python_path + os.pathsep + inherited
    env = {
        "PYTHONPATH": python_path,
        "REPRO_FAULT": "",
        "REPRO_BATCH_CRASH_ON": "",
        "REPRO_CACHE_DIR": "",
    }
    if extra:
        env.update(extra)
    return env


@pytest.fixture
def daemon_factory(tmp_path):
    """Spawn daemons with automatic teardown; yields the factory.

    Each daemon gets its own cache directory under ``tmp_path`` unless
    the test passes one explicitly (cache-sharing scenarios)."""
    stack = []
    counter = [0]

    def factory(workers=2, cache_dir=None, env=None, extra_args=(),
                **kwargs):
        if cache_dir is None:
            counter[0] += 1
            cache_dir = str(tmp_path / f"cache-{counter[0]}")
        manager = start_daemon(
            workers=workers,
            cache_dir=cache_dir,
            env=daemon_env(env),
            extra_args=extra_args,
            **kwargs,
        )
        handle = manager.__enter__()
        stack.append((manager, handle))
        return handle

    yield factory
    errors = []
    for manager, _handle in reversed(stack):
        try:
            manager.__exit__(None, None, None)
        except Exception as exc:  # noqa: BLE001 - report all teardowns
            errors.append(exc)
    if errors:
        raise errors[0]
