"""Resilience battery: the daemon under chaos.

Worker deaths (``$REPRO_BATCH_CRASH_ON`` hard-exits a worker right
after it claims a matching request), in-process faults
(``$REPRO_FAULT``), and hostile inputs (malformed JSON, oversized
bodies, garbage endpoints).  In every scenario the daemon must answer
every request with a typed response -- retried to success, contained
as a structured degradation, or cleanly rejected -- keep serving
afterwards, and shut down with exit code 0 leaving no live socket."""

import json
import socket

import pytest

from repro.serve.client import ServeError

from .conftest import compile_params, corpus_sources

pytestmark = pytest.mark.serve


def test_crashed_worker_respawns_and_retry_succeeds(
    daemon_factory, tmp_path
):
    """One injected crash: the victim's request is retried on a
    respawned warm worker and *succeeds*; the crash is visible in the
    pool stats but not in the answer."""
    tokens = tmp_path / "crash-tokens"
    tokens.mkdir()
    daemon = daemon_factory(
        workers=2,
        env={"REPRO_BATCH_CRASH_ON": f"victim@{tokens}:1"},
    )
    sources = corpus_sources()
    response = daemon.client.compile(
        compile_params("victim.c", sources[0][1])
    )
    assert response["entry"]["status"] == "ok"
    assert response["serve"]["attempts"] == 2
    health = daemon.client.healthz()
    assert health["pool"]["crashes"] == 1
    assert health["pool"]["respawns"] == 1
    assert health["pool"]["retries"] == 1
    assert health["pool"]["alive"] == 2

    # Unaffected requests flow normally on the respawned capacity.
    other = daemon.client.compile(
        compile_params(sources[1][0], sources[1][1])
    )
    assert other["entry"]["status"] == "ok"
    assert daemon.stop() == 0


def test_persistent_crash_becomes_contained_entry(daemon_factory):
    """A request whose worker dies on every attempt resolves as a
    structured ``crashed`` entry -- a contained degradation the client
    can reason about, never a hang or a dead daemon."""
    daemon = daemon_factory(
        workers=2, env={"REPRO_BATCH_CRASH_ON": "doomed"}
    )
    sources = corpus_sources()
    response = daemon.client.compile(
        compile_params("doomed.c", sources[0][1])
    )
    entry = response["entry"]
    assert entry["status"] == "crashed"
    assert entry["error"]["exitcode"] == 13
    assert response["serve"]["tier"] == "crashed"
    assert response["serve"]["attempts"] == 2

    health = daemon.client.healthz()
    assert health["pool"]["crashes"] == 2
    assert health["pool"]["alive"] == 2  # both deaths respawned

    # The same daemon still compiles everything else.
    for name, source in sources[:2]:
        ok = daemon.client.compile(compile_params(name, source))
        assert ok["entry"]["status"] == "ok"
    assert daemon.stop() == 0


def test_injected_service_fault_is_answered_and_survived(daemon_factory):
    """``REPRO_FAULT=serve.request:raise:2``: the first two requests
    hit a synthetic fault at the service boundary and get typed 500s;
    the third is served normally."""
    daemon = daemon_factory(
        workers=1, env={"REPRO_FAULT": "serve.request:raise:2"}
    )
    name, source = corpus_sources()[0]
    for _ in range(2):
        with pytest.raises(ServeError) as excinfo:
            daemon.client.compile(compile_params(name, source))
        assert excinfo.value.http_status == 500
        assert excinfo.value.code == "internal"
        assert "FaultInjected" in str(excinfo.value)
    response = daemon.client.compile(compile_params(name, source))
    assert response["entry"]["status"] == "ok"
    assert daemon.stop() == 0


def test_worker_phase_fault_degrades_not_dies(daemon_factory):
    """An in-worker pipeline fault (``search:raise``) is contained by
    the phase firewalls: the served entry is still ``ok`` and records
    the degradations, exactly as the CLI would."""
    daemon = daemon_factory(workers=1, env={"REPRO_FAULT": "search:raise"})
    name, source = corpus_sources()[0]
    response = daemon.client.compile(compile_params(name, source))
    entry = response["entry"]
    assert entry["status"] == "ok"
    assert entry["summary"]["degradations"], (
        "the injected phase fault must surface as a degradation record"
    )
    assert daemon.stop() == 0


def test_malformed_and_hostile_inputs_never_kill_the_daemon(
    daemon_factory,
):
    daemon = daemon_factory(workers=1)
    client = daemon.client

    # Not JSON at all.
    status, raw = client.compile_raw(b"this is not json{{{")
    assert status == 400
    assert json.loads(raw)["error"]["code"] == "bad_request"

    # Valid JSON, invalid params (typed rejection, not a 500).
    for params in (
        {"source": 17},
        {"source": "int main(int n){return n;}", "fuel": -5},
        {"source": "int main(int n){return n;}", "args": ["x"]},
        {"source": "int main(int n){return n;}", "wat": True},
        [1, 2, 3],
    ):
        status, raw = client.compile_raw(json.dumps(params).encode())
        assert status == 400, params
        assert json.loads(raw)["error"]["code"] == "bad_request"

    # Oversized body: rejected with 413 without being parsed.
    daemon_small = daemon_factory(
        workers=1, extra_args=["--max-body-bytes", "4096"]
    )
    big = json.dumps({"source": "x" * 100_000}).encode()
    status, raw = daemon_small.client.compile_raw(big)
    assert status == 413
    assert json.loads(raw)["error"]["code"] == "oversized"

    # Unknown endpoint.
    status, raw = client.compile_raw(b"{}")
    assert status == 400  # /compile with empty params: missing source
    connection_status, _, body = client._request("GET", "/nope")
    assert connection_status == 404
    assert json.loads(body)["error"]["code"] == "unknown_method"

    # After all of that, both daemons still serve real work.
    name, source = corpus_sources()[0]
    for target in (daemon, daemon_small):
        response = target.client.compile(compile_params(name, source))
        assert response["entry"]["status"] == "ok"
        assert target.stop() == 0


def test_shutdown_leaves_no_live_socket(daemon_factory):
    """After a graceful stop the port is fully released: a fresh
    connection attempt is refused, not accepted by a zombie."""
    daemon = daemon_factory(workers=1)
    name, source = corpus_sources()[0]
    assert daemon.client.compile(compile_params(name, source))[
        "entry"
    ]["status"] == "ok"
    port = daemon.port
    assert daemon.stop() == 0
    with pytest.raises(OSError):
        probe = socket.create_connection(("127.0.0.1", port), timeout=2)
        # Connecting may succeed transiently in TIME_WAIT corner cases;
        # an immediate read must then see EOF, which we promote to the
        # expected refusal.
        try:
            probe.settimeout(2)
            if probe.recv(1) == b"":
                raise ConnectionRefusedError("listener gone (EOF)")
        finally:
            probe.close()
