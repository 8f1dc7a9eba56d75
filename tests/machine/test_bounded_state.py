"""Simulation state stays bounded: the SPT collector folds each round as
its iterations complete, so its memory does not grow with the length
of the run."""

import gc
import weakref

from repro.core.config import best_config
from repro.core.pipeline import Workload, compile_spt
from repro.frontend import compile_minic
from repro.machine import spt_sim
from repro.perf.runner import build_simulation, spt_loop_sites

SOURCE = """
global int data[64];
global int out[64];

int main(int n) {
    int s = 0;
    for (int i = 0; i < n; i++) {
        int x = data[i & 63];
        int a = x * 3 + i;
        int b = (a << 2) ^ x;
        out[i & 63] = b & 1023;
        s += b & 31;
    }
    return s;
}
"""

FUEL = 4_000_000


def _compiled():
    module = compile_minic(SOURCE)
    compiled = compile_spt(module, best_config(), Workload(args=(48,)))
    loops = spt_loop_sites(compiled)
    assert loops, "fixture must select an SPT loop"
    return module, loops


def test_folded_rounds_free_their_rows(monkeypatch):
    """Without the cyclic collector, a finished iteration and its row
    lists are freed as soon as its round folds: once an iteration
    completes, every earlier one is gone (the new one is either the
    unpaired iteration or folded with it)."""
    _check_folded_rounds_free_their_rows(monkeypatch, fast=False, n=200)


def test_fast_tier_folded_rounds_free_their_rows(monkeypatch):
    """The same bound holds on the fast tier, whose collectors record
    the loop body from trace code once it is hot."""
    _check_folded_rounds_free_their_rows(monkeypatch, fast=True, n=2000)


def _check_folded_rounds_free_their_rows(monkeypatch, fast, n):
    class Rows(list):
        """A row list that a weak reference can watch."""

    class WeakTrace(spt_sim.IterationTrace):
        __slots__ = ("__weakref__",)

        def __init__(self):
            super().__init__()
            self.pre = Rows()
            self.post = Rows()

    monkeypatch.setattr(spt_sim, "IterationTrace", WeakTrace)
    finished = []  # weak references to each finished iteration's state
    earlier_alive = []

    class Watching(spt_sim.SptTraceCollector):
        def _complete(self, trace):
            finished.append([
                weakref.ref(trace), weakref.ref(trace.pre),
                weakref.ref(trace.post),
            ])
            super()._complete(trace)
            earlier_alive.append(sum(
                any(ref() is not None for ref in refs)
                for refs in finished[:-1]
            ))

    module, loops = _compiled()
    gc.collect()
    gc.disable()
    try:
        machine, _, collectors = build_simulation(
            module, loops, fuel=FUEL, fast=fast, collector_type=Watching
        )
        machine.run("main", [n])
        if fast:
            # The loop body ran on recorded traces, not the block path.
            assert any(
                entry["compiles"] for entry in machine.trace_report().values()
            )
        # After the run at most the unpaired iteration is left...
        alive_after_run = sum(
            any(ref() is not None for ref in refs) for refs in finished
        )
        stats = [spt_sim.simulate_spt_loop(c) for c in collectors]
        # ...and finishing the loop folds it too.
        alive_after_finish = sum(
            any(ref() is not None for ref in refs) for refs in finished
        )
    finally:
        gc.enable()
    assert sum(s.iterations for s in stats) == len(finished) > 10
    assert set(earlier_alive) == {0}
    assert alive_after_run <= 1
    assert alive_after_finish == 0
