"""Simulation state stays bounded: the SPT collector folds each round as
its iterations complete, so neither its memory nor its checkpoint
payload grows with the length of the run."""

import gc
import json
import weakref

from repro.checkpoint import InstrIndex
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


def test_snapshot_payload_does_not_grow_with_the_run():
    """Collector payloads early and late in a long loop are about the
    same size; retained iterations would grow them linearly."""
    module, loops = _compiled()
    index = InstrIndex(module)
    machine, _, collectors = build_simulation(
        module, loops, fuel=FUEL, fast=False
    )
    sizes = []
    last = [-400]

    def hook(m, frame):
        if m.executed - last[0] < 400:
            return
        last[0] = m.executed
        sizes.append(len(json.dumps(
            [c.snapshot_state(index.key_of) for c in collectors]
        )))

    machine.checkpoint_hook = hook
    machine.run("main", [1500])
    assert len(sizes) >= 40
    tenth = len(sizes) // 10
    # Skip the first snapshots: the collector's branch predictor is
    # still meeting new branches there.  Each window's maximum holds
    # one unpaired iteration plus the one in flight.
    early = max(sizes[tenth:2 * tenth])
    late = max(sizes[-tenth:])
    assert late <= early * 1.1, (early, late)


def test_folded_rounds_free_their_rows(monkeypatch):
    """Without the cyclic collector, a finished iteration and its row
    lists are freed as soon as its round folds: once an iteration
    completes, every earlier one is gone (the new one is either the
    unpaired iteration or folded with it)."""

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
            module, loops, fuel=FUEL, fast=False, collector_type=Watching
        )
        machine.run("main", [200])
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
