"""Extension bench (§9 future work): intra-iteration region speculation
recovers loops the SPT selection rejects for too-large bodies.

A loop whose body exceeds the speculative-buffer limit cannot become an
SPT loop (Figure 15's body_too_large category).  Splitting the body at
a spine block and running the halves on the two cores recovers the
parallelism when the halves are independent.
"""

from conftest import emit

from repro.analysis.depgraph import build_dep_graph
from repro.analysis.loops import LoopNest
from repro.core import SptConfig, Workload, compile_spt
from repro.core.regions import choose_region_split
from repro.core.selection import CATEGORY_BODY_TOO_LARGE
from repro.ir import parse_module
from repro.machine.region_sim import RegionTraceCollector, simulate_region_loop
from repro.machine.timing import TimingModel, TimingTracer
from repro.profiling import run_module
from repro.report.tables import format_table


def _chain(prefix: str, length: int, seed: str) -> str:
    lines = [f"  {prefix}0 = add {seed}, 1"]
    for k in range(1, length):
        op = "mul" if k % 2 else "add"
        lines.append(f"  {prefix}{k} = {op} {prefix}{k - 1}, {k % 7 + 2}")
    return "\n".join(lines)


#: A loop body of ~600 elementary ops: far over the 1000/2 default cap
#: once unrolling is accounted for, and cleanly splittable in half.
def _big_body_program(chain_len: int = 300) -> str:
    return f"""\
module t
func main(n) {{
  local left[256]
  local right[256]
entry:
  pl = addr left
  pr = addr right
  i = copy 0
  jump head
head:
  c = lt i, n
  br c, phase_a, exit
phase_a:
  m = and i, 255
{_chain("a", chain_len, "i")}
  store pl, m, a{chain_len - 1} !left
  jump phase_b
phase_b:
  mb = and i, 255
{_chain("b", chain_len, "i")}
  store pr, mb, b{chain_len - 1} !right
  i = add i, 1
  jump head
exit:
  ret 0
}}
"""


def test_region_speculation_recovers_large_loop(benchmark):
    source = _big_body_program()
    config = SptConfig(
        max_body_size=400, enable_region_speculation=True, enable_unrolling=False
    )

    def run_experiment():
        module = parse_module(source)
        result = compile_spt(module, config, Workload(args=(50,)))
        # The loop is too big for ordinary SPT...
        categories = result.category_histogram()
        assert categories[CATEGORY_BODY_TOO_LARGE] >= 1
        assert not result.selected
        # ...but region speculation found a split.
        assert result.region_splits, "no region split found"
        split = result.region_splits[0]

        func = module.function("main")
        nest = LoopNest.build(func)
        loop = next(l for l in nest.loops if l.header == split.loop.header)
        # The collector reads load latencies from the run's accounting.
        model = TimingModel()
        collector = RegionTraceCollector(
            "main", loop.header, loop.body, split.b_labels, model
        )
        run_module(
            module, args=[120], tracers=[TimingTracer(model), collector]
        )
        stats = simulate_region_loop(collector, split.split_label)
        return split, stats

    split, stats = benchmark.pedantic(run_experiment, rounds=1, iterations=1)

    emit(
        "extension_regions",
        format_table(
            ["metric", "value"],
            [
                ("split block", split.split_label),
                ("region A size (ops)", f"{split.size_a:.0f}"),
                ("region B size (ops)", f"{split.size_b:.0f}"),
                ("estimated re-exec cost", f"{split.cost:.2f}"),
                ("simulated loop speedup", f"{stats.loop_speedup:.3f}"),
                ("misspeculation ratio", f"{stats.misspeculation_ratio:.3f}"),
                ("A/B balance", f"{stats.balance:.3f}"),
            ],
            title="Extension (§9): intra-iteration region speculation",
        ),
    )
    assert stats.loop_speedup > 1.4
    assert stats.misspeculation_ratio < 0.1
    assert stats.balance > 0.8
