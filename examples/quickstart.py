"""Quickstart: compile a small program with the cost-driven SPT
framework and watch what the compiler does.

Run:  python examples/quickstart.py
"""

from repro.core import SptConfig, Workload, compile_spt
from repro.frontend import compile_minic
from repro.ir import format_function
from repro.perf import simulate_program

SOURCE = """
global int data[2048];
global int out[2048];

int main(int n) {
    // Fill the input with a deterministic pattern.
    for (int i = 0; i < n; i++) {
        data[i] = (i * 2654435761) & 1023;
    }
    // The hot loop: heavy per-element compute, no real carried
    // dependence except the induction variable.
    int total = 0;
    for (int i = 0; i < n; i++) {
        int x = data[i];
        int a = x * 3 + 7;
        int b = a * a + x;
        int c = (b << 2) ^ a;
        int d = c * 5 + b;
        int e = (d << 1) ^ c;
        out[i] = e & 4095;
        total += e & 63;
    }
    return total;
}
"""


def main() -> None:
    module = compile_minic(SOURCE, name="quickstart")
    config = SptConfig()
    workload = Workload(entry="main", args=(500,))

    print("== Two-pass SPT compilation ==")
    result = compile_spt(module, config, workload)

    print(f"loop candidates evaluated: {len(result.candidates)}")
    for candidate in result.candidates:
        partition = candidate.partition
        line = (
            f"  {candidate.loop.header:16s} {candidate.category:22s} "
            f"size={candidate.dynamic_body_size:6.1f} "
            f"trip={candidate.trip_count:7.1f}"
        )
        if partition is not None and not partition.skipped_too_many_vcs:
            line += (
                f" cost={partition.cost:6.2f}"
                f" prefork={partition.prefork_size:5.1f}"
            )
        print(line)

    print(f"\nselected SPT loops: {[i.header for i in result.spt_loops]}")

    print("\n== Transformed main (SPT_FORK/SPT_KILL inserted) ==")
    print(format_function(module.function("main")))

    if result.spt_loops:
        outcome = simulate_program(module, result, args=[2000])
        stats = outcome.loops[0]
        print("\n== SPT machine simulation of the selected loop ==")
        print(f"iterations:            {stats.iterations}")
        print(f"sequential cycles:     {stats.seq_cycles:.0f}")
        print(f"SPT cycles:            {stats.spt_cycles:.0f}")
        print(f"loop speedup:          {stats.loop_speedup:.2f}x")
        print(f"misspeculation ratio:  {stats.misspeculation_ratio:.3f}")


if __name__ == "__main__":
    main()
