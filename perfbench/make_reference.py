"""Regenerate ``suite_reference.json``: each suite-eval program's
``main(eval_n)`` on the reference interpreter, untransformed.

Run from the repository root::

    python3 perfbench/make_reference.py
"""

import json
import os
import sys

BENCH_DIR = os.path.dirname(os.path.abspath(__file__))
sys.path.insert(0, os.path.join(os.path.dirname(BENCH_DIR), "src"))

from repro.benchsuite import SUITE  # noqa: E402
from repro.frontend import compile_minic  # noqa: E402
from repro.profiling.interp import Machine  # noqa: E402
from workloads import SUITE_EXCLUDED  # noqa: E402


def main() -> None:
    reference = {}
    for bench in SUITE:
        if bench.name in SUITE_EXCLUDED:
            continue
        module = compile_minic(bench.source, name=bench.name)
        value = Machine(module).run("main", [bench.eval_n])
        reference[bench.name] = {"eval_n": bench.eval_n, "result": value}
        print(bench.name, value, flush=True)
    with open(os.path.join(BENCH_DIR, "suite_reference.json"), "w") as handle:
        json.dump(reference, handle, indent=2, sort_keys=True)
        handle.write("\n")


if __name__ == "__main__":
    main()
