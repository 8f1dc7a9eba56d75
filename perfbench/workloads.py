"""The three benchmark workloads.

Each workload is a single-client closed loop: one op at a time, every
op inside this process.  ``batch-rerun``'s ops call ``run_batch`` with
one job, which forks the one batch worker ``run_batch`` always uses; no
op starts an interpreter.

A workload object has

* ``pass_ops`` -- the number of ops in one pass over its schedule; the
  timed section runs whole passes;
* ``pass_seconds`` -- the time of one pass on a 2-core host; a run makes
  ``max(2, floor(--seconds / pass_seconds))`` passes;
* ``setup_repeats`` -- how many times ``run.py`` runs ``setup``;
* ``setup(tmp)`` -- build the inputs under ``tmp`` and run one untimed
  warm-up op; the last call's inputs are the ones the ops use;
* ``prepare(i)`` -- the untimed part of op ``i`` (a no-op by default);
* ``op(i)`` -- run op ``i`` and return ``(ok, row)``, where ``row`` is
  the per-op line ``run.py`` prints;
* ``finish()`` -- checks too slow for the timed section; returns the
  indices of ops whose output was wrong;
* ``speedups`` -- simulated program speedups, one per op that simulates.
"""

from __future__ import annotations

import contextlib
import io
import json
import os
import random
import re

BENCH_DIR = os.path.dirname(os.path.abspath(__file__))

CONFIGS = ("basic", "best", "anticipated")
#: mcf and vortex take 47 s of the 68 s ten-program pass on a 2-core
#: host, 6-16 s per op: with them, one pass would not fit in a run.
SUITE_EXCLUDED = ("mcf", "vortex")
#: Reduced-size runs (``--small``) keep two cheap suite programs.
SUITE_SMALL = ("gap", "gzip")

#: cli-simulate's programs: the generator's first CLI_POOL programs, each
#: with its own fixed draw of train and n, one pass of about 5 s on a
#: 2-core host.  The seed draws the op order.  Over four seeds,
#: seed-drawn args moved the op tail between 247 and 350 ms; a fixed set,
#: between 284 and 304 ms.  Two passes over 70 programs gave the op tail
#: a quartile spread of 0.13 of its median over ten seeds: each op timed
#: three times, over 50 programs in the same time, sets it more steadily.
CLI_POOL = 50
CLI_POOL_SMALL = 6

#: batch-rerun's corpus: the generator's first BATCH_PROGRAMS programs
#: under one fixed train argument, and the share of it edited before each
#: re-run.  A round edits every program once; a pass is BATCH_ROUNDS
#: rounds (30 re-runs), so a run makes the same number of re-runs and its
#: op tail is always the same percentile.  The seed draws the edit
#: schedule.  A pass of 5 rounds over 30 programs took about 25 s on a
#: 2-core host, too long to repeat within a run; this one, about 11 s.
BATCH_PROGRAMS = 20
BATCH_PROGRAMS_SMALL = 8
BATCH_EDIT_SHARE = 0.10
BATCH_ROUNDS = 3


class Workload:
    pass_ops = 1
    setup_repeats = 5

    def __init__(self):
        self.speedups = []

    def prepare(self, i: int) -> None:
        pass

    def finish(self):
        return []


def generated_source(tag: str) -> str:
    """A generated program drawn with the fuzz campaign's mix of shapes."""
    from repro.testkit.generator import generate_program, random_gen_config

    rng = random.Random(tag)
    return generate_program(rng, random_gen_config(rng)).source()


def draw_args(rng: random.Random):
    """``(train, n)`` as the fuzz oracles draw them."""
    return rng.randint(0, 40), rng.randint(41, 400)


def clear_trace_code_cache() -> None:
    """Forget the trace code ``repro.profiling.traces`` keeps for the
    whole process: a fresh process starts without it."""
    from repro.profiling import traces

    traces._CODE_CACHE.clear()


def reference_value(source: str, n: int) -> int:
    """``main(n)`` of the untransformed program on the reference
    interpreter -- independent of every compiler pass."""
    from repro.frontend import compile_minic
    from repro.profiling.interp import Machine

    return Machine(compile_minic(source, name="ref")).run("main", [n])


class SuiteEval(Workload):
    """The paper's evaluation: ``run_benchmark`` over the suite programs
    under the basic, best and anticipated presets, config-major.  The
    seed has no effect: the suite is fixed."""

    name = "suite-eval"
    pass_seconds = 19.0

    def __init__(self, seed: int, small: bool = False):
        super().__init__()
        from repro.benchsuite import SUITE
        from repro.cli import CONFIG_FACTORIES

        if small:
            programs = [b for b in SUITE if b.name in SUITE_SMALL]
        else:
            programs = [b for b in SUITE if b.name not in SUITE_EXCLUDED]
        self.schedule = [(bench, config, CONFIG_FACTORIES[config])
                         for config in CONFIGS for bench in programs]
        self.pass_ops = len(self.schedule)
        with open(os.path.join(BENCH_DIR, "suite_reference.json")) as handle:
            self.reference = json.load(handle)

    def prepare(self, i: int) -> None:
        """Start every pass as a fresh process running the evaluation
        would, without trace code from the warm-up or an earlier pass.
        Within a pass, the base-run traces a program compiles under basic
        serve it again under best and anticipated."""
        if i % self.pass_ops == 0:
            clear_trace_code_cache()

    def setup(self, tmp: str) -> None:
        from repro.benchsuite import BY_NAME
        from repro.benchsuite.runner import run_benchmark
        from repro.core.config import basic_config

        run_benchmark(BY_NAME["gap"], basic_config(), "basic")

    def op(self, i: int):
        from repro.benchsuite.runner import run_benchmark

        bench, config, factory = self.schedule[i % self.pass_ops]
        run = run_benchmark(bench, factory(), config)
        expected = self.reference[bench.name]
        ok = (expected["eval_n"] == bench.eval_n
              and run.base_result_value == expected["result"]
              and run.result_value == expected["result"])
        self.speedups.append(run.program_speedup)
        return ok, (f"{bench.name}/{config} base_cycles={run.base_cycles:.0f} "
                    f"spt_cycles={run.program_spt_cycles:.0f} "
                    f"speedup={run.program_speedup:.4f}")


class CliSimulate(Workload):
    """``repro simulate`` on generated programs, through the CLI's own
    ``main`` with stdout captured and the default config."""

    name = "cli-simulate"
    pass_seconds = 5.0

    def __init__(self, seed: int, small: bool = False):
        super().__init__()
        self.seed = seed
        self.pass_ops = CLI_POOL_SMALL if small else CLI_POOL
        self.results = {}  # op index -> (program, printed result or None)

    @staticmethod
    def _program(tmp: str, tag: str):
        source = generated_source(f"cli-simulate:{tag}")
        path = os.path.join(tmp, f"p{tag}.c")
        with open(path, "w") as handle:
            handle.write(source)
        train, n = draw_args(random.Random(f"cli-simulate:{tag}:args"))
        return {"tag": tag, "path": path, "source": source,
                "train": train, "n": n}

    def setup(self, tmp: str) -> None:
        rng = random.Random(f"cli-simulate:{self.seed}")
        order = list(range(self.pass_ops))
        rng.shuffle(order)
        self.programs = [self._program(tmp, f"{index:04d}") for index in order]
        self._simulate(self._program(tmp, "warmup"))

    def prepare(self, i: int) -> None:
        """Start every op as a fresh ``repro simulate`` process would,
        without trace code compiled by earlier ops.  With the
        process-wide trace code cache kept, a program's first run was
        about 19% slower than its second and third."""
        clear_trace_code_cache()

    @staticmethod
    def _simulate(program):
        """``repro simulate`` in-process: ``(exit code, stdout)``."""
        import repro.cli

        out = io.StringIO()
        with contextlib.redirect_stdout(out):
            code = repro.cli.main(["simulate", program["path"],
                                   "--args", str(program["n"]),
                                   "--train-args", str(program["train"])])
        return code, out.getvalue()

    def op(self, i: int):
        program = self.programs[i % self.pass_ops]
        code, text = self._simulate(program)
        result = re.search(r"^result: (-?\d+)$", text, re.M)
        speedup = re.search(r"^program SPT cycles: (\d+) \(speedup ([\d.]+)x\)",
                            text, re.M)
        # A program with no selected loop exits 1 and simulates nothing.
        ok = ((code == 0 and result is not None)
              or (code == 1 and text.startswith("no SPT loops selected")))
        self.results[i] = (program, int(result.group(1)) if result else None)
        if speedup is not None:
            self.speedups.append(float(speedup.group(2)))
        return ok, (f"prog{program['tag']} n={program['n']} "
                    f"train={program['train']} "
                    f"spt_cycles={speedup.group(1) if speedup else '-'} "
                    f"exit={code}")

    def finish(self):
        expected = {}
        wrong = []
        for i, (program, value) in sorted(self.results.items()):
            if value is None:
                continue
            tag = program["tag"]
            if tag not in expected:
                expected[tag] = reference_value(program["source"], program["n"])
            if value != expected[tag]:
                wrong.append(i)
        return wrong


_LITERAL = re.compile(r"(?<![\w.])\d+(?![\w.])")


def literal_sites(source: str):
    """``(line, start, end)`` of every integer literal inside a loop
    body that an edit may change.  Loop headers are left alone, and so
    are masks (the operand after ``&``), which keep array indexes in
    bounds; every other literal the generator emits only feeds
    arithmetic."""
    sites = []
    blocks = []  # one flag per open brace: is it a loop?
    for number, line in enumerate(source.split("\n")):
        stripped = line.strip()
        if stripped.startswith("}"):
            blocks.pop()
        opens = stripped.endswith("{")
        if any(blocks) and not opens and not stripped.startswith("}"):
            for match in _LITERAL.finditer(line):
                if not line[:match.start()].rstrip().endswith("&"):
                    sites.append((number, match.start(), match.end()))
        if opens:
            blocks.append(stripped.startswith(("for ", "while ")))
    return sites


class BatchRerun(Workload):
    """Edit-and-rebuild on a warm result cache: raise one literal in ~10%
    of a generated corpus, then re-run ``run_batch``."""

    name = "batch-rerun"
    pass_seconds = 11.0
    setup_repeats = 3

    def __init__(self, seed: int, small: bool = False):
        super().__init__()
        self.seed = seed
        self.corpus_size = BATCH_PROGRAMS_SMALL if small else BATCH_PROGRAMS
        self.rounds = 1 if small else BATCH_ROUNDS
        self.edits_per_op = max(1, round(BATCH_EDIT_SHARE * self.corpus_size))

    def _run(self):
        import repro.batch

        return repro.batch.run_batch(
            [self.corpus], config_name="best", args=(self.train,), jobs=1,
            cache_dir=self.cache_dir, resume=True,
            journal_dir=self.journal_dir)

    def setup(self, tmp: str) -> None:
        self.corpus = os.path.join(tmp, "corpus")
        self.cache_dir = os.path.join(tmp, "cache")
        self.journal_dir = os.path.join(tmp, "journal")
        os.makedirs(self.corpus)
        self.train, _n = draw_args(random.Random("batch-rerun:args"))
        self.sources = {}
        for i in range(self.corpus_size):
            self._write(f"c{i:03d}.c", generated_source(f"batch-rerun:{i}"))
        self.editable = sorted(name for name, source in self.sources.items()
                               if literal_sites(source))
        self.groups = [self.editable[k:k + self.edits_per_op]
                       for k in range(0, len(self.editable), self.edits_per_op)]
        self.pass_ops = self.rounds * len(self.groups)
        cold = self._run()
        self.setup_ok = all(e.get("status") == "ok" for e in cold.entries)
        self.last = self._manifest_entries(cold)

    def _write(self, name: str, source: str) -> None:
        self.sources[name] = source
        with open(os.path.join(self.corpus, name), "w") as handle:
            handle.write(source)

    @staticmethod
    def _manifest_entries(result):
        return {os.path.basename(p["path"]): json.dumps(p, sort_keys=True)
                for p in result.manifest["programs"]}

    def prepare(self, i: int) -> None:
        """The user's edit: raise one literal in each edited program, so
        every edit yields a source the cache has never seen.  Each round
        edits every group of editable programs once, in a seeded order.
        Every pass repeats its schedule -- the same groups in the same
        order, each at the same literal -- by new amounts, so an op and
        its repeats recompile the same programs.  The groups are fixed:
        with seeded groups, whether the costliest programs shared a
        re-run gave the op tail a quartile spread of 18% of its median
        over ten seeds."""
        slot = i % self.pass_ops
        round_index, step = divmod(slot, len(self.groups))
        order = list(range(len(self.groups)))
        random.Random(f"batch-rerun:{self.seed}:round:{round_index}").shuffle(order)
        group = self.groups[order[step]]
        site_rng = random.Random(f"batch-rerun:{self.seed}:site:{slot}")
        amount_rng = random.Random(f"batch-rerun:{self.seed}:edit:{i}")
        self.edited = set(group)
        for name in group:
            lines = self.sources[name].split("\n")
            sites = literal_sites(self.sources[name])
            number, start, end = sites[site_rng.randrange(len(sites))]
            line = lines[number]
            value = int(line[start:end]) + amount_rng.randint(1, 9)
            lines[number] = f"{line[:start]}{value}{line[end:]}"
            self._write(name, "\n".join(lines))

    def op(self, i: int):
        result = self._run()
        entries = {os.path.basename(e["path"]): e for e in result.entries}
        current = self._manifest_entries(result)
        ok = self.setup_ok and set(entries) == set(self.last)
        for name, entry in entries.items():
            if entry.get("status") != "ok":
                ok = False
            elif name in self.edited:
                ok = ok and not entry.get("cached")
            else:
                ok = (ok and entry.get("cached")
                      and current[name] == self.last[name])
        cached = result.stats["cached_programs"]
        ok = ok and cached == len(entries) - len(self.edited)
        self.last = current
        stats = result.cache_stats
        return bool(ok), (f"edited={len(self.edited)} cached={cached} "
                          f"hits={stats.hits} misses={stats.misses} "
                          f"writes={stats.writes}")


WORKLOADS = {w.name: w for w in (SuiteEval, CliSimulate, BatchRerun)}
