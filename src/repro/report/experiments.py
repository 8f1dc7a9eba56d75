"""Experiment drivers: regenerate every table and figure of the paper's
evaluation section (§8) from the workload suite.

The heavy part -- compiling and simulating all ten benchmarks under the
three compiler configurations -- is done once per process by
:func:`evaluate_suite` and cached; each ``table_*``/``figure_*``
function below just reshapes the cached measurements into the rows the
paper reports.
"""

from __future__ import annotations

from typing import Dict, List, Optional, Tuple

from repro.benchsuite.programs import SUITE, Benchmark
from repro.benchsuite.runner import BenchmarkRun, run_benchmark
from repro.core.config import CONFIG_FACTORIES
from repro.core.selection import ALL_CATEGORIES
from repro.report.tables import arithmetic_mean, format_table

#: Paper reference values (for side-by-side reporting).
PAPER_IPC = {
    "bzip2": 1.69,
    "crafty": 1.49,
    "gap": 1.30,
    "gcc": 1.33,
    "gzip": 1.77,
    "mcf": 0.44,
    "parser": 1.30,
    "twolf": 1.05,
    "vortex": 0.56,
    "vpr": 1.22,
}
PAPER_AVG_SPEEDUP = {"basic": 1.01, "best": 1.08, "anticipated": 1.156}

_CACHE: Dict[Tuple[str, str], BenchmarkRun] = {}


def evaluate(bench: Benchmark, config_name: str) -> BenchmarkRun:
    """Compile and simulate one benchmark under one configuration
    (memoized per process)."""
    key = (bench.name, config_name)
    if key not in _CACHE:
        _CACHE[key] = run_benchmark(
            bench, CONFIG_FACTORIES[config_name](), config_name
        )
    return _CACHE[key]


def evaluate_suite(config_name: str) -> List[BenchmarkRun]:
    """All ten benchmarks under one configuration (memoized)."""
    return [evaluate(bench, config_name) for bench in SUITE]


# ---------------------------------------------------------------------------
# Table 1: IPC (excluding nops) of the non-SPT base reference.
# ---------------------------------------------------------------------------


def table1_rows() -> List[Tuple[str, float, float]]:
    rows = []
    for run in evaluate_suite("basic"):
        rows.append((run.name, run.base_ipc, PAPER_IPC[run.name]))
    return rows


def table1_text() -> str:
    from repro.report.charts import bar_chart

    rows = table1_rows()
    body = format_table(
        ["program", "IPC (measured)", "IPC (paper)"],
        rows,
        title="Table 1: IPC of the non-SPT base reference",
    )
    chart = bar_chart(
        [(name, measured) for name, measured, _ in rows],
        title="(measured IPC)",
        fmt="{:.2f}",
    )
    return body + "\n\n" + chart


# ---------------------------------------------------------------------------
# Figure 14: program speedups under basic / best / anticipated compilation.
# ---------------------------------------------------------------------------


def figure14_rows() -> List[Tuple[str, float, float, float]]:
    runs = {name: evaluate_suite(name) for name in CONFIG_FACTORIES}
    rows = []
    for index, bench in enumerate(SUITE):
        rows.append(
            (
                bench.name,
                runs["basic"][index].program_speedup,
                runs["best"][index].program_speedup,
                runs["anticipated"][index].program_speedup,
            )
        )
    rows.append(
        (
            "average",
            arithmetic_mean([r[1] for r in rows]),
            arithmetic_mean([r[2] for r in rows]),
            arithmetic_mean([r[3] for r in rows]),
        )
    )
    return rows


def figure14_text() -> str:
    from repro.report.charts import grouped_bar_chart

    rows = figure14_rows()
    body = format_table(
        ["program", "basic", "best", "anticipated"],
        rows,
        title="Figure 14: program speedup by compilation",
    )
    chart = grouped_bar_chart(
        [(name, values) for name, *values in rows],
        series=["basic", "best", "anticipated"],
        title="(bars show speedup over the 1.0 base)",
        baseline=1.0,
    )
    paper = (
        "paper averages: basic "
        f"{PAPER_AVG_SPEEDUP['basic']:.3f}, best "
        f"{PAPER_AVG_SPEEDUP['best']:.3f}, anticipated "
        f"{PAPER_AVG_SPEEDUP['anticipated']:.3f}"
    )
    return body + "\n\n" + chart + "\n" + paper


# ---------------------------------------------------------------------------
# Figure 15: breakdown of loops by transformability.
# ---------------------------------------------------------------------------


def figure15_rows(config_name: str = "best") -> List[Tuple[str, int, float]]:
    histogram: Dict[str, int] = {category: 0 for category in ALL_CATEGORIES}
    total = 0
    for run in evaluate_suite(config_name):
        for category, count in run.compilation.category_histogram().items():
            histogram[category] += count
            total += count
    rows = []
    for category in ALL_CATEGORIES:
        count = histogram[category]
        share = count / total if total else 0.0
        rows.append((category, count, share))
    return rows


def figure15_text(config_name: str = "best") -> str:
    return format_table(
        ["category", "loops", "fraction"],
        figure15_rows(config_name),
        title=f"Figure 15: loop breakdown ({config_name} compilation)",
    )


# ---------------------------------------------------------------------------
# Figure 16: runtime coverage of SPT loops and loop counts.
# ---------------------------------------------------------------------------


def figure16_rows(config_name: str = "best"):
    rows = []
    config = CONFIG_FACTORIES[config_name]()
    for run in evaluate_suite(config_name):
        max_cov = run.max_loop_coverage(config)
        rows.append((run.name, run.coverage, max_cov, run.spt_loop_count))
    rows.append(
        (
            "average",
            arithmetic_mean([r[1] for r in rows]),
            arithmetic_mean([r[2] for r in rows]),
            arithmetic_mean([float(r[3]) for r in rows]),
        )
    )
    return rows


def figure16_text(config_name: str = "best") -> str:
    body = format_table(
        ["program", "SPT coverage", "max loop coverage", "#SPT loops"],
        figure16_rows(config_name),
        title=f"Figure 16: runtime coverage of SPT loops ({config_name})",
    )
    return body + "\npaper: ~30% SPT coverage of 68% max; ~30 loops/benchmark"


# ---------------------------------------------------------------------------
# Figure 17: SPT loop body size and pre-fork characteristics.
# ---------------------------------------------------------------------------


def figure17_rows(config_name: str = "best"):
    rows = []
    for run in evaluate_suite(config_name):
        if not run.loops:
            rows.append((run.name, 0.0, 0.0, 0.0))
            continue
        body = arithmetic_mean([lr.stats.avg_body_ops for lr in run.loops])
        pre = arithmetic_mean([lr.stats.prefork_fraction for lr in run.loops])
        static_pre = arithmetic_mean(
            [lr.prefork_size / lr.body_size for lr in run.loops if lr.body_size]
        )
        rows.append((run.name, body, pre, static_pre))
    return rows


def figure17_text(config_name: str = "best") -> str:
    body = format_table(
        ["program", "dyn ops/iter", "pre-fork cycle frac", "pre-fork size frac"],
        figure17_rows(config_name),
        title=f"Figure 17: SPT loop body and pre-fork size ({config_name})",
    )
    return body + "\npaper: ~400 instructions/iteration, small pre-fork regions"


# ---------------------------------------------------------------------------
# Figure 18: SPT loop misspeculation ratio and loop speedup.
# ---------------------------------------------------------------------------


def figure18_rows(config_name: str = "best"):
    rows = []
    misspecs = []
    speedups = []
    for run in evaluate_suite(config_name):
        for lr in run.loops:
            rows.append(
                (
                    f"{run.name}:{lr.header}",
                    lr.stats.misspeculation_ratio,
                    lr.stats.loop_speedup,
                )
            )
            misspecs.append(lr.stats.misspeculation_ratio)
            speedups.append(lr.stats.loop_speedup)
    rows.append(
        ("average", arithmetic_mean(misspecs), arithmetic_mean(speedups))
    )
    return rows


def figure18_text(config_name: str = "best") -> str:
    body = format_table(
        ["SPT loop", "misspec ratio", "loop speedup"],
        figure18_rows(config_name),
        title=f"Figure 18: SPT loop performance ({config_name})",
    )
    return body + "\npaper: ~3% average misspeculation, ~26% average loop speedup"


# ---------------------------------------------------------------------------
# Figure 19: estimated misspeculation cost vs. measured re-execution ratio.
# ---------------------------------------------------------------------------


def figure19_points(config_name: str = "best") -> List[Tuple[str, float, float]]:
    points = []
    for run in evaluate_suite(config_name):
        for lr in run.loops:
            points.append(
                (
                    f"{run.name}:{lr.header}",
                    lr.estimated_cost_ratio,
                    lr.stats.reexecution_ratio,
                )
            )
    return points


def figure19_correlation(config_name: str = "best") -> float:
    """Pearson correlation between estimate and measurement."""
    points = figure19_points(config_name)
    xs = [p[1] for p in points]
    ys = [p[2] for p in points]
    n = len(points)
    if n < 2:
        return 0.0
    mx, my = sum(xs) / n, sum(ys) / n
    cov = sum((x - mx) * (y - my) for x, y in zip(xs, ys))
    vx = sum((x - mx) ** 2 for x in xs)
    vy = sum((y - my) ** 2 for y in ys)
    if vx <= 0 or vy <= 0:
        return 0.0
    return cov / (vx**0.5 * vy**0.5)


def figure19_text(config_name: str = "best") -> str:
    body = format_table(
        ["SPT loop", "estimated cost ratio", "measured re-exec ratio"],
        figure19_points(config_name),
        title=f"Figure 19: estimated cost vs. actual re-execution ({config_name})",
    )
    corr = figure19_correlation(config_name)
    return (
        body
        + f"\nPearson correlation: {corr:.3f}"
        + "\npaper: well-correlated; estimates conservative (above measurement)"
    )
