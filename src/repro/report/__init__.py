"""Evaluation harness: per-table/figure experiment drivers and table
formatting."""

from repro.report.experiments import (
    PAPER_AVG_SPEEDUP,
    PAPER_IPC,
    evaluate,
    evaluate_suite,
    figure14_rows,
    figure14_text,
    figure15_rows,
    figure15_text,
    figure16_rows,
    figure16_text,
    figure17_rows,
    figure17_text,
    figure18_rows,
    figure18_text,
    figure19_correlation,
    figure19_points,
    figure19_text,
    table1_rows,
    table1_text,
)
from repro.report.explain import explain_loop_text, explain_text
from repro.report.tables import arithmetic_mean, format_table, geometric_mean

__all__ = [
    "PAPER_AVG_SPEEDUP",
    "PAPER_IPC",
    "arithmetic_mean",
    "explain_loop_text",
    "explain_text",
    "evaluate",
    "evaluate_suite",
    "figure14_rows",
    "figure14_text",
    "figure15_rows",
    "figure15_text",
    "figure16_rows",
    "figure16_text",
    "figure17_rows",
    "figure17_text",
    "figure18_rows",
    "figure18_text",
    "figure19_correlation",
    "figure19_points",
    "figure19_text",
    "format_table",
    "geometric_mean",
    "table1_rows",
    "table1_text",
]
