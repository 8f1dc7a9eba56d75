"""Interpreter and interpreter-driven profilers (edge, dependence, value)."""

from repro.profiling.compiled import CompiledMachine, make_machine
from repro.profiling.dep_profile import DependenceProfile, LoopDepView
from repro.profiling.edge_profile import EdgeProfile
from repro.profiling.interp import (
    FuelExhausted,
    InterpError,
    Machine,
    Tracer,
    run_module,
)
from repro.profiling.traces import CompiledTrace, TraceStats
from repro.profiling.value_profile import ValuePattern, ValueProfile

__all__ = [
    "CompiledMachine",
    "CompiledTrace",
    "DependenceProfile",
    "EdgeProfile",
    "FuelExhausted",
    "InterpError",
    "LoopDepView",
    "Machine",
    "TraceStats",
    "Tracer",
    "ValuePattern",
    "ValueProfile",
    "make_machine",
    "run_module",
]
