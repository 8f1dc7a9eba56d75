"""Fuzz campaign driver: generate, check, shrink, report.

One campaign is fully determined by ``(seed, iterations, oracles)``:
iteration ``i`` derives its program from ``derive_rng(seed, i,
"program")`` and each oracle's workload RNG from ``derive_rng(seed, i,
oracle)`` (see :mod:`repro.testkit.seeding`).  Because the oracle RNG is
re-derived *fresh on every predicate call*, the shrinking predicate is
deterministic and a failure replays from its ``(seed, iteration,
oracle)`` coordinates alone -- which is exactly what the corpus stores.
"""

from __future__ import annotations

from dataclasses import dataclass, field
from typing import Callable, Dict, List, Optional, Sequence

from repro.obs.telemetry import NULL_TELEMETRY

from .generator import GenConfig, ProgramSpec, generate_program, random_gen_config
from .oracles import ORACLE_NAMES, run_oracle
from .seeding import derive_rng
from .shrink import shrink_program

__all__ = ["FuzzFailure", "FuzzReport", "oracle_predicate", "run_campaign"]


@dataclass
class FuzzFailure:
    """One oracle failure, with its replay coordinates and shrink result."""

    seed: int
    iteration: int
    oracle: str
    detail: str
    spec: ProgramSpec
    shrunk: Optional[ProgramSpec] = None
    shrunk_detail: Optional[str] = None

    @property
    def reproducer(self) -> ProgramSpec:
        return self.shrunk if self.shrunk is not None else self.spec


@dataclass
class FuzzReport:
    """Campaign outcome: per-oracle counters plus every failure found."""

    seed: int
    iterations: int
    oracles: Sequence[str]
    checked: Dict[str, int] = field(default_factory=dict)
    failures: List[FuzzFailure] = field(default_factory=list)

    @property
    def ok(self) -> bool:
        return not self.failures

    def summary_lines(self) -> List[str]:
        lines = [
            f"fuzz: seed={self.seed} iterations={self.iterations} "
            f"oracles={','.join(self.oracles)}"
        ]
        for name in self.oracles:
            failed = sum(1 for f in self.failures if f.oracle == name)
            lines.append(
                f"  {name}: {self.checked.get(name, 0)} checked, "
                f"{failed} failed"
            )
        return lines


def oracle_predicate(
    oracle: str, seed: int, iteration: int
) -> Callable[[ProgramSpec], bool]:
    """The deterministic "still fails?" predicate used for shrinking.

    Re-derives the oracle RNG from the failure coordinates on every
    call, so the same candidate program always gets the same verdict.
    """

    def predicate(spec) -> bool:
        return run_oracle(oracle, spec, derive_rng(seed, iteration, oracle)) is not None

    return predicate


def run_campaign(
    seed: int,
    iterations: int,
    oracles: Optional[Sequence[str]] = None,
    gen_config: Optional[GenConfig] = None,
    shrink: bool = True,
    max_failures: int = 1,
    telemetry=NULL_TELEMETRY,
    on_progress: Optional[Callable[[int, int], None]] = None,
) -> FuzzReport:
    """Run ``iterations`` generated programs through the oracle battery.

    Stops early once ``max_failures`` distinct failures are collected
    (0 = never stop early).  Each failure is shrunk (unless ``shrink``
    is False) with the deterministic predicate above.  ``telemetry``
    receives ``fuzz.program`` spans and per-oracle
    ``fuzz.<oracle>.checked`` / ``fuzz.<oracle>.failed`` counters.
    """
    oracles = tuple(oracles) if oracles else ORACLE_NAMES
    unknown = [name for name in oracles if name not in ORACLE_NAMES]
    if unknown:
        raise ValueError(f"unknown oracle(s): {', '.join(unknown)}")
    report = FuzzReport(seed=seed, iterations=iterations, oracles=oracles)
    for name in oracles:
        report.checked[name] = 0

    for iteration in range(iterations):
        program_rng = derive_rng(seed, iteration, "program")
        config = gen_config or random_gen_config(program_rng)
        spec = generate_program(program_rng, config)
        with telemetry.span("fuzz.program", iteration=iteration):
            for name in oracles:
                detail = run_oracle(name, spec, derive_rng(seed, iteration, name))
                report.checked[name] += 1
                if telemetry.enabled:
                    telemetry.count(f"fuzz.{name}.checked")
                if detail is None:
                    continue
                if telemetry.enabled:
                    telemetry.count(f"fuzz.{name}.failed")
                    telemetry.event(
                        "fuzz.failure",
                        oracle=name,
                        seed=seed,
                        iteration=iteration,
                        detail=detail,
                    )
                failure = FuzzFailure(
                    seed=seed,
                    iteration=iteration,
                    oracle=name,
                    detail=detail,
                    spec=spec,
                )
                if shrink:
                    with telemetry.span(
                        "fuzz.shrink", oracle=name, iteration=iteration
                    ):
                        predicate = oracle_predicate(name, seed, iteration)
                        failure.shrunk = shrink_program(spec, predicate)
                        failure.shrunk_detail = run_oracle(
                            name,
                            failure.shrunk,
                            derive_rng(seed, iteration, name),
                        )
                report.failures.append(failure)
                if max_failures and len(report.failures) >= max_failures:
                    return report
        if on_progress is not None:
            on_progress(iteration + 1, iterations)
    return report
