"""The simulation driver.

:mod:`repro.perf.runner` builds every timed run on the machine model;
:func:`~repro.perf.runner.simulate_program`, the compile result -> SPT
machine model entry point, serves ``repro simulate``, the suite
evaluation and the fuzz oracles.
"""

from repro.perf.runner import SimOutcome, simulate_program

__all__ = ["SimOutcome", "simulate_program"]
