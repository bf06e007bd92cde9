"""Randomized test harness and experiment drivers (paper section 7).

* :data:`PROGRAMS` -- one :class:`Program` per evaluated system (the rows of
  Table 1, plus the Scan file system).
* :func:`run_program` -- run one seeded workload and obtain its VYRD log.
* :class:`ProgramSpec` / :func:`explore_program` -- picklable workload
  descriptions and the exploration-campaign driver over
  :func:`repro.concurrency.explore_swarm` /
  :func:`repro.concurrency.explore_exhaustive` (``jobs=1`` in-process,
  ``jobs>1`` in worker processes).
* :func:`detection_experiment` (Table 1),
  :func:`logging_overhead_experiment` (Table 2),
  :func:`breakdown_experiment` (Table 3).
"""

from .metrics import fmt, mean, render_table
from .runner import (
    BreakdownResult,
    DetectionResult,
    LoggingOverheadResult,
    ProgramSpec,
    RunResult,
    breakdown_experiment,
    detection_experiment,
    explore_program,
    log_hb_fingerprint,
    logging_overhead_experiment,
    run_program,
)
from .workload import PROGRAMS, BuiltProgram, Program, ShrinkingPool

__all__ = [
    "BreakdownResult",
    "BuiltProgram",
    "DetectionResult",
    "LoggingOverheadResult",
    "PROGRAMS",
    "Program",
    "ProgramSpec",
    "RunResult",
    "ShrinkingPool",
    "breakdown_experiment",
    "detection_experiment",
    "explore_program",
    "log_hb_fingerprint",
    "fmt",
    "logging_overhead_experiment",
    "mean",
    "render_table",
    "run_program",
]
