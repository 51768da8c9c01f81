"""Schedule exploration, race detection, and differential conformance.

The paper's theorems are universally quantified over interleavings; this
package hunts them. It drives the concurrent interpreter under pluggable
scheduling policies (``repro.sim.policy``), watches every shared access
with the dynamic race detector (``repro.interp.race``), seeds known bugs
with the fault injector (``repro.runtime.faults``) to prove the checkers
fire, and differentially compares inferred-lock, global-lock, and TL2-STM
executions for final-state equality.

Entry points:

* :func:`explore_program` — N seeded schedules of one program under one
  policy and configuration, returning an :class:`ExploreReport`;
* :func:`differential_check` — the conformance harness over the
  commutative corpus (:data:`DIFF_CORPUS`);
* :func:`exhaustive_explore` — bounded DFS enumeration of every
  tick-level interleaving (small thread counts);
* the ``python -m repro explore`` CLI subcommand wraps all three.
"""

from .corpus import DIFF_CORPUS, DiffProgram
from .diff import DiffReport, differential_check, heap_fingerprint
from .exhaustive import exhaustive_explore, interleaving_count
from .runner import (
    EXPLORE_POLICY_NAMES,
    ExploreReport,
    ExploreTarget,
    ScheduleRecord,
    explore_program,
    resolve_target,
)

__all__ = [
    "DIFF_CORPUS",
    "DiffProgram",
    "DiffReport",
    "differential_check",
    "heap_fingerprint",
    "exhaustive_explore",
    "interleaving_count",
    "ExploreReport",
    "ExploreTarget",
    "ScheduleRecord",
    "explore_program",
    "resolve_target",
    "EXPLORE_POLICY_NAMES",
]
