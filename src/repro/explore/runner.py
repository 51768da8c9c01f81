"""The schedule-exploration runner.

``explore_program`` executes one program's workload across N seeded
schedules of a chosen policy, with the §4.2 protection checker, the
serializability auditor, and the dynamic race detector all armed, and
returns an :class:`ExploreReport`: per-schedule anomalies (protection
violations, races, serializability cycles, deadlock/livelock, stuck
executions) plus coverage statistics (distinct interleaving classes seen,
identified by the hash of the chosen-tid trace).

With a :class:`~repro.runtime.faults.FaultInjector` armed the same runner
becomes the negative-testing harness: the report's ``detections`` then
*must* be non-zero, or the checkers are vacuous. Nothing recovers from
the planted fault: a protection fault must end in a protection, race or
serializability report, an order inversion or a lost release in a
``deadlock:`` violation, and a stalled release in a ``livelock:`` one.
"""

from __future__ import annotations

import hashlib
from dataclasses import dataclass, field
from typing import Callable, List, Optional, Tuple

from ..bench.configs import ALL_BENCHMARKS, BenchSpec
from ..bench.harness import build_world_for_source
from ..interp import ProtectionError, RaceDetector, ThreadExec, World
from ..memory import InterpError
from ..runtime.faults import FaultInjector
from ..sim import (
    DeadlockError,
    LivelockError,
    Scheduler,
    SchedulingPolicy,
    ScriptedPolicy,
    make_policy,
)
from .corpus import DIFF_CORPUS, DiffProgram, Op
from .exhaustive import exhaustive_explore

EXPLORE_POLICY_NAMES = ("rr", "round-robin", "random", "pct", "exhaustive")


@dataclass(frozen=True)
class ExploreTarget:
    """A program plus its workload generator, resolved by name."""

    name: str
    source: str
    schedule: Callable[[int, int], List[List[Op]]]  # (threads, n_ops)
    setup: str = "setup"
    observers: Optional[Callable[[int, int], List[Op]]] = None
    heap_fp: bool = False


def resolve_target(name: str, setting: Optional[str] = None) -> ExploreTarget:
    """Resolve a program name: differential corpus first, then benchmarks."""
    diff = DIFF_CORPUS.get(name)
    if diff is not None:
        return ExploreTarget(
            name=diff.name,
            source=diff.source,
            schedule=diff.schedule,
            setup=diff.setup,
            observers=diff.make_observers,
            heap_fp=diff.heap_fp,
        )
    spec = ALL_BENCHMARKS.get(name)
    if spec is not None:
        if setting is None and spec.settings != (None,):
            setting = spec.settings[0]
        return ExploreTarget(
            name=spec.name,
            source=spec.source,
            schedule=lambda threads, n_ops: spec.schedule(
                setting, threads, n_ops
            ),
            setup=spec.setup,
        )
    known = sorted(list(DIFF_CORPUS) + list(ALL_BENCHMARKS))
    raise ValueError(f"unknown program {name!r}; known: {', '.join(known)}")


@dataclass
class ScheduleRecord:
    """Outcome of one explored schedule."""

    seed: Optional[int]
    ticks: int
    trace_class: str  # hash identifying the interleaving
    violations: List[str] = field(default_factory=list)
    races: int = 0
    lockset_warnings: int = 0


@dataclass
class ExploreReport:
    program: str
    config: str
    policy: str
    threads: int
    ops: int
    records: List[ScheduleRecord] = field(default_factory=list)
    fault: Optional[str] = None
    complete: bool = False  # exhaustive enumeration finished within limit

    @property
    def schedules_explored(self) -> int:
        return len(self.records)

    @property
    def distinct_classes(self) -> int:
        return len({r.trace_class for r in self.records})

    @property
    def detections(self) -> int:
        """Total anomalies (violations of any kind, races included)."""
        return sum(len(r.violations) for r in self.records)

    @property
    def affected_schedules(self) -> int:
        return sum(1 for r in self.records if r.violations)

    @property
    def races_total(self) -> int:
        return sum(r.races for r in self.records)

    def describe(self) -> str:
        lines = [
            f"program={self.program} config={self.config} "
            f"policy={self.policy} threads={self.threads} ops={self.ops}"
            + (f" fault={self.fault}" if self.fault else ""),
            f"schedules explored: {self.schedules_explored}"
            + ("" if not self.policy == "exhaustive"
               else (" (complete)" if self.complete else " (truncated)"))
            + f"   distinct interleaving classes: {self.distinct_classes}",
            f"violations: {self.detections} "
            f"({self.affected_schedules} schedules affected, "
            f"{self.races_total} races)",
        ]
        shown = 0
        for record in self.records:
            for violation in record.violations:
                if shown >= 5:
                    lines.append("  ...")
                    return "\n".join(lines)
                lines.append(f"  [seed {record.seed}] {violation}")
                shown += 1
        return "\n".join(lines)

    def to_dict(self) -> dict:
        return {
            "program": self.program,
            "config": self.config,
            "policy": self.policy,
            "threads": self.threads,
            "ops": self.ops,
            "fault": self.fault,
            "schedules_explored": self.schedules_explored,
            "distinct_classes": self.distinct_classes,
            "violations": self.detections,
            "affected_schedules": self.affected_schedules,
            "races": self.races_total,
            "complete": self.complete,
        }


def _trace_class(policy: SchedulingPolicy) -> str:
    if policy.trace is None:
        return "-"
    digest = hashlib.sha1(repr(policy.trace).encode()).hexdigest()
    return digest[:12]


def run_schedule(
    target: ExploreTarget,
    config: str,
    policy: SchedulingPolicy,
    threads: int = 4,
    ops: int = 8,
    check: bool = True,
    detector: bool = True,
    audit: bool = True,
    fault: Optional[str] = None,
    k: Optional[int] = None,
    ncores: int = 2,
    seed: Optional[int] = None,
    max_ticks: int = 5_000_000,
    injector: Optional[FaultInjector] = None,
    livelock_window: Optional[int] = 50_000,
) -> Tuple[ScheduleRecord, World]:
    """Run one schedule; never raises on anomalies — they are recorded.

    *injector* passes a pre-configured :class:`FaultInjector` (section /
    tid / occurrence / delay seeding) instead of the every-acquire
    injector that the *fault* shorthand builds."""
    if injector is not None:
        faults = injector
    elif fault == "invert-order":
        # all-thread inversion is itself a consistent total order and
        # never interlocks; the canary needs one thread out of step
        faults = FaultInjector(fault, tid=0)
    elif fault:
        faults = FaultInjector(fault)
    else:
        faults = None
    race = RaceDetector() if (detector and config != "stm") else None
    world, mode = build_world_for_source(
        target.source, config, check=check, audit=audit, race=race,
        faults=faults, setup=target.setup, k=k,
    )
    policy.enable_trace()
    scheduler = Scheduler(ncores=ncores, policy=policy, max_ticks=max_ticks,
                          livelock_window=livelock_window)
    for tid, thread_ops in enumerate(target.schedule(threads, ops)):
        scheduler.spawn(ThreadExec(world, tid, mode=mode).run_ops(thread_ops))
    violations: List[str] = []
    ticks = 0
    try:
        stats = scheduler.run()
        ticks = stats.ticks
    except ProtectionError as err:
        violations.append(f"protection: {err}")
    except DeadlockError as err:
        violations.append(f"deadlock: {err}")
    except LivelockError as err:
        violations.append(f"livelock: {err}")
    except InterpError as err:
        violations.append(f"stuck: {err}")
    if ticks == 0:
        ticks = scheduler.stats.ticks
    if world.auditor is not None:
        cycle = world.auditor.find_cycle()
        if cycle:
            names = " -> ".join(
                f"{node}({world.auditor.instances[node]})" for node in cycle
            )
            violations.append(f"non-serializable: {names}")
    races = 0
    warnings = 0
    if race is not None:
        races = len(race.races)
        warnings = len(race.lockset_warnings)
        for report in race.races[:3]:
            violations.append(report.describe())
    record = ScheduleRecord(
        seed=seed,
        ticks=ticks,
        trace_class=_trace_class(policy),
        violations=violations,
        races=races,
        lockset_warnings=warnings,
    )
    return record, world


def explore_program(
    name,
    policy: str = "random",
    seed: int = 0,
    schedules: int = 50,
    threads: int = 4,
    ops: int = 8,
    config: str = "fine+coarse",
    fault: Optional[str] = None,
    detector: bool = True,
    check: bool = True,
    audit: bool = True,
    k: Optional[int] = None,
    ncores: int = 2,
    depth: int = 3,
    setting: Optional[str] = None,
) -> ExploreReport:
    """Explore *schedules* seeded schedules of one program.

    *name* is a differential-corpus or benchmark name (or an already
    resolved :class:`ExploreTarget`). Policy ``exhaustive`` enumerates
    every tick-level interleaving depth-first instead of sampling, with
    *schedules* as the enumeration cap.
    """
    target = name if isinstance(name, ExploreTarget) else resolve_target(
        name, setting=setting
    )
    report = ExploreReport(
        program=target.name, config=config, policy=policy,
        threads=threads, ops=ops, fault=fault,
    )
    if policy == "exhaustive":
        def factory(scripted: ScriptedPolicy):
            record, _ = run_schedule(
                target, config, scripted, threads=threads, ops=ops,
                check=check, detector=detector, audit=audit, fault=fault,
                k=k, ncores=1, seed=None,
            )
            return record

        outcomes, complete = exhaustive_explore(factory, limit=schedules)
        report.records = [outcome.result for outcome in outcomes]
        report.complete = complete
        return report
    for index in range(schedules):
        sched_policy = make_policy(policy, seed=seed + index, depth=depth)
        record, _ = run_schedule(
            target, config, sched_policy, threads=threads, ops=ops,
            check=check, detector=detector, audit=audit, fault=fault,
            k=k, ncores=ncores, seed=seed + index,
        )
        report.records.append(record)
    return report
