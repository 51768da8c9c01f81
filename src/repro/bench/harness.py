"""End-to-end benchmark harness: parse → infer → transform → simulate.

``run_benchmark`` executes one (benchmark, configuration, threads) cell of
Table 2 / Figure 8: it analyzes the program at the configuration's k, builds
the corresponding executable (transformed for lock configurations, original
for STM), runs the setup phase sequentially, then simulates the workload
threads on an ``ncores``-core machine, with the §4.2 protection checker
enabled throughout lock runs.

Inference results live in the process's analysis memo
(:data:`repro.inference.memo.MEMO`) per (source, k), so sweeping
configurations and thread counts re-analyzes nothing; and all k of one
source share its :class:`~repro.inference.SharedAnalysis` (parse + lower +
CFGs + pointer analysis), so a sweep pays the k-independent front half of
the pipeline exactly once.
"""

from __future__ import annotations

import dataclasses
from dataclasses import dataclass
from typing import Dict, Optional, Sequence, Tuple

from ..inference import (
    InferenceResult,
    transform_global,
    transform_with_inference,
)
from ..inference.memo import MEMO
from ..interp import ThreadExec, World
from ..lang import ir
from ..sim import Scheduler
from .configs import CONFIG_K, BenchSpec


@dataclass
class RunResult:
    """Outcome of one simulated benchmark run."""

    bench: str
    config: str
    setting: Optional[str]
    threads: int
    ticks: int
    work: int
    blocked_ticks: int
    stm_commits: int = 0
    stm_aborts: int = 0
    lock_acquires: int = 0
    checked_accesses: int = 0

    @property
    def label(self) -> str:
        suffix = f"-{self.setting}" if self.setting else ""
        return f"{self.bench}{suffix}"

    def to_dict(self) -> Dict[str, object]:
        """JSON-serializable form (executor cache / event stream)."""
        return dataclasses.asdict(self)

    @classmethod
    def from_dict(cls, data: Dict[str, object]) -> "RunResult":
        return cls(**data)


def inference_for(source: str, k: int) -> InferenceResult:
    """Memoized lock inference per (source, k) — shared by the benchmark
    harness and the schedule explorer, so sweeping N schedules re-analyzes
    nothing."""
    return MEMO.result(source, k)


def seed_inference_cache(source: str, k: int,
                         result: InferenceResult) -> None:
    """Install an externally computed result into the per-process memo.

    The executor's ``--serve-via`` path fetches results from a running
    analysis server and seeds them here *before* the worker pool forks,
    so every forked worker inherits the warm entries and no cell pays
    for the analysis locally."""
    MEMO.install(source, k, result)


def run_seq(world: World, func: str, args: Sequence[int] = ()) -> object:
    """Drive one call to completion in sequential mode (setup phases)."""
    gen = ThreadExec(world, tid=10_000, mode="seq").call(func, list(args))
    try:
        while True:
            next(gen)
    except StopIteration as stop:
        return stop.value


def build_world_for_source(
    source: str,
    config: str,
    check: bool = True,
    audit: bool = False,
    race=None,
    faults=None,
    setup: str = "setup",
    k: Optional[int] = None,
) -> Tuple[World, str]:
    """Prepare a world for *config* from a raw mini-C source.

    *race* is an optional :class:`~repro.interp.race.RaceDetector`,
    *faults* an optional :class:`~repro.runtime.faults.FaultInjector`;
    *k* overrides the configuration's default k-limit (negative tests
    sweep it). The setup phase runs sequentially, then the race
    detector's barrier marks the fork point so initialization never
    reports."""
    k = CONFIG_K.get(config, 9) if k is None else k
    inference = inference_for(source, k)
    if config == "stm":
        program: ir.LoweredProgram = inference.program
        mode = "stm"
    elif config == "global":
        program = transform_global(inference.program)
        mode = "locks"
    else:
        program = transform_with_inference(inference)
        mode = "locks"
    world = World(program, pointsto=inference.pointsto, check=check,
                  audit=audit, race=race, faults=faults)
    run_seq(world, setup)
    if race is not None:
        race.barrier()
    return world, mode


def build_world(
    spec: BenchSpec, config: str, check: bool = True, audit: bool = False,
    **kwargs,
) -> Tuple[World, str]:
    """Prepare a world for *config*; returns (world, interpreter mode)."""
    return build_world_for_source(
        spec.source, config, check=check, audit=audit, setup=spec.setup,
        **kwargs,
    )


def run_benchmark(
    spec: BenchSpec,
    config: str,
    threads: int = 8,
    setting: Optional[str] = None,
    n_ops: Optional[int] = None,
    ncores: int = 8,
    check: bool = True,
    audit: bool = False,
    seed: int = 1234,
    policy=None,
    k: Optional[int] = None,
) -> RunResult:
    n_ops = n_ops if n_ops is not None else spec.default_ops
    world, mode = build_world(spec, config, check=check, audit=audit, k=k)
    schedules = spec.schedule(setting, threads, n_ops, seed=seed)
    scheduler = Scheduler(ncores=ncores, policy=policy)
    for tid, ops in enumerate(schedules):
        scheduler.spawn(ThreadExec(world, tid, mode=mode).run_ops(ops))
    stats = scheduler.run()
    if audit and world.auditor is not None:
        world.auditor.assert_serializable()
    return RunResult(
        bench=spec.name,
        config=config,
        setting=setting,
        threads=threads,
        ticks=stats.ticks,
        work=stats.work_done,
        blocked_ticks=stats.blocked_ticks,
        stm_commits=world.stm.stats.commits,
        stm_aborts=world.stm.stats.aborts,
        lock_acquires=world.lock_manager.stats.acquires,
        checked_accesses=world.checker.checked if world.checker else 0,
    )
