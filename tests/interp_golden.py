"""Golden event streams for the interpreter.

Every case runs one world to completion and records what the scheduler
saw of it: per thread, the sha256 of the yielded event stream (work
ticks, TRY events, gated or not, in order), then the simulated totals,
the checker's access count and the canonical heap digest.  The fixture
``tests/fixtures/interp_golden.json`` was written by running this file
on the commit *before* the tree-walking evaluator was replaced by the
compiled one; ``tests/test_interp_golden.py`` replays it.  Regenerate
(only when a simulated quantity is meant to change) with::

    PYTHONPATH=src python tests/interp_golden.py
"""

from __future__ import annotations

import hashlib
import json
import runpy
from pathlib import Path
from typing import Dict, Iterable, List

from repro import infer_locks, transform_with_inference
from repro.bench.configs import ALL_BENCHMARKS, CONFIGS
from repro.bench.harness import build_world, run_seq
from repro.explore.diff import heap_fingerprint
from repro.interp import RaceDetector, ThreadExec, World
from repro.memory import Loc
from repro.sim import Scheduler

FIXTURE = Path(__file__).parent / "fixtures" / "interp_golden.json"

THREADS = 4
NCORES = 4
N_OPS = 12
SEED = 7


def _recorded(gen, digest):
    for event in gen:
        if isinstance(event, int):
            digest.update(b"%d;" % event)
        else:
            # (TRY, fn) is polled every tick, (TRY, fn, gate) on change
            digest.update(b"G;" if len(event) > 2 else b"T;")
        yield event


def run_case(world: World, mode: str, schedules: Iterable[List],
             scheduler: Scheduler) -> Dict[str, object]:
    digests = []
    for tid, ops in enumerate(schedules):
        digests.append(hashlib.sha256())
        scheduler.spawn(_recorded(
            ThreadExec(world, tid, mode=mode).run_ops(ops), digests[-1]))
    stats = scheduler.run()
    case = {
        "events": [digest.hexdigest() for digest in digests],
        "ticks": stats.ticks,
        "work": stats.work_done,
        "blocked_ticks": stats.blocked_ticks,
        "lock_acquires": world.lock_manager.stats.acquires,
        "stm_commits": world.stm.stats.commits,
        "stm_aborts": world.stm.stats.aborts,
        "checked": world.checker.checked if world.checker else 0,
        "heap": heap_fingerprint(world),
    }
    if world.race is not None:
        case["races"] = len(world.race.races)
    if world.auditor is not None:
        case["instances"] = len(world.auditor.instances)
        case["cycle"] = world.auditor.find_cycle()
    return case


def benchmark_cases():
    for name, spec in ALL_BENCHMARKS.items():
        for config in CONFIGS:
            for setting in spec.settings:
                yield f"{name}/{config}/{setting}", (spec, config, setting)


def run_benchmark_case(spec, config, setting) -> Dict[str, object]:
    world, mode = build_world(spec, config, check=True)
    schedules = spec.schedule(setting, THREADS, N_OPS, seed=SEED)
    return run_case(world, mode, schedules, Scheduler(ncores=NCORES))


def run_audited_case() -> Dict[str, object]:
    """Race detector and serializability auditor both armed."""
    world, mode = build_world(ALL_BENCHMARKS["hashtable"], "fine+coarse",
                              audit=True, race=RaceDetector())
    schedules = ALL_BENCHMARKS["hashtable"].schedule("high", THREADS, N_OPS,
                                                     seed=SEED)
    return run_case(world, mode, schedules, Scheduler(ncores=NCORES))


def run_nested_case() -> Dict[str, object]:
    """``examples/nested_atomic.py``: inner sections are dynamic no-ops."""
    example = Path(__file__).parent.parent / "examples" / "nested_atomic.py"
    result = infer_locks(runpy.run_path(str(example))["SOURCE"], k=9)
    world = World(transform_with_inference(result), pointsto=result.pointsto,
                  check=True, audit=True)
    run_seq(world, "main")
    la, lb = (Loc(obj, None) for obj in world.heap.objects.values()
              if obj.label == "account")
    schedules = [[("transfer", (la, lb, 5))] * 4,
                 [("transfer", (lb, la, 5))] * 4,
                 [("deposit", (la, 1))] * 4]
    return run_case(world, "locks", schedules, Scheduler(ncores=4))


SCENARIOS = {
    "audited/hashtable-high": run_audited_case,
    "nested/transfer": run_nested_case,
}


def compute() -> Dict[str, Dict[str, object]]:
    cases = {label: run_benchmark_case(*args)
             for label, args in benchmark_cases()}
    for label, run in SCENARIOS.items():
        cases[label] = run()
    return cases


if __name__ == "__main__":
    FIXTURE.write_text(json.dumps(compute(), indent=1, sort_keys=True) + "\n")
    print(f"wrote {FIXTURE}")
