"""Bottom-up, optionally parallel scheduling of summary computation.

The engine's function summaries depend only on (transitive) callees, so
instead of discovering them lazily from inside section dataflows, the
scheduler walks the call-graph condensation (:mod:`repro.cfg.callgraph`)
bottom-up and solves every relevant access summary level by level:

* **serial** (``jobs=1``, the default): the same engine operations the lazy
  path would eventually perform, issued in reverse topological order — the
  result table is identical, section analyses afterwards find every
  summary already at its fixpoint;
* **parallel** (``jobs>1``): SCCs on one level cannot call each other, so
  each level fans out over a ``ProcessPoolExecutor``.  The pool uses the
  ``fork`` start method and is created *after* the engine exists, so every
  worker inherits the interned program, CFGs, and pointer results through
  the fork snapshot — per-task payloads carry only the summary entries
  accumulated since the fork (filtered to the SCC's cone), and workers
  return just the entries they newly computed.  Results are merged in SCC
  order, so the merged table is a pure function of the program.

Both paths leave extra entries behind compared to pure laziness (a
section region may not reach every call site of its function), but every
entry holds its least-fixpoint value, so section lock sets are unchanged —
the golden-equivalence suite pins ``jobs=4 ≡ jobs=1 ≡ reference engine``.
"""

from __future__ import annotations

import os
import time
from concurrent.futures import ProcessPoolExecutor
from dataclasses import dataclass, field
from typing import Dict, List, Optional, Sequence, Set

from ..cfg import CallSchedule, build_schedule
from ..lang import ir
from ..obs import trace
from ..obs.events import envelope
from ..sim.deadline import DeadlineExceeded
from .budget import BudgetExhausted, CheckpointPolicy
from .solver import STAT_NAMES, SummarySolver

# The engine a forked worker process inherits; set in the parent
# immediately before pool creation (fork start method only).
_FORKED_ENGINE: Optional[SummarySolver] = None

# A level fans out only when its summed instruction weight clears this
# bar; below it the per-task payload pickling and dispatch latency exceed
# the solve itself and the parent runs the level serially.
MIN_PARALLEL_WEIGHT = 400

# Worker counters are folded back into the parent after each chunk as
# deltas over ``STAT_NAMES`` (the section counters cannot move in a
# worker, which only solves summaries, so theirs is 0).  The boundary
# this crosses is ID-free by construction: chunk payloads and result
# entries carry ``SummaryResult``s over hash-consed terms, never
# fact-interner IDs (those are process-local — each worker's engine grows
# its own interner), so no remap step is needed on merge.


@dataclass
class PrecomputeReport:
    """What the scheduler did: level/SCC structure and timings."""

    jobs: int = 1
    scc_count: int = 0
    level_count: int = 0
    sccs_run: int = 0
    funcs_total: int = 0
    funcs_targeted: int = 0
    level_times: List[float] = field(default_factory=list)
    scc_times: Dict[str, float] = field(default_factory=dict)
    # crash-safe checkpointing: flushes performed this run, the cursor a
    # previous interrupted run left behind (None = fresh start), and how
    # many targeted levels were already warm (bundle-satisfied) on entry
    checkpoints: int = 0
    resumed_from_level: Optional[int] = None
    levels_skipped: int = 0


class _Checkpointer:
    """Level-boundary checkpoint driver for ``precompute_summaries``.

    At every completed level the engine's summary table holds only final
    values (bottom-up scheduling), so ``mark_converged`` is always taken
    there; every ``policy.every``-th completed level with work, the
    converged snapshot is flushed through ``store_dirty`` and the
    ``progress.json`` cursor is rewritten atomically.  With no policy (or
    no disk cache) everything degrades to the safe-point bookkeeping.
    """

    def __init__(self, engine: SummarySolver, schedule: CallSchedule,
                 policy: Optional[CheckpointPolicy],
                 report: PrecomputeReport) -> None:
        self.engine = engine
        self.policy = policy
        self.disk = engine.disk_cache if policy is not None else None
        self.report = report
        self.levels_total = len(schedule.levels)
        self.since_flush = 0
        if self.disk is not None:
            # checkpoint snapshots must only ever hold drained-worklist
            # (final) summaries; enable the engine-side tracking
            engine.track_finals = True

    def level_done(self, number: int) -> None:
        """A level with pending work finished: safe point, maybe flush."""
        self.engine.mark_converged()
        if self.disk is None:
            return
        self.since_flush += 1
        if self.since_flush >= max(1, self.policy.every):
            self.flush(number)

    def flush(self, number: int, force: bool = False) -> None:
        """Flush the latest converged snapshot plus the progress cursor.

        *force* flushes even between level boundaries — the unwind path
        uses it after draining a partially merged level.
        """
        if self.disk is None or not (self.since_flush or force):
            return
        items, dirty = self.engine.converged_snapshot()
        if items is None:
            return
        with trace.timed("schedule.checkpoint", "inference", level=number):
            stored = self.disk.store_dirty(
                self.engine, items=items.items(), dirty_funcs=dirty)
            self.disk.store_progress(
                level=number, levels=self.levels_total, bundles=stored)
        self.since_flush = 0
        self.report.checkpoints += 1
        tracer = trace.get_tracer()
        if tracer.enabled:
            tracer.event(envelope("checkpoint", level=number,
                                  bundles=stored))
        if self.policy.on_checkpoint is not None:
            self.policy.on_checkpoint(number)

    def finish(self) -> None:
        """Uninterrupted completion: flush any tail, drop the cursor."""
        self.engine.mark_converged()
        if self.disk is None:
            return
        self.flush(self.levels_total - 1)
        self.disk.clear_progress()


def relevant_functions(engine: SummarySolver,
                       schedule: CallSchedule) -> Set[str]:
    """Functions whose summaries a section analysis could demand.

    A section's dataflow demands summaries only at call nodes, so the
    working set is the cones of the section function's *callees* — the
    function's own access summary is demanded only if it is recursive.
    Matching the lazy demand set matters for the warm path: these are the
    summaries a serial run persists, so a warm precompute that targets the
    same set hits disk instead of re-solving.
    """
    funcs: Set[str] = set()
    for func_name, cfg in engine.cfgs.items():
        if not cfg.sections or func_name not in schedule.func_scc:
            continue
        idx = schedule.func_scc[func_name]
        for callee in schedule.scc_callees[idx]:
            funcs |= schedule.reachable(callee)
        if schedule.recursive[idx]:
            funcs |= set(schedule.sccs[idx])
    return funcs


def _scc_label(funcs: Sequence[str]) -> str:
    if len(funcs) == 1:
        return funcs[0]
    return f"{funcs[0]}(+{len(funcs) - 1})"


def effective_jobs(jobs: int) -> int:
    """Clamp a worker request to the CPUs this process may run on.

    Extra workers on an oversubscribed box are pure IPC overhead; with one
    usable core the scheduler degrades to the serial bottom-up order,
    which still beats the lazy path by skipping summary re-runs.
    """
    try:
        cores = len(os.sched_getaffinity(0))
    except (AttributeError, OSError):
        cores = os.cpu_count() or 1
    return max(1, min(jobs, cores))


def precompute_summaries(
    engine: SummarySolver,
    schedule: Optional[CallSchedule] = None,
    jobs: int = 1,
    targets: Optional[Set[str]] = None,
    checkpoint: Optional[CheckpointPolicy] = None,
) -> PrecomputeReport:
    """Solve access summaries for *targets* bottom-up; fan levels out over
    *jobs* worker processes when ``jobs > 1``.

    *targets* defaults to every section-reachable function; functions
    whose access summary is already present (e.g. loaded from the disk
    cache) are skipped, which is what restricts an incremental re-run to
    the dirty SCC cone.

    With a :class:`CheckpointPolicy` (and a disk cache on the engine),
    converged bundles are flushed every ``checkpoint.every`` solved
    levels together with an atomic ``progress.json`` cursor; a rerun
    after SIGKILL then finds the flushed bundles warm, skips their
    levels, and — by the cone-hash discipline — produces a result
    tick-identical to an uninterrupted run.
    """
    if schedule is None:
        schedule = build_schedule(engine.program)
    if targets is None:
        targets = relevant_functions(engine, schedule)
    report = PrecomputeReport(
        jobs=max(1, jobs),
        scc_count=len(schedule.sccs),
        level_count=len(schedule.levels),
        funcs_total=len(engine.program.functions),
    )
    # pull persisted bundles in first (in the parent, so a later fork shares
    # them): warm functions then drop out of the pending filter below and
    # only the dirty SCC cone is actually solved
    engine.preload_bundles(sorted(targets))
    # an SCC needs a solve only if a target member lacks its access summary
    pending: List[List[int]] = []
    for level in schedule.levels:
        todo = [
            idx for idx in sorted(level)
            if any(
                name in targets and not engine.has_summary(("acc", name))
                for name in schedule.sccs[idx]
            )
        ]
        pending.append(todo)
    report.funcs_targeted = sum(
        len(schedule.sccs[idx]) for level in pending for idx in level
    )
    # targeted levels whose members were all bundle-satisfied on entry —
    # exactly what a resume after a checkpoint gets for free
    report.levels_skipped = sum(
        1 for level, todo in zip(schedule.levels, pending)
        if not todo and any(
            name in targets for idx in level for name in schedule.sccs[idx])
    )
    ckpt = _Checkpointer(engine, schedule, checkpoint, report)
    if ckpt.disk is not None:
        progress = ckpt.disk.load_progress()
        if progress is not None:
            report.resumed_from_level = progress.get("level")
            tracer = trace.get_tracer()
            if tracer.enabled:
                tracer.event(envelope(
                    "resume", level=int(progress.get("level", -1)),
                    levels_skipped=report.levels_skipped))
    jobs = effective_jobs(jobs)
    report.jobs = jobs
    with trace.span("schedule.precompute", "inference", jobs=jobs,
                    targets=len(targets)):
        if jobs <= 1:
            _run_serial(engine, schedule, pending, report, ckpt)
        else:
            _run_parallel(engine, schedule, pending, jobs, report, ckpt)
    ckpt.finish()
    return report


def _run_serial(engine: SummarySolver, schedule: CallSchedule,
                pending: List[List[int]], report: PrecomputeReport,
                ckpt: _Checkpointer) -> None:
    for number, level in enumerate(pending):
        level_started = time.perf_counter()
        engine.poll()  # cooperative deadline/budget between levels
        for idx in level:
            label = _scc_label(schedule.sccs[idx])
            with trace.timed("schedule.scc", "inference", scc=label,
                             level=number) as scc_span:
                engine.precompute_funcs(schedule.sccs[idx])
            report.scc_times[label] = scc_span.duration
            report.sccs_run += 1
        if level:
            report.level_times.append(time.perf_counter() - level_started)
            ckpt.level_done(number)


def _scc_weight(engine: SummarySolver, funcs: Sequence[str]) -> int:
    """Instruction count of an SCC: the fan-out cost model's work proxy."""
    total = 0
    for name in funcs:
        func = engine.program.functions.get(name)
        if func is not None:
            total += sum(1 for _ in ir.walk_instrs(func.body))
    return total


def _chunk_level(engine: SummarySolver, schedule: CallSchedule,
                 level: List[int], jobs: int) -> List[List[int]]:
    """Partition a level's SCCs into at most *jobs* weight-balanced chunks.

    Greedy longest-processing-time assignment; chunks keep their SCCs in
    ascending index order and the chunk list itself is deterministic, so
    the parent-side merge order is a pure function of the program.
    """
    weighted = sorted(
        ((_scc_weight(engine, schedule.sccs[idx]), idx) for idx in level),
        reverse=True,
    )
    bins: List[List[int]] = [[] for _ in range(min(jobs, len(level)))]
    loads = [0] * len(bins)
    for weight, idx in weighted:
        target = loads.index(min(loads))
        bins[target].append(idx)
        loads[target] += weight
    return [sorted(chunk) for chunk in bins if chunk]


def _solve_scc(payload: Dict[str, object]) -> Dict[str, object]:
    """Worker: solve one chunk of same-level SCCs against the forked
    engine snapshot.

    The payload's ``summaries`` are the entries the parent accumulated
    since the fork (restricted to the chunk's cones); everything older is
    already in this process's memory.  Returns only entries this task
    added or changed, so the parent merge is proportional to new work.
    """
    engine = _FORKED_ENGINE
    assert engine is not None, "worker outside a fork-scheduled precompute"
    tracer = trace.get_tracer()
    if tracer.enabled:
        # the fork snapshot carried the parent's span buffer along;
        # discard it so this task ships only its own spans
        tracer.drain()
    engine.import_summaries(payload["summaries"])
    before = dict(engine.summary_items())
    stats_before = {name: engine.stats[name] for name in STAT_NAMES}
    with trace.timed("schedule.chunk", "inference",
                     funcs=len(payload["funcs"])) as chunk_span:
        engine.precompute_funcs(payload["funcs"])
    entries = [
        (key, value)
        for key, value in engine.summary_items()
        if before.get(key) != value
    ]
    return {
        "entries": entries,
        "stats": {
            name: engine.stats[name] - stats_before[name]
            for name in STAT_NAMES
        },
        "elapsed": chunk_span.duration,
        "spans": tracer.drain() if tracer.enabled else [],
    }


def _merge_outcome(engine: SummarySolver, delta: Dict[tuple, object],
                   report: PrecomputeReport, schedule: CallSchedule,
                   chunk: List[int], outcome: Dict[str, object]) -> None:
    """Adopt one worker chunk's result into the parent engine."""
    engine.import_summaries(outcome["entries"])
    for key, value in outcome["entries"]:
        delta[key] = value
    for name, count in outcome["stats"].items():
        engine.stats[name] += count
    tracer = trace.get_tracer()
    if outcome.get("spans") and tracer.enabled:
        tracer.adopt(outcome["spans"])
    label = _scc_label(schedule.sccs[chunk[0]])
    if len(chunk) > 1:
        label += f"[chunk of {len(chunk)}]"
    report.scc_times[label] = outcome["elapsed"]
    report.sccs_run += len(chunk)


def _drain_finished(engine: SummarySolver, schedule: CallSchedule,
                    delta: Dict[tuple, object], report: PrecomputeReport,
                    futures, ckpt: _Checkpointer, number: int) -> None:
    """Deadline/budget expiry mid-merge must not discard the level's
    completed chunks: every finished future holds fully solved (hence
    final) SCC summaries.  Pull them into the table and checkpoint before
    the exception unwinds; cancel whatever has not started.
    """
    for chunk, future in futures:
        if not future.done():
            future.cancel()
            continue
        try:
            outcome = future.result()
        except Exception:
            continue  # the chunk that raised (or a sibling that also hit
            # the budget); nothing final to adopt from it
        _merge_outcome(engine, delta, report, schedule, chunk, outcome)
    # drained entries are per-SCC final: worklists in their workers drained
    engine.mark_converged()
    ckpt.flush(number, force=True)


def _run_parallel(engine: SummarySolver, schedule: CallSchedule,
                  pending: List[List[int]], jobs: int,
                  report: PrecomputeReport, ckpt: _Checkpointer) -> None:
    import multiprocessing

    global _FORKED_ENGINE
    if "fork" not in multiprocessing.get_all_start_methods():
        # no fork (e.g. Windows): the snapshot trick is unavailable, fall
        # back to the serial schedule rather than pickling whole programs
        _run_serial(engine, schedule, pending, report, ckpt)
        return
    _FORKED_ENGINE = engine
    # entries created after the fork snapshot; parents of later levels
    # ship these (cone-filtered) to whichever worker picks the task up
    delta: Dict[tuple, object] = {}
    pool = None
    try:
        for number, level in enumerate(pending):
            if not level:
                continue
            engine.poll()  # parent-side poll; workers poll on their own
            level_started = time.perf_counter()
            weight = sum(
                _scc_weight(engine, schedule.sccs[idx]) for idx in level)
            if len(level) == 1 or weight < MIN_PARALLEL_WEIGHT:
                # too little to overlap: run in the parent, skip the IPC
                for idx in level:
                    started = time.perf_counter()
                    before = dict(engine.summary_items())
                    engine.precompute_funcs(schedule.sccs[idx])
                    for key, value in engine.summary_items():
                        if before.get(key) != value:
                            delta[key] = value
                    report.scc_times[_scc_label(schedule.sccs[idx])] = (
                        time.perf_counter() - started)
                    report.sccs_run += 1
                report.level_times.append(
                    time.perf_counter() - level_started)
                ckpt.level_done(number)
                continue
            if pool is None:
                # everything merged so far rides in the fork snapshot, so
                # only entries younger than the pool need shipping
                pool = ProcessPoolExecutor(
                    max_workers=jobs,
                    mp_context=multiprocessing.get_context("fork"),
                )
                delta.clear()
            futures = []
            for chunk in _chunk_level(engine, schedule, level, jobs):
                cone: Set[str] = set()
                funcs: List[str] = []
                for idx in chunk:
                    cone |= schedule.reachable(idx)
                    funcs.extend(schedule.sccs[idx])
                payload = {
                    "funcs": funcs,
                    "summaries": [
                        (key, value) for key, value in delta.items()
                        if key[1] in cone
                    ],
                }
                futures.append((chunk, pool.submit(_solve_scc, payload)))
            tracer = trace.get_tracer()
            if tracer.enabled:
                tracer.instant("schedule.fan-out", "inference",
                               chunks=len(futures), sccs=len(level))
            with trace.span("schedule.merge", "inference",
                            chunks=len(futures)):
                merged = 0
                try:
                    for chunk, future in futures:
                        outcome = future.result()
                        _merge_outcome(engine, delta, report, schedule,
                                       chunk, outcome)
                        merged += 1
                except (DeadlineExceeded, BudgetExhausted):
                    # the raising chunk is futures[merged]; salvage every
                    # *other* unmerged chunk that did finish, then unwind
                    _drain_finished(
                        engine, schedule, delta, report,
                        futures[merged + 1:], ckpt, number)
                    raise
            report.level_times.append(time.perf_counter() - level_started)
            ckpt.level_done(number)
    finally:
        if pool is not None:
            pool.shutdown(wait=True)
        _FORKED_ENGINE = None
