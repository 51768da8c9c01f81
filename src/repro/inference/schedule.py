"""Bottom-up scheduling of summary computation.

The engine's function summaries depend only on (transitive) callees, so
instead of discovering them lazily from inside section dataflows, the
scheduler walks the call-graph condensation (:mod:`repro.cfg.callgraph`)
bottom-up and solves every relevant access summary level by level, in
one process: the same engine operations the lazy path would eventually
perform, issued in reverse topological order.  Section analyses
afterwards find every summary already at its fixpoint, and a level
boundary is a point where every table entry is final — which is what
crash-safe checkpointing needs: ``LockInference`` takes this order
exactly when ``checkpoint_every`` asks for checkpoints.

The walk leaves extra entries behind compared to pure laziness (a
section region may not reach every call site of its function), but every
entry holds its least-fixpoint value, so section lock sets are unchanged —
the golden-equivalence suite pins ``bottom-up ≡ lazy ≡ reference engine``.
"""

from __future__ import annotations

import time
from dataclasses import dataclass, field
from typing import Dict, List, Optional, Sequence, Set

from ..cfg import CallSchedule, build_schedule
from ..obs import trace
from ..obs.events import envelope
from .budget import CheckpointPolicy
from .solver import SummarySolver


@dataclass
class PrecomputeReport:
    """What the scheduler did: level/SCC structure and timings."""

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

    def flush(self, number: int) -> None:
        """Flush the latest converged snapshot plus the progress cursor."""
        if self.disk is None or not self.since_flush:
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


def precompute_summaries(
    engine: SummarySolver,
    schedule: Optional[CallSchedule] = None,
    targets: Optional[Set[str]] = None,
    checkpoint: Optional[CheckpointPolicy] = None,
) -> PrecomputeReport:
    """Solve access summaries for *targets* bottom-up, level by level.

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
        scc_count=len(schedule.sccs),
        level_count=len(schedule.levels),
        funcs_total=len(engine.program.functions),
    )
    # pull persisted bundles in first: warm functions then drop out of the
    # pending filter below and only the dirty SCC cone is actually solved
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
    with trace.span("schedule.precompute", "inference",
                    targets=len(targets)):
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
                report.level_times.append(
                    time.perf_counter() - level_started)
                ckpt.level_done(number)
    ckpt.finish()
    return report
