"""The summary fixpoint both engines share.

Function summaries (see :mod:`repro.inference.transfer` for what they
mean) are solved bottom-up over the call-graph condensation
(:mod:`repro.cfg.callgraph`): before a section is analysed, the access
summaries of every function its call nodes can reach are solved one SCC at
a time, callees first, so each summary is computed after everything it
reads is final.  What the walk cannot precompute goes through a worklist
with dependency re-enqueueing: mutual recursion inside one SCC, and the
transfer summaries keyed by the caller's facts, which exist only once a
dataflow asks for them.  A dataflow run that reads a summary registers its
requester under the summary's key, and a summary whose value moves
re-enqueues every summary that read it.  Both lattices are finite thanks to
k-limiting, so this terminates.

:class:`SummarySolver` owns that table and everything around it that does
not depend on how a fact set is represented — the walk, disk-bundle
loading, checkpoint flushes, the safe-point snapshots of anytime analysis,
the budget/deadline poll, lock assembly, the solver counters.  A driver
adds the dataflow itself: one worklist loop over a function's CFG (a
section region is the same loop restricted to the section's nodes) and the
loop that re-runs a section until the summaries it read are stable.  An
optional disk cache (:mod:`repro.inference.diskcache`) serves whole
summary bundles and section lock sets keyed by content hashes of the
function's SCC cone.
"""

from __future__ import annotations

from collections import deque
from typing import Callable, Dict, FrozenSet, Iterable, Optional, Set, Tuple

from ..cfg import CFG, CallSchedule, Node, SectionInfo, build_schedule
from ..lang import ir
from ..locks.effects import RW
from ..locks.paperlock import Lock, coarse_lock, fine_lock, global_lock, reduce_locks
from ..obs.events import envelope
from ..obs.trace import get_tracer, timed
from ..pointer.aliasing import AliasOracle
from ..pointer.steensgaard import PointsTo
from ..sim.deadline import check_deadline
from .engine import SectionLocks, SummaryResult
from .libspec import SpecLibrary
from .transfer import Emissions, TermSet, TransferSpec, is_call

# How many worklist pops between cooperative-deadline polls.  A caller
# that armed :func:`repro.sim.deadline.set_deadline` (the serve worker's
# per-request budget, or the executor's off-main-thread cell timeout) gets
# a :class:`~repro.sim.deadline.DeadlineExceeded` from inside the solve;
# with no deadline armed the poll is one thread-local read.
DEADLINE_POLL_EVERY = 128

# The solver counters, the keys of ``SummarySolver.stats``.
# ``dataflow_steps`` counts executed node transfers.  The kernel splits
# them three ways — a call node (``call_transfers``), a statement node
# served entirely by masks/memos (``mask_hits``), a statement node that
# had to build at least one per-term memo entry (``mask_fallbacks``); the
# reference engine moves none of those three.
STAT_NAMES = (
    "dataflow_steps",
    "summary_runs",
    "section_reruns",
    "call_transfers",
    "mask_hits",
    "mask_fallbacks",
    "summaries_from_disk",
    "sections_from_disk",
)
# Read only by benchmarks/perf/wl_analysis.py, which may not change in the
# PR that deleted the call cache; they stay in ``stats`` at 0 until a
# benchmark PR drops its two call_cache metrics.
_RETIRED_STAT_NAMES = ("transfer_cache_hits", "transfer_cache_stale")


class Checkpointer:
    """Crash-safe checkpointing of the walk's level boundaries.

    When the walk finishes a level with work, every summary in the table
    is final (all callees live in lower levels), so every *every*-th such
    level the converged snapshot is flushed through ``store_dirty`` and
    the ``progress.json`` cursor is rewritten atomically;
    *on_checkpoint* (if set) then runs with the level number — a hook for
    tests and operational tooling.  A rerun after SIGKILL finds the
    flushed bundles warm and the walk skips their levels; by the cone-hash
    discipline its result is identical to an uninterrupted run.
    ``LockInference`` attaches one to a solver that has a disk cache when
    ``checkpoint_every`` asks for it.
    """

    def __init__(self, solver: "SummarySolver", every: int,
                 on_checkpoint: Optional[Callable[[int], None]] = None,
                 ) -> None:
        self.solver = solver
        self.every = max(1, every)
        self.on_checkpoint = on_checkpoint
        self.disk = solver.disk_cache
        self.since_flush = 0
        self.checkpoints = 0
        # levels the walk reached with nothing left to solve because
        # bundles loaded from disk already held their summaries
        self.levels_skipped = 0
        progress = self.disk.load_progress()
        self.resumed_from_level = (None if progress is None
                                   else int(progress.get("level", -1)))
        # checkpoint snapshots must only ever hold drained-worklist (final)
        # summaries
        solver.track_finals = True

    def level_done(self, level: int) -> None:
        self.since_flush += 1
        if self.since_flush < self.every:
            return
        items, dirty = self.solver.converged_snapshot()
        with timed("schedule.checkpoint", "inference", level=level):
            stored = self.disk.store_dirty(
                self.solver, items=items.items(), dirty_funcs=dirty)
            self.disk.store_progress(
                level=level, levels=len(self.solver.schedule.levels),
                bundles=stored)
        self.since_flush = 0
        self.checkpoints += 1
        tracer = get_tracer()
        if tracer.enabled:
            tracer.event(envelope("checkpoint", level=level, bundles=stored))
        if self.on_checkpoint is not None:
            self.on_checkpoint(level)

    def finish(self) -> None:
        """Uninterrupted completion (the run's own store has persisted
        everything): drop the cursor, report a resume."""
        self.disk.clear_progress()
        tracer = get_tracer()
        if self.resumed_from_level is not None and tracer.enabled:
            tracer.event(envelope("resume", level=self.resumed_from_level,
                                  levels_skipped=self.levels_skipped))


class Run:
    """One dataflow run's mutable side: the coarse locks it emits and the
    summary demands it registers for its requester."""

    __slots__ = ("solver", "requester", "coarse")

    def __init__(self, solver: "SummarySolver", requester: tuple) -> None:
        self.solver = solver
        self.requester = requester
        self.coarse: Emissions = set()

    def summary(self, key: tuple) -> SummaryResult:
        return self.solver._demand_summary(key, self.requester)


class SummarySolver:
    """Whole-program lock inference for one (k, use_effects) configuration,
    minus the dataflow representation a driver subclass supplies:
    ``_dataflow`` and ``_converge_section``."""

    # bitset-kernel profile figures; the reference engine has neither
    fact_terms = 0
    peak_bits = 0

    def __init__(
        self,
        program: ir.LoweredProgram,
        cfgs: Dict[str, CFG],
        pointsto: PointsTo,
        k: int = 3,
        use_effects: bool = True,
        specs: Optional[SpecLibrary] = None,
        oracle: Optional[AliasOracle] = None,
        disk_cache=None,
        budget=None,
    ) -> None:
        self.program = program
        self.cfgs = cfgs
        self.pointsto = pointsto
        self.oracle = oracle if oracle is not None else AliasOracle(pointsto)
        self.k = k
        self.use_effects = use_effects
        self.spec = TransferSpec(program, pointsto, self.oracle, specs, k)
        # the persistent cross-run cache (inference.diskcache), or None
        self.disk_cache = disk_cache
        self._summaries: Dict[tuple, SummaryResult] = {}
        self._deps: Dict[tuple, Set[tuple]] = {}
        self._worklist: deque = deque()
        self._queued: Set[tuple] = set()
        # disk-cache bookkeeping: functions whose bundle was already looked
        # up, functions served (at least partially) from disk, and functions
        # whose summary set gained or changed entries since (re-store set)
        self._bundle_checked: Set[str] = set()
        self.loaded_funcs: Set[str] = set()
        self.computed_funcs: Set[str] = set()
        self.dirty_funcs: Set[str] = set()
        # anytime analysis: an optional AnalysisBudget polled alongside the
        # cooperative deadline, and a snapshot of the summary table taken at
        # safe points (worklist drained) so a partial unwind only ever
        # persists *final* summaries — mid-fixpoint values are below the
        # fixpoint (= fewer locks) and must never reach the disk cache
        self.budget = budget
        self.track_finals = False
        self._final_items: Optional[Dict[tuple, SummaryResult]] = None
        self._final_dirty: Set[str] = set()
        self._backward_ranks: Dict[str, Dict[int, int]] = {}
        self._schedule: Optional[CallSchedule] = None
        self.checkpointer: Optional[Checkpointer] = None
        self._tracer = get_tracer()
        self.stats: Dict[str, int] = dict.fromkeys(
            STAT_NAMES + _RETIRED_STAT_NAMES, 0)

    # ------------------------------------------------------------------
    # driver hooks
    # ------------------------------------------------------------------

    def _dataflow(self, func_name: str, nodes: Iterable[Node], entry: Node,
                  run: Run, with_g: bool = True, exit: Optional[Node] = None,
                  seed: Optional[TermSet] = None) -> TermSet:
        """Backward fixpoint over *nodes* of *func_name*'s CFG; the IN set
        of *entry*.  A whole-function run passes the function's *exit*,
        which holds *seed* and is never transferred; a region run passes
        neither, and edges leaving *nodes* carry nothing."""
        raise NotImplementedError

    def _converge_section(self, func_name: str, section: SectionInfo,
                          requester: tuple) -> Tuple[TermSet, Emissions]:
        """Run the section's region until the summaries it read are at
        their fixpoint; the entry terms and coarse emissions of the last
        run."""
        raise NotImplementedError

    # ------------------------------------------------------------------
    # public API
    # ------------------------------------------------------------------

    def poll(self) -> None:
        """One budget/deadline poll: raises ``DeadlineExceeded`` or
        ``BudgetExhausted`` the moment either ceiling is hit."""
        check_deadline()
        if self.budget is not None:
            self.budget.check(self.stats["dataflow_steps"])

    def mark_converged(self) -> None:
        """Snapshot the summary table at a drained-worklist safe point.

        Called at the level boundaries of the walk and after each
        converged section.  Only these snapshots may be persisted by
        a partial (budget-exhausted) unwind; anything newer may contain
        below-fixpoint values.  No-op unless ``track_finals`` is set, so
        full runs pay nothing.
        """
        if not self.track_finals:
            return
        self._final_items = dict(self._summaries)
        self._final_dirty = set(self.dirty_funcs)

    def converged_snapshot(self):
        """The latest safe-point snapshot as ``(items, dirty)``.

        ``items`` is ``None`` when no safe point has been reached yet.
        """
        return self._final_items, self._final_dirty

    def analyze_section(self, func_name: str, section: SectionInfo) -> SectionLocks:
        """Infer the lock set protecting one atomic section."""
        self.poll()  # at least one poll per section, however small
        with self._tracer.span("section.analyze", "inference",
                               func=func_name, section=section.section_id):
            result = self._analyze_section(func_name, section)
        # the section converged, so the worklist is drained and every
        # summary in the table is at its fixpoint: a safe point
        self.mark_converged()
        if self._tracer.enabled:
            self._tracer.instant(
                "locks-chosen", "inference", section=section.section_id,
                func=func_name, k=self.k,
                locks=sorted(str(lock) for lock in result.locks))
        return result

    def _analyze_section(self, func_name: str, section: SectionInfo) -> SectionLocks:
        disk = self.disk_cache
        if disk is not None:
            locks = disk.load_section(func_name, section.section_id)
            if locks is not None:
                self.stats["sections_from_disk"] += 1
                return SectionLocks(section.section_id, func_name, locks)
        self._walk(section)
        entry_terms, coarse = self._converge_section(
            func_name, section, ("section", section.section_id))
        locks = self._assemble_locks(func_name, entry_terms, coarse)
        if disk is not None:
            disk.store_section(func_name, section.section_id, locks)
        return SectionLocks(section.section_id, func_name, locks)

    def _assemble_locks(self, func_name: str, entry_terms: TermSet,
                        coarse: Emissions) -> FrozenSet[Lock]:
        locks: Set[Lock] = set()
        for cls, eff in coarse:
            eff = eff if self.use_effects else RW
            if cls is None:
                locks.add(global_lock(RW))
            else:
                locks.add(coarse_lock(cls, eff))
        for term, eff in entry_terms.items():
            eff = eff if self.use_effects else RW
            cls = self.oracle.class_of_term(func_name, term)
            locks.add(fine_lock(term, cls, eff, func_name))
        return reduce_locks(locks)

    # ------------------------------------------------------------------
    # summaries
    # ------------------------------------------------------------------

    def _demand_summary(self, key: tuple, requester: tuple) -> SummaryResult:
        self._deps.setdefault(key, set()).add(requester)
        if key not in self._summaries:
            self._summaries[key] = SummaryResult.empty()
            self.dirty_funcs.add(key[1])
            self._enqueue(key)
        return self._summaries[key]

    def preload_bundles(self, funcs: Iterable[str]) -> None:
        """Pull the persisted summaries of *funcs* into the table (each
        function is looked up once; a no-op without a disk cache).

        Loaded entries are final: the cone hash that keyed them guarantees
        every transitive callee is byte-identical, so their fixpoint values
        cannot move — they are never enqueued, and the solver never
        recomputes them.  The walk loads a section's whole callee cone
        before it demands anything, and every summary a solve can demand
        belongs to that cone.
        """
        if self.disk_cache is None:
            return
        for func_name in funcs:
            if func_name in self._bundle_checked:
                continue
            self._bundle_checked.add(func_name)
            bundle = self.disk_cache.load_bundle(func_name)
            if not bundle:
                continue
            loaded = 0
            for bkey, value in bundle.items():
                if bkey not in self._summaries:
                    self._summaries[bkey] = value
                    loaded += 1
            if loaded:
                self.stats["summaries_from_disk"] += loaded
                self.loaded_funcs.add(func_name)

    def _enqueue(self, key: tuple) -> None:
        if key not in self._queued:
            self._queued.add(key)
            self._worklist.append(key)

    def _solve_summaries(self) -> Set[tuple]:
        """Run the summary fixpoint; returns the keys whose value changed."""
        changed: Set[tuple] = set()
        tracer = self._tracer
        while self._worklist:
            self.poll()  # each pop is a whole function dataflow
            key = self._worklist.popleft()
            self._queued.discard(key)
            if tracer.enabled:
                with tracer.span("summary.compute", "inference",
                                 func=key[1], kind=key[0]):
                    result = self._compute_summary(key)
            else:
                result = self._compute_summary(key)
            if result != self._summaries.get(key):
                self._summaries[key] = result
                self.dirty_funcs.add(key[1])
                changed.add(key)
                for dep in self._deps.get(key, ()):
                    if dep[0] not in ("section", "pre"):
                        self._enqueue(dep)
        return changed

    def _compute_summary(self, key: tuple) -> SummaryResult:
        func_name = key[1]
        self.stats["summary_runs"] += 1
        self.computed_funcs.add(func_name)
        cfg = self.cfgs.get(func_name)
        if cfg is None or func_name not in self.program.functions:
            return SummaryResult(coarse=frozenset(((None, RW),)))
        run = Run(self, key)
        if key[0] == "acc":
            seed: TermSet = {}
            with_g = True
        else:  # ("xfer", func, term, eff)
            seed = {key[2]: key[3]}
            with_g = False
        entry = self._dataflow(func_name, cfg.nodes, cfg.entry, run, with_g,
                               cfg.exit, seed)
        return self.spec.summarize(func_name, entry, run.coarse)

    def _backward_rank(self, func_name: str) -> Dict[int, int]:
        """Memoized exit-first priority order for *func_name*'s CFG: runs
        pop nodes in reverse postorder of the reversed CFG, so exit-side
        facts reach their predecessors in one sweep per loop nest."""
        rank = self._backward_ranks.get(func_name)
        if rank is None:
            rank = self.cfgs[func_name].backward_order()
            self._backward_ranks[func_name] = rank
        return rank

    # -- the bottom-up walk ----------------------------------------------

    @property
    def schedule(self) -> CallSchedule:
        """The call-graph condensation the walk follows: the disk cache's
        when it has one, else built once, on first use."""
        if self._schedule is None:
            self._schedule = (getattr(self.disk_cache, "schedule", None)
                              or build_schedule(self.program))
        return self._schedule

    def _walk(self, section: SectionInfo) -> None:
        """Solve the access summaries *section* will read, callees first.

        Those are the callees of the region's call nodes and everything
        they reach.  Their SCCs are solved level by level, so every summary
        a component reads from outside itself is already final: the solve
        iterates only within the component, and each level boundary is a
        safe point.  Components whose summaries are already in the table —
        solved for an earlier section, or loaded from disk — are skipped.
        """
        functions = self.program.functions
        called = {node.instr.rhs.func for node in section.nodes
                  if is_call(node) and node.instr.rhs.func in functions}
        if not called:
            return
        schedule = self.schedule
        cone: Set[str] = set()
        for name in called:
            cone |= schedule.cone_funcs(name)
        self.preload_bundles(sorted(cone))
        levels: Dict[int, Set[int]] = {}
        for name in cone:
            idx = schedule.func_scc[name]
            levels.setdefault(schedule.level_of[idx], set()).add(idx)
        ckpt = self.checkpointer
        for level in sorted(levels):
            todo = [idx for idx in sorted(levels[level])
                    if any(("acc", name) not in self._summaries
                           for name in schedule.sccs[idx])]
            if not todo:
                if ckpt is not None and any(
                        name in self.loaded_funcs
                        for idx in levels[level]
                        for name in schedule.sccs[idx]):
                    ckpt.levels_skipped += 1
                continue
            for idx in todo:
                self.precompute_funcs(schedule.sccs[idx])
            self.mark_converged()
            if ckpt is not None:
                ckpt.level_done(level)

    def precompute_funcs(self, funcs) -> None:
        """Demand and solve the access summaries of one SCC's *funcs*.

        The walk calls it bottom-up, so every summary a member demands from
        outside the component is already at its final value; the solve
        therefore only iterates within the component (mutual recursion)
        and the computed entries are final.
        """
        for func_name in funcs:
            self._demand_summary(("acc", func_name), ("pre", func_name))
        self._solve_summaries()

    def summary_items(self):
        """Snapshot view of the summary table (what the disk cache stores)."""
        return self._summaries.items()
