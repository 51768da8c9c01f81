"""Top-level lock-inference driver: parse → lower → points-to → infer.

:class:`LockInference` wires the whole §4 pipeline together and exposes the
per-section lock sets plus the classification statistics behind the paper's
Figure 7 (fine/coarse × read-only/read-write lock counts).

Two performance-oriented entry points sit alongside it:

* :class:`SharedAnalysis` packages the k-independent front half of the
  pipeline (parse, lower, CFGs, pointer analysis) so a (k, use_effects)
  sweep pays for it once — pass it to :class:`LockInference` instead of
  the raw source (:func:`repro.inference.memo.shared_analysis` keeps one
  per source);
* every run produces an :class:`AnalysisProfile` (phase timers + engine
  counters + intern-table sizes) on ``InferenceResult.profile``, surfaced
  by the CLI's ``--profile`` flag and the analysis-speed benchmark.
"""

from __future__ import annotations

import dataclasses
from dataclasses import dataclass, field
from typing import Dict, List, Optional, Union

from ..cfg import CFG, build_cfgs
from ..lang import ast, ir, lower_program, parse_program
from ..locks.effects import RO, RW
from ..locks.paperlock import Lock, global_lock
from ..locks.terms import interning_stats
from ..obs import trace
from ..obs.events import envelope
from ..pointer.steensgaard import PointsTo
from ..sim.deadline import DeadlineExceeded
from .budget import AnalysisBudget, BudgetExhausted
from .engine import SectionLocks
from .kernel import Engine
from .libspec import SpecLibrary
from .solver import STAT_NAMES, Checkpointer


@dataclass
class LockClassCounts:
    """Figure 7's four lock categories (plus the global lock)."""

    fine_ro: int = 0
    fine_rw: int = 0
    coarse_ro: int = 0
    coarse_rw: int = 0
    global_locks: int = 0

    @property
    def total(self) -> int:
        return (self.fine_ro + self.fine_rw + self.coarse_ro + self.coarse_rw
                + self.global_locks)

    def add(self, lock: Lock) -> None:
        if lock.is_global:
            self.global_locks += 1
        elif lock.is_fine:
            if lock.eff == RO:
                self.fine_ro += 1
            else:
                self.fine_rw += 1
        else:
            if lock.eff == RO:
                self.coarse_ro += 1
            else:
                self.coarse_rw += 1

    def __add__(self, other: "LockClassCounts") -> "LockClassCounts":
        return LockClassCounts(
            self.fine_ro + other.fine_ro,
            self.fine_rw + other.fine_rw,
            self.coarse_ro + other.coarse_ro,
            self.coarse_rw + other.coarse_rw,
            self.global_locks + other.global_locks,
        )


@dataclass
class AnalysisProfile:
    """Phase timers and solver counters for one :meth:`LockInference.run`.

    ``front_time`` covers parse + lower + CFG construction; when a
    :class:`SharedAnalysis` was reused (``front_shared`` is True), it and
    ``pointer_time`` report the shared front half's one-time cost, which a
    sweep pays once, not per configuration.
    Counter semantics: ``dataflow_steps`` counts transfer-function
    executions; on the bitset kernel ``call_transfers`` of them are call
    nodes and ``mask_hits`` / ``mask_fallbacks`` split the statement
    transfers into visits served entirely by precomputed masks/memos vs
    visits that had to build at least one per-term memo entry (the three
    partition the steps), ``summary_runs`` counts whole-function summary
    dataflows, and ``section_reruns`` counts region re-analyses forced by
    a changed summary dependency.  ``fact_terms`` is
    the size of the run's fact interner (each term carries an ro and an rw
    fact ID) and ``peak_bitset_popcount`` the largest converged IN set.
    """

    k: int = 0
    use_effects: bool = True
    front_time: float = 0.0
    front_shared: bool = False
    front_from_disk: bool = False
    pointer_time: float = 0.0
    dataflow_time: float = 0.0
    cache_io_time: float = 0.0
    sections: int = 0
    dataflow_steps: int = 0
    summary_runs: int = 0
    section_reruns: int = 0
    call_transfers: int = 0
    mask_hits: int = 0
    mask_fallbacks: int = 0
    fact_terms: int = 0
    peak_bitset_popcount: int = 0
    summaries_from_disk: int = 0
    sections_from_disk: int = 0
    # the call-graph condensation the summary walk followed
    scc_count: int = 0
    level_count: int = 0
    interned_terms: Dict[str, int] = field(default_factory=dict)
    # anytime analysis: sections coarsened to the global lock and why,
    # plus the checkpoint/resume activity of this run's walk
    degraded_sections: int = 0
    budget_reason: Optional[str] = None
    checkpoints: int = 0
    levels_skipped: int = 0
    resumed_from_level: Optional[int] = None

    @property
    def total_time(self) -> float:
        return (self.front_time + self.pointer_time + self.dataflow_time
                + self.cache_io_time)

    @property
    def mask_hit_rate(self) -> float:
        visits = self.mask_hits + self.mask_fallbacks
        return self.mask_hits / visits if visits else 0.0

    def describe(self) -> str:
        shared = " (shared)" if self.front_shared else ""
        if self.front_from_disk:
            shared = " (disk)"
        interned = sum(self.interned_terms.values())
        lines = [
            f"profile (k={self.k},"
            f" effects={'on' if self.use_effects else 'off'}):",
            f"  front (parse+lower+cfg): {self.front_time:.3f}s{shared}",
            f"  pointer analysis:        {self.pointer_time:.3f}s",
            f"  call graph:              {self.scc_count} sccs,"
            f" {self.level_count} levels",
            f"  dataflow:                {self.dataflow_time:.3f}s",
            f"  sections analyzed:       {self.sections}",
            f"  dataflow steps:          {self.dataflow_steps}",
            f"  summary runs:            {self.summary_runs}",
            f"  section reruns:          {self.section_reruns}",
        ]
        if self.mask_hits or self.mask_fallbacks:
            lines.append(
                f"  bitset kernel:           {self.mask_hits} mask hits,"
                f" {self.mask_fallbacks} fallbacks"
                f" ({self.mask_hit_rate:.0%} mask-hit rate),"
                f" {self.fact_terms} fact terms,"
                f" peak IN set {self.peak_bitset_popcount} bits")
        if self.cache_io_time or self.summaries_from_disk or self.sections_from_disk:
            lines.append(
                f"  disk cache:              {self.cache_io_time:.3f}s io,"
                f" {self.summaries_from_disk} summaries,"
                f" {self.sections_from_disk} sections loaded")
        if self.checkpoints or self.resumed_from_level is not None:
            resumed = ("fresh" if self.resumed_from_level is None
                       else f"resumed from level {self.resumed_from_level}")
            lines.append(
                f"  checkpoints:             {self.checkpoints}"
                f" ({resumed}, {self.levels_skipped} levels warm)")
        if self.degraded_sections:
            lines.append(
                f"  degraded sections:       {self.degraded_sections}"
                f" ({self.budget_reason} budget; global lock fallback)")
        lines.append(f"  interned terms:          {interned}")
        return "\n".join(lines)

    def as_dict(self) -> Dict[str, object]:
        """Every field (containers copied) plus the derived ``total_time``."""
        data = dataclasses.asdict(self)
        data["total_time"] = self.total_time
        return data


class SharedAnalysis:
    """The k-independent front half of the pipeline, computed once.

    Parsing, lowering, CFG construction, and the pointer analysis do not
    depend on (k, use_effects), so a configuration sweep can build one
    ``SharedAnalysis`` and hand it to every :class:`LockInference`.

    With *cache_dir* and source text, the whole front half is additionally
    persisted to (and served from) the on-disk analysis cache, keyed by
    the source hash — a warm process skips parse/lower/CFG/pointer work
    entirely (``front_from_disk``).
    """

    def __init__(
        self,
        source: Union[str, ast.Program, ir.LoweredProgram],
        cache_dir: Optional[str] = None,
    ):
        self.front_from_disk = False
        text = source if isinstance(source, str) and cache_dir else None
        if text is not None:
            from . import diskcache
        with trace.timed("analysis.front", "inference") as front_span:
            if text is not None:
                cached = diskcache.load_front(cache_dir, text)
                if cached is not None:
                    self.program, self.cfgs, self.pointsto = cached
                    self.front_from_disk = True
            if not self.front_from_disk:
                if isinstance(source, str):
                    source = parse_program(source)
                if isinstance(source, ast.Program):
                    source = lower_program(source)
                self.program: ir.LoweredProgram = source
                self.cfgs: Dict[str, CFG] = build_cfgs(self.program)
        self.front_time = front_span.duration
        if self.front_from_disk:
            self.pointer_time = 0.0
            return

        with trace.timed("analysis.pointer", "inference") as pointer_span:
            self.pointsto: PointsTo = PointsTo(self.program).analyze()
        self.pointer_time = pointer_span.duration
        if text is not None:
            # memoize the pointer fingerprint onto the instance first so
            # the pickled front carries it — warm runs then skip the walk
            diskcache.pointer_fingerprint(self.pointsto)
            diskcache.store_front(cache_dir, text, self.program, self.cfgs,
                                  self.pointsto)


@dataclass
class InferenceResult:
    """Everything the analysis produced for one program and one k."""

    program: ir.LoweredProgram
    cfgs: Dict[str, CFG]
    pointsto: PointsTo
    sections: Dict[str, SectionLocks] = field(default_factory=dict)
    k: int = 3
    use_effects: bool = True
    pointer_time: float = 0.0
    dataflow_time: float = 0.0
    profile: Optional[AnalysisProfile] = None
    # anytime analysis: section_id -> budget axis ("wall"/"steps"/"rss"/
    # "deadline") for every section whose backward pass had not converged
    # when the budget ran out; those sections carry the sound global-lock
    # fallback [(⊤, X)] instead of an inferred set
    degraded_sections: Dict[str, str] = field(default_factory=dict)

    @property
    def partial(self) -> bool:
        return bool(self.degraded_sections)

    @property
    def analysis_time(self) -> float:
        return self.pointer_time + self.dataflow_time

    def locks_for(self, section_id: str) -> SectionLocks:
        return self.sections[section_id]

    def lock_counts(self) -> LockClassCounts:
        counts = LockClassCounts()
        for section in self.sections.values():
            for lock in section.locks:
                counts.add(lock)
        return counts

    def describe(self) -> str:
        lines: List[str] = []
        for section_id, section in sorted(self.sections.items()):
            locks = ", ".join(sorted(str(lock) for lock in section.locks))
            lines.append(f"{section_id}: {{{locks}}}")
        return "\n".join(lines)


class LockInference:
    """Run the paper's analysis on a program for a fixed (k, effects) config.

    *program* may be source text, a parsed/lowered program, or a
    :class:`SharedAnalysis` — in the latter case the front half of the
    pipeline (including the pointer analysis) is reused, not recomputed.

    *cache_dir* roots the persistent cross-run cache
    (:mod:`repro.inference.diskcache`); with it, *checkpoint_every* > 0
    flushes converged summary bundles at the level boundaries of the
    solver's bottom-up walk (without it, ``ValueError``).  Both leave the
    inferred lock sets bit-identical to the cache-less run.
    """

    def __init__(
        self,
        program: Union[str, ast.Program, ir.LoweredProgram, SharedAnalysis],
        k: int = 3,
        use_effects: bool = True,
        specs: Optional[SpecLibrary] = None,
        alias: str = "steensgaard",
        enable_caches: bool = True,
        cache_dir: Optional[str] = None,
        budget: Optional[AnalysisBudget] = None,
        allow_partial: bool = False,
        checkpoint_every: int = 0,
        on_checkpoint=None,
    ) -> None:
        if alias not in ("steensgaard", "andersen"):
            raise ValueError(f"unknown alias analysis {alias!r}")
        # anytime knobs: *budget* bounds the solve; *allow_partial* turns
        # budget/deadline expiry into a sound degraded result instead of
        # an exception; *checkpoint_every* > 0 flushes converged bundles
        # every N solved SCC levels (needs cache_dir); *on_checkpoint* is
        # a per-flush hook for tests and operational tooling
        self.budget = budget
        self.allow_partial = allow_partial
        self.checkpoint_every = max(0, checkpoint_every)
        self.on_checkpoint = on_checkpoint
        # False selects the reference engine, the oracle of the equivalence
        # suites; an oracle must compute its answers, so it gets no cache
        self._engine_cls = Engine
        if not enable_caches:
            from .reference import ReferenceEngine

            self._engine_cls = ReferenceEngine
        self.cache_dir = cache_dir if enable_caches else None
        if self.checkpoint_every and not self.cache_dir:
            raise ValueError("checkpoint_every needs a disk cache "
                             "(cache_dir, with enable_caches)")
        self._front_time = 0.0
        if isinstance(program, SharedAnalysis):
            self.shared: Optional[SharedAnalysis] = program
            self.program = program.program
        elif isinstance(program, str) and self.cache_dir:
            # front-half disk caching needs the source text for its key
            self.shared = SharedAnalysis(program, cache_dir=self.cache_dir)
            self.program = self.shared.program
        else:
            self.shared = None
            with trace.timed("analysis.front", "inference") as front_span:
                if isinstance(program, str):
                    program = parse_program(program)
                if isinstance(program, ast.Program):
                    program = lower_program(program)
            self._front_time = front_span.duration
            self.program = program
        self.k = k
        self.use_effects = use_effects
        self.specs = specs
        self.alias = alias

    def run(self) -> InferenceResult:
        with trace.span("analysis.run", "inference", k=self.k,
                        effects=self.use_effects):
            return self._run()

    def _run(self) -> InferenceResult:
        profile = AnalysisProfile(k=self.k, use_effects=self.use_effects)
        if self.shared is not None:
            pointsto = self.shared.pointsto
            cfgs = self.shared.cfgs
            pointer_time = self.shared.pointer_time
            profile.front_shared = True
            profile.front_from_disk = self.shared.front_from_disk
            profile.front_time = self.shared.front_time
        else:
            with trace.timed("analysis.pointer", "inference") as pointer_span:
                pointsto = PointsTo(self.program).analyze()
            pointer_time = pointer_span.duration
            with trace.timed("analysis.front", "inference",
                             stage="cfg") as cfg_span:
                cfgs = build_cfgs(self.program)
            profile.front_time = self._front_time + cfg_span.duration
        profile.pointer_time = pointer_time

        result = InferenceResult(
            program=self.program,
            cfgs=cfgs,
            pointsto=pointsto,
            k=self.k,
            use_effects=self.use_effects,
            pointer_time=pointer_time,
            profile=profile,
        )
        oracle = None
        if self.alias == "andersen":
            from ..pointer.andersen import Andersen, AndersenOracle

            andersen = Andersen(self.program, pointsto).analyze()
            oracle = AndersenOracle(pointsto, andersen)
        disk = None
        if self.cache_dir:
            from . import diskcache

            with trace.timed("diskcache.open", "diskcache") as open_span:
                disk = diskcache.open_cache(self.cache_dir, self.program,
                                            pointsto, self.k,
                                            self.use_effects,
                                            alias=self.alias)
            profile.cache_io_time += open_span.duration
        if self.budget is not None:
            self.budget.arm()
        engine = self._engine_cls(
            self.program, cfgs, pointsto, k=self.k,
            use_effects=self.use_effects, specs=self.specs, oracle=oracle,
            disk_cache=disk, budget=self.budget)
        if self.allow_partial:
            # a partial unwind may persist converged summaries, so the
            # engine must track its drained-worklist safe points
            engine.track_finals = True
        ckpt = None
        if self.checkpoint_every:
            ckpt = engine.checkpointer = Checkpointer(
                engine, self.checkpoint_every, self.on_checkpoint)
        degraded_reason = None
        with trace.timed("analysis.dataflow", "inference") as flow_span:
            try:
                for func_name, cfg in cfgs.items():
                    for section in cfg.sections.values():
                        result.sections[section.section_id] = \
                            engine.analyze_section(func_name, section)
            except (BudgetExhausted, DeadlineExceeded) as exc:
                if not self.allow_partial:
                    raise
                degraded_reason = (exc.reason if isinstance(
                    exc, BudgetExhausted) else "deadline")
                self._degrade(result, cfgs, degraded_reason)
        result.dataflow_time = flow_span.duration
        if disk is not None:
            with trace.timed("diskcache.store-dirty",
                             "diskcache") as store_span:
                if degraded_reason is None:
                    disk.store_dirty(engine)
                else:
                    # only the last safe-point snapshot may be persisted:
                    # the live table can hold below-fixpoint (unsound to
                    # reuse) values from the interrupted solve
                    items, dirty = engine.converged_snapshot()
                    if items is not None:
                        disk.store_dirty(engine, items=items.items(),
                                         dirty_funcs=dirty)
            profile.cache_io_time += store_span.duration
        if ckpt is not None:
            if degraded_reason is None:
                ckpt.finish()
            profile.checkpoints = ckpt.checkpoints
            profile.levels_skipped = ckpt.levels_skipped
            profile.resumed_from_level = ckpt.resumed_from_level
        profile.dataflow_time = result.dataflow_time
        profile.sections = len(result.sections)
        for name in STAT_NAMES:
            setattr(profile, name, engine.stats[name])
        profile.fact_terms = engine.fact_terms
        profile.peak_bitset_popcount = engine.peak_bits
        profile.scc_count = len(engine.schedule.sccs)
        profile.level_count = len(engine.schedule.levels)
        # the kernel's transfer partition is checked at this collection
        # point (an assert: inert under python -O)
        if isinstance(engine, Engine):
            engine.check_partition()
        profile.interned_terms = interning_stats()
        if degraded_reason is not None:
            profile.degraded_sections = len(result.degraded_sections)
            profile.budget_reason = degraded_reason
        return result

    def _degrade(self, result: InferenceResult, cfgs: Dict[str, CFG],
                 reason: str) -> None:
        """Finish a budget-exhausted run soundly: every section whose
        backward pass has not converged gets the lattice top ``[(⊤, X)]``
        — the global exclusive lock protects every access, so Theorem 1
        holds trivially, and sections analyzed before exhaustion keep
        their exact (fixpoint) lock sets: a pure coarsening.
        """
        fallback = frozenset({global_lock(RW)})
        for func_name, cfg in cfgs.items():
            for section in cfg.sections.values():
                sid = section.section_id
                if sid not in result.sections:
                    result.sections[sid] = SectionLocks(
                        sid, func_name, fallback)
                    result.degraded_sections[sid] = reason
        degraded = len(result.degraded_sections)
        tracer = trace.get_tracer()
        if tracer.enabled:
            tracer.event(envelope("budget-exhausted", reason=reason,
                                  degraded=degraded))


def infer_locks(
    source: Union[str, ast.Program, ir.LoweredProgram],
    k: int = 3,
    use_effects: bool = True,
    specs: Optional[SpecLibrary] = None,
) -> InferenceResult:
    """One-call convenience wrapper around :class:`LockInference`."""
    return LockInference(source, k=k, use_effects=use_effects,
                         specs=specs).run()
