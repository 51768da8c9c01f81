"""Round-robin multi-core discrete-event scheduler.

Threads are generators. Each value they yield is an *event*:

* ``(WORK, n)`` or a bare ``int n`` — consume *n* ticks of CPU on a core
  (n ≥ 1; the thread stays runnable);
* ``(TRY, fn)`` — attempt ``fn()``; if it returns True the thread continues
  (the attempt consumed this tick); if False the thread is *blocked* and the
  scheduler re-attempts ``fn()`` on subsequent ticks without consuming core
  slots until it succeeds;
* ``(TRY, fn, gate)`` — the same, for a predicate whose answer is a pure
  function of one object's state. *gate* is that object; its ``version``
  attribute must change whenever the state ``fn`` reads does. The scheduler
  remembers the version it saw at each failed attempt and re-runs ``fn()``
  only on ticks where it differs — a wait that wakes on change, not on
  tick. ``fn`` must be idempotent when it fails on unchanged state (a
  refused ``LockNode.try_acquire`` is). The lock runtime's waits are
  gated on the lock node; the two-element form is for predicates no single
  object witnesses.

On each tick, up to ``ncores`` runnable threads advance by one work unit, in
round-robin order (rotating the start index for fairness). Blocked threads
are considered at the start of every tick, in blocking order (FIFO), which
lets lock-manager grant order stay deterministic; the gate only skips
attempts whose outcome is already known, so grant order, ticks and every
statistic are those of polling each predicate each tick. The live-thread
list and the blocked FIFO are kept incrementally: blocking order only
grows, so a thread is appended as it blocks, and the lists are compacted
only on a tick where a thread woke (right after the wake pass, before any
thread advances and can block again) or finished.

A tick where no thread is runnable and none can unblock is a deadlock; the
scheduler raises :class:`DeadlockError` (the transformed programs must never
trigger this — that is the paper's deadlock-freedom guarantee). Distinct
from deadlock, a *livelock* is a bounded no-progress window: some thread
stays blocked for ``livelock_window`` consecutive ticks during which no
blocked thread is granted and no thread completes — runnable threads are
spinning without unblocking anyone. That raises :class:`LivelockError`
carrying the blocked-thread set, long before the ``max_ticks`` backstop.

Which runnable threads advance each tick is delegated to a
:class:`~repro.sim.policy.SchedulingPolicy`; the default
:class:`~repro.sim.policy.RoundRobinPolicy` reproduces the historical
rotating round-robin schedule exactly.
"""

from __future__ import annotations

from dataclasses import dataclass, field
from typing import Callable, Dict, Generator, List, Optional

from ..obs.metrics import MetricsRegistry
from ..obs.trace import get_tracer
from .deadline import CHECK_EVERY_TICKS, check_deadline
from .policy import RoundRobinPolicy, SchedulingPolicy

WORK = "work"
TRY = "try"

# While tracing is enabled, one occupancy counter sample (runnable /
# blocked / chosen) is emitted every this-many ticks; per-tick samples
# would dominate the trace for zero extra signal.
OCCUPANCY_SAMPLE_TICKS = 64


class DeadlockError(RuntimeError):
    """All unfinished threads are blocked and none can make progress."""


class LivelockError(RuntimeError):
    """Some threads stayed blocked for a full no-progress window while the
    rest spun: nobody was granted, nobody finished."""

    def __init__(self, message: str, blocked_tids=()) -> None:
        super().__init__(message)
        self.blocked_tids = frozenset(blocked_tids)


@dataclass
class SimStats:
    ticks: int = 0
    work_done: int = 0
    blocked_ticks: int = 0
    failed_tries: int = 0
    ncores: int = 1
    per_thread_work: Dict[int, int] = field(default_factory=dict)
    per_thread_blocked: Dict[int, int] = field(default_factory=dict)
    per_thread_failed_tries: Dict[int, int] = field(default_factory=dict)
    _registry: Optional[MetricsRegistry] = field(
        default=None, repr=False, compare=False)
    # A blocked thread's share of ``blocked_ticks`` is settled when it
    # wakes (or at ``publish``), not one dict update per thread per tick:
    # the clock counts the ticks whose blocked threads have been totalled,
    # and each blocked thread remembers the clock it blocked at.
    _blocked_clock: int = field(default=0, repr=False, compare=False)
    _blocked_since: Dict[int, int] = field(
        default_factory=dict, repr=False, compare=False)

    def bind(self, registry: MetricsRegistry) -> None:
        """Adopt the per-thread dicts as labeled counter families.

        The dicts stay the storage, so the scheduler's hot-loop
        ``per_thread_work[tid] += 1`` increments keep their plain-dict
        cost; the registry reads them only at snapshot time.
        """
        self._registry = registry
        registry.adopt_counter_dict(
            "sim.thread.work", self.per_thread_work, "tid",
            help="work units per simulated thread")
        registry.adopt_counter_dict(
            "sim.thread.blocked", self.per_thread_blocked, "tid",
            help="blocked ticks per simulated thread")
        registry.adopt_counter_dict(
            "sim.thread.failed_tries", self.per_thread_failed_tries, "tid",
            help="failed TRY attempts per simulated thread")

    def block(self, tid: int) -> None:
        self._blocked_since[tid] = self._blocked_clock

    def unblock(self, tid: int) -> None:
        self.per_thread_blocked[tid] += (
            self._blocked_clock - self._blocked_since.pop(tid))

    def publish(self) -> None:
        """Settle the threads still blocked (a run that ends in a
        deadlock, a livelock or a thread's own error leaves some), then
        mirror the scalar totals into the bound registry's gauges."""
        for tid in list(self._blocked_since):
            self.unblock(tid)
            self.block(tid)
        if self._registry is None:
            return
        totals = self._registry.gauge("sim.totals", ("name",),
                                      help="scheduler run totals")
        for name in ("ticks", "work_done", "blocked_ticks", "failed_tries"):
            totals.labels(name).set(getattr(self, name))

    @property
    def utilization(self) -> float:
        """Fraction of core-ticks that did work (1.0 = fully parallel).

        A failed TRY attempt occupies its core slot for the tick but does
        no work: it is counted in ``failed_tries`` (and the thread's
        blocked time starts the same tick), never in ``work_done``.
        """
        if self.ticks == 0:
            return 0.0
        return self.work_done / (self.ticks * self.ncores)


class SimThread:
    """One simulated thread wrapping a coroutine generator.

    The next event is prefetched (``current``), so thread completion is
    detected together with its final work unit rather than a tick later.
    """

    __slots__ = ("tid", "gen", "state", "pending_work", "try_fn",
                 "gate", "seen", "current")

    def __init__(self, tid: int, gen: Generator) -> None:
        self.tid = tid
        self.gen = gen
        self.state = "runnable"  # runnable | blocked | done
        self.pending_work = 0  # remaining ticks of the current work event
        self.try_fn: Optional[Callable[[], bool]] = None
        self.gate = None  # the blocked TRY's change witness, if it has one
        self.seen = 0  # gate.version at the last failed attempt
        self.current = None  # the prefetched event
        self.fetch()

    def fetch(self) -> None:
        try:
            self.current = next(self.gen)
        except StopIteration:
            self.state = "done"

    def __repr__(self) -> str:
        return f"<thread {self.tid}: {self.state}>"


class Scheduler:
    def __init__(self, ncores: int = 8, max_ticks: int = 100_000_000,
                 policy: Optional[SchedulingPolicy] = None,
                 livelock_window: Optional[int] = 50_000) -> None:
        self.ncores = ncores
        self.max_ticks = max_ticks
        self.policy = policy if policy is not None else RoundRobinPolicy()
        self.livelock_window = livelock_window
        self.threads: List[SimThread] = []
        self.metrics = MetricsRegistry()
        self.stats = SimStats(ncores=ncores)
        self.stats.bind(self.metrics)
        self._live: List[SimThread] = []  # unfinished, in spawn order
        self._blocked: List[SimThread] = []  # the FIFO, in blocking order
        self._stall = 0  # consecutive no-progress ticks with blocked threads

    def spawn(self, gen: Generator) -> SimThread:
        thread = SimThread(len(self.threads), gen)
        self.threads.append(thread)
        if thread.state != "done":
            self._live.append(thread)
        self.stats.per_thread_work[thread.tid] = 0
        self.stats.per_thread_blocked[thread.tid] = 0
        self.stats.per_thread_failed_tries[thread.tid] = 0
        return thread

    # -- event handling -------------------------------------------------------

    def _advance(self, thread: SimThread) -> bool:
        """Run *thread* for one unit of work on a core.

        Returns True when the tick performed work (a work unit consumed or
        a TRY attempt that succeeded), False when a TRY predicate failed
        and the thread blocked — the core slot was occupied but no work
        happened.
        """
        if thread.pending_work > 0:
            thread.pending_work -= 1
            if thread.pending_work == 0:
                thread.fetch()
            return True
        event = thread.current
        if event is None:
            thread.fetch()  # a bare `yield` = one tick of work
            return True
        if isinstance(event, int):
            if event < 1:
                raise ValueError(
                    f"work event must consume at least one tick, got {event}"
                )
            thread.pending_work = event - 1
            if thread.pending_work == 0:
                thread.fetch()
            return True
        kind = event[0]
        if kind == WORK:
            if event[1] < 1:
                raise ValueError(
                    f"work event must consume at least one tick, got {event[1]}"
                )
            thread.pending_work = event[1] - 1
            if thread.pending_work == 0:
                thread.fetch()
            return True
        if kind == TRY:
            fn = event[1]
            if fn():
                thread.fetch()
                return True
            thread.state = "blocked"
            self.stats.block(thread.tid)
            thread.try_fn = fn
            gate = event[2] if len(event) > 2 else None
            thread.gate = gate
            if gate is not None:
                # read after the attempt, which may itself have moved it
                thread.seen = gate.version
            self._blocked.append(thread)
            return False
        raise ValueError(f"unknown sim event {event!r}")

    # -- main loop -------------------------------------------------------------

    def run(self) -> SimStats:
        tracer = get_tracer()
        with tracer.span("sim.run", "runtime", ncores=self.ncores,
                         threads=len(self.threads)):
            try:
                return self._run_loop(tracer)
            finally:
                self.stats.publish()

    def _retry(self, thread: SimThread) -> bool:
        """Re-attempt a blocked thread's predicate; True when it woke."""
        if thread.try_fn():
            thread.state = "runnable"
            self.stats.unblock(thread.tid)
            thread.try_fn = None
            thread.gate = None
            thread.fetch()
            return True
        if thread.gate is not None:
            thread.seen = thread.gate.version
        return False

    def _compact(self) -> None:
        """Drop woken threads from the FIFO and finished ones from the
        live list; both keep their order."""
        self._blocked = [t for t in self._blocked if t.state == "blocked"]
        self._live = [t for t in self._live if t.state != "done"]

    def _run_loop(self, tracer) -> SimStats:
        stats = self.stats
        while True:
            if tracer.enabled:
                # eval/runtime hooks read the current tick off the tracer
                # when opening/closing tick-clock spans
                tracer.now_ticks = stats.ticks
            live = self._live
            if not live:
                return stats
            if stats.ticks >= self.max_ticks:
                raise RuntimeError(
                    f"simulation exceeded {self.max_ticks} ticks (livelock?)"
                )
            if stats.ticks % CHECK_EVERY_TICKS == 0:
                check_deadline()
            # 1. wake blocked threads whose predicates now succeed (FIFO);
            # a gated predicate is re-run only if its gate has moved
            blocked = self._blocked
            woke = False
            for thread in blocked:
                gate = thread.gate
                if gate is not None and gate.version == thread.seen:
                    continue
                if self._retry(thread):
                    woke = True
            if woke:
                # before anyone advances: a woken thread whose next event
                # is a TRY that fails this same tick re-enters the FIFO at
                # the back, once. `blocked` keeps this tick's full list
                # for the occupancy sample
                self._compact()
            # 2. advance the policy's pick of the runnable threads
            runnable = [t for t in live if t.state == "runnable"]
            if not runnable:
                if not self._live:
                    # the wake pass ran the last threads to completion
                    return stats
                # every live thread is in the (compacted) blocked FIFO
                raise DeadlockError(
                    "all threads blocked: "
                    + ", ".join(repr(t) for t in self._blocked)
                )
            chosen = self.policy.choose(runnable, self.ncores, stats.ticks)
            if not chosen:
                chosen = runnable[:1]
            if tracer.enabled and stats.ticks % OCCUPANCY_SAMPLE_TICKS == 0:
                tracer.sample("sim.occupancy", {
                    "runnable": len(runnable),
                    "blocked": len(blocked),
                    "chosen": len(chosen),
                })
            stats.ticks += 1
            if tracer.enabled:
                tracer.now_ticks = stats.ticks
            finished = False
            for thread in chosen:
                did_work = self._advance(thread)
                if thread.state == "done":
                    finished = True
                if did_work:
                    stats.work_done += 1
                    stats.per_thread_work[thread.tid] += 1
                else:
                    stats.failed_tries += 1
                    stats.per_thread_failed_tries[thread.tid] += 1
            if finished:
                self._compact()
            # threads that blocked this tick were appended by _advance
            still_blocked = self._blocked
            if still_blocked:
                stats.blocked_ticks += len(still_blocked)
                stats._blocked_clock += 1
            # 3. livelock window: blocked threads exist but nobody was
            # granted and nobody finished — count the stall; a wake, a
            # completion, or an all-runnable tick resets it
            if still_blocked and not (woke or finished):
                self._stall += 1
                if (self.livelock_window is not None
                        and self._stall >= self.livelock_window):
                    # reported in spawn order, not blocking order
                    stuck = sorted(still_blocked, key=lambda t: t.tid)
                    raise LivelockError(
                        f"no progress for {self._stall} ticks; blocked: "
                        + ", ".join(repr(t) for t in stuck),
                        blocked_tids=[t.tid for t in stuck],
                    )
            else:
                self._stall = 0


def run_threads(generators: List[Generator], ncores: int = 8,
                policy: Optional[SchedulingPolicy] = None,
                livelock_window: Optional[int] = 50_000) -> SimStats:
    """Convenience: run *generators* to completion; return the statistics."""
    scheduler = Scheduler(ncores=ncores, policy=policy,
                          livelock_window=livelock_window)
    for gen in generators:
        scheduler.spawn(gen)
    return scheduler.run()
