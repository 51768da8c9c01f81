"""Wake on change ≡ poll every tick.

The lock runtime's plain wait is a gated TRY event, ``(TRY, fn, node)``:
the scheduler re-runs ``fn`` only when ``node.version`` has moved since
the last refusal. These tests pin the two halves of the argument that
this changes host time and nothing else:

* **differential** — stripping the gate off every event (test side only;
  ``src/`` has no switch) gives back the poll-every-tick protocol, and
  every simulated quantity of the gated run must equal it: ``SimStats``
  (scalars and the three per-thread dicts), the lock manager's
  ``acquires`` / ``node_acquires``, the recorded policy trace, and the
  final heap;
* **event protocol** — random raw generators mixing WORK, ``(TRY, fn)``
  and ``(TRY, fn, gate)`` events (back to back, or as a thread's last
  event) give the same ``SimStats``, policy trace and error as a
  reference loop kept here, which rebuilds and sorts its thread lists
  and re-runs every blocked predicate on every tick;
* **witness** — over random ``try_acquire`` / ``release`` sequences on one
  ``LockNode``, equal ``version`` implies an equal ``can_grant`` table,
  and a node with any one bump removed is caught.
"""

import itertools

import pytest
from hypothesis import example, given, settings
from hypothesis import strategies as st

from repro.bench.configs import ALL_BENCHMARKS
from repro.bench.harness import build_world
from repro.explore.diff import heap_fingerprint
from repro.explore.runner import resolve_target, run_schedule
from repro.interp import ThreadExec
from repro.runtime import MODES, FaultInjector, LockNode
from repro.sim import DeadlockError, Scheduler, make_policy
from repro.sim.scheduler import TRY, WORK, LivelockError, SimStats, SimThread

THREADS = 8
NCORES = 8

# the benchmark's sim_locks cells, at its n_ops
SIM_LOCKS_CELLS = (("hashtable", "fine+coarse", "low"),
                   ("rbtree", "coarse", "low"),
                   ("hashtable", "global", "high"))
SIM_LOCKS_OPS = 24

# Table 2's three lock columns on benchmarks sim_locks does not touch
TABLE2_LOCK_CONFIGS = ("global", "coarse", "fine+coarse")
TABLE2_CELLS = tuple(
    (bench, config, setting)
    for bench, setting in (("list", "high"), ("TH", "low"),
                           ("vacation", None), ("kmeans", None))
    for config in TABLE2_LOCK_CONFIGS)
TABLE2_OPS = 4

POLICIES = ([("round-robin", 0)] + [("random", seed) for seed in range(5)]
            + [("pct", 0)])


def poll_every_tick(gen):
    """Forward a thread's events with the gate stripped off every TRY."""
    for event in gen:
        if isinstance(event, tuple) and event[0] == TRY:
            event = event[:2]
        yield event


def run_cell(cell, policy_name, seed, n_ops, gated):
    bench, config, setting = cell
    spec = ALL_BENCHMARKS[bench]
    world, mode = build_world(spec, config, check=True)
    policy = make_policy(policy_name, seed=seed)
    policy.enable_trace()
    scheduler = Scheduler(ncores=NCORES, policy=policy)
    for tid, ops in enumerate(spec.schedule(setting, THREADS, n_ops, seed=0)):
        thread = ThreadExec(world, tid, mode=mode).run_ops(ops)
        scheduler.spawn(thread if gated else poll_every_tick(thread))
    stats = scheduler.run()
    locks = world.lock_manager.stats
    observed = {
        "sim": stats,  # dataclass equality: scalars + per-thread dicts
        "acquires": locks.acquires,
        "node_acquires": locks.node_acquires,
        "trace": policy.trace,
        "heap": heap_fingerprint(world),
    }
    return observed, locks.blocks


def assert_cells_identical(cells, n_ops, policy_name, seed):
    attempts_gated = attempts_polled = 0
    for cell in cells:
        gated, gated_blocks = run_cell(cell, policy_name, seed, n_ops, True)
        polled, polled_blocks = run_cell(cell, policy_name, seed, n_ops,
                                         False)
        assert gated == polled, cell
        assert gated["sim"].ticks > 0 and gated["node_acquires"] > 0
        # the gate may only remove refused attempts, never add one
        assert gated_blocks <= polled_blocks, cell
        attempts_gated += gated_blocks
        attempts_polled += polled_blocks
    return attempts_gated, attempts_polled


@pytest.mark.parametrize("policy_name,seed", POLICIES)
def test_sim_locks_cells_identical_to_polling(policy_name, seed):
    gated, polled = assert_cells_identical(
        SIM_LOCKS_CELLS, SIM_LOCKS_OPS, policy_name, seed)
    # not vacuous: these cells block, and the gate removes most re-polls
    assert gated * 2 < polled


@pytest.mark.parametrize("policy_name,seed", POLICIES)
def test_table2_lock_configs_identical_to_polling(policy_name, seed):
    assert_cells_identical(TABLE2_CELLS, TABLE2_OPS, policy_name, seed)


# ---------------------------------------------------------------------------
# a stall-fault scenario: a planted fault, nothing recovering from it
# ---------------------------------------------------------------------------


def run_chaos(monkeypatch, fault, program, policy_name, seed, gated):
    # a release fault fires on the first run of each section by each
    # thread (a 12 000-tick stall outlasts the 8 000-tick livelock
    # window); an inverted order on thread 0 only, since an order every
    # thread inverts is itself a consistent total order
    if fault == "invert-order":
        injector = FaultInjector(fault, tid=0)
    else:
        injector = FaultInjector(fault, occurrence=0, delay=12_000)
    schedulers = []
    spawn = Scheduler.spawn

    def recording_spawn(self, gen):
        schedulers.append(self)
        return spawn(self, gen if gated else poll_every_tick(gen))

    with monkeypatch.context() as patched:
        patched.setattr(Scheduler, "spawn", recording_spawn)
        record, world = run_schedule(
            resolve_target(program), "fine+coarse",
            make_policy(policy_name, seed=seed), threads=3, ops=2, seed=seed,
            injector=injector, livelock_window=8_000)
    return {
        "sim": schedulers[0].stats,
        "record": (record.ticks, record.trace_class, record.violations,
                   record.races, record.lockset_warnings),
        "locks": (world.lock_manager.stats.acquires,
                  world.lock_manager.stats.node_acquires),
        "heap": heap_fingerprint(world),
    }


@pytest.mark.parametrize("fault,program", [
    ("invert-order", "twocounter"),  # an interlock on some schedules
    ("lost-release", "counter"),  # leaked locks block every later acquirer
])
@pytest.mark.parametrize("policy_name", ["random", "pct"])
def test_chaos_scenario_identical_to_polling(monkeypatch, fault, program,
                                             policy_name):
    for seed in range(3):
        gated = run_chaos(monkeypatch, fault, program, policy_name, seed,
                          gated=True)
        polled = run_chaos(monkeypatch, fault, program, policy_name, seed,
                           gated=False)
        assert gated == polled, seed


def test_chaos_canary_still_fires_through_the_gate(monkeypatch):
    """The gated wait path: a leaked lock must end in the scheduler's
    DeadlockError canary, not in a silent hang."""
    seen = run_chaos(monkeypatch, "lost-release", "counter", "random", 0,
                     gated=True)
    assert any(v.startswith("deadlock:") for v in seen["record"][2])


# ---------------------------------------------------------------------------
# the event protocol: incremental lists + gate ≡ rebuild and poll every tick
# ---------------------------------------------------------------------------


def poll_and_rebuild(generators, ncores, policy, livelock_window, stats):
    """The specification the scheduler's bookkeeping is checked against:
    every list rebuilt from thread states each tick, the FIFO sorted by a
    blocking counter, every blocked predicate re-run, gates ignored. No
    tracer or deadline."""
    threads = [SimThread(tid, gen) for tid, gen in enumerate(generators)]
    for thread in threads:
        stats.per_thread_work[thread.tid] = 0
        stats.per_thread_blocked[thread.tid] = 0
        stats.per_thread_failed_tries[thread.tid] = 0
    block_counter = itertools.count()
    block_order = {}
    stall = 0

    def advance(thread):
        if thread.pending_work == 0:
            event = thread.current
            if isinstance(event, tuple) and event[0] == TRY:
                if event[1]():
                    thread.fetch()
                    return True
                thread.state = "blocked"
                thread.try_fn = event[1]
                block_order[thread.tid] = next(block_counter)
                return False
            ticks = (1 if event is None
                     else event if isinstance(event, int) else event[1])
            thread.pending_work = ticks
        thread.pending_work -= 1
        if thread.pending_work == 0:
            thread.fetch()
        return True

    while True:
        unfinished = [t for t in threads if t.state != "done"]
        if not unfinished:
            return
        blocked = sorted((t for t in unfinished if t.state == "blocked"),
                         key=lambda t: block_order[t.tid])
        woke = False
        for thread in blocked:
            if thread.try_fn():
                thread.state = "runnable"
                thread.try_fn = None
                thread.fetch()
                woke = True
        runnable = [t for t in unfinished if t.state == "runnable"]
        if not runnable:
            # a woken thread may have finished on its fetch
            blocked = [t for t in blocked if t.state == "blocked"]
            if blocked:
                raise DeadlockError("all threads blocked: "
                                    + ", ".join(repr(t) for t in blocked))
            return
        chosen = policy.choose(runnable, ncores, stats.ticks) or runnable[:1]
        stats.ticks += 1
        finished = False
        for thread in chosen:
            if advance(thread):
                stats.work_done += 1
                stats.per_thread_work[thread.tid] += 1
            else:
                stats.failed_tries += 1
                stats.per_thread_failed_tries[thread.tid] += 1
            finished = finished or thread.state == "done"
        still_blocked = [t for t in unfinished if t.state == "blocked"]
        for thread in still_blocked:
            stats.blocked_ticks += 1
            stats.per_thread_blocked[thread.tid] += 1
        if still_blocked and not (woke or finished):
            stall += 1
            if stall >= livelock_window:
                raise LivelockError(
                    f"no progress for {stall} ticks; blocked: "
                    + ", ".join(repr(t) for t in still_blocked),
                    blocked_tids=[t.tid for t in still_blocked])
        else:
            stall = 0


class Cell:
    """A one-slot lock; ``version`` witnesses every change of ``owner``."""

    def __init__(self):
        self.owner = None
        self.version = 0

    def take(self, tid):
        def attempt():
            if self.owner is None:
                self.owner = tid
                self.version += 1
            return self.owner == tid
        return attempt

    def release(self, tid):
        if self.owner == tid:
            self.owner = None
            self.version += 1


CELLS = range(2)
FLAGS = range(2)

EVENT_OPS = st.one_of(
    st.tuples(st.just("work"), st.integers(1, 3), st.booleans()),
    st.tuples(st.just("tick")),
    st.tuples(st.just("take"), st.sampled_from(CELLS), st.booleans()),
    st.tuples(st.just("release"), st.sampled_from(CELLS)),
    st.tuples(st.just("wait"), st.sampled_from(FLAGS)),
    st.tuples(st.just("set"), st.sampled_from(FLAGS)),
)
PROGRAMS = st.lists(st.lists(EVENT_OPS, max_size=8), min_size=1, max_size=4)
LIVELOCK_WINDOW = 5


def raw_thread(tid, ops, cells, flags):
    """Side effects (release, set) run on the fetch that follows the
    previous event, as the interpreter's do."""
    for op in ops:
        if op[0] == "work":
            yield (WORK, op[1]) if op[2] else op[1]
        elif op[0] == "tick":
            yield
        elif op[0] == "take":
            cell = cells[op[1]]
            attempt = cell.take(tid)
            yield (TRY, attempt, cell) if op[2] else (TRY, attempt)
        elif op[0] == "release":
            cells[op[1]].release(tid)
        elif op[0] == "wait":
            yield (TRY, lambda flag=op[1]: flags[flag])
        else:
            flags[op[1]] = True


def run_raw(programs, ncores, policy_name, seed, reference):
    cells = [Cell() for _ in CELLS]
    flags = [False for _ in FLAGS]
    generators = [raw_thread(tid, ops, cells, flags)
                  for tid, ops in enumerate(programs)]
    policy = make_policy(policy_name, seed=seed)
    policy.enable_trace()
    error = None
    try:
        if reference:
            stats = SimStats(ncores=ncores)
            poll_and_rebuild(generators, ncores, policy, LIVELOCK_WINDOW,
                             stats)
        else:
            scheduler = Scheduler(ncores=ncores, policy=policy,
                                  livelock_window=LIVELOCK_WINDOW)
            stats = scheduler.stats
            for gen in generators:
                scheduler.spawn(gen)
            scheduler.run()
    except (DeadlockError, LivelockError) as exc:
        error = (type(exc), str(exc), getattr(exc, "blocked_tids", None))
    return (stats, error, policy.trace, [cell.owner for cell in cells],
            flags)


@settings(max_examples=500, deadline=None)
@given(PROGRAMS, st.integers(1, 3),
       st.sampled_from([name for name, _ in POLICIES]), st.integers(0, 4))
# thread 0 wakes from its flag wait straight into a take that fails on
# the same tick: one FIFO entry, at the back
@example([[("wait", 0), ("take", 0, False), ("tick",)],
          [("take", 0, False), ("set", 0), ("work", 2, False),
           ("release", 0), ("tick",)]], 2, "round-robin", 0)
# the same through the gate: thread 2 is granted cell 0 on the tick it is
# released and is refused cell 1 on that tick
@example([[("take", 0, True), ("tick",), ("release", 0), ("work", 2, True)],
          [("take", 1, True), ("work", 3, False), ("release", 1)],
          [("take", 0, True), ("take", 1, True), ("tick",)]],
         3, "round-robin", 0)
# thread 0 finishes on the fetch that follows its wake
@example([[("wait", 0)], [("tick",), ("set", 0), ("work", 2, False)]],
         2, "round-robin", 0)
# the run ends in a deadlock with two threads still blocked, one of them
# (thread 2) since an earlier tick and once woken in between: their
# per-thread blocked ticks are settled when the run ends, not at a wake
@example([[("take", 0, True), ("take", 1, True)],
          [("take", 1, True), ("work", 2, False), ("take", 0, True)],
          [("wait", 0), ("take", 0, False)],
          [("tick",), ("set", 0)]],
         3, "round-robin", 0)
# thread 1's last event is a take that blocks; it is granted and finishes
# inside the wake pass, leaving nobody: the run ends, not in a deadlock
@example([[("work", 1, False), ("take", 0, False), ("tick",), ("release", 0)],
          [("work", 1, False), ("take", 0, False)]], 1, "round-robin", 0)
# ... and in a livelock: thread 1 spins while thread 0 waits for a flag
@example([[("wait", 1)], [("work", 3, False)] * 4],
         2, "round-robin", 0)
def test_raw_event_streams_identical_to_poll_and_rebuild(
        programs, ncores, policy_name, seed):
    ours = run_raw(programs, ncores, policy_name, seed, reference=False)
    assert ours == run_raw(programs, ncores, policy_name, seed,
                           reference=True)
    stats = ours[0]
    assert sum(stats.per_thread_blocked.values()) == stats.blocked_ticks


def test_blocked_ticks_settled_when_a_thread_raises_mid_tick():
    """A thread's own error ends the run half-way through a tick: the
    threads blocked at that point are charged the ticks that were
    totalled, not the one that was cut short."""
    def waiter():
        yield (TRY, lambda: False)

    def bomb():
        yield 2
        raise ValueError("boom")

    scheduler = Scheduler(ncores=2)
    scheduler.spawn(waiter())
    scheduler.spawn(bomb())
    with pytest.raises(ValueError):
        scheduler.run()
    stats = scheduler.stats
    assert stats.ticks == 2  # the second tick never finished
    assert stats.blocked_ticks == 1
    assert stats.per_thread_blocked == {0: 1, 1: 0}


# ---------------------------------------------------------------------------
# the witness: equal version ⇒ equal can_grant table
# ---------------------------------------------------------------------------

TIDS = range(4)

OPS = st.lists(
    st.one_of(
        st.tuples(st.just("try"), st.sampled_from(TIDS),
                  st.sampled_from(MODES)),
        st.tuples(st.just("release"), st.sampled_from(TIDS),
                  st.just(None)),
    ),
    max_size=24,
)


def grant_table(node):
    return tuple(node.can_grant(tid, mode) for tid in TIDS for mode in MODES)


def check_witness(node, ops):
    """Replay *ops*; assert that no two visited states share a version
    while disagreeing on any ``can_grant(tid, mode)``."""
    tables = {node.version: grant_table(node)}
    for kind, tid, mode in ops:
        if kind == "try":
            node.try_acquire(tid, mode)
        else:
            node.release(tid)
        table = grant_table(node)
        assert tables.setdefault(node.version, table) == table, \
            f"version {node.version} stood still across {(kind, tid, mode)}"


@settings(max_examples=300, deadline=None)
@given(OPS)
def test_equal_version_means_equal_grant_table(ops):
    check_witness(LockNode("n"), ops)


class DroppedBump(LockNode):
    """A ``LockNode`` that forgets to bump on one kind of mutation."""

    drop = None

    def try_acquire(self, tid, mode):
        before = self.version
        was_waiting = tid in self.waiters
        granted = super().try_acquire(tid, mode)
        kind = ("grant" if granted
                else "mode-change" if was_waiting else "register")
        if kind == self.drop:
            self.version = before
        return granted

    def release(self, tid):
        before = self.version
        super().release(tid)
        if self.drop == "release":
            self.version = before


@pytest.mark.parametrize("drop", ["grant", "register", "mode-change",
                                  "release"])
def test_a_missing_bump_is_caught(drop):
    @settings(max_examples=2000, deadline=None, derandomize=True,
              database=None)
    @given(OPS)
    def prop(ops):
        node = DroppedBump("n")
        node.drop = drop
        check_witness(node, ops)

    with pytest.raises(AssertionError, match="stood still"):
        prop()
