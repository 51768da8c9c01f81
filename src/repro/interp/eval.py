"""Concurrent interpreter for the lowered mini-C IR.

Each simulated thread executes via :class:`ThreadExec`, a coroutine that
yields simulator events (work ticks and lock-try events). Three execution
modes cover the paper's configurations:

* ``seq``   — plain execution (setup phases, golden results); atomic
  sections run unprotected.
* ``locks`` — executes a *transformed* program (acquireAll/releaseAll);
  every shared access inside an atomic section is validated against the
  held multi-granularity locks by the §4.2 protection checker.
* ``stm``   — executes the *original* program; atomic sections run as TL2
  transactions with rollback and retry.

Cost model (one simulated tick ≈ one machine operation):
each simple instruction costs 1 tick; STM instrumentation adds 1 tick per
transactional heap access; the multi-grain protocol costs 1 tick per lock
node visited; STM commits cost ~write-set size; aborts pay re-execution
plus bounded exponential backoff.

Execution is compile-then-replay: at a function's first call in a mode,
:mod:`repro.interp.compile` lowers its IR once to a flat list of steps —
closures over pre-resolved operands, with jump targets — and
``ThreadExec._run`` replays that list for every activation.  The driver
owns the yield-ordering contract other threads observe: a simple
instruction takes effect and *then* costs its ticks, a branch or return
costs its tick and *then* evaluates, a call evaluates its arguments,
costs, then runs the callee.
"""

from __future__ import annotations

from typing import Callable, Dict, List, Optional, Sequence, Tuple

from ..lang import ast, ir
from ..obs.trace import get_tracer
from ..pointer.steensgaard import PointsTo
from ..runtime.api import ThreadLockState, acquire_all, plan_requests, release_all
from ..runtime.faults import FaultInjector
from ..runtime.modes import combine
from ..runtime.manager import LockManager
from ..stm.tl2 import TL2System, TL2Tx, TxAbort, backoff_ticks
from .checker import ProtectionChecker, SerializabilityAuditor
from .race import RaceDetector
from ..memory import Frame, Globals, Heap, InterpError, Value


# step kinds, in the order the driver tests them
EXEC, BRANCH, NOP, CALL, RETURN, SECTION = range(6)

END = -1  # the target of falling off the function body

Step = Tuple[int, Optional[Callable], int, object]


class Code:
    """One function compiled for one mode of one world."""

    __slots__ = ("params", "blank", "steps", "entry")

    def __init__(self, params: Tuple[str, ...], blank: Dict[str, object],
                 steps: List[Step], entry: int) -> None:
        self.params = params
        self.blank = blank  # the frame template: every slot, pre-set
        self.steps = steps
        self.entry = entry


class World:
    """Shared execution state: program, heap, globals, and runtimes."""

    def __init__(
        self,
        program: ir.LoweredProgram,
        pointsto: Optional[PointsTo] = None,
        check: bool = True,
        audit: bool = False,
        race: Optional["RaceDetector"] = None,
        faults: Optional["FaultInjector"] = None,
    ) -> None:
        self.program = program
        self.heap = Heap()
        defaults = {
            name: 0 if isinstance(decl.type, ast.IntType) else None
            for name, decl in program.globals.items()
        }
        self.globals = Globals(self.heap, program.globals.keys(), defaults)
        self.lock_manager = LockManager()
        self.stm = TL2System()
        self.pointsto = pointsto
        self.checker = (
            ProtectionChecker(pointsto) if (check and pointsto is not None) else None
        )
        self.auditor = SerializabilityAuditor() if audit else None
        self.race = race  # dynamic race detector (locks mode only)
        self.faults = faults  # acquisition fault injector (negative tests)
        self._code: Dict[Tuple[str, str], Code] = {}

    def code(self, func_name: str, mode: str) -> Code:
        """*func_name* compiled for *mode* — built at its first call; the
        shared-access hooks differ per mode, so nothing is shared across."""
        key = (func_name, mode)
        code = self._code.get(key)
        if code is None:
            func = self.program.functions.get(func_name)
            if func is None:
                raise InterpError(f"unknown function {func_name!r}")
            # imported on first use: `import repro` pays for the driver
            # below, not for the compiler
            from .compile import compile_function
            code = self._code[key] = compile_function(self, func, mode)
        return code


class ThreadExec:
    """One simulated thread's executor."""

    def __init__(self, world: World, tid: int, mode: str = "seq") -> None:
        if mode not in ("seq", "locks", "stm"):
            raise ValueError(f"unknown mode {mode!r}")
        self.world = world
        self.tid = tid
        self.mode = mode
        self.lock_state = ThreadLockState()
        self.tx: Optional[TL2Tx] = None
        self.extra_cost = 0  # STM instrumentation ticks owed by the next step
        self.instance: Optional[int] = None  # auditor instance id
        self.fresh_objs: List = []  # objects allocated in the open section
        self._section_token = None  # open tick-clock span of the section

    # ------------------------------------------------------------------
    # entry points and the step driver
    # ------------------------------------------------------------------

    def call(self, func_name: str, args: Sequence[Value]):
        """The coroutine executing *func_name(args)*; returns its value."""
        code = self.world.code(func_name, self.mode)
        if len(args) != len(code.params):
            raise InterpError(
                f"{func_name}() takes {len(code.params)} argument(s), "
                f"{len(args)} given")
        frame = Frame(self.world.heap, func_name)
        cells = frame.obj.cells
        cells.update(code.blank)
        cells.update(zip(code.params, args))
        return self._run(code.steps, cells, frame, code.entry, END)

    def run_ops(self, ops: Sequence[Tuple[str, Sequence[Value]]]):
        """Coroutine: execute a schedule of calls (a workload thread)."""
        for func_name, args in ops:
            yield from self.call(func_name, args)

    def _run(self, steps, cells, frame: Frame, pc: int, end: int):
        """Replay *steps* from *pc* until control reaches *end*: a whole
        activation (``end`` is END) or the body of a retried section."""
        while pc != end:
            kind, fn, nxt, arg = steps[pc]
            if kind == EXEC:
                fn(self, cells, frame)
                cost = self.extra_cost
                if cost:
                    self.extra_cost = 0
                yield 1 + cost
                pc = nxt
            elif kind == BRANCH:
                yield 1
                pc = nxt if fn(self, cells, frame) else arg
            elif kind == NOP:
                yield arg
                pc = nxt
            elif kind == CALL:
                args = fn(self, cells, frame)
                cost, self.extra_cost = self.extra_cost, 0
                yield 1 + cost
                callee, store = arg
                store(self, cells, (yield from self.call(callee, args)))
                pc = nxt
            elif kind == RETURN:
                yield 1
                if end != END:
                    # a retried section cannot be left half-way
                    raise InterpError(
                        "return inside an atomic section is not supported")
                return fn(self, cells, frame)
            else:  # SECTION: a coroutine; it may say where to resume
                resume = yield from fn(self, cells, frame)
                pc = nxt if resume is None else resume

    # ------------------------------------------------------------------
    # atomic sections
    # ------------------------------------------------------------------

    def transaction(self, steps, cells, frame: Frame, body: int, end: int):
        """Run the steps of an ``atomic`` body as one TL2 transaction:
        retry with frame rollback until it commits."""
        if self.tx is not None:
            # nested: flattened into the enclosing transaction
            yield from self._run(steps, cells, frame, body, end)
            return
        attempts = 0
        while True:
            snapshot = frame.snapshot()
            self.tx = TL2Tx(self.world.stm, self.tid)
            try:
                yield from self._run(steps, cells, frame, body, end)
                cost = self.tx.commit()
                yield cost
                self.tx = None
                return
            except TxAbort:
                self.tx.abort()
                self.tx = None
                frame.restore(snapshot)
                attempts += 1
                yield backoff_ticks(attempts, self.tid)

    def acquire(self, instr: ir.IAcquireAll, paths, cells, frame: Frame):
        """Coroutine of a locks-mode ``acquireAll``; *paths* maps each fine
        lock to its compiled descriptor evaluation."""
        state = self.lock_state
        state.nlevel += 1
        if state.nlevel > 1:
            yield 1
            return
        tracer = get_tracer()
        if tracer.enabled:
            # the span opens before acquisition so the per-node "blocked"
            # spans from acquire_all nest inside it — that is what lets a
            # trace attribute a section's latency to specific lock terms
            self._section_token = tracer.begin_section(
                self.tid, f"section:{instr.section_id}",
                section=instr.section_id,
                locks=sorted(str(lock) for lock in instr.locks),
            )

        def evaluate(lock):
            return paths[lock](cells, frame)

        faults = self.world.faults
        inject = faults is not None and faults.arm(self.tid, instr.section_id)
        attempts = 0
        while True:
            plan = plan_requests(instr.locks, evaluate)
            if inject:
                plan = faults.apply(plan)
            yield max(1, len(instr.locks))  # descriptor evaluation cost
            yield from acquire_all(self.world.lock_manager, self.tid, plan,
                                   section_id=instr.section_id)
            # Validate-and-retry: fine-grain descriptors were evaluated
            # before the locks were held, so a racing thread may have
            # redirected a pointer on the path meanwhile. Re-evaluate under
            # the held locks — the lock set read-protects every cell the
            # descriptors read (paper Lemma 1 covers all subexpressions of
            # an access), so once we hold the right locks the re-evaluation
            # is stable; a mismatch means we lost the race and must retry.
            revalidated = plan_requests(instr.locks, evaluate)
            if inject:
                revalidated = faults.apply(revalidated)
            yield max(1, len(instr.locks))
            held = dict(plan)
            if all(
                name in held and combine(held[name], mode) == held[name]
                for name, mode in revalidated
            ):
                break
            yield from release_all(self.world.lock_manager, self.tid)
            attempts += 1
            yield min(1 << min(attempts, 4), 16)
        if self.world.race is not None:
            self.world.race.on_acquire(
                self.tid, [name for name, _ in plan], instr.section_id
            )
        if self.world.auditor is not None:
            self.instance = self.world.auditor.begin_instance(instr.section_id)

    def release(self):
        """Coroutine of a locks-mode ``releaseAll``."""
        state = self.lock_state
        if state.nlevel == 1:
            faults = self.world.faults
            action = (faults.take_release_action(self.tid)
                      if faults is not None else None)
            if action is not None and action[0] == "delay":
                # stuck critical section: stall while holding the locks
                yield action[1]
            for obj in self.fresh_objs:
                obj.fresh_owner = None
            self.fresh_objs.clear()
            if self.world.race is not None:
                # publish this thread's clock to every node it is about to
                # release (the nodes stay held until release_all runs, so
                # no acquirer can join the published clock too early)
                self.world.race.on_release(
                    self.tid,
                    tuple(self.world.lock_manager.held_names(self.tid)),
                )
            if action is not None and action[0] == "lose":
                yield 1  # the release never reaches the lock manager
            else:
                yield from release_all(self.world.lock_manager, self.tid)
            self.instance = None
            if self._section_token is not None:
                get_tracer().end_section(self._section_token,
                                         outcome="committed")
                self._section_token = None
        else:
            yield 1
        state.nlevel -= 1
