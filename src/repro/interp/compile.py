"""Lower one function's IR to a flat list of steps, once per ``World``.

A *step* is ``(kind, fn, nxt, arg)``: a closure over pre-resolved operands
plus the index of the step that follows.  ``ThreadExec._run`` replays the
list; nothing here runs per executed instruction, and nothing here is
imported before a world first runs a function.  What is decided at
compile time:

* **Control flow.**  ``if``/``while`` are one ``BRANCH`` step with two
  targets; blocks are compiled back to front, so every forward target is
  already an index and a loop reserves its head first.  Falling off the
  function is target ``-1``.
* **Operands.**  Every name is resolved once to a *frame slot*: a key of
  the activation's cell dict.  Locals, parameters and temporaries are
  slots of their own, pre-set to null in the frame template
  (``Code.blank``); a literal is a slot ``#<value>`` of the template; a
  global is *staged* — read through the shared-access hook into a slot
  under its own name for the duration of the one step, and written back
  through the hook if it is the destination.  So every instruction form
  is written once, against slots.
* **Operators.**  ``RArith``/``Cond`` pick their ``operator`` function
  here.
* **Shared-access hooks.**  ``seq`` gets the bare heap access, ``stm`` the
  transaction test, ``locks`` the pair that shows each shared access to
  the world's checker, race detector, auditor and resilience runtime
  (see :func:`access_hooks`).
* **Lock terms.**  Each fine lock of an ``acquireAll`` gets its
  evaluation path as a closure; a resilient world also gets the matching
  ``releaseAll`` of every ``acquireAll``.

The tick protocol is the driver's: ``EXEC`` steps run *then* cost
``1 + extra_cost``; ``BRANCH`` and ``RETURN`` cost 1 *then* evaluate;
``CALL`` evaluates arguments, costs, then calls.
"""

from __future__ import annotations

import operator
from typing import Dict, List, Optional, Tuple

from ..lang import ast, ir
from ..locks.effects import RO, RW
from ..locks.terms import (
    IBin,
    IConst,
    IndexExpr,
    IVar,
    Term,
    TIndex,
    TPlus,
    TStar,
    TVar,
)
from ..memory import Heap, InterpError, Loc
from ..runtime.resilience import SectionAbort
from .eval import BRANCH, CALL, END, EXEC, NOP, RETURN, SECTION, Code, Step

# ---------------------------------------------------------------------------
# shared-access hooks
# ---------------------------------------------------------------------------


def _plain_read(ex, loc):
    return Heap.read(loc)


def _plain_write(ex, loc, value):
    Heap.write(loc, value)


def _tx_read(ex, loc):
    tx = ex.tx
    if tx is not None and loc.obj.shared:
        ex.extra_cost += 3
        return tx.read(loc)
    return Heap.read(loc)


def _tx_write(ex, loc, value):
    tx = ex.tx
    if tx is not None and loc.obj.shared:
        ex.extra_cost += 2
        tx.write(loc, value)
    else:
        Heap.write(loc, value)


def access_hooks(world, mode: str, func_name: str):
    """``(read, write)`` for heap accesses of *func_name* run in *mode*:
    the bare access (seq), the transaction test (stm), or the locks-mode
    pair below, which shows every shared access to whatever the world
    was built with.  The order is the one their reports depend on: the
    resilience runtime's abort check and undo log, the race detector,
    then — inside a section — the §4.2 protection checker and the
    serializability auditor."""
    if mode == "stm":
        return _tx_read, _tx_write
    if mode != "locks":
        return _plain_read, _plain_write
    manager = world.lock_manager
    runtime, race = world.resilience, world.race
    checker, auditor = world.checker, world.auditor

    def observe(ex, loc, eff):
        if race is not None and loc.obj.fresh_owner != ex.tid:
            report = race.on_read if eff == RO else race.on_write
            report(ex.tid, loc, func_name, manager.held_names(ex.tid))
        if ex.lock_state.nlevel > 0:
            if checker is not None:
                checker.check(ex.tid, manager, loc, eff)
            if auditor is not None and ex.instance is not None:
                auditor.record(ex.instance, loc, eff)

    def check_abort(ex):
        # a revoked thread must stop touching the heap promptly: its
        # locks are gone, continuing would race the new holders
        if ex.lock_state.nlevel > 0 and runtime.abort_pending(ex.tid):
            raise SectionAbort(runtime.abort_reason(ex.tid))

    def read(ex, loc):
        if not loc.obj.shared:
            return Heap.read(loc)
        if runtime is not None:
            check_abort(ex)
        value = Heap.read(loc)
        observe(ex, loc, RO)
        return value

    def write(ex, loc, value):
        if loc.obj.shared:
            if runtime is not None:
                check_abort(ex)
                if ex.lock_state.nlevel > 0:
                    runtime.record_write(ex.tid, loc)  # undo-log pre-image
            observe(ex, loc, RW)
        Heap.write(loc, value)

    return read, write


# ---------------------------------------------------------------------------
# operators
# ---------------------------------------------------------------------------


def _div(left, right):
    if right == 0:
        raise InterpError("division by zero")
    return left // right


def _mod(left, right):
    if right == 0:
        raise InterpError("modulo by zero")
    return left % right


_ARITH = {"+": operator.add, "-": operator.sub, "*": operator.mul,
          "/": _div, "%": _mod}
# lock-term index expressions: a zero divisor makes the term denote nothing
_INDEX_ARITH = {**_ARITH, "/": operator.floordiv, "%": operator.mod}
_ORDERED = {"<": operator.lt, "<=": operator.le,
            ">": operator.gt, ">=": operator.ge}


def _int_or_none(value):
    return value if value.__class__ is int else None


def _raiser(message: str):
    def fail(*_operands):
        raise InterpError(message)
    return fail


# ---------------------------------------------------------------------------
# the compiler
# ---------------------------------------------------------------------------


class _Compiler:
    def __init__(self, world, func: ir.LoweredFunction, mode: str) -> None:
        self.world = world
        self.mode = mode
        self.steps: List[Step] = []
        self.blank: Dict[str, object] = dict.fromkeys(
            (*func.params, *func.locals))
        # temporaries carry a `$`, so they never collide with a global
        self.globals = {
            name: world.globals.cell(name) for name in world.program.globals
            if name not in func.locals and name not in func.params}
        self.read, self.write = access_hooks(world, mode, func.name)
        # global operands / destination of the step being built
        self.loads: List[Tuple[str, Loc]] = []
        self.store: Optional[Tuple[str, Loc]] = None

    # -- operand resolution ----------------------------------------------------

    def slot(self, name: str, write: bool = False) -> str:
        """The frame slot an instruction reads (or writes) *name* through;
        a global is also queued for staging around the step being built."""
        loc = self.globals.get(name)
        if loc is None:
            self.blank.setdefault(name)
        elif write:
            self.store = (name, loc)
        else:
            self.loads.append((name, loc))  # one hook call per occurrence
        return name

    def literal(self, value) -> str:
        """The template slot holding the constant *value* (None: null)."""
        key = f"#{value}"
        self.blank[key] = value
        return key

    def atom(self, atom: ir.Atom) -> str:
        if isinstance(atom, ir.VarAtom):
            return self.slot(atom.name)
        return self.literal(
            atom.value if isinstance(atom, ir.ConstAtom) else None)

    def emit(self, kind: int, fn, nxt: int, arg=None) -> int:
        """Append a step (staging its global operands); returns its index."""
        loads, store = tuple(self.loads), self.store
        self.loads, self.store = [], None
        if loads or store is not None:
            fn = self.staged(fn, loads, store)
        self.steps.append((kind, fn, nxt, arg))
        return len(self.steps) - 1

    def staged(self, fn, loads, store):
        read, write = self.read, self.write
        scratch = {name for name, _ in loads}
        if store is not None:
            scratch.add(store[0])

        def step(ex, cells, frame):
            for name, loc in loads:
                cells[name] = read(ex, loc)
            result = fn(ex, cells, frame)
            if store is not None:
                write(ex, store[1], cells[store[0]])
            for name in scratch:
                del cells[name]
            return result
        return step

    # -- blocks and control flow -----------------------------------------------

    def block(self, instrs: List[ir.Instr], after: int) -> int:
        """Compile *instrs*, leaving to step *after*; returns the entry."""
        releases: List[int] = []  # releaseAll steps awaiting their acquire
        nxt = after
        for index in range(len(instrs) - 1, -1, -1):
            instr = instrs[index]
            if isinstance(instr, ir.IAssign):
                nxt = self.assign(instr, nxt)
            elif isinstance(instr, ir.IStore):
                nxt = self.emit(EXEC, self.store_through(instr), nxt)
            elif isinstance(instr, ir.IIf):
                then = self.block(instr.then, nxt)
                orelse = self.block(instr.orelse, nxt)
                nxt = self.emit(BRANCH, self.cond(instr.cond), then, orelse)
            elif isinstance(instr, ir.IWhile):
                head = self.reserve()
                body = self.block(instr.body, head)
                nxt = self.emit_at(head, BRANCH, self.cond(instr.cond),
                                   body, nxt)
            elif isinstance(instr, ir.INop):
                nxt = self.emit(NOP, None, nxt, instr.cost)
            elif isinstance(instr, ir.IReturn):
                nxt = self.emit(RETURN, self.value(instr.value), END)
            elif isinstance(instr, ir.IAtomic):
                nxt = self.atomic(instr, nxt)
            elif isinstance(instr, ir.IReleaseAll):
                nxt = self.release(nxt)
                releases.append(nxt)
            elif isinstance(instr, ir.IAcquireAll):
                nxt = self.acquire(instr, nxt, index,
                                   releases.pop() if releases else None)
            else:
                raise InterpError(f"unknown instruction {instr!r}")
        return nxt

    def reserve(self) -> int:
        self.steps.append(None)
        return len(self.steps) - 1

    def emit_at(self, index: int, kind: int, fn, nxt: int, arg=None) -> int:
        self.emit(kind, fn, nxt, arg)
        self.steps[index] = self.steps.pop()
        return index

    def cond(self, cond: ir.Cond):
        a, b, op = self.atom(cond.left), self.atom(cond.right), cond.op
        if op in ("==", "!="):
            test = operator.eq if op == "==" else operator.ne
            return lambda ex, cells, frame: test(cells[a], cells[b])
        test = _ORDERED.get(op) or _raiser(f"unknown comparison {op!r}")

        def ordered(ex, cells, frame):
            left, right = cells[a], cells[b]
            if left.__class__ is not int or right.__class__ is not int:
                raise InterpError(f"ordered comparison of non-ints: {cond}")
            return test(left, right)
        return ordered

    def value(self, atom: Optional[ir.Atom]):
        if atom is None:
            return lambda ex, cells, frame: None
        a = self.atom(atom)
        return lambda ex, cells, frame: cells[a]

    # -- simple instructions ---------------------------------------------------

    def assign(self, instr: ir.IAssign, nxt: int) -> int:
        rhs = instr.rhs
        if isinstance(rhs, ir.RCall):
            return self.call(instr.dest, rhs, nxt)
        build = self.RHS.get(type(rhs))
        if build is None:
            raise InterpError(f"unknown RHS {rhs!r}")
        return self.emit(EXEC, build(self, self.slot(instr.dest, write=True), rhs, instr),
                         nxt)

    def call(self, dest: str, rhs: ir.RCall, nxt: int) -> int:
        args = tuple(self.atom(arg) for arg in rhs.args)

        def evaluate(ex, cells, frame):
            return [cells[arg] for arg in args]
        loc = self.globals.get(dest)
        if loc is None:
            self.blank.setdefault(dest)

            def store(ex, cells, value):
                cells[dest] = value
        else:
            write = self.write

            def store(ex, cells, value):
                write(ex, loc, value)
        return self.emit(CALL, evaluate, nxt, (rhs.func, store))

    def store_through(self, instr: ir.IStore):
        addr, value, write = self.slot(instr.addr), self.atom(instr.value), \
            self.write

        def store(ex, cells, frame):
            target = cells[addr]
            if target.__class__ is not Loc:
                raise InterpError(f"store through non-pointer: *{addr}")
            write(ex, target, cells[value])
        return store

    def move(self, dest: str, rhs, instr):
        if isinstance(rhs, ir.RVar):
            src = self.slot(rhs.src)
        else:
            src = self.literal(
                rhs.value if isinstance(rhs, ir.RConst) else None)

        def move(ex, cells, frame):
            cells[dest] = cells[src]
        return move

    def address(self, dest: str, rhs: ir.RAddrVar, instr):
        src = rhs.src
        loc = self.globals.get(src)
        if loc is not None:
            def address(ex, cells, frame):
                cells[dest] = loc
        else:
            self.blank.setdefault(src)

            def address(ex, cells, frame):
                cells[dest] = Loc(frame.obj, src)
        return address

    def load(self, dest: str, rhs: ir.RLoad, instr):
        src, read = self.slot(rhs.src), self.read

        def load(ex, cells, frame):
            addr = cells[src]
            if addr.__class__ is not Loc:
                raise InterpError(f"load through non-pointer: *{src}")
            cells[dest] = read(ex, addr)
        return load

    def field(self, dest: str, rhs: ir.RFieldAddr, instr):
        src, fieldname = self.slot(rhs.src), rhs.fieldname

        def field(ex, cells, frame):
            base = cells[src]
            if base.__class__ is not Loc:
                raise InterpError(f"field access on non-pointer: {src}")
            cells[dest] = Loc(base.obj, fieldname)
        return field

    def index(self, dest: str, rhs: ir.RIndexAddr, instr):
        src, at = self.slot(rhs.src), self.atom(rhs.index)

        def index(ex, cells, frame):
            base, offset = cells[src], cells[at]
            if base.__class__ is not Loc or offset.__class__ is not int:
                raise InterpError(f"bad index address: {src}[{rhs.index}]")
            cells[dest] = Loc(base.obj, offset)
        return index

    def tag_fresh(self):
        """How an allocation is marked private to its open section (paper
        Lemma 2): only a locks-mode section has a fresh set."""
        if self.mode != "locks":
            return lambda ex, loc: None

        def tag(ex, loc):
            if ex.lock_state.nlevel > 0:
                loc.obj.fresh_owner = ex.tid
                ex.fresh_objs.append(loc.obj)
        return tag

    def new(self, dest: str, rhs: ir.RNew, instr):
        struct = self.world.program.structs.get(rhs.type_name)
        if struct is not None:
            fields = [(name, 0 if isinstance(ftype, ast.IntType) else None)
                      for ftype, name in struct.fields]
            base_default = None
        else:
            fields = []
            base_default = 0 if rhs.type_name == "int" else None
        heap, label, tag = self.world.heap, rhs.type_name, self.tag_fresh()

        def new(ex, cells, frame):
            loc = heap.alloc_struct(instr.site, fields, label=label,
                                    base_default=base_default)
            tag(ex, loc)
            cells[dest] = loc
        return new

    def new_array(self, dest: str, rhs: ir.RNewArray, instr):
        size = self.atom(rhs.size)
        default = 0 if rhs.type_name == "int" else None
        heap, label, tag = self.world.heap, rhs.type_name + "[]", \
            self.tag_fresh()

        def new_array(ex, cells, frame):
            length = cells[size]
            if length.__class__ is not int:
                raise InterpError("array length must be an int")
            loc = heap.alloc_array(instr.site, length, label=label,
                                   default=default)
            tag(ex, loc)
            cells[dest] = loc
        return new_array

    def arith(self, dest: str, rhs: ir.RArith, instr):
        if rhs.right is None:
            return _raiser(f"unary arithmetic not supported: {rhs!r}")
        a, b, op = self.atom(rhs.left), self.atom(rhs.right), rhs.op
        if op in ("==", "!="):
            test = operator.eq if op == "==" else operator.ne

            def equal(ex, cells, frame):
                cells[dest] = 1 if test(cells[a], cells[b]) else 0
            return equal
        test = _ORDERED.get(op)
        if test is not None:
            what = "ordered comparison of"

            def apply(left, right):
                return 1 if test(left, right) else 0
        else:
            what = "arithmetic on"
            apply = _ARITH.get(op) or _raiser(f"unknown operator {op!r}")

        def arith(ex, cells, frame):
            left, right = cells[a], cells[b]
            if left.__class__ is not int or right.__class__ is not int:
                raise InterpError(f"{what} non-ints: {rhs!r}")
            cells[dest] = apply(left, right)
        return arith

    RHS = {
        ir.RVar: move, ir.RConst: move, ir.RNull: move,
        ir.RAddrVar: address, ir.RLoad: load, ir.RFieldAddr: field,
        ir.RIndexAddr: index, ir.RNew: new, ir.RNewArray: new_array,
        ir.RArith: arith,
    }

    # -- atomic sections -------------------------------------------------------

    def atomic(self, instr: ir.IAtomic, nxt: int) -> int:
        if self.mode == "seq":
            return self.block(instr.body, nxt)  # unprotected, in line
        if self.mode == "locks":
            return self.emit(EXEC, _raiser(
                "atomic section reached in locks mode; run the transformed "
                "program (inference.transform_program) instead"), nxt)
        # stm: the body is a region that ends where the step itself sits
        steps, at = self.steps, self.reserve()
        body = self.block(instr.body, at)
        return self.emit_at(
            at, SECTION,
            lambda ex, cells, frame: ex.transaction(steps, cells, frame,
                                                    body, at),
            nxt)

    def release(self, nxt: int) -> int:
        if self.mode != "locks":
            return self.emit(NOP, None, nxt, 1)
        return self.emit(SECTION, lambda ex, cells, frame: ex.release(), nxt)

    def acquire(self, instr: ir.IAcquireAll, nxt: int, index: int,
                release: Optional[int]) -> int:
        """*release* is the matching releaseAll step (None: this block has
        none), which a resilient world's retry loop needs."""
        if self.mode != "locks":
            # a transformed program run seq/stm (setup phases): sections
            # are not lock-protected
            return self.emit(NOP, None, nxt, 1)
        paths = {lock: self.term(lock.term)
                 for lock in instr.locks if lock.term is not None}
        if self.world.resilience is None:
            return self.emit(
                SECTION,
                lambda ex, cells, frame: ex.acquire(instr, paths, cells,
                                                    frame),
                nxt)
        steps = self.steps

        def enter(ex, cells, frame):
            if ex.lock_state.nlevel > 0:
                return ex.acquire(instr, paths, cells, frame)
            if release is None:
                raise InterpError(
                    f"unmatched acquireAll at instruction {index}: no "
                    "releaseAll in the same block")
            # outermost section with recovery: the whole acquire / body /
            # release span runs under the abort-retry loop
            return ex.resilient_section(steps, cells, frame, instr, paths,
                                        nxt, release)
        return self.emit(SECTION, enter, nxt)

    # -- lock descriptors (fine-grain expression locks) ------------------------

    def term(self, term: Term):
        """``(cells, frame) -> Loc | None``: the cell *term* protects, or
        None when it does not denote a heap cell in this state.  Lock
        terms read the heap raw: they are evaluated before (and
        re-validated under) the locks, outside every hook."""
        if isinstance(term, TVar):
            name = term.name
            loc = self.globals.get(name)
            if loc is not None:
                return lambda cells, frame: loc
            self.blank.setdefault(name)
            return lambda cells, frame: Loc(frame.obj, name)
        if isinstance(term, TStar):
            inner = self.term(term.inner)

            def deref(cells, frame):
                cell = inner(cells, frame)
                if cell is None:
                    return None
                value = cell.obj.cells.get(cell.off)
                return value if value.__class__ is Loc else None
            return deref
        if isinstance(term, (TPlus, TIndex)):
            inner = self.term(term.inner)
            offset = (self.index_expr(term.index) if isinstance(term, TIndex)
                      else (lambda cells, field=term.fieldname: field))

            def plus(cells, frame):
                cell, off = inner(cells, frame), offset(cells)
                if cell is None or off is None:
                    return None
                return Loc(cell.obj, off)
            return plus
        return _raiser(f"unknown lock term {term!r}")

    def index_expr(self, ie: IndexExpr):
        """``cells -> int | None`` for an entry-scope index expression."""
        if isinstance(ie, IConst):
            return lambda cells, value=ie.value: value
        if isinstance(ie, IVar):
            name = ie.name
            if name in self.globals:
                cells_of_globals = self.world.globals.obj.cells
                return lambda cells: _int_or_none(cells_of_globals[name])
            self.blank.setdefault(name)
            return lambda cells: _int_or_none(cells[name])
        if isinstance(ie, IBin):
            left, right = self.index_expr(ie.left), self.index_expr(ie.right)
            apply = _INDEX_ARITH.get(ie.op)

            def binary(cells):
                a, b = left(cells), right(cells)
                if a is None or b is None or apply is None:
                    return None
                try:
                    return apply(a, b)
                except ZeroDivisionError:
                    return None
            return binary
        return lambda cells: None  # IUnknown


def compile_function(world, func: ir.LoweredFunction, mode: str) -> Code:
    compiler = _Compiler(world, func, mode)
    entry = compiler.block(func.body, END)
    return Code(tuple(func.params), compiler.blank, compiler.steps, entry)
