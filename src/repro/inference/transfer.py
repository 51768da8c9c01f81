"""The §4 transfer rules, written once (paper Figure 4 and §4.3).

A backward dataflow tracks, per program point, a set of symbolic lock
terms with effects.  This module is the *specification* both drivers
(:mod:`repro.inference.reference`, :mod:`repro.inference.kernel`) run:

* :meth:`TransferSpec.node_rule` — what one statement node does: the cell
  it writes (a :class:`~repro.inference.subst.WriteInfo`, applied backward
  by :mod:`repro.inference.subst`: the S and Q relations) and the locks
  its own accesses generate (the G set);
* :meth:`TransferSpec.k_limit` — an inadmissible term widens to its
  points-to-class lock, which is flow-insensitive and accumulates
  out-of-band (§4.3: "our tool only tracks k-limited expressions until
  they become ⊤, at which point ... the corresponding points-to set lock
  is added to the analysis solution");
* :meth:`TransferSpec.call_transfer` — calls, through *function
  summaries* (§4.3).  A **transfer summary** ``("xfer", f, term, eff)``
  maps a lock term at f's exit to the terms/coarse locks protecting the
  same locations at f's entry (the paper's ``f_s``, with ``src(l)``
  bookkeeping replaced by explicit per-seed runs); an **access summary**
  ``("acc", f)`` covers every access inside f and its callees with terms
  at f's entry.  Pre-compiled callees use an
  :class:`~repro.inference.libspec.ExternalSpec` instead;
* :meth:`TransferSpec.summarize` — which entry terms of a finished
  function run are expressible to callers.

The rules hold no analysis state: a :class:`TransferSpec` bundles the
program, points-to result, alias oracle, library specs and k, and the two
tables it fills lazily (callee write effects, the classes a term reads)
are pure functions of the program.  Everything a run accumulates lives in the *run* object the
driver passes in, which supplies ``coarse`` (the set of ``(class, eff)``
emissions) and ``summary(key)`` (demand a summary for this run's
requester).
"""

from __future__ import annotations

from typing import Dict, FrozenSet, List, NamedTuple, Optional, Set, Tuple

from ..cfg import Node
from ..lang import ast, ir
from ..locks.effects import RO, RW, eff_join
from ..locks.terms import (
    IBin,
    IConst,
    IUnknown,
    IVar,
    Term,
    TIndex,
    TPlus,
    TStar,
    TVar,
    term_free_vars,
)
from ..pointer.aliasing import AliasOracle
from ..pointer.steensgaard import PointsTo
from .engine import CoarseSet, SummaryResult
from .libspec import ExternalSpec, SpecLibrary, reachable_classes
from .subst import (
    Substituter,
    WriteInfo,
    atom_to_index,
    write_for_assign,
    write_for_return,
    write_for_store,
)

# A dataflow fact set: term -> strongest effect required.
TermSet = Dict[Term, str]
# The mutable form of a CoarseSet while a run accumulates it.
Emissions = Set[Tuple[Optional[int], str]]
# TransferSpec.k_limit's answer for an admissible term.
TRACKED = object()


class NodeRule(NamedTuple):
    """One statement node's transfer: IN = pre-image(OUT, write) ⊔ gens,
    plus the constant coarse emissions of its widened G terms."""

    write: Optional[WriteInfo]  # None: every OUT fact passes unchanged
    gens: TermSet
    coarse: CoarseSet


def is_call(node: Node) -> bool:
    """Call nodes read the summary table, so they have no :class:`NodeRule`."""
    return (node.kind == "instr" and isinstance(node.instr, ir.IAssign)
            and isinstance(node.instr.rhs, ir.RCall))


def join_into(target: TermSet, source: TermSet) -> None:
    for term, eff in source.items():
        target[term] = eff_join(eff, target.get(term, RO))


class TransferSpec:
    """The §4 rules over one program and one k."""

    def __init__(self, program: ir.LoweredProgram, pointsto: PointsTo,
                 oracle: AliasOracle, specs: Optional[SpecLibrary],
                 k: int) -> None:
        self.program = program
        self.pointsto = pointsto
        self.oracle = oracle
        self.specs = specs
        self.k = k
        self._written_classes: Dict[str, Optional[FrozenSet[int]]] = {}
        self._direct_writes: Dict[str, Tuple[Set[int], Set[str]]] = {}
        self._read_classes: Dict[str, Dict[Term, FrozenSet[int]]] = {}

    def shadowed(self, func_name: str, name: str) -> bool:
        func = self.program.functions.get(func_name)
        if func is None:
            return False
        return name in func.locals or name in func.params

    def is_global(self, func_name: str, name: str) -> bool:
        return self.pointsto.var_key(func_name, name)[0] == ""

    # ------------------------------------------------------------------
    # k-limiting
    # ------------------------------------------------------------------

    def k_limit(self, func_name: str, term: Term):
        """Where *term* goes: ``None`` if it needs no lock, :data:`TRACKED`
        if it stays in the tracked set, else the id of the points-to class
        whose coarse lock it widens to."""
        if isinstance(term, TVar) and not self.is_global(func_name, term.name):
            return None  # a thread-local variable cell needs no lock (§4.3)
        if term.size > self.k or term.has_unknown:
            return self.oracle.class_of_term(func_name, term)
        return TRACKED

    def admit(self, func_name: str, term: Term, eff: str, result: TermSet,
              coarse: Emissions) -> None:
        """Add *term* to the tracked set, or widen it to a coarse lock."""
        cls = self.k_limit(func_name, term)
        if cls is TRACKED:
            result[term] = eff_join(eff, result.get(term, RO))
        elif cls is not None:
            coarse.add((cls, eff))

    def pre_image(self, func_name: str, sub: Substituter,
                  term: Term) -> Tuple[List[Term], List[int]]:
        """Carry one OUT term backward across *sub*'s write: the pre-state
        terms still tracked, and the classes the others widen to.

        The fact's effect is not an input — it is threaded through
        unchanged — and facts do not interact, so a statement's transfer
        is the union of these per-term images: the property the kernel's
        memo tables rest on.
        """
        tracked: List[Term] = []
        widened: List[int] = []
        for pre in sub.pre_terms(term):
            cls = self.k_limit(func_name, pre)
            if cls is TRACKED:
                tracked.append(pre)
            elif cls is not None:
                widened.append(cls)
        return tracked, widened

    # ------------------------------------------------------------------
    # statement nodes: the written cell and the G set
    # ------------------------------------------------------------------

    def node_rule(self, func_name: str, node: Node, with_g: bool) -> NodeRule:
        """The transfer of a non-call *node*; *with_g* is False while a
        transfer summary carries one seeded term through a callee, whose
        own accesses the access summary already covers."""
        write: Optional[WriteInfo] = None
        gens: TermSet = {}
        coarse: Emissions = set()
        if node.kind == "branch":
            if with_g:
                for atom in (node.cond.left, node.cond.right):
                    self._gen_var_read(func_name, atom, gens, coarse)
        elif node.kind == "instr":
            instr = node.instr
            if isinstance(instr, ir.IAssign):
                write = write_for_assign(func_name, instr)
                if with_g:
                    self._gen_assign(func_name, instr, gens, coarse)
            elif isinstance(instr, ir.IStore):
                write = write_for_store(func_name, instr)
                if with_g:
                    self.admit(func_name, TStar(TVar(instr.addr)), RW,
                               gens, coarse)
                    self._gen_var_read(func_name, ir.VarAtom(instr.addr),
                                       gens, coarse)
                    self._gen_var_read(func_name, instr.value, gens, coarse)
            elif isinstance(instr, ir.IReturn):
                write = write_for_return(func_name, instr)
                if write is not None and with_g:
                    self._gen_var_read(func_name, instr.value, gens, coarse)
            # INop / IAcquireAll / IReleaseAll: no write, no access
        return NodeRule(write, gens, frozenset(coarse))

    def _gen_assign(self, func_name: str, instr: ir.IAssign, gens: TermSet,
                    coarse: Emissions) -> None:
        self._gen_dest_write(func_name, instr.dest, gens, coarse)
        rhs = instr.rhs
        if isinstance(rhs, ir.RVar):
            self._gen_var_read(func_name, ir.VarAtom(rhs.src), gens, coarse)
        elif isinstance(rhs, ir.RLoad):
            self.admit(func_name, TStar(TVar(rhs.src)), RO, gens, coarse)
            self._gen_var_read(func_name, ir.VarAtom(rhs.src), gens, coarse)
        elif isinstance(rhs, (ir.RFieldAddr, ir.RIndexAddr)):
            self._gen_var_read(func_name, ir.VarAtom(rhs.src), gens, coarse)
            if isinstance(rhs, ir.RIndexAddr):
                self._gen_var_read(func_name, rhs.index, gens, coarse)
        elif isinstance(rhs, ir.RNewArray):
            self._gen_var_read(func_name, rhs.size, gens, coarse)
        elif isinstance(rhs, ir.RArith):
            self._gen_var_read(func_name, rhs.left, gens, coarse)
            if rhs.right is not None:
                self._gen_var_read(func_name, rhs.right, gens, coarse)
        # RAddrVar, RNew, RNull, RConst: no shared access

    def _gen_dest_write(self, func_name: str, dest: str, gens: TermSet,
                        coarse: Emissions) -> None:
        if self.is_global(func_name, dest):
            self.admit(func_name, TVar(dest), RW, gens, coarse)

    def _gen_var_read(self, func_name: str, atom: ir.Atom, gens: TermSet,
                      coarse: Emissions) -> None:
        if isinstance(atom, ir.VarAtom) and self.is_global(func_name,
                                                           atom.name):
            self.admit(func_name, TVar(atom.name), RO, gens, coarse)

    def _gen_call(self, func_name: str, instr: ir.IAssign, gens: TermSet,
                  coarse: Emissions) -> None:
        """The caller-side accesses of ``x = f(a...)``: x and the actuals."""
        self._gen_dest_write(func_name, instr.dest, gens, coarse)
        for arg in instr.rhs.args:
            self._gen_var_read(func_name, arg, gens, coarse)

    # ------------------------------------------------------------------
    # calls
    # ------------------------------------------------------------------

    def call_transfer(self, func_name: str, instr: ir.IAssign, out: TermSet,
                      run, with_g: bool) -> TermSet:
        """``x = f(a...)`` as ``p_i = a_i; body; x = ret_f`` (§4.1)."""
        rhs = instr.rhs
        callee = self.program.functions.get(rhs.func)
        if callee is None:
            spec = self.specs.get(rhs.func) if self.specs is not None else None
            if spec is not None:
                return self._spec_call_transfer(func_name, instr, spec, out,
                                                run, with_g)
            # Unknown function without a spec: protect everything.
            run.coarse.add((None, RW))
            return dict(out)
        result: TermSet = {}
        ret = ast.return_var(rhs.func)
        bind_ret = WriteInfo(
            definite=TVar(instr.dest),
            func=func_name,
            ptr_content=TStar(TVar(ret)),
            int_content=IVar(ret),
        )
        sub = Substituter(self.oracle, bind_ret, func_name)
        for term, eff in out.items():
            for t1 in sub.pre_terms(term):
                self._route_through_callee(func_name, rhs, callee, t1, eff,
                                           result, run)
        # the callee's own accesses
        acc = run.summary(("acc", rhs.func))
        self._apply_summary(func_name, rhs, callee, acc, result, run.coarse)
        if with_g:
            self._gen_call(func_name, instr, result, run.coarse)
        return result

    def _spec_call_transfer(self, func_name: str, instr: ir.IAssign,
                            spec: ExternalSpec, out: TermSet, run,
                            with_g: bool) -> TermSet:
        """Call transfer for a pre-compiled function described only by an
        :class:`ExternalSpec` (paper §4.3, library support)."""
        rhs = instr.rhs
        coarse = run.coarse
        result: TermSet = {}
        written: Set[int] = set()
        # 1. protect everything the callee may touch, per the spec
        for param_eff, arg in zip(spec.param_effects, rhs.args):
            if param_eff == "none" or not isinstance(arg, ir.VarAtom):
                continue
            start = self.pointsto.pts_class(
                self.pointsto.var_ecr(func_name, arg.name)
            )
            classes = reachable_classes(self.pointsto, start)
            eff = RO if param_eff == "ro" else RW
            for cls in classes:
                coarse.add((cls, eff))
            if param_eff == "rw":
                written |= classes
        if spec.reads_globals or spec.writes_globals:
            eff = RW if spec.writes_globals else RO
            for name in self.program.globals:
                cell = self.pointsto.var_ecr("", name)
                classes = reachable_classes(self.pointsto, cell)
                for cls in classes:
                    coarse.add((cls, eff))
                if spec.writes_globals:
                    written |= classes
        # 2. carry caller terms across the call
        ret_param = spec.return_param
        if spec.returns == "fresh":
            ptr_content: Optional[Term] = None
        elif ret_param is not None and ret_param < len(rhs.args) and isinstance(
            rhs.args[ret_param], ir.VarAtom
        ):
            ptr_content = TStar(TVar(rhs.args[ret_param].name))
        else:
            ptr_content = None  # only safe together with the check below
        returns_unknown = spec.returns == "unknown"
        bind = WriteInfo(
            definite=TVar(instr.dest),
            func=func_name,
            ptr_content=ptr_content,
            int_content=None,
        )
        sub = Substituter(self.oracle, bind, func_name)
        for term, eff in out.items():
            if returns_unknown and instr.dest in term_free_vars(term):
                # result value inexpressible: widen anything built on it
                coarse.add((self.oracle.class_of_term(func_name, term), eff))
                continue
            for pre in sub.pre_terms(term):
                if written & self.read_classes(func_name, pre):
                    coarse.add(
                        (self.oracle.class_of_term(func_name, pre), eff))
                else:
                    self.admit(func_name, pre, eff, result, coarse)
        if with_g:
            self._gen_call(func_name, instr, result, coarse)
        return result

    def _route_through_callee(self, func_name: str, call: ir.RCall,
                              callee: ir.LoweredFunction, term: Term,
                              eff: str, result: TermSet, run) -> None:
        ret = ast.return_var(call.func)
        free = term_free_vars(term)
        has_ret = ret in free
        caller_locals = {
            v
            for v in free
            if v != ret and not self.is_global(func_name, v)
        }
        if has_ret and not caller_locals:
            summary = run.summary(("xfer", call.func, term, eff))
            self._apply_summary(func_name, call, callee, summary, result,
                                run.coarse)
        elif has_ret:
            # mixed caller/callee scopes: not expressible, widen
            run.coarse.add((self.oracle.class_of_term(func_name, term), eff))
        elif self._callee_may_affect(call.func, func_name, term):
            run.coarse.add((self.oracle.class_of_term(func_name, term), eff))
        else:
            self.admit(func_name, term, eff, result, run.coarse)

    def _apply_summary(self, func_name: str, call: ir.RCall,
                       callee: ir.LoweredFunction, summary: SummaryResult,
                       result: TermSet, coarse: Emissions) -> None:
        coarse.update(summary.coarse)
        mapping: Dict[str, Tuple[Optional[Term], object]] = {}
        for param, arg in zip(callee.params, call.args):
            if isinstance(arg, ir.VarAtom):
                mapping[param] = (TStar(TVar(arg.name)), IVar(arg.name))
            elif isinstance(arg, ir.ConstAtom):
                mapping[param] = (None, atom_to_index(arg))
            else:
                mapping[param] = (None, None)
        for term, eff in summary.terms:
            unmapped = _unmap_term(term, mapping)
            if unmapped is _DROPPED:
                continue
            if unmapped is _INEXPRESSIBLE:
                coarse.add((self.oracle.class_of_term(call.func, term), eff))
                continue
            # residual callee vars mean the term is not caller-expressible
            residual = {
                v
                for v in term_free_vars(unmapped)
                if self.shadowed(call.func, v)
                and not self.is_global(func_name, v)
            }
            if residual:
                coarse.add((self.oracle.class_of_term(call.func, term), eff))
            else:
                self.admit(func_name, unmapped, eff, result, coarse)

    def summarize(self, func_name: str, entry: TermSet,
                  coarse: Emissions) -> SummaryResult:
        """The summary a finished run of *func_name* exports: its entry
        terms over globals and formals, the rest widened into *coarse*."""
        func = self.program.functions[func_name]
        params = set(func.params)
        terms: Set[Tuple[Term, str]] = set()
        for term, eff in entry.items():
            locals_used = {
                v for v in term_free_vars(term)
                if v not in self.program.globals
                or self.shadowed(func_name, v)
            }
            if locals_used - params:
                # references callee locals with no entry value: widen
                coarse.add((self.oracle.class_of_term(func_name, term), eff))
            elif isinstance(term, TVar) and term.name in func.params:
                pass  # the formal's own (fresh, thread-local) cell
            else:
                terms.add((term, eff))
        return SummaryResult(frozenset(terms), frozenset(coarse))

    # ------------------------------------------------------------------
    # callee write effects (for caller-scoped terms crossing a call)
    # ------------------------------------------------------------------

    def _callee_may_affect(self, callee_name: str, func_name: str,
                           term: Term) -> bool:
        written = self._written_classes_of(callee_name)
        if written is None:
            return True  # callee (transitively) calls unknown code
        return not written.isdisjoint(self.read_classes(func_name, term))

    def read_classes(self, func_name: str, term: Term) -> FrozenSet[int]:
        """Classes of every cell a term's evaluation reads (deref steps and
        index variables), memoized per scope on the hash-consed term.

        A write to a cell of any other class leaves the term's pre-image
        the term itself (``closure(Id)`` of Figure 4): every rewrite
        :class:`~repro.inference.subst.Substituter` makes is guarded by
        the oracle's may-alias on one of these cells, and may-alias implies
        class equality under both oracles.
        """
        memo = self._read_classes.get(func_name)
        if memo is None:
            memo = self._read_classes[func_name] = {}
        classes = memo.get(term)
        if classes is None:
            if isinstance(term, TVar):
                classes = frozenset()
            else:
                classes = self.read_classes(func_name, term.inner)
                if isinstance(term, TStar):
                    classes |= {self.oracle.class_of_term(func_name,
                                                          term.inner)}
                elif isinstance(term, TIndex):
                    classes |= self._index_read_classes(func_name, term.index)
            memo[term] = classes
        return classes

    def _index_read_classes(self, func_name: str, ie) -> FrozenSet[int]:
        if isinstance(ie, IVar):
            return frozenset(
                (self.oracle.class_of_term(func_name, TVar(ie.name)),))
        if isinstance(ie, IBin):
            return (self._index_read_classes(func_name, ie.left)
                    | self._index_read_classes(func_name, ie.right))
        return frozenset()

    def _written_classes_of(self, func_name: str) -> Optional[FrozenSet[int]]:
        """Classes of cells *func_name* (transitively) writes; None = unknown.

        The union of the direct writes of everything reachable in the call
        graph, so every member of a recursion cycle gets the whole cycle's
        writes whichever of them is asked first.
        """
        if func_name in self._written_classes:
            return self._written_classes[func_name]
        classes: Set[int] = set()
        reached = {func_name}
        pending = [func_name]
        result: Optional[FrozenSet[int]] = None
        while pending:
            name = pending.pop()
            if name not in self.program.functions:
                break  # unknown code: it may write anything
            written, callees = self._direct_writes_of(name)
            classes |= written
            pending.extend(callees - reached)
            reached |= callees
        else:
            result = frozenset(classes)
        self._written_classes[func_name] = result
        return result

    def _direct_writes_of(self, func_name: str) -> Tuple[Set[int], Set[str]]:
        """(classes of cells *func_name*'s own statements write, the
        functions it calls), from one memoized walk of its body."""
        direct = self._direct_writes.get(func_name)
        if direct is not None:
            return direct
        classes: Set[int] = set()
        callees: Set[str] = set()
        for instr in ir.walk_instrs(self.program.functions[func_name].body):
            if isinstance(instr, ir.IStore):
                ecr = self.pointsto.pts_class(
                    self.pointsto.var_ecr(func_name, instr.addr)
                )
                classes.add(self.pointsto.class_id(ecr))
            elif isinstance(instr, ir.IAssign):
                if self.is_global(func_name, instr.dest):
                    classes.add(self.pointsto.class_of_var(func_name, instr.dest))
                if isinstance(instr.rhs, ir.RCall):
                    callees.add(instr.rhs.func)
        direct = self._direct_writes[func_name] = (classes, callees)
        return direct


# A couple of private sentinels for unmapping outcomes.
_DROPPED = object()
_INEXPRESSIBLE = object()


def _unmap_term(term: Term, mapping: Dict[str, Tuple[Optional[Term], object]]):
    """Rewrite a callee-entry term into caller scope: every deref of a formal
    becomes the actual's content; every index use of a formal becomes the
    actual's integer value. Returns the rewritten term, ``_DROPPED`` (the
    binding's content is null/const so the path is stuck or fresh), or
    ``_INEXPRESSIBLE``."""
    if isinstance(term, TVar):
        return term
    if isinstance(term, TStar):
        inner = term.inner
        if isinstance(inner, TVar) and inner.name in mapping:
            ptr, _ = mapping[inner.name]
            return ptr if ptr is not None else _DROPPED
        sub = _unmap_term(inner, mapping)
        if sub in (_DROPPED, _INEXPRESSIBLE):
            return sub
        return TStar(sub)
    if isinstance(term, TPlus):
        sub = _unmap_term(term.inner, mapping)
        if sub in (_DROPPED, _INEXPRESSIBLE):
            return sub
        return TPlus(sub, term.fieldname)
    if isinstance(term, TIndex):
        sub = _unmap_term(term.inner, mapping)
        if sub in (_DROPPED, _INEXPRESSIBLE):
            return sub
        index = _unmap_index(term.index, mapping)
        if index is None:
            return _INEXPRESSIBLE
        return TIndex(sub, index)
    raise TypeError(f"unknown term {term!r}")


def _unmap_index(ie, mapping):
    if isinstance(ie, IVar):
        if ie.name in mapping:
            _, intval = mapping[ie.name]
            return intval if intval is not None else IUnknown()
        return ie
    if isinstance(ie, (IConst, IUnknown)):
        return ie
    if isinstance(ie, IBin):
        left = _unmap_index(ie.left, mapping)
        right = _unmap_index(ie.right, mapping)
        if left is None or right is None:
            return None
        return IBin(ie.op, left, right)
    raise TypeError(f"unknown index {ie!r}")
