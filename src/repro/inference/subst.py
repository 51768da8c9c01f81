"""Transfer-function core: backward pre-image substitution on lock terms.

The paper formalizes transfer functions as ``closure(S ∪ Id) − closure(Q)``
plus a may-alias rule for stores (Figure 4), and notes that the
implementation realizes them by *recursive substitution of expressions*
(§4.3). This module is that realization.

Every simple statement writes (at most) one cell. A :class:`WriteInfo`
describes it: a syntactic term that *definitely* names the written cell, the
cell's points-to class (for may-alias), and terms naming the stored value's
pointer / integer content in the pre-state (``None`` when the value is not
nameable — a fresh allocation, null, or a constant, whose target locations
are unreachable or stuck in the pre-state and hence need no lock, per the
paper's Lemma 2).

``pre_terms(term, write, ...)`` returns every pre-state term that may denote
the location the post-state *term* denotes:

* a deref step reading a cell that is *definitely* the written cell is
  replaced by the stored content (the strong update of Q);
* a deref step reading a cell that *may* be the written cell keeps both the
  unchanged reading (closure(Id)) and the stored-content alternative
  (the S_{*x=y} may-alias rule);
* all other steps are untouched.
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import Dict, FrozenSet, Optional, Set

from ..lang import ast, ir
from ..locks.terms import (
    IBin,
    IConst,
    IndexExpr,
    IUnknown,
    IVar,
    Term,
    TIndex,
    TPlus,
    TStar,
    TVar,
)
from ..pointer.aliasing import AliasOracle


@dataclass(frozen=True)
class WriteInfo:
    """One written cell and pre-state names for its new content."""

    definite: Term  # syntactic term definitely naming the written cell
    func: str  # scope of the write (for class lookups)
    ptr_content: Optional[Term]  # pre-state term for the stored pointer
    int_content: Optional[IndexExpr]  # pre-state expr for the stored integer


def atom_to_index(atom: ir.Atom) -> IndexExpr:
    if isinstance(atom, ir.VarAtom):
        return IVar(atom.name)
    if isinstance(atom, ir.ConstAtom):
        return IConst(atom.value)
    return IUnknown()


def content_terms_for_rhs(rhs: ir.RHS):
    """Pre-state names for the value of a simple RHS.

    Returns ``(ptr_content, int_content)``; either may be None. Calls are
    handled by the interprocedural engine, never here.
    """
    if isinstance(rhs, ir.RVar):
        return TStar(TVar(rhs.src)), IVar(rhs.src)
    if isinstance(rhs, ir.RAddrVar):
        return TVar(rhs.src), None
    if isinstance(rhs, ir.RLoad):
        # The loaded pointer is *(*ȳ); the loaded integer is not expressible
        # as an entry-scope index (IUnknown forces coarsening).
        return TStar(TStar(TVar(rhs.src))), None
    if isinstance(rhs, ir.RFieldAddr):
        return TPlus(TStar(TVar(rhs.src)), rhs.fieldname), None
    if isinstance(rhs, ir.RIndexAddr):
        return TIndex(TStar(TVar(rhs.src)), atom_to_index(rhs.index)), None
    if isinstance(rhs, (ir.RNew, ir.RNewArray, ir.RNull)):
        return None, None
    if isinstance(rhs, ir.RConst):
        return None, IConst(rhs.value)
    if isinstance(rhs, ir.RArith):
        if rhs.right is None:
            return None, IUnknown()
        return None, IBin(rhs.op, atom_to_index(rhs.left),
                          atom_to_index(rhs.right))
    if isinstance(rhs, ir.RCall):
        raise ValueError("calls are handled interprocedurally")
    raise TypeError(f"unknown RHS {rhs!r}")


def write_for_assign(func: str, instr: ir.IAssign) -> WriteInfo:
    ptr_content, int_content = content_terms_for_rhs(instr.rhs)
    return WriteInfo(
        definite=TVar(instr.dest),
        func=func,
        ptr_content=ptr_content,
        int_content=int_content,
    )


def write_for_store(func: str, instr: ir.IStore) -> WriteInfo:
    value = instr.value
    if isinstance(value, ir.VarAtom):
        ptr_content: Optional[Term] = TStar(TVar(value.name))
        int_content: Optional[IndexExpr] = IVar(value.name)
    elif isinstance(value, ir.ConstAtom):
        ptr_content, int_content = None, IConst(value.value)
    else:  # null
        ptr_content, int_content = None, None
    return WriteInfo(
        definite=TStar(TVar(instr.addr)),
        func=func,
        ptr_content=ptr_content,
        int_content=int_content,
    )


def write_for_return(func: str, instr: ir.IReturn) -> Optional[WriteInfo]:
    """``return v`` writes the pseudo-cell ``ret$f = v`` (paper §3.1).

    Returns ``None`` for a bare ``return`` — nothing is written.
    """
    if instr.value is None:
        return None
    if isinstance(instr.value, ir.VarAtom):
        ptr_content: Optional[Term] = TStar(TVar(instr.value.name))
    else:
        ptr_content = None
    return WriteInfo(
        definite=TVar(ast.return_var(func)),
        func=func,
        ptr_content=ptr_content,
        int_content=atom_to_index(instr.value)
        if not isinstance(instr.value, ir.NullAtom)
        else None,
    )


def write_for_return_binding(ret_var: str) -> "ir.IAssign":
    """The paper's ``x = ret_f`` pseudo-assignment used at call transfer."""
    return ir.IAssign("$unused", ir.RVar(ret_var))


class Substituter:
    """Applies one :class:`WriteInfo` backward to lock terms.

    Results are memoized per substituter: the dataflow fixpoint re-applies
    the same statement's pre-image to largely unchanged term sets on every
    iteration, and distinct terms share subterms (which hash-consing makes
    identical objects), so ``pre_terms``/``pre_index`` hit the memo far more
    often than they recurse. A substituter's answers depend only on its
    (write, scope, oracle) triple, so the bitset kernel keeps one per kill
    kernel for the engine's lifetime (``repro.inference.kernel``).
    """

    def __init__(self, oracle: AliasOracle, write: WriteInfo,
                 term_func: str) -> None:
        self.oracle = oracle
        self.write = write
        self.term_func = term_func
        self._term_memo: Dict[Term, FrozenSet[Term]] = {}
        self._index_memo: Dict[IndexExpr, FrozenSet[IndexExpr]] = {}

    def _is_definite(self, term: Term) -> bool:
        return self.term_func == self.write.func and term is self.write.definite

    def _may_be_written(self, term: Term) -> bool:
        return self.oracle.may_alias_terms(
            self.term_func, term, self.write.func, self.write.definite
        )

    def pre_terms(self, term: Term) -> FrozenSet[Term]:
        """All pre-state terms that may denote what *term* denotes post-state.

        An empty result means the denoted location is unreachable (or on a
        stuck path) in the pre-state — the term needs no pre-state lock.
        """
        cached = self._term_memo.get(term)
        if cached is None:
            cached = self._pre_terms_uncached(term)
            self._term_memo[term] = cached
        return cached

    def _pre_terms_uncached(self, term: Term) -> FrozenSet[Term]:
        if isinstance(term, TVar):
            return frozenset((term,))
        if isinstance(term, TStar):
            out: Set[Term] = set()
            for inner in self.pre_terms(term.inner):
                if self._is_definite(inner):
                    if self.write.ptr_content is not None:
                        out.add(self.write.ptr_content)
                elif self._may_be_written(inner):
                    out.add(TStar(inner))
                    if self.write.ptr_content is not None:
                        out.add(self.write.ptr_content)
                else:
                    out.add(TStar(inner))
            return frozenset(out)
        if isinstance(term, TPlus):
            return frozenset(
                TPlus(inner, term.fieldname) for inner in self.pre_terms(term.inner)
            )
        if isinstance(term, TIndex):
            inners = self.pre_terms(term.inner)
            indices = self.pre_index(term.index)
            return frozenset(
                TIndex(inner, index) for inner in inners for index in indices
            )
        raise TypeError(f"unknown term {term!r}")

    def pre_index(self, ie: IndexExpr) -> FrozenSet[IndexExpr]:
        cached = self._index_memo.get(ie)
        if cached is None:
            cached = self._pre_index_uncached(ie)
            self._index_memo[ie] = cached
        return cached

    def _pre_index_uncached(self, ie: IndexExpr) -> FrozenSet[IndexExpr]:
        if isinstance(ie, (IConst, IUnknown)):
            return frozenset((ie,))
        if isinstance(ie, IVar):
            cell = TVar(ie.name)
            replacement = self.write.int_content
            if replacement is None:
                replacement = IUnknown()
            if self._is_definite(cell):
                return frozenset((replacement,))
            if self._may_be_written(cell):
                return frozenset((ie, replacement))
            return frozenset((ie,))
        if isinstance(ie, IBin):
            lefts = self.pre_index(ie.left)
            rights = self.pre_index(ie.right)
            return frozenset(
                IBin(ie.op, left, right) for left in lefts for right in rights
            )
        raise TypeError(f"unknown index expr {ie!r}")
