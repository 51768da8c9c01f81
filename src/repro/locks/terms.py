"""Symbolic lock terms: the expression locks of §3.3.1.

A *lock term* names a memory cell relative to a program state: ``TVar(x)``
denotes the cell of variable x (the paper's x̄, protecting &x); ``TStar(t)``
denotes the cell pointed to by the content of t's cell (the paper's * l);
``TPlus(t, f)`` denotes the offset cell (the paper's l + i); ``TIndex(t, ie)``
is the dynamic-offset extension, whose index is a pure integer expression
over entry-scope variables.

The backward dataflow of §4 tracks sets of these terms; the k-limited scheme
Σ_k admits terms of size ≤ k and widens larger ones to the enclosing
points-to-set (coarse) lock.

Terms are **hash-consed**: every constructor returns the canonical instance
for its arguments, so structurally equal terms are the *same object*.
Equality and hashing therefore run at identity speed (the default object
slots), and the k-limiting measures — ``size``, ``has_unknown``,
``free_vars`` — are computed once at construction (O(1) per node, since
subterms are already interned and carry their own caches) instead of by
recursive traversal on every :func:`term_size` query in the dataflow's
inner loop.

The identity-speed hash/eq property is load-bearing downstream: the
dense fact interner (:mod:`repro.inference.facts`) and the per-function
alias-class caches (:mod:`repro.pointer.aliasing`) key dicts directly by
term instances on the dataflow hot path, which is only O(1)-cheap
because hash-consing has already collapsed structural equality into
object identity.
"""

from __future__ import annotations

from typing import Dict, FrozenSet, Tuple, Union

_EMPTY_FROZENSET: FrozenSet[str] = frozenset()


# -- integer index expressions (evaluated at section entry) -------------------


class IndexExpr:
    """Base class for entry-scope integer index expressions."""

    __slots__ = ("size", "has_unknown", "free_vars")

    size: int
    has_unknown: bool
    free_vars: FrozenSet[str]


class IVar(IndexExpr):
    __slots__ = ("name",)

    _intern: Dict[str, "IVar"] = {}

    def __new__(cls, name: str) -> "IVar":
        self = cls._intern.get(name)
        if self is None:
            self = object.__new__(cls)
            self.name = name
            self.size = 0
            self.has_unknown = False
            self.free_vars = frozenset((name,))
            cls._intern[name] = self
        return self

    def __reduce__(self):
        return (IVar, (self.name,))

    def __repr__(self) -> str:
        return f"IVar(name={self.name!r})"

    def __str__(self) -> str:
        return self.name


class IConst(IndexExpr):
    __slots__ = ("value",)

    _intern: Dict[int, "IConst"] = {}

    def __new__(cls, value: int) -> "IConst":
        self = cls._intern.get(value)
        if self is None:
            self = object.__new__(cls)
            self.value = value
            self.size = 0
            self.has_unknown = False
            self.free_vars = _EMPTY_FROZENSET
            cls._intern[value] = self
        return self

    def __reduce__(self):
        return (IConst, (self.value,))

    def __repr__(self) -> str:
        return f"IConst(value={self.value!r})"

    def __str__(self) -> str:
        return str(self.value)


class IBin(IndexExpr):
    __slots__ = ("op", "left", "right")

    _intern: Dict[Tuple[str, IndexExpr, IndexExpr], "IBin"] = {}

    def __new__(cls, op: str, left: IndexExpr, right: IndexExpr) -> "IBin":
        key = (op, left, right)
        self = cls._intern.get(key)
        if self is None:
            self = object.__new__(cls)
            self.op = op
            self.left = left
            self.right = right
            self.size = 1 + left.size + right.size
            self.has_unknown = left.has_unknown or right.has_unknown
            self.free_vars = left.free_vars | right.free_vars
            cls._intern[key] = self
        return self

    def __reduce__(self):
        return (IBin, (self.op, self.left, self.right))

    def __repr__(self) -> str:
        return f"IBin(op={self.op!r}, left={self.left!r}, right={self.right!r})"

    def __str__(self) -> str:
        return f"({self.left} {self.op} {self.right})"


class IUnknown(IndexExpr):
    """An index value not expressible at section entry (forces coarsening)."""

    __slots__ = ()

    _instance: "IUnknown" = None  # type: ignore[assignment]

    def __new__(cls) -> "IUnknown":
        self = cls._instance
        if self is None:
            self = object.__new__(cls)
            self.size = 0
            self.has_unknown = True
            self.free_vars = _EMPTY_FROZENSET
            cls._instance = self
        return self

    def __reduce__(self):
        return (IUnknown, ())

    def __repr__(self) -> str:
        return "IUnknown()"

    def __str__(self) -> str:
        return "?"


# -- lock terms ----------------------------------------------------------------


class Term:
    """Base class for lock terms (hash-consed; see module docstring)."""

    __slots__ = ("size", "has_unknown", "free_vars")

    size: int
    has_unknown: bool
    free_vars: FrozenSet[str]


class TVar(Term):
    """x̄ — protects the cell of variable x (its address &x)."""

    __slots__ = ("name",)

    _intern: Dict[str, "TVar"] = {}

    def __new__(cls, name: str) -> "TVar":
        self = cls._intern.get(name)
        if self is None:
            self = object.__new__(cls)
            self.name = name
            self.size = 1
            self.has_unknown = False
            self.free_vars = frozenset((name,))
            cls._intern[name] = self
        return self

    def __reduce__(self):
        return (TVar, (self.name,))

    def __repr__(self) -> str:
        return f"TVar(name={self.name!r})"

    def __str__(self) -> str:
        return f"{self.name}̄"  # x̄


class TStar(Term):
    """* t — protects the cell pointed to by the content of t's cell."""

    __slots__ = ("inner",)

    _intern: Dict[Term, "TStar"] = {}

    def __new__(cls, inner: Term) -> "TStar":
        self = cls._intern.get(inner)
        if self is None:
            self = object.__new__(cls)
            self.inner = inner
            self.size = 1 + inner.size
            self.has_unknown = inner.has_unknown
            self.free_vars = inner.free_vars
            cls._intern[inner] = self
        return self

    def __reduce__(self):
        return (TStar, (self.inner,))

    def __repr__(self) -> str:
        return f"TStar(inner={self.inner!r})"

    def __str__(self) -> str:
        return f"*{self.inner}"


class TPlus(Term):
    """t + f — protects the field-f cell of the object whose base t denotes."""

    __slots__ = ("inner", "fieldname")

    _intern: Dict[Tuple[Term, str], "TPlus"] = {}

    def __new__(cls, inner: Term, fieldname: str) -> "TPlus":
        key = (inner, fieldname)
        self = cls._intern.get(key)
        if self is None:
            self = object.__new__(cls)
            self.inner = inner
            self.fieldname = fieldname
            self.size = 1 + inner.size
            self.has_unknown = inner.has_unknown
            self.free_vars = inner.free_vars
            cls._intern[key] = self
        return self

    def __reduce__(self):
        return (TPlus, (self.inner, self.fieldname))

    def __repr__(self) -> str:
        return f"TPlus(inner={self.inner!r}, fieldname={self.fieldname!r})"

    def __str__(self) -> str:
        return f"({self.inner} + .{self.fieldname})"


class TIndex(Term):
    """t +[ie] — protects the dynamically indexed cell."""

    __slots__ = ("inner", "index")

    _intern: Dict[Tuple[Term, IndexExpr], "TIndex"] = {}

    def __new__(cls, inner: Term, index: IndexExpr) -> "TIndex":
        key = (inner, index)
        self = cls._intern.get(key)
        if self is None:
            self = object.__new__(cls)
            self.inner = inner
            self.index = index
            self.size = 1 + inner.size + index.size
            self.has_unknown = inner.has_unknown or index.has_unknown
            self.free_vars = inner.free_vars | index.free_vars
            cls._intern[key] = self
        return self

    def __reduce__(self):
        return (TIndex, (self.inner, self.index))

    def __repr__(self) -> str:
        return f"TIndex(inner={self.inner!r}, index={self.index!r})"

    def __str__(self) -> str:
        return f"({self.inner} +[{self.index}])"


_INTERNED_CLASSES = (IVar, IConst, IBin, TVar, TStar, TPlus, TIndex)


def interning_stats() -> Dict[str, int]:
    """Size of each intern table (for the :class:`AnalysisProfile`)."""
    return {cls.__name__: len(cls._intern) for cls in _INTERNED_CLASSES}


# -- measures ---------------------------------------------------------------


def index_size(ie: IndexExpr) -> int:
    return ie.size


def term_size(term: Term) -> int:
    """The k-limiting length: 1 for the base variable plus 1 per operator."""
    return term.size


def index_has_unknown(ie: IndexExpr) -> bool:
    return ie.has_unknown


def term_has_unknown(term: Term) -> bool:
    """True if the term contains an index not evaluable at section entry."""
    return term.has_unknown


def index_free_vars(ie: IndexExpr) -> FrozenSet[str]:
    return ie.free_vars


def term_free_vars(term: Term) -> FrozenSet[str]:
    return term.free_vars


def base_var(term: Term) -> str:
    """The variable at the root of the pointer spine."""
    while not isinstance(term, TVar):
        term = term.inner  # type: ignore[attr-defined]
    return term.name


def term_for_access_path(var: str, *ops: Union[str, int]) -> Term:
    """Convenience constructor: ``term_for_access_path('x', '*', 'f', '*')``
    builds ``*((*x̄) + .f)`` reading ops left to right ('*' = deref,
    str = field offset, int = constant index)."""
    term: Term = TVar(var)
    for op in ops:
        if op == "*":
            term = TStar(term)
        elif isinstance(op, int):
            term = TIndex(term, IConst(op))
        else:
            term = TPlus(term, op)
    return term
