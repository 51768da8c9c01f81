"""Abstract syntax for the mini-C input language (paper Figure 3).

The surface language follows the paper's input language::

    st ::= x = e | *x = e | if (b) st else st | while (b) st
         | st ; st | atomic { st }
    e  ::= x | *x | &x | x + i | new(n) | null | f(a0, ..., an)
    b  ::= x == y | b || b | b && b | !b

extended conservatively (see DESIGN.md section 5) with:

* integer payloads and arithmetic (``IntLit``, ``Binary``, ``Unary``),
* dynamic array indexing ``e[i]`` (needed for hash buckets),
* struct declarations that name the field-offset domain ``F``,
* ``return`` statements, modeled as assignments to ``ret_f`` per the paper.

The surface AST is produced by :mod:`repro.lang.parser` and consumed by
:mod:`repro.lang.lower`, which rewrites it into the simple statement forms
used by the transfer functions of the paper's Figure 4.

Node classes (here and in :mod:`repro.lang.ir`) follow one convention:
every concrete class lists its fields in ``__slots__``, in constructor
order, and sets them in a hand-written ``__init__`` — one plain attribute
store per field.  :class:`Node` derives ``repr`` and positional pickling
from ``__slots__``; :class:`ValueNode` adds field-wise ``==``/``hash`` for
the immutable nodes that are compared or used as keys.
"""

from __future__ import annotations

from typing import Dict, List, Optional, Tuple


class Node:
    """Base of every AST and IR node."""

    __slots__ = ()

    def __reduce__(self):
        # positional: a pickle holds the class once and one tuple of field
        # values per node, and loading calls the constructor
        return self.__class__, tuple([getattr(self, name)
                                      for name in self.__slots__])

    def __repr__(self) -> str:
        fields = ", ".join(f"{name}={getattr(self, name)!r}"
                           for name in self.__slots__)
        return f"{self.__class__.__qualname__}({fields})"


class ValueNode(Node):
    """A node that is equal to, and hashes like, any node of its class
    with equal fields."""

    __slots__ = ()

    def __eq__(self, other) -> bool:
        if other.__class__ is not self.__class__:
            return NotImplemented
        return all(getattr(self, name) == getattr(other, name)
                   for name in self.__slots__)

    def __hash__(self) -> int:
        return hash(tuple([getattr(self, name) for name in self.__slots__]))


# ---------------------------------------------------------------------------
# Types
# ---------------------------------------------------------------------------


class Type(ValueNode):
    """Base class for mini-C types."""

    __slots__ = ()


class IntType(Type):
    __slots__ = ()

    def __str__(self) -> str:
        return "int"


class VoidType(Type):
    __slots__ = ()

    def __str__(self) -> str:
        return "void"


class PtrType(Type):
    """Pointer to a struct (by name), to ``int``, or to another pointer."""

    __slots__ = ("target",)

    def __init__(self, target: str) -> None:
        self.target = target  # struct name, "int", or a pointer spelled "T*"

    def __str__(self) -> str:
        return f"{self.target}*"


INT = IntType()
VOID = VoidType()


def ptr(target: str) -> PtrType:
    return PtrType(target)


# ---------------------------------------------------------------------------
# Expressions
# ---------------------------------------------------------------------------


class Expr(Node):
    """Base class for surface expressions."""

    __slots__ = ()


class Var(Expr):
    __slots__ = ("name",)

    def __init__(self, name: str) -> None:
        self.name = name

    def __str__(self) -> str:
        return self.name


class IntLit(Expr):
    __slots__ = ("value",)

    def __init__(self, value: int) -> None:
        self.value = value

    def __str__(self) -> str:
        return str(self.value)


class Null(Expr):
    __slots__ = ()

    def __str__(self) -> str:
        return "null"


class New(Expr):
    """``new T`` — allocate a record with one cell per field of struct T.

    ``new int`` allocates a single-cell object (its base cell holds the int).
    """

    __slots__ = ("type_name",)

    def __init__(self, type_name: str) -> None:
        self.type_name = type_name

    def __str__(self) -> str:
        return f"new {self.type_name}"


class NewArray(Expr):
    """``new T[n]`` — allocate an object with integer-offset cells 0..n-1."""

    __slots__ = ("type_name", "size")

    def __init__(self, type_name: str, size: Expr) -> None:
        self.type_name = type_name
        self.size = size

    def __str__(self) -> str:
        return f"new {self.type_name}[{self.size}]"


class Deref(Expr):
    """``*e`` — read the cell addressed by e (or, as an lvalue, that cell)."""

    __slots__ = ("ptr",)

    def __init__(self, ptr: Expr) -> None:
        self.ptr = ptr

    def __str__(self) -> str:
        return f"*{self.ptr}"


class AddrOf(Expr):
    """``&lv`` — the address of an lvalue."""

    __slots__ = ("lvalue",)

    def __init__(self, lvalue: Expr) -> None:
        self.lvalue = lvalue

    def __str__(self) -> str:
        return f"&{self.lvalue}"


class FieldAccess(Expr):
    """``e->f`` — reads ``*(e + f)``; as an lvalue it is the cell ``e + f``."""

    __slots__ = ("ptr", "fieldname")

    def __init__(self, ptr: Expr, fieldname: str) -> None:
        self.ptr = ptr
        self.fieldname = fieldname

    def __str__(self) -> str:
        return f"{self.ptr}->{self.fieldname}"


class IndexAccess(Expr):
    """``e[i]`` — reads ``*(e +[i])``; as an lvalue it is the cell ``e +[i]``."""

    __slots__ = ("base", "index")

    def __init__(self, base: Expr, index: Expr) -> None:
        self.base = base
        self.index = index

    def __str__(self) -> str:
        return f"{self.base}[{self.index}]"


class Unary(Expr):
    __slots__ = ("op", "operand")

    def __init__(self, op: str, operand: Expr) -> None:
        self.op = op  # "-" | "!"
        self.operand = operand

    def __str__(self) -> str:
        return f"{self.op}{self.operand}"


class Binary(Expr):
    __slots__ = ("op", "left", "right")

    def __init__(self, op: str, left: Expr, right: Expr) -> None:
        self.op = op  # + - * / % == != < <= > >= && ||
        self.left = left
        self.right = right

    def __str__(self) -> str:
        return f"({self.left} {self.op} {self.right})"


class CallExpr(Expr):
    __slots__ = ("func", "args")

    def __init__(self, func: str, args: Tuple[Expr, ...]) -> None:
        self.func = func
        self.args = args

    def __str__(self) -> str:
        return f"{self.func}({', '.join(str(a) for a in self.args)})"


# ---------------------------------------------------------------------------
# Statements
# ---------------------------------------------------------------------------


class Stmt(Node):
    """Base class for surface statements."""

    __slots__ = ()


class VarDecl(Stmt):
    __slots__ = ("type", "name", "init")

    def __init__(self, type: Type, name: str,
                 init: Optional[Expr] = None) -> None:
        self.type = type
        self.name = name
        self.init = init


class Assign(Stmt):
    """``lv = e`` where lv is Var, Deref, FieldAccess, or IndexAccess."""

    __slots__ = ("target", "value")

    def __init__(self, target: Expr, value: Expr) -> None:
        self.target = target
        self.value = value


class ExprStmt(Stmt):
    """A call evaluated for its effects: ``f(a, b);``."""

    __slots__ = ("expr",)

    def __init__(self, expr: Expr) -> None:
        self.expr = expr


class If(Stmt):
    __slots__ = ("cond", "then", "orelse")

    def __init__(self, cond: Expr, then: "Block",
                 orelse: Optional["Block"] = None) -> None:
        self.cond = cond
        self.then = then
        self.orelse = orelse


class While(Stmt):
    __slots__ = ("cond", "body")

    def __init__(self, cond: Expr, body: "Block") -> None:
        self.cond = cond
        self.body = body


class Block(Stmt):
    __slots__ = ("stmts",)

    def __init__(self, stmts: Optional[List[Stmt]] = None) -> None:
        self.stmts = [] if stmts is None else stmts


class Atomic(Stmt):
    __slots__ = ("body",)

    def __init__(self, body: Block) -> None:
        self.body = body


class Return(Stmt):
    __slots__ = ("value",)

    def __init__(self, value: Optional[Expr] = None) -> None:
        self.value = value


class Nop(Stmt):
    """``nop(n);`` — n ticks of simulated work (the paper's nop padding)."""

    __slots__ = ("cost",)

    def __init__(self, cost: int = 1) -> None:
        self.cost = cost


# ---------------------------------------------------------------------------
# Declarations / program
# ---------------------------------------------------------------------------


class StructDecl(Node):
    __slots__ = ("name", "fields")

    def __init__(self, name: str, fields: List[Tuple[Type, str]]) -> None:
        self.name = name
        self.fields = fields

    @property
    def field_names(self) -> List[str]:
        return [name for _, name in self.fields]


class GlobalDecl(Node):
    __slots__ = ("type", "name")

    def __init__(self, type: Type, name: str) -> None:
        self.type = type
        self.name = name


class Param(Node):
    __slots__ = ("type", "name")

    def __init__(self, type: Type, name: str) -> None:
        self.type = type
        self.name = name


class FunctionDecl(Node):
    __slots__ = ("ret_type", "name", "params", "body")

    def __init__(self, ret_type: Type, name: str, params: List[Param],
                 body: Block) -> None:
        self.ret_type = ret_type
        self.name = name
        self.params = params
        self.body = body

    @property
    def param_names(self) -> List[str]:
        return [p.name for p in self.params]


class Program(Node):
    __slots__ = ("structs", "globals", "functions")

    def __init__(self, structs: Optional[Dict[str, StructDecl]] = None,
                 globals: Optional[Dict[str, GlobalDecl]] = None,
                 functions: Optional[Dict[str, FunctionDecl]] = None) -> None:
        self.structs = {} if structs is None else structs
        self.globals = {} if globals is None else globals
        self.functions = {} if functions is None else functions

    def struct(self, name: str) -> StructDecl:
        return self.structs[name]

    def function(self, name: str) -> FunctionDecl:
        return self.functions[name]


RET_PREFIX = "ret$"


def return_var(func_name: str) -> str:
    """The special variable ``ret_f`` modeling f's return value (paper 3.1)."""
    return RET_PREFIX + func_name
