"""Lowered intermediate representation.

Lowering rewrites surface programs into the *simple statement forms* on which
the paper's transfer functions (Figure 4) are defined::

    x = y        x = y + i      x = &y       x = *y
    x = new      x = null       *x = y       x = f(a0..an)

extended with integer constants/arithmetic, dynamic index address computation
``x = y +[ z ]``, array allocation, and ``nop`` padding. Control flow stays
structured (if / while / atomic); the CFG builder flattens it into program
points.

Nodes follow the convention of :mod:`repro.lang.ast`: atoms, right-hand
sides and conditions are immutable value nodes (shared between
instructions, compared by value); instructions are plain nodes.
"""

from __future__ import annotations

from typing import Dict, List, Optional, Tuple

from . import ast
from .ast import Node, ValueNode


# ---------------------------------------------------------------------------
# Atoms: trivially evaluable operands
# ---------------------------------------------------------------------------


class Atom(ValueNode):
    __slots__ = ()


class VarAtom(Atom):
    __slots__ = ("name",)

    def __init__(self, name: str) -> None:
        self.name = name

    def __str__(self) -> str:
        return self.name


class ConstAtom(Atom):
    __slots__ = ("value",)

    def __init__(self, value: int) -> None:
        self.value = value

    def __str__(self) -> str:
        return str(self.value)


class NullAtom(Atom):
    __slots__ = ()

    def __str__(self) -> str:
        return "null"


# ---------------------------------------------------------------------------
# Right-hand sides of simple assignments
# ---------------------------------------------------------------------------


class RHS(ValueNode):
    __slots__ = ()


class RVar(RHS):
    """x = y"""

    __slots__ = ("src",)

    def __init__(self, src: str) -> None:
        self.src = src

    def __str__(self) -> str:
        return self.src


class RAddrVar(RHS):
    """x = &y"""

    __slots__ = ("src",)

    def __init__(self, src: str) -> None:
        self.src = src

    def __str__(self) -> str:
        return f"&{self.src}"


class RLoad(RHS):
    """x = *y"""

    __slots__ = ("src",)

    def __init__(self, src: str) -> None:
        self.src = src

    def __str__(self) -> str:
        return f"*{self.src}"


class RFieldAddr(RHS):
    """x = y + f  (address of field f of the record y points to)"""

    __slots__ = ("src", "fieldname")

    def __init__(self, src: str, fieldname: str) -> None:
        self.src = src
        self.fieldname = fieldname

    def __str__(self) -> str:
        return f"{self.src} + .{self.fieldname}"


class RIndexAddr(RHS):
    """x = y +[ i ]  (address of cell i of the array y points to)"""

    __slots__ = ("src", "index")

    def __init__(self, src: str, index: Atom) -> None:
        self.src = src
        self.index = index

    def __str__(self) -> str:
        return f"{self.src} +[{self.index}]"


class RNew(RHS):
    """x = new T"""

    __slots__ = ("type_name",)

    def __init__(self, type_name: str) -> None:
        self.type_name = type_name

    def __str__(self) -> str:
        return f"new {self.type_name}"


class RNewArray(RHS):
    """x = new T[n]"""

    __slots__ = ("type_name", "size")

    def __init__(self, type_name: str, size: Atom) -> None:
        self.type_name = type_name
        self.size = size

    def __str__(self) -> str:
        return f"new {self.type_name}[{self.size}]"


class RNull(RHS):
    __slots__ = ()

    def __str__(self) -> str:
        return "null"


class RConst(RHS):
    __slots__ = ("value",)

    def __init__(self, value: int) -> None:
        self.value = value

    def __str__(self) -> str:
        return str(self.value)


class RArith(RHS):
    """x = a op b (or unary: b is None). Comparison ops yield 0/1."""

    __slots__ = ("op", "left", "right")

    def __init__(self, op: str, left: Atom,
                 right: Optional[Atom] = None) -> None:
        self.op = op
        self.left = left
        self.right = right

    def __str__(self) -> str:
        if self.right is None:
            return f"{self.op}{self.left}"
        return f"{self.left} {self.op} {self.right}"


class RCall(RHS):
    __slots__ = ("func", "args")

    def __init__(self, func: str, args: Tuple[Atom, ...]) -> None:
        self.func = func
        self.args = args

    def __str__(self) -> str:
        return f"{self.func}({', '.join(str(a) for a in self.args)})"


# ---------------------------------------------------------------------------
# Instructions
# ---------------------------------------------------------------------------


class Cond(ValueNode):
    """A branch condition over atoms: ``left op right``."""

    __slots__ = ("op", "left", "right")

    def __init__(self, op: str, left: Atom, right: Atom) -> None:
        self.op = op  # == != < <= > >=
        self.left = left
        self.right = right

    def __str__(self) -> str:
        return f"{self.left} {self.op} {self.right}"


class Instr(Node):
    __slots__ = ()


class IAssign(Instr):
    __slots__ = ("dest", "rhs", "site")

    def __init__(self, dest: str, rhs: RHS,
                 site: Optional[int] = None) -> None:
        self.dest = dest
        self.rhs = rhs
        # Allocation-site id, set by the pointer analysis numbering pass
        # when rhs is RNew/RNewArray; the interpreter tags heap objects
        # with it so the runtime checker can map concrete cells to
        # points-to classes.
        self.site = site

    def __str__(self) -> str:
        return f"{self.dest} = {self.rhs}"


class IStore(Instr):
    """``*addr = value`` where *addr* is a variable holding a cell address."""

    __slots__ = ("addr", "value")

    def __init__(self, addr: str, value: Atom) -> None:
        self.addr = addr
        self.value = value

    def __str__(self) -> str:
        return f"*{self.addr} = {self.value}"


class INop(Instr):
    __slots__ = ("cost",)

    def __init__(self, cost: int = 1) -> None:
        self.cost = cost

    def __str__(self) -> str:
        return f"nop({self.cost})"


class IReturn(Instr):
    __slots__ = ("value",)

    def __init__(self, value: Optional[Atom] = None) -> None:
        self.value = value

    def __str__(self) -> str:
        return f"return {self.value}" if self.value is not None else "return"


class IIf(Instr):
    __slots__ = ("cond", "then", "orelse")

    def __init__(self, cond: Cond, then: Optional[List[Instr]] = None,
                 orelse: Optional[List[Instr]] = None) -> None:
        self.cond = cond
        self.then = [] if then is None else then
        self.orelse = [] if orelse is None else orelse

    def __str__(self) -> str:
        return f"if ({self.cond}) ..."


class IWhile(Instr):
    """``while (cond) body`` — lowering re-evaluates cond temps at body end."""

    __slots__ = ("cond", "body")

    def __init__(self, cond: Cond, body: Optional[List[Instr]] = None) -> None:
        self.cond = cond
        self.body = [] if body is None else body

    def __str__(self) -> str:
        return f"while ({self.cond}) ..."


class IAtomic(Instr):
    __slots__ = ("section_id", "body")

    def __init__(self, section_id: str,
                 body: Optional[List[Instr]] = None) -> None:
        self.section_id = section_id
        self.body = [] if body is None else body

    def __str__(self) -> str:
        return f"atomic[{self.section_id}] ..."


class IAcquireAll(Instr):
    """Inserted by the transformation: acquire the locks for a section."""

    __slots__ = ("section_id", "locks")

    def __init__(self, section_id: str, locks: tuple) -> None:
        self.section_id = section_id
        self.locks = locks  # runtime lock descriptors (inference.transform)

    def __str__(self) -> str:
        return f"acquireAll[{self.section_id}]({len(self.locks)} locks)"


class IReleaseAll(Instr):
    __slots__ = ("section_id",)

    def __init__(self, section_id: str) -> None:
        self.section_id = section_id

    def __str__(self) -> str:
        return f"releaseAll[{self.section_id}]"


# ---------------------------------------------------------------------------
# Lowered functions / programs
# ---------------------------------------------------------------------------


class LoweredFunction(Node):
    __slots__ = ("name", "params", "body", "ret_type", "locals",
                 "param_types")

    def __init__(self, name: str, params: List[str], body: List[Instr],
                 ret_type: ast.Type,
                 locals: Optional[Dict[str, ast.Type]] = None,
                 param_types: Optional[List[ast.Type]] = None) -> None:
        self.name = name
        self.params = params
        self.body = body
        self.ret_type = ret_type
        self.locals = {} if locals is None else locals
        self.param_types = [] if param_types is None else param_types


class LoweredProgram(Node):
    __slots__ = ("structs", "globals", "functions", "source")

    def __init__(self, structs: Dict[str, ast.StructDecl],
                 globals: Dict[str, ast.GlobalDecl],
                 functions: Dict[str, LoweredFunction],
                 source: Optional[ast.Program] = None) -> None:
        self.structs = structs
        self.globals = globals
        self.functions = functions
        self.source = source

    def function(self, name: str) -> LoweredFunction:
        return self.functions[name]


def walk_instrs(instrs: List[Instr]):
    """Yield every instruction in *instrs*, recursing into control flow."""
    for instr in instrs:
        yield instr
        if isinstance(instr, IIf):
            yield from walk_instrs(instr.then)
            yield from walk_instrs(instr.orelse)
        elif isinstance(instr, IWhile):
            yield from walk_instrs(instr.body)
        elif isinstance(instr, IAtomic):
            yield from walk_instrs(instr.body)


def count_instrs(instrs: List[Instr]) -> int:
    return sum(1 for _ in walk_instrs(instrs))
