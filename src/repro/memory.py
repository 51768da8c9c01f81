"""Concrete memory model: objects, cells, locations, frames.

A heap object is a record of *cells* indexed by offset: field names for
structs, integers for arrays, and ``None`` for the base cell (used by
``new int`` scalar allocations). A :class:`Loc` value is the address of one
cell. Mini-C values are ``None`` (null), Python ints, or :class:`Loc`.

Objects carry their allocation site so the soundness checker can map
concrete cells to points-to classes. Frame and global "objects" hold
variable cells; frame cells are thread-private (see DESIGN.md §4 — the
paper's thread-local-variable assumption).
"""

from __future__ import annotations

from typing import Dict, Iterable, Optional, Tuple, Union

Offset = Union[str, int, None]
CellKey = Tuple[int, Offset]  # (object id, offset) — hashable cell identity


class Obj:
    """One allocated object (heap record, array, frame, or globals block)."""

    __slots__ = ("oid", "site", "kind", "shared", "cells", "label",
                 "fresh_owner")

    def __init__(self, oid: int, site: Optional[int], kind: str,
                 label: str = "") -> None:
        self.oid = oid
        self.site = site  # allocation-site id (heap objects only)
        self.kind = kind  # "heap" | "frame" | "global"
        self.shared = kind != "frame"  # frame cells are thread-private
        self.cells: Dict[Offset, "Value"] = {}
        self.label = label
        # Thread id that allocated this object inside a still-open atomic
        # section; such objects are unreachable by other threads (paper
        # Lemma 2) and exempt from the protection check until section end.
        self.fresh_owner: Optional[int] = None

    def __repr__(self) -> str:
        tag = self.label or self.kind
        return f"<obj {self.oid} {tag}>"


class Loc:
    """The address of one cell: ``(object, offset)``."""

    __slots__ = ("obj", "off")

    def __init__(self, obj: Obj, off: Offset) -> None:
        self.obj = obj
        self.off = off

    @property
    def key(self) -> CellKey:
        return (self.obj.oid, self.off)

    def offset(self, off: Offset) -> "Loc":
        """``self + off``: the offset cell of the same object (paper's v + i)."""
        return Loc(self.obj, off)

    def __eq__(self, other: object) -> bool:
        return (
            isinstance(other, Loc)
            and self.obj is other.obj
            and self.off == other.off
        )

    def __hash__(self) -> int:
        return hash((self.obj.oid, self.off))

    def __repr__(self) -> str:
        off = "" if self.off is None else f".{self.off}"
        return f"&{self.obj!r}{off}"


Value = Union[None, int, Loc]


class InterpError(RuntimeError):
    """A stuck concrete execution (null deref, bad offset, type error)."""


class Heap:
    """The shared heap plus object allocation."""

    def __init__(self) -> None:
        self._next_oid = 0
        self.objects: Dict[int, Obj] = {}
        self.allocations = 0

    def new_obj(self, site: Optional[int], kind: str, label: str = "") -> Obj:
        obj = Obj(self._next_oid, site, kind, label)
        self._next_oid += 1
        self.objects[obj.oid] = obj
        if kind == "heap":
            self.allocations += 1
        return obj

    def alloc_struct(self, site: Optional[int],
                     fields: Iterable[Tuple[str, "Value"]],
                     label: str = "", base_default: "Value" = None) -> Loc:
        """Allocate a record. *fields* pairs each field name with its default
        value (0 for int fields, None/null for pointers)."""
        obj = self.new_obj(site, "heap", label)
        obj.cells[None] = base_default
        for fieldname, default in fields:
            obj.cells[fieldname] = default
        return Loc(obj, None)

    def alloc_array(self, site: Optional[int], length: int,
                    label: str = "", default: "Value" = None) -> Loc:
        if length < 0:
            raise InterpError(f"negative array length {length}")
        obj = self.new_obj(site, "heap", label)
        obj.cells[None] = default
        for i in range(length):
            obj.cells[i] = default
        return Loc(obj, None)

    @staticmethod
    def read(loc: Loc) -> Value:
        try:
            return loc.obj.cells[loc.off]
        except KeyError:
            raise InterpError(f"read of missing cell {loc!r}") from None

    @staticmethod
    def write(loc: Loc, value: Value) -> None:
        if loc.off not in loc.obj.cells:
            raise InterpError(f"write to missing cell {loc!r}")
        loc.obj.cells[loc.off] = value


class Frame:
    """One function activation: a private object holding variable cells."""

    __slots__ = ("func_name", "obj")

    def __init__(self, heap: Heap, func_name: str) -> None:
        self.func_name = func_name
        self.obj = heap.new_obj(None, "frame", label=f"frame:{func_name}")

    def cell(self, name: str) -> Loc:
        if name not in self.obj.cells:
            self.obj.cells[name] = None
        return Loc(self.obj, name)

    def get(self, name: str) -> Value:
        return self.obj.cells.get(name)

    def set(self, name: str, value: Value) -> None:
        self.obj.cells[name] = value

    def snapshot(self) -> Dict[str, Value]:
        return dict(self.obj.cells)

    def restore(self, snapshot: Dict[str, Value]) -> None:
        self.obj.cells.clear()
        self.obj.cells.update(snapshot)


class Globals:
    """The globals block: one shared object with a cell per global."""

    __slots__ = ("obj",)

    def __init__(self, heap: Heap, names: Iterable[str],
                 defaults: Optional[Dict[str, "Value"]] = None) -> None:
        self.obj = heap.new_obj(None, "global", label="globals")
        defaults = defaults or {}
        for name in names:
            self.obj.cells[name] = defaults.get(name)

    def cell(self, name: str) -> Loc:
        return Loc(self.obj, name)

    def __contains__(self, name: str) -> bool:
        return name in self.obj.cells
