"""Runtime soundness checking (paper §4.2, Theorem 1).

The paper's operational semantics *gets stuck* when a thread inside an
atomic section accesses a shared location not protected by a lock it holds.
:class:`ProtectionChecker` implements exactly that check against the
concrete lock semantics: a held node covers a cell if it is

* the root ⊤ (in a granting mode),
* the cell's points-to class node, or
* the cell's own address node,

with S/SIX/X sufficient for reads and X required for writes. A violation
raises :class:`ProtectionError` — a failed run, never silently ignored.

:class:`SerializabilityAuditor` additionally records the access order of
atomic-section instances and verifies conflict-serializability (the weak
atomicity guarantee) by checking the conflict graph for cycles.
"""

from __future__ import annotations

from dataclasses import dataclass, field
from typing import Dict, List, Optional, Set, Tuple

from ..locks.effects import RO, RW
from ..pointer.steensgaard import PointsTo
from ..runtime.manager import LockManager, ROOT
from ..runtime.modes import grants_read, grants_write
from ..memory import Loc


class ProtectionError(RuntimeError):
    """A shared access inside an atomic section was not protected."""


class ProtectionChecker:
    def __init__(self, pointsto: PointsTo) -> None:
        self.pointsto = pointsto
        self.checked = 0
        self._site_classes: Dict[Tuple[int, object], Optional[int]] = {}

    def class_of_cell(self, loc: Loc) -> Optional[int]:
        obj = loc.obj
        if obj.kind == "heap":
            if obj.site is None:
                return None
            off = loc.off
            # the analysis is over by now, and every array cell of a
            # site is one class: remember the answer per (site, field)
            key = (obj.site, 0 if off.__class__ is int else off)
            try:
                return self._site_classes[key]
            except KeyError:
                cls = self._site_classes[key] = (
                    self.pointsto.class_of_site_cell(obj.site, off))
                return cls
        if obj.kind == "global":
            return self.pointsto.class_of_var("", str(loc.off))
        return None  # frame cells are thread-private

    def check(self, tid: int, manager: LockManager, loc: Loc, eff: str,
              where: str = "") -> None:
        """Verify the access; raise :class:`ProtectionError` if uncovered."""
        if not loc.obj.shared:
            return
        if loc.obj.fresh_owner == tid:
            return  # allocated by this thread inside the open section
        self.checked += 1
        cls = self.class_of_cell(loc)
        sufficient = grants_write if eff == RW else grants_read
        for node in manager.held_nodes(tid):
            mode = node.holders.get(tid)
            if mode is None or not sufficient(mode):
                continue
            name = node.name
            if name == ROOT:
                return
            if name[0] == "cls" and name[1] == cls:
                return
            if name[0] == "cell" and name[2] == loc.key:
                return
        raise ProtectionError(
            f"thread {tid}: unprotected {eff} access to {loc!r} "
            f"(class {cls}) {where}"
        )


@dataclass
class _CellHistory:
    last_writer: Optional[int] = None
    readers_since_write: Set[int] = field(default_factory=set)


class SerializabilityAuditor:
    """Conflict-serializability audit over atomic-section instances.

    Each executed atomic section instance is a node; for every pair of
    conflicting accesses (to the same cell, at least one a write) an edge is
    added from the earlier instance to the later one. Weak atomicity holds
    iff the graph is acyclic (some serial order explains the run).
    """

    def __init__(self) -> None:
        self._next_instance = 0
        self.edges: Dict[int, Set[int]] = {}
        self.instances: Dict[int, str] = {}
        self._history: Dict[Tuple[int, object], _CellHistory] = {}

    def begin_instance(self, section_id: str) -> int:
        instance = self._next_instance
        self._next_instance += 1
        self.instances[instance] = section_id
        self.edges[instance] = set()
        return instance

    def record(self, instance: int, loc: Loc, eff: str) -> None:
        if not loc.obj.shared:
            return
        history = self._history.setdefault(loc.key, _CellHistory())
        if eff == RW:
            if history.last_writer is not None and history.last_writer != instance:
                self.edges[history.last_writer].add(instance)
            for reader in history.readers_since_write:
                if reader != instance:
                    self.edges[reader].add(instance)
            history.last_writer = instance
            history.readers_since_write = set()
        else:
            if history.last_writer is not None and history.last_writer != instance:
                self.edges[history.last_writer].add(instance)
            history.readers_since_write.add(instance)

    def find_cycle(self) -> Optional[List[int]]:
        """Return a cycle of instances, or None if the run was serializable."""
        WHITE, GRAY, BLACK = 0, 1, 2
        color = {node: WHITE for node in self.edges}
        stack: List[int] = []

        def dfs(node: int) -> Optional[List[int]]:
            color[node] = GRAY
            stack.append(node)
            for succ in self.edges.get(node, ()):
                if color.get(succ, WHITE) == GRAY:
                    return stack[stack.index(succ):] + [succ]
                if color.get(succ, WHITE) == WHITE:
                    found = dfs(succ)
                    if found:
                        return found
            color[node] = BLACK
            stack.pop()
            return None

        for node in list(self.edges):
            if color[node] == WHITE:
                found = dfs(node)
                if found:
                    return found
        return None

    def assert_serializable(self) -> None:
        cycle = self.find_cycle()
        if cycle:
            names = " -> ".join(
                f"{node}({self.instances[node]})" for node in cycle
            )
            raise ProtectionError(f"non-serializable execution: {names}")
