"""Call-graph condensation: the order the summary solver walks.

Function summaries (:mod:`repro.inference.solver`) depend only on the
summaries of (transitive) callees, so the solver evaluates them bottom-up
over the condensation of the call graph: condense the defined functions
into strongly connected components (mutual recursion), then solve SCCs
level by level in reverse topological order.  Two SCCs on the same level
cannot call each other, so when a level is done every summary below it is
final — the safe point a checkpointing run flushes at.

The disk cache keys its entries on the same condensation
(:func:`repro.inference.diskcache.cone_hashes`).
"""

from __future__ import annotations

from dataclasses import dataclass, field
from typing import Dict, FrozenSet, List, Set, Tuple

from ..lang import ir


def call_graph(program: ir.LoweredProgram) -> Dict[str, Set[str]]:
    """Callees per function, restricted to functions defined in *program*.

    External callees (library specs / unknown functions) have no summaries
    of their own — the engine widens at the call site — so they do not
    appear as nodes; their names still land in the canonical function text
    used for hashing.
    """
    graph: Dict[str, Set[str]] = {}
    for name, func in program.functions.items():
        callees: Set[str] = set()
        for instr in ir.walk_instrs(func.body):
            if isinstance(instr, ir.IAssign) and isinstance(instr.rhs, ir.RCall):
                if instr.rhs.func in program.functions:
                    callees.add(instr.rhs.func)
        graph[name] = callees
    return graph


def tarjan_sccs(graph: Dict[str, Set[str]]) -> List[Tuple[str, ...]]:
    """SCCs of *graph* in reverse topological order (callees first).

    Iterative Tarjan over the deterministically ordered node list, so the
    SCC numbering is a pure function of the program text.  Tarjan emits a
    component only after every component reachable from it, which is
    exactly the bottom-up schedule the summary solver wants.
    """
    index: Dict[str, int] = {}
    lowlink: Dict[str, int] = {}
    on_stack: Set[str] = set()
    stack: List[str] = []
    sccs: List[Tuple[str, ...]] = []
    counter = [0]

    for root in sorted(graph):
        if root in index:
            continue
        work: List[Tuple[str, List[str], int]] = [
            (root, sorted(graph[root]), 0)
        ]
        index[root] = lowlink[root] = counter[0]
        counter[0] += 1
        stack.append(root)
        on_stack.add(root)
        while work:
            node, succs, at = work.pop()
            advanced = False
            while at < len(succs):
                succ = succs[at]
                at += 1
                if succ not in index:
                    work.append((node, succs, at))
                    index[succ] = lowlink[succ] = counter[0]
                    counter[0] += 1
                    stack.append(succ)
                    on_stack.add(succ)
                    work.append((succ, sorted(graph[succ]), 0))
                    advanced = True
                    break
                if succ in on_stack:
                    lowlink[node] = min(lowlink[node], index[succ])
            if advanced:
                continue
            if lowlink[node] == index[node]:
                component: List[str] = []
                while True:
                    member = stack.pop()
                    on_stack.discard(member)
                    component.append(member)
                    if member == node:
                        break
                sccs.append(tuple(sorted(component)))
            if work:
                parent = work[-1][0]
                lowlink[parent] = min(lowlink[parent], lowlink[node])
    return sccs


@dataclass
class CallSchedule:
    """The condensed call graph, leveled bottom-up.

    * ``sccs[i]`` — the functions of component *i* (sorted); components are
      numbered in reverse topological order, so ``i < j`` implies *j* never
      appears below *i*;
    * ``levels[d]`` — the component indices whose longest callee chain has
      depth *d*; components on one level are mutually call-independent;
    * ``level_of[i]`` — the level of component *i*;
    * ``func_scc`` — function name → component index;
    * ``scc_callees[i]`` — component indices directly called from *i*;
    * ``recursive[i]`` — whether component *i* actually contains a cycle
      (mutual recursion, or a self-call for singletons);
    * ``reachable(i)`` — every function in *i*'s cone (itself + transitive
      callees), the summary working set one component's solve can demand.
    """

    sccs: List[Tuple[str, ...]]
    levels: List[List[int]]
    level_of: List[int]
    func_scc: Dict[str, int]
    scc_callees: List[FrozenSet[int]]
    recursive: List[bool]
    _reachable: Dict[int, FrozenSet[str]] = field(default_factory=dict)

    def reachable(self, scc_index: int) -> FrozenSet[str]:
        cached = self._reachable.get(scc_index)
        if cached is None:
            funcs: Set[str] = set(self.sccs[scc_index])
            for callee in self.scc_callees[scc_index]:
                funcs |= self.reachable(callee)
            cached = frozenset(funcs)
            self._reachable[scc_index] = cached
        return cached

    def cone_funcs(self, func_name: str) -> FrozenSet[str]:
        """Every function the summaries of *func_name* can depend on."""
        return self.reachable(self.func_scc[func_name])


def build_schedule(program: ir.LoweredProgram) -> CallSchedule:
    """Condense *program*'s call graph into a bottom-up level schedule."""
    graph = call_graph(program)
    sccs = tarjan_sccs(graph)
    func_scc = {
        name: idx for idx, component in enumerate(sccs) for name in component
    }
    scc_callees: List[FrozenSet[int]] = []
    recursive: List[bool] = []
    for idx, component in enumerate(sccs):
        callees: Set[int] = set()
        for name in component:
            for callee in graph[name]:
                target = func_scc[callee]
                if target != idx:
                    callees.add(target)
        scc_callees.append(frozenset(callees))
        recursive.append(
            len(component) > 1 or component[0] in graph[component[0]]
        )
    # longest-path level: leaves at 0, every caller strictly above all its
    # callees — valid because reverse topological numbering means every
    # callee index is smaller than the caller's
    level_of: List[int] = [0] * len(sccs)
    for idx in range(len(sccs)):
        for callee in scc_callees[idx]:
            level_of[idx] = max(level_of[idx], level_of[callee] + 1)
    depth = max(level_of) + 1 if level_of else 0
    levels: List[List[int]] = [[] for _ in range(depth)]
    for idx, level in enumerate(level_of):
        levels[level].append(idx)
    return CallSchedule(sccs=sccs, levels=levels, level_of=level_of,
                        func_scc=func_scc, scc_callees=scc_callees,
                        recursive=recursive)
