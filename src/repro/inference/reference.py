"""The reference engine: the §4 rules run directly on ``{term: effect}``
dicts, with nothing remembered between visits.

This is the oracle the equivalence suites and ``benchmarks/perf`` compare
the bitset kernel against, so it is kept small enough to audit by eye and
imports nothing from :mod:`repro.inference.kernel` or
:mod:`repro.inference.facts`.  What it checks: that the kernel's fact encoding, gen/kill compilation, memo tables
and dependency-driven section convergence change no inferred lock.  What it cannot check: the rules of
:mod:`repro.inference.transfer` themselves and the summary fixpoint of
:mod:`repro.inference.solver`, which both engines share (Theorem 1 is
checked operationally instead, by ``repro.interp.checker``).
"""

from __future__ import annotations

import heapq
from typing import Dict, Iterable, Optional, Tuple

from ..cfg import Node, SectionInfo
from ..locks.effects import RO, eff_join
from .solver import DEADLINE_POLL_EVERY, Run, SummarySolver
from .subst import Substituter
from .transfer import Emissions, TermSet, is_call, join_into


class ReferenceEngine(SummarySolver):
    """Dict-based dataflow driver; ``LockInference`` never hands it a disk
    cache, so its answers are always computed."""

    def _converge_section(self, func_name: str, section: SectionInfo,
                          requester: tuple) -> Tuple[TermSet, Emissions]:
        # naive restart: re-run while any summary anywhere still moved
        while True:
            run = Run(self, requester)
            entry_terms = self._dataflow(func_name, section.nodes,
                                         section.enter, run)
            if not self._solve_summaries():
                return entry_terms, run.coarse

    def _dataflow(self, func_name: str, nodes: Iterable[Node], entry: Node,
                  run: Run, with_g: bool = True, exit: Optional[Node] = None,
                  seed: Optional[TermSet] = None) -> TermSet:
        rank = self._backward_rank(func_name)
        in_sets: Dict[int, TermSet] = {n.uid: {} for n in nodes}
        if exit is not None:
            in_sets[exit.uid] = dict(seed)
        worklist = [(rank[n.uid], n.uid, n) for n in nodes]
        heapq.heapify(worklist)
        queued = set(in_sets)
        pops = 0
        while worklist:
            pops += 1
            if not pops % DEADLINE_POLL_EVERY:
                self.poll()
            _, uid, node = heapq.heappop(worklist)
            queued.discard(uid)
            if node is exit:
                continue
            out: TermSet = {}
            for succ in node.succs:
                if succ.uid in in_sets:
                    join_into(out, in_sets[succ.uid])
            new_in = self._transfer(func_name, node, out, run, with_g)
            if new_in != in_sets[uid]:
                in_sets[uid] = new_in
                for pred in node.preds:
                    if pred.uid in in_sets and pred.uid not in queued:
                        queued.add(pred.uid)
                        heapq.heappush(
                            worklist, (rank[pred.uid], pred.uid, pred))
        return in_sets[entry.uid]

    def _transfer(self, func_name: str, node: Node, out: TermSet, run: Run,
                  with_g: bool) -> TermSet:
        self.stats["dataflow_steps"] += 1
        spec = self.spec
        if is_call(node):
            return spec.call_transfer(func_name, node.instr, out, run, with_g)
        write, gens, coarse = spec.node_rule(func_name, node, with_g)
        run.coarse |= coarse
        if write is None:
            result = dict(out)
        else:
            result = {}
            sub = Substituter(self.oracle, write, func_name)
            for term, eff in out.items():
                tracked, widened = spec.pre_image(func_name, sub, term)
                for pre in tracked:
                    result[pre] = eff_join(eff, result.get(pre, RO))
                for cls in widened:
                    run.coarse.add((cls, eff))
        join_into(result, gens)
        return result
