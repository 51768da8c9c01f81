"""The bitset engine: the §4 rules compiled to gen/kill kernels over ints.

Every ``(term, effect)`` fact is interned to a dense per-run ID (see
:mod:`repro.inference.facts`): per-node IN/OUT sets are arbitrary-precision
``int``s, the join is a single bitwise OR and fixpoint change detection is
integer equality.  On top of that representation, each of these is
result-preserving (:mod:`repro.inference.reference` is the oracle) and
listed in ``docs/PERFORMANCE.md`` beside the measurement that keeps it:

* statement transfers are distributive over the fact set and
  effect-linear (:meth:`TransferSpec.pre_image`), so each node gets a
  **gen/kill kernel**: its :class:`~repro.inference.transfer.NodeRule`'s
  G set as a precomputed bitset, plus an *identity mask* of fact pairs
  proven to pass through the node's write unchanged — the frame,
  Figure 4's ``closure(Id)``, read off a per-scope **read-class index**:
  a tracked term none of whose cells share the written cell's points-to
  class is its own pre-image — with a **per-term memo** of pre-image bits
  and coarse emissions for the terms the write can touch (the per-fact
  fallback path);
* the kill side of a (write, scope) pair — its pre-image
  :class:`~repro.inference.subst.Substituter` and the memo built from it
  — is shared by every node performing that write and persists across
  fixpoint iterations;
* sections converge by **dependency-driven invalidation**: the solver's
  bottom-up walk has already solved every access summary a section reads,
  so what is left to move are the transfer summaries the section's own
  dataflow demands, and a section is re-run only when one of those
  changed, not whenever any summary anywhere moved.

Call nodes are not distributive — they read the summary table — so they
decode, run :meth:`TransferSpec.call_transfer`, and encode again.
"""

from __future__ import annotations

import heapq
from typing import Dict, Iterable, Optional, Tuple

from ..cfg import Node, SectionInfo
from ..locks.effects import RO, RW
from .facts import FactInterner, popcount
from .solver import DEADLINE_POLL_EVERY, Run, SummarySolver
from .subst import Substituter, WriteInfo
from .transfer import TRACKED, CoarseSet, Emissions, TermSet, is_call


class _ReadIndex:
    """One function scope's read-class index over the fact terms seen
    there, as pair masks: ``known`` covers every indexed term, ``tracked``
    those the k-limit keeps, and ``readers[cls]`` the tracked terms whose
    evaluation reads a cell of points-to class *cls*
    (:meth:`TransferSpec.read_classes`)."""

    __slots__ = ("known", "tracked", "readers")

    def __init__(self) -> None:
        self.known = 0
        self.tracked = 0
        self.readers: Dict[int, int] = {}


class _KillKernel:
    """The kill side of one ``(WriteInfo, scope)`` pair's transfer.

    ``identity_mask`` covers the fact pairs proven to pass through the
    write unchanged, so a warmed-up visit is
    ``(out & identity_mask) | gen_bits``.  It is the frame of the write:
    of the terms in ``known`` (the scope's index when the mask was last
    refreshed), the tracked ones that read no cell of ``write_class`` —
    see ``Engine._refresh_frame``.  ``memo`` holds the per-term pre-image
    for everything else (keyed by term ID; one entry serves both effects),
    including the few identities the class test cannot see.
    Kill kernels are shared by every node performing the same write in the
    same scope — and by a node's ``with_g`` on/off kernel variants — so
    each (write, term) pre-image is computed once per engine.
    """

    __slots__ = ("func", "sub", "write_class", "known", "identity_mask",
                 "memo")

    def __init__(self, func: str, sub: Substituter) -> None:
        self.func = func
        self.sub = sub
        # looked up on the first visit that carries a fact: k=0 never does
        self.write_class: Optional[int] = None
        self.known = 0
        self.identity_mask = 0
        self.memo: Dict[int, Tuple[int, tuple]] = {}


class _NodeKernel:
    """One statement node's precomputed transfer: a constant gen side
    (bitset + coarse emissions, replayed per visit) over a shared
    :class:`_KillKernel` (``None`` for write-less nodes, whose transfer is
    pure passthrough-plus-gen)."""

    __slots__ = ("kill", "gen_bits", "gen_coarse")

    def __init__(self, kill: Optional[_KillKernel], gen_bits: int,
                 gen_coarse: CoarseSet) -> None:
        self.kill = kill
        self.gen_bits = gen_bits
        self.gen_coarse = gen_coarse


class Engine(SummarySolver):
    """Bitset dataflow driver (the default engine)."""

    def __init__(self, *args, **kwargs) -> None:
        super().__init__(*args, **kwargs)
        self._interner = FactInterner()
        self._kill_kernels: Dict[Tuple[WriteInfo, str], _KillKernel] = {}
        self._read_index: Dict[str, _ReadIndex] = {}
        # per-(node, with_g) kernels; ``Node.uid`` is only unique within
        # one function's CFG, so they key on the node object's id (the
        # cfgs keep every node alive)
        self._kernels: Dict[Tuple[int, bool], _NodeKernel] = {}
        self.peak_bits = 0  # max popcount over any converged IN set

    def check_partition(self) -> None:
        """Every executed transfer is exactly one call transfer, kernel
        mask hit, or kernel fallback: double accounting anywhere breaks
        this partition."""
        stats = self.stats
        assert (stats["call_transfers"] + stats["mask_hits"]
                + stats["mask_fallbacks"] == stats["dataflow_steps"]), (
            f"call_transfers {stats['call_transfers']} + mask_hits "
            f"{stats['mask_hits']} + mask_fallbacks "
            f"{stats['mask_fallbacks']} != dataflow_steps "
            f"{stats['dataflow_steps']}")

    @property
    def fact_terms(self) -> int:
        """Terms in the run's fact interner."""
        return len(self._interner)

    def _converge_section(self, func_name: str, section: SectionInfo,
                          requester: tuple) -> Tuple[TermSet, Emissions]:
        # re-run the region only when a summary this section demanded (now
        # or in a previous iteration; _deps persists) changed in the solve
        while True:
            run = Run(self, requester)
            entry_terms = self._dataflow(func_name, section.nodes,
                                         section.enter, run)
            changed = self._solve_summaries()
            deps = self._deps
            if not any(requester in deps.get(key, ()) for key in changed):
                return entry_terms, run.coarse
            self.stats["section_reruns"] += 1

    def _dataflow(self, func_name: str, nodes: Iterable[Node], entry: Node,
                  run: Run, with_g: bool = True, exit: Optional[Node] = None,
                  seed: Optional[TermSet] = None) -> TermSet:
        rank = self._backward_rank(func_name)
        in_bits: Dict[int, int] = {n.uid: 0 for n in nodes}
        if exit is not None:
            in_bits[exit.uid] = self._interner.encode(seed)
        worklist = [(rank[n.uid], n.uid, n) for n in nodes]
        heapq.heapify(worklist)
        queued = set(in_bits)
        transfer = self._transfer
        pops = 0
        while worklist:
            pops += 1
            if not pops % DEADLINE_POLL_EVERY:
                self.poll()
            _, uid, node = heapq.heappop(worklist)
            queued.discard(uid)
            if node is exit:
                continue
            out = 0
            for succ in node.succs:
                out |= in_bits.get(succ.uid, 0)
            new_in = transfer(func_name, node, out, run, with_g)
            if new_in != in_bits[uid]:
                in_bits[uid] = new_in
                for pred in node.preds:
                    if pred.uid in in_bits and pred.uid not in queued:
                        queued.add(pred.uid)
                        heapq.heappush(
                            worklist, (rank[pred.uid], pred.uid, pred))
        self.peak_bits = max(self.peak_bits,
                             max(map(popcount, in_bits.values()), default=0))
        return self._interner.decode(in_bits[entry.uid])

    def _transfer(self, func_name: str, node: Node, out_bits: int, run: Run,
                  with_g: bool) -> int:
        stats = self.stats
        stats["dataflow_steps"] += 1
        if is_call(node):
            stats["call_transfers"] += 1
            interner = self._interner
            return interner.encode(self.spec.call_transfer(
                func_name, node.instr, interner.decode(out_bits), run,
                with_g))
        kern = self._kernels.get((id(node), with_g))
        if kern is None:
            kern = self._build_kernel(func_name, node, with_g)
        if kern.gen_coarse:
            run.coarse |= kern.gen_coarse
        gen = kern.gen_bits
        kill = kern.kill
        if kill is None:
            # write-less node: every fact passes through untouched
            stats["mask_hits"] += 1
            return out_bits | gen
        mask = kill.identity_mask
        rest = out_bits & ~mask
        if rest & ~kill.known:
            mask = self._refresh_frame(kill, rest)
            rest = out_bits & ~mask
        result = (out_bits & mask) | gen
        memo = kill.memo
        fresh = False
        while rest:
            low = rest & -rest
            # canonical bitsets always carry the even (presence) bit of a
            # pair, so the lowest set bit identifies the term directly
            tid = (low.bit_length() - 1) >> 1
            high = low << 1
            is_rw = bool(rest & high)
            rest &= ~(low | high)
            entry = memo.get(tid)
            if entry is None:
                fresh = True
                entry = self._build_fact_memo(kill, tid)
            ro_bits, classes = entry
            if is_rw:
                result |= ro_bits | (ro_bits << 1)
                eff = RW
            else:
                result |= ro_bits
                eff = RO
            for cls in classes:
                run.coarse.add((cls, eff))
        stats["mask_fallbacks" if fresh else "mask_hits"] += 1
        return result

    def _build_kernel(self, func_name: str, node: Node,
                      with_g: bool) -> _NodeKernel:
        """Compile a statement node's :class:`NodeRule`: its G set is
        constant, so the admitted terms become a fixed gen bitset and the
        widened classes a fixed coarse set, replayed per visit."""
        write, gens, coarse = self.spec.node_rule(func_name, node, with_g)
        kill = None
        if write is not None:
            kill = self._kill_kernels.get((write, func_name))
            if kill is None:
                kill = self._kill_kernels[(write, func_name)] = _KillKernel(
                    func_name, Substituter(self.oracle, write, func_name))
        kern = self._kernels[(id(node), with_g)] = _NodeKernel(
            kill, self._interner.encode(gens), coarse)
        return kern

    def _refresh_frame(self, kill: _KillKernel, rest: int) -> int:
        """Index the terms of *rest* new to *kill*'s scope, then rebuild
        its identity mask from the index: a tracked term that reads no cell
        of the written cell's class is its own pre-image (Figure 4's
        ``closure(Id)``; see :meth:`TransferSpec.read_classes`).  Only the
        other terms go on to ``_build_fact_memo``."""
        func = kill.func
        index = self._read_index.get(func)
        if index is None:
            index = self._read_index[func] = _ReadIndex()
        spec = self.spec
        term_of = self._interner.term
        readers = index.readers
        new = rest & ~index.known
        while new:
            low = new & -new
            pair = low | (low << 1)
            new &= ~pair
            term = term_of((low.bit_length() - 1) >> 1)
            index.known |= pair
            if spec.k_limit(func, term) is TRACKED:
                index.tracked |= pair
                for cls in spec.read_classes(func, term):
                    readers[cls] = readers.get(cls, 0) | pair
        if kill.write_class is None:
            write = kill.sub.write
            kill.write_class = self.oracle.class_of_term(write.func,
                                                         write.definite)
        kill.known = index.known
        mask = kill.identity_mask = index.tracked & ~readers.get(
            kill.write_class, 0)
        return mask

    def _build_fact_memo(self, kill: _KillKernel,
                         tid: int) -> Tuple[int, tuple]:
        """Memoize one term's pre-image under *kill*'s write.

        Statement transfers are effect-linear, so one memo entry — the
        admitted pre-terms as an RO bitset plus the widened classes —
        serves both effects: an RW source fact ORs in the doubled bits and
        emits the classes at RW.
        """
        interner = self._interner
        tracked, widened = self.spec.pre_image(kill.func, kill.sub,
                                               interner.term(tid))
        ro_bits = 0
        for pre in tracked:
            ro_bits |= interner.term_bit(pre)
        entry = kill.memo[tid] = (ro_bits, tuple(set(widened)))
        return entry
