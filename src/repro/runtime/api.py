"""Runtime lock API (§5.2): to-acquire / acquire-all / release-all.

``plan_requests`` expands a section's lock descriptors into per-node mode
requests on the lock tree (evaluating fine-grain descriptors' expressions in
the acquiring thread's frame), combines modes per node, and returns them in
the canonical deadlock-free order. ``acquire_all`` then drives the
protocol as a simulator coroutine: one work tick per node plus a TRY event,
gated on the node, that blocks until the node grants. Nothing here
recovers from a broken order: a plan taken out of canonical order can
interlock, and the scheduler reports that as a ``DeadlockError``.

Nesting (§5.3): each thread keeps an ``nlevel`` counter; only the outermost
acquire/release pair touches the lock manager.
"""

from __future__ import annotations

from typing import Callable, Dict, List, Optional, Tuple

from ..locks.paperlock import Lock
from ..obs.trace import get_tracer
from ..sim.scheduler import TRY
from .manager import LockManager, ROOT, canonical_order
from .modes import combine, intention_for_effect, mode_for_effect


class ThreadLockState:
    """Per-thread runtime state: the §5.3 nesting level."""

    __slots__ = ("nlevel",)

    def __init__(self) -> None:
        self.nlevel = 0


def plan_requests(
    locks: Tuple[Lock, ...],
    eval_term: Callable[[Lock], Optional[object]],
) -> List[Tuple[object, str]]:
    """Expand lock descriptors into ordered (node, mode) requests.

    *eval_term* maps a fine lock to the concrete cell it protects (a
    ``Loc``), or None when the descriptor's expression does not evaluate to
    a heap location in the current state (the corresponding program path is
    then stuck or the location thread-private, so no lock is needed).
    """
    requests: Dict[object, str] = {}

    def want(name: object, mode: str) -> None:
        requests[name] = combine(requests.get(name), mode)

    for lock in locks:
        if lock.is_global:
            want(ROOT, mode_for_effect(lock.eff))
        elif lock.is_coarse:
            want(ROOT, intention_for_effect(lock.eff))
            want(LockManager.class_node_name(lock.cls), mode_for_effect(lock.eff))
        else:
            loc = eval_term(lock)
            if loc is None:
                continue
            obj = getattr(loc, "obj", None)
            if obj is not None and not obj.shared:
                continue  # thread-private cell: nothing to protect
            want(ROOT, intention_for_effect(lock.eff))
            want(LockManager.class_node_name(lock.cls),
                 intention_for_effect(lock.eff))
            want(LockManager.cell_node_name(lock.cls, loc.key),
                 mode_for_effect(lock.eff))

    return canonical_order(requests)


def acquire_all(manager: LockManager, tid: int,
                ordered_requests: List[Tuple[object, str]],
                section_id: Optional[str] = None):
    """Simulator coroutine acquiring the planned requests top-down in order.

    A wait is a *gated* TRY event: its grant decision depends on the node
    alone, so the node rides along and the scheduler re-polls only when
    ``node.version`` has moved."""
    tracer = get_tracer()
    manager.stats.acquires += 1
    for name, mode in ordered_requests:
        yield 1  # protocol work per node (the multi-grain overhead)
        if not manager.try_acquire_node(tid, name, mode):
            wait_from = tracer.now_ticks if tracer.enabled else 0
            yield (TRY, lambda name=name, mode=mode:
                   manager.try_acquire_node(tid, name, mode),
                   manager.node(name))
            if tracer.enabled:
                tracer.tick_span(tid, "blocked", wait_from, tracer.now_ticks,
                                 node=str(name), mode=mode,
                                 section=section_id)


def release_all(manager: LockManager, tid: int):
    """Simulator coroutine releasing every lock held by *tid* (bottom-up)."""
    yield 1
    manager.release_all(tid)
