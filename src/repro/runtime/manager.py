"""The multi-granularity lock manager (paper §5.1-§5.2).

The lock structure for the Σ_k × Σ_≡ × Σ_ε scheme is a tree:

    root ⊤  →  one node per points-to class  →  one node per concrete cell

``acquire`` requests follow the protocol: ancestors are marked with
intention modes before descendants are locked; every thread acquires nodes
in the same canonical order (root, then class nodes by class id, then cell
nodes by cell key), so siblings are ordered and the protocol is deadlock
free. Locks are released all at once at the end of the section (two-phase).

Grant policy per node: a request is granted iff its mode is compatible with
every other holder's mode *and* with every earlier still-waiting request
(FIFO, no overtaking — prevents writer starvation).
"""

from __future__ import annotations

from typing import Dict, List, Tuple

from .modes import combine, compatible


_UNQUEUED = float("inf")  # FIFO rank of a request that is not yet waiting


class LockNode:
    """One node in the lock tree.

    ``version`` counts the mutations of ``holders`` and ``waiters``: it is
    bumped by every grant, every first waiter registration or waiter mode
    change, and every ``release``. ``can_grant`` reads nothing else, so
    while ``version`` stands still a refused request stays refused — the
    simulator's gated TRY event (``repro.sim.scheduler``) re-polls a
    blocked thread only when the node it waits on has moved.
    """

    __slots__ = ("name", "holders", "waiters", "_wait_counter", "version")

    def __init__(self, name: object) -> None:
        self.name = name
        self.holders: Dict[int, str] = {}  # thread id -> combined mode
        self.waiters: Dict[int, Tuple[int, str]] = {}  # tid -> (order, mode)
        self._wait_counter = 0
        self.version = 0

    def can_grant(self, tid: int, mode: str) -> bool:
        for other, held in self.holders.items():
            if other != tid and not compatible(mode, held):
                return False
        waiters = self.waiters
        if not waiters:
            return True
        # FIFO, no overtaking: a fresh request ranks after every waiter.
        my_order = waiters[tid][0] if tid in waiters else _UNQUEUED
        for other, (order, wmode) in waiters.items():
            if other == tid or order > my_order:
                continue
            if not compatible(mode, wmode):
                return False
        return True

    def try_acquire(self, tid: int, mode: str) -> bool:
        """Attempt to take *mode*; on failure, join the FIFO wait queue."""
        needed = combine(self.holders.get(tid), mode)
        if self.can_grant(tid, needed):
            self.holders[tid] = needed
            self.waiters.pop(tid, None)
            self.version += 1
            return True
        waiting = self.waiters.get(tid)
        if waiting is None:
            self._wait_counter += 1
            self.waiters[tid] = (self._wait_counter, needed)
            self.version += 1
        elif waiting[1] != needed:
            self.waiters[tid] = (waiting[0], needed)
            self.version += 1
        return False

    def release(self, tid: int) -> None:
        """Drop *tid*'s grant and its waiter registration, if any."""
        self.holders.pop(tid, None)
        self.waiters.pop(tid, None)
        self.version += 1


ROOT = ("root",)

_NO_NAMES: frozenset = frozenset()


class LockStats:
    """Lock-manager counters: sections entered (``acquires``), node grants
    (``node_acquires``) and refused node attempts (``blocks``)."""

    __slots__ = ("acquires", "node_acquires", "blocks")

    def __init__(self) -> None:
        self.acquires = 0
        self.node_acquires = 0
        self.blocks = 0

    def __repr__(self) -> str:
        return (f"LockStats(acquires={self.acquires}, "
                f"node_acquires={self.node_acquires}, blocks={self.blocks})")


class LockManager:
    """Tree of lock nodes, created lazily; shared by all simulated threads."""

    def __init__(self) -> None:
        self.nodes: Dict[object, LockNode] = {ROOT: LockNode(ROOT)}
        self.held: Dict[int, List[LockNode]] = {}
        # mirrors self.held as a per-thread name set for O(1) membership
        # (self.held stays a list because release order matters)
        self._held_names: Dict[int, set] = {}
        # nodes where the thread has a live waiter registration but no
        # grant yet — release_all must clear these too, or a registration
        # on a node the thread never acquired outlives the section and
        # poisons every later can_grant FIFO check
        self._waiting: Dict[int, Dict[object, LockNode]] = {}
        self.stats = LockStats()

    def node(self, name: object) -> LockNode:
        existing = self.nodes.get(name)
        if existing is None:
            existing = LockNode(name)
            self.nodes[name] = existing
        return existing

    @staticmethod
    def class_node_name(cls: int) -> object:
        return ("cls", cls)

    @staticmethod
    def cell_node_name(cls: int, cell_key: object) -> object:
        return ("cell", cls, cell_key)

    def try_acquire_node(self, tid: int, name: object, mode: str) -> bool:
        node = self.node(name)
        acquired = node.try_acquire(tid, mode)
        if acquired:
            self.stats.node_acquires += 1
            names = self._held_names.setdefault(tid, set())
            if name not in names:
                names.add(name)
                self.held.setdefault(tid, []).append(node)
            waiting = self._waiting.get(tid)
            if waiting:
                waiting.pop(name, None)
        else:
            self.stats.blocks += 1
            self._waiting.setdefault(tid, {})[name] = node
        return acquired

    def release_all(self, tid: int) -> None:
        # bottom-up: release in reverse acquisition order
        for node in reversed(self.held.get(tid, [])):
            node.release(tid)
        # drop waiter registrations on nodes the thread never acquired
        # (e.g. a validate-and-retry release while a request was pending);
        # release() bumps the node's version, so a thread queued FIFO
        # behind the registration is re-polled on the next tick
        for node in self._waiting.pop(tid, {}).values():
            node.release(tid)
        self.held[tid] = []
        self._held_names[tid] = set()

    def holds_any(self, tid: int) -> bool:
        return bool(self.held.get(tid))

    def held_names(self, tid: int):
        """The node names *tid* currently holds (live view — do not mutate,
        copy before storing)."""
        names = self._held_names.get(tid)
        return names if names is not None else _NO_NAMES

    def held_nodes(self, tid: int) -> List[LockNode]:
        return list(self.held.get(tid, []))


def canonical_order(requests: Dict[object, str]) -> List[Tuple[object, str]]:
    """Sort node requests into the global acquisition order: root first, then
    class nodes by id, then cell nodes by (class, cell key)."""

    def sort_key(item: Tuple[object, str]):
        name, _ = item
        if name == ROOT:
            return (0,)
        if name[0] == "cls":
            return (1, name[1])
        # cell node: ("cell", cls, (oid, off)); offsets are str/int/None
        _, cls, cell_key = name
        oid, off = cell_key
        off_rank = (0, "") if off is None else (
            (1, str(off)) if isinstance(off, str) else (2, off)
        )
        return (2, cls, oid) + off_rank

    return sorted(requests.items(), key=sort_key)
