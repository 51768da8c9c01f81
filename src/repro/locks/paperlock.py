"""The paper's instantiated lock scheme: Σ_k × Σ_≡ × Σ_ε (§4.3).

As the paper observes, of all pairs of expression locks and points-to-set
locks only the combinations where the expression's class equals the points-to
set are meaningful, so the scheme forms a *tree*:

* the root ``(⊤, ⊤, rw)`` — the global lock;
* coarse locks ``(⊤, P, ε)`` — one per points-to class P, partitioning memory;
* fine locks ``(e, P, ε)`` — a k-limited expression e whose denoted cell lies
  in partition P.

``Lock`` instances are the analysis results and, after transformation, the
runtime lock descriptors (§5.2: a triple of an address expression, a
points-to-set number, and a read/write flag).
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import Optional

from .effects import RO, RW, eff_join, eff_leq
from .terms import Term


@dataclass(frozen=True)
class Lock:
    """One inferred lock.

    * fine:   ``term`` is a lock term, ``cls`` its points-to class id;
    * coarse: ``term`` is None, ``cls`` a points-to class id;
    * global: ``term`` is None and ``cls`` is None (the ⊤ lock).

    ``func`` names the function whose frame the term's variables are
    evaluated in (the function containing the atomic section).
    """

    term: Optional[Term]
    cls: Optional[int]
    eff: str
    func: Optional[str] = None

    @property
    def is_global(self) -> bool:
        return self.cls is None

    @property
    def is_fine(self) -> bool:
        return self.term is not None

    @property
    def is_coarse(self) -> bool:
        return self.term is None and self.cls is not None

    def __str__(self) -> str:
        eff = "R" if self.eff == RO else "W"
        if self.is_global:
            return f"<GLOBAL:{eff}>"
        if self.is_coarse:
            return f"<P{self.cls}:{eff}>"
        return f"<{self.term} @P{self.cls}:{eff}>"


def global_lock(eff: str = RW) -> Lock:
    return Lock(term=None, cls=None, eff=eff)


def coarse_lock(cls: int, eff: str) -> Lock:
    return Lock(term=None, cls=cls, eff=eff)


def fine_lock(term: Term, cls: int, eff: str, func: str) -> Lock:
    return Lock(term=term, cls=cls, eff=eff, func=func)


def lock_leq(a: Lock, b: Lock) -> bool:
    """The scheme's semilattice order: b covers (is coarser than) a."""
    if not eff_leq(a.eff, b.eff):
        return False
    if b.is_global:
        return True
    if a.is_global:
        return False
    if b.is_coarse:
        return a.cls == b.cls
    # b is fine: only covers an identical fine lock
    return a.term == b.term and a.cls == b.cls and a.func == b.func


def lock_lt(a: Lock, b: Lock) -> bool:
    return a != b and lock_leq(a, b)


def lock_join(a: Lock, b: Lock) -> Lock:
    """Least upper bound in the tree-shaped scheme."""
    eff = eff_join(a.eff, b.eff)
    if a.is_global or b.is_global:
        return global_lock(RW) if eff == RW else global_lock(eff)
    if a.cls != b.cls:
        return global_lock(eff)
    if a.term == b.term and a.func == b.func:
        return Lock(a.term, a.cls, eff, a.func)
    return coarse_lock(a.cls, eff)  # same class, different expressions


def _place(lock: Lock):
    """The lock's tree node and the nodes above it: the root is None, a
    coarse node its class, a fine node ``(term, cls, func)``."""
    if lock.cls is None:
        return None, ()
    if lock.term is None:
        return lock.cls, (None,)
    return (lock.term, lock.cls, lock.func), (None, lock.cls)


def reduce_locks(locks) -> frozenset:
    """Antichain reduction (the paper's merge): drop any lock strictly
    covered by another lock in the set (``lock_lt``); deduplicate.  A lock
    is covered iff its node holds a stronger effect or a node above it
    holds one at least as strong."""
    locks = set(locks)
    strongest = {}
    for lock in locks:
        node = _place(lock)[0]
        strongest[node] = eff_join(strongest.get(node, RO), lock.eff)
    kept = set()
    for lock in locks:
        node, above = _place(lock)
        if strongest[node] == lock.eff and not any(
                up in strongest and eff_leq(lock.eff, strongest[up])
                for up in above):
            kept.add(lock)
    return frozenset(kept)
