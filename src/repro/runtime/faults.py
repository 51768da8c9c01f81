"""Fault injection: deliberately break acquisitions to test the checkers.

A checker that never fires proves nothing. The explore subsystem's
negative-testing mode plants a known protection bug at runtime —
mutation-style testing of the *checkers themselves* — and then asserts
that the §4.2 :class:`~repro.interp.checker.ProtectionChecker`, the
dynamic :class:`~repro.interp.race.RaceDetector`, and the
:class:`~repro.interp.checker.SerializabilityAuditor` each catch it.

Acquire-time fault kinds (applied to the planned per-node request list of
an ``acquireAll``):

* ``drop-acquire``  — drop the whole plan: the section runs with no locks
  at all. Caught by all three oracles (the race detector sees zero
  happens-before edges, so any conflicting pair reports).
* ``drop-node``     — drop the finest (last-in-canonical-order) node
  request; intention modes on the ancestors survive. Caught by the
  protection checker (intention modes grant nothing); the HB detector may
  stay silent because the surviving root acquisition still orders the
  sections — exactly the Eraser-vs-happens-before precision gap the docs
  discuss.
* ``weaken-acquire`` — downgrade every requested mode (X→S, SIX→S,
  IX→IS): writes proceed under read cover. Caught by the protection
  checker on the first write.
* ``invert-order``  — reverse the canonical acquisition order, violating
  the deadlock-freedom protocol. Protection is intact (the same locks
  are taken), but a thread acquiring against the flow can interlock with
  canonical acquirers: the scheduler's DeadlockError canary must fire.
  Seed it on one thread (``tid=0``) — if *every* thread inverts, the
  inverted order is itself a consistent total order and stays safe.

Release-time kinds keep the plan intact and break the release instead:

* ``delayed-release`` — the thread stalls ``delay`` ticks *while holding
  its locks* before releasing: a stuck critical section. Every other
  acquirer waits out a window with no grant and no completion, so the
  scheduler's LivelockError canary must fire.
* ``lost-release``   — the release never reaches the lock manager: the
  section commits but its locks leak forever. Every later acquirer
  blocks, so the scheduler's DeadlockError canary must fire.

The injector is armed once per matching dynamic ``acquireAll`` (retries of
the same acquisition reuse the armed decision, keeping the
validate-and-retry loop consistent), and records every firing so tests
can assert the fault was actually exercised. Occurrences are counted per
``(section, tid)`` stream — never globally — so *which* thread draws the
fault is a property of the seeding, not of the schedule, and a seeded
run replays exactly.
"""

from __future__ import annotations

from typing import Dict, List, Optional, Tuple

from .modes import IS, IX, S, SIX, X

ACQUIRE_FAULT_KINDS = ("drop-acquire", "drop-node", "weaken-acquire",
                       "invert-order")
RELEASE_FAULT_KINDS = ("delayed-release", "lost-release")
FAULT_KINDS = ACQUIRE_FAULT_KINDS + RELEASE_FAULT_KINDS

_WEAKEN = {X: S, SIX: S, IX: IS}

DEFAULT_RELEASE_DELAY = 60_000  # ticks; > the default livelock window


class FaultInjector:
    """Filters acquireAll request plans according to the configured fault.

    *section* restricts firing to one static section id; *tid* to one
    thread; *occurrence* to the n-th matching dynamic acquire of each
    ``(section, tid)`` stream (``None`` = every matching acquire, the
    strongest seeding). *delay* is the stall length of
    ``delayed-release``.
    """

    def __init__(self, kind: str, section: Optional[str] = None,
                 tid: Optional[int] = None,
                 occurrence: Optional[int] = None,
                 delay: int = DEFAULT_RELEASE_DELAY) -> None:
        if kind not in FAULT_KINDS:
            raise ValueError(
                f"unknown fault kind {kind!r}; choose from {FAULT_KINDS}"
            )
        self.kind = kind
        self.section = section
        self.tid = tid
        self.occurrence = occurrence
        self.delay = delay
        # n-th-occurrence counters, one stream per (section, tid): a shared
        # counter would let the schedule decide which thread draws the
        # fault, making seeded runs irreproducible
        self._seen: Dict[Tuple[str, int], int] = {}
        self._release_armed: Dict[int, bool] = {}
        self.fired: List[Tuple[int, str]] = []  # (tid, section_id) firings

    def arm(self, tid: int, section_id: str) -> bool:
        """Decide (once per dynamic acquire) whether the fault fires."""
        if self.section is not None and section_id != self.section:
            return False
        if self.tid is not None and tid != self.tid:
            return False
        key = (section_id, tid)
        index = self._seen.get(key, 0)
        self._seen[key] = index + 1
        if self.occurrence is not None and index != self.occurrence:
            return False
        self.fired.append((tid, section_id))
        if self.kind in RELEASE_FAULT_KINDS:
            self._release_armed[tid] = True
        return True

    def apply(self, plan: List[Tuple[object, str]]) -> List[Tuple[object, str]]:
        """Transform an ordered (node, mode) request plan."""
        if self.kind == "drop-acquire":
            return []
        if self.kind == "drop-node":
            return plan[:-1]
        if self.kind == "invert-order":
            return list(reversed(plan))
        if self.kind == "weaken-acquire":
            return [(name, _WEAKEN.get(mode, mode)) for name, mode in plan]
        return list(plan)  # release-time kinds leave the plan intact

    def take_release_action(self, tid: int) -> Optional[Tuple]:
        """Consume the release-time action armed for *tid*'s open section:
        ``("delay", ticks)``, ``("lose",)``, or None."""
        if not self._release_armed.pop(tid, False):
            return None
        if self.kind == "delayed-release":
            return ("delay", self.delay)
        return ("lose",)
