"""Result records of the inference engines.

Only the two record types live here; the analysis itself is
:mod:`repro.inference.transfer` (the §4 rules),
:mod:`repro.inference.solver` (the summary fixpoint) and the two drivers
:mod:`repro.inference.reference` / :mod:`repro.inference.kernel`.

The module path is part of the disk-cache format: the per-salt summary
tables of :mod:`repro.inference.diskcache` pickle :class:`SummaryResult`
by its qualified name, so moving the class would turn every existing
cache entry into a corrupt-entry miss (a schema bump in all but name).
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import FrozenSet, List, Optional, Tuple

from ..locks.paperlock import Lock
from ..locks.terms import Term

# A coarse emission: (class id or None for the global lock, effect).
CoarseSet = FrozenSet[Tuple[Optional[int], str]]


@dataclass(frozen=True)
class SummaryResult:
    """Entry-point terms and coarse emissions for one summary key."""

    terms: FrozenSet[Tuple[Term, str]] = frozenset()
    coarse: CoarseSet = frozenset()

    @staticmethod
    def empty() -> "SummaryResult":
        return SummaryResult()


@dataclass
class SectionLocks:
    """Analysis result for one atomic section."""

    section_id: str
    func_name: str
    locks: FrozenSet[Lock] = frozenset()

    @property
    def fine(self) -> List[Lock]:
        return [lock for lock in self.locks if lock.is_fine]

    @property
    def coarse(self) -> List[Lock]:
        return [lock for lock in self.locks if lock.is_coarse]

    @property
    def has_global(self) -> bool:
        return any(lock.is_global for lock in self.locks)
