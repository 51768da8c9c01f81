"""Multi-granularity lock runtime (paper §5) and fault injection."""

from .api import ThreadLockState, acquire_all, plan_requests, release_all
from .faults import (
    ACQUIRE_FAULT_KINDS,
    FAULT_KINDS,
    RELEASE_FAULT_KINDS,
    FaultInjector,
)
from .manager import LockManager, LockNode, LockStats, ROOT, canonical_order
from .modes import (
    IS,
    IX,
    MODES,
    S,
    SIX,
    X,
    combine,
    compatible,
    grants_read,
    grants_write,
    intention_for_effect,
    mode_for_effect,
)

__all__ = [
    "FaultInjector",
    "FAULT_KINDS",
    "ACQUIRE_FAULT_KINDS",
    "RELEASE_FAULT_KINDS",
    "LockManager",
    "LockNode",
    "LockStats",
    "ROOT",
    "canonical_order",
    "ThreadLockState",
    "plan_requests",
    "acquire_all",
    "release_all",
    "IS",
    "IX",
    "S",
    "SIX",
    "X",
    "MODES",
    "compatible",
    "combine",
    "mode_for_effect",
    "intention_for_effect",
    "grants_read",
    "grants_write",
]
