"""Analysis budgets for anytime inference.

The lattice gives every atomic section a trivially sound fallback — the
global exclusive lock ``[(⊤, X)]`` — so the analysis never has to choose
between "finished" and "nothing".  An :class:`AnalysisBudget` bounds a run
by wall time, dataflow steps, and peak RSS; the engine polls it at worklist
granularity and raises :class:`BudgetExhausted` the moment any axis is
spent.  Callers that opt into partial results (``allow_partial``) catch the
exception and coarsen every unconverged section to the global lock instead
of failing — a pure coarsening, so Theorem 1 soundness is preserved.
Crash-safe checkpointing lives with the solver's walk
(:class:`repro.inference.solver.Checkpointer`).
"""

import sys
import time
from dataclasses import dataclass, field
from typing import Optional

try:  # stdlib on POSIX; absent on some platforms — RSS ceiling degrades off
    import resource
except ImportError:  # pragma: no cover - non-POSIX
    resource = None

__all__ = ["AnalysisBudget", "BudgetExhausted"]

# how many budget polls between RSS samples (getrusage is a syscall; the
# wall/step checks are just comparisons)
RSS_SAMPLE_EVERY = 64


class BudgetExhausted(Exception):
    """One budget axis is spent.

    ``reason`` is ``"wall"``, ``"steps"``, or ``"rss"``.  The exception
    pickles cleanly (``args == (reason, message)``) so it survives the
    round-trip out of a worker process.
    """

    def __init__(self, reason: str, message: str = ""):
        super().__init__(reason, message)
        self.reason = reason
        self.message = message

    def __str__(self) -> str:
        return self.message or f"{self.reason} budget exhausted"


def _rss_bytes() -> int:
    """Peak RSS of this process in bytes (0 when unavailable)."""
    if resource is None:
        return 0
    peak = resource.getrusage(resource.RUSAGE_SELF).ru_maxrss
    # ru_maxrss is kilobytes on Linux, bytes on macOS
    if sys.platform == "darwin":  # pragma: no cover - linux CI
        return int(peak)
    return int(peak) * 1024


@dataclass
class AnalysisBudget:
    """Resource ceiling for one analysis run.

    Any axis left ``None`` is unlimited.  ``arm()`` starts the wall clock;
    ``check(steps)`` raises :class:`BudgetExhausted` once any axis is
    spent.  The deadline is an absolute monotonic instant, so the budget
    object survives ``fork()`` into pool workers and all processes agree
    on when the wall budget expires.
    """

    wall_s: Optional[float] = None
    max_steps: Optional[int] = None
    max_rss_mb: Optional[float] = None
    rss_sample_every: int = RSS_SAMPLE_EVERY

    _deadline: Optional[float] = field(default=None, repr=False, init=False)
    _polls: int = field(default=0, repr=False, init=False)

    def arm(self) -> "AnalysisBudget":
        """Start (or restart) the wall clock.  Idempotent per run."""
        self._deadline = (None if self.wall_s is None
                          else time.monotonic() + self.wall_s)
        self._polls = 0
        return self

    @property
    def bounded(self) -> bool:
        return (self.wall_s is not None or self.max_steps is not None
                or self.max_rss_mb is not None)

    def check(self, steps: int = 0) -> None:
        """Raise :class:`BudgetExhausted` if any axis is spent."""
        if self.max_steps is not None and steps > self.max_steps:
            raise BudgetExhausted(
                "steps", f"dataflow step budget exhausted: {steps} > "
                f"{self.max_steps}")
        if self._deadline is not None and time.monotonic() > self._deadline:
            raise BudgetExhausted(
                "wall", f"wall budget exhausted: {self.wall_s:.3f}s elapsed")
        if self.max_rss_mb is not None:
            self._polls += 1
            if self._polls % max(1, self.rss_sample_every) == 0:
                rss_mb = _rss_bytes() / (1024.0 * 1024.0)
                if rss_mb > self.max_rss_mb:
                    raise BudgetExhausted(
                        "rss", f"peak RSS budget exhausted: {rss_mb:.1f} MiB "
                        f"> {self.max_rss_mb:.1f} MiB")

    def describe(self) -> str:
        parts = []
        if self.wall_s is not None:
            parts.append(f"wall<={self.wall_s:g}s")
        if self.max_steps is not None:
            parts.append(f"steps<={self.max_steps}")
        if self.max_rss_mb is not None:
            parts.append(f"rss<={self.max_rss_mb:g}MiB")
        return " ".join(parts) or "unbounded"
