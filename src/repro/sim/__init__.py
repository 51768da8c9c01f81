"""Deterministic discrete-event concurrency simulator.

Python's GIL makes wall-clock multithreaded timing meaningless, so the
reproduction measures what the paper's experiments actually exercise —
*which threads can make progress concurrently under a given concurrency
control discipline* — on a simulated machine: interpreter threads are
coroutines; each simulated tick advances up to ``ncores`` runnable threads
by one unit of work; blocked threads (waiting on a lock grant or STM retry
backoff) consume no core slots. "Execution time" is the makespan in ticks.

Which runnable threads advance is a pluggable
:class:`~repro.sim.policy.SchedulingPolicy`: the default round-robin
reproduces the historical fair schedule; seeded random, PCT-priority, and
scripted policies drive the schedule-exploration subsystem
(``repro.explore``).
"""

from .._lazy import lazy_exports

__getattr__, __dir__, __all__ = lazy_exports(__name__, globals(), {
    "scheduler": ("Scheduler", "SimThread", "SimStats", "DeadlockError",
                  "LivelockError", "WORK", "TRY", "run_threads"),
    "policy": ("SchedulingPolicy", "RoundRobinPolicy", "RandomPolicy",
               "PCTPolicy", "ScriptedPolicy", "make_policy", "POLICY_NAMES"),
})
