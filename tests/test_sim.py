"""Discrete-event scheduler tests."""

import pytest

from repro.sim import DeadlockError, Scheduler
from repro.sim.deadline import (
    DeadlineExceeded,
    check_deadline,
    clear_deadline,
    set_deadline,
)
from repro.sim.scheduler import TRY, WORK, run_threads


def work(n):
    for _ in range(n):
        yield 1


def test_single_thread_makespan():
    stats = run_threads([work(10)], ncores=4)
    assert stats.ticks == 10
    assert stats.work_done == 10


def test_parallel_threads_share_cores():
    stats = run_threads([work(10) for _ in range(4)], ncores=4)
    assert stats.ticks == 10  # perfectly parallel
    assert stats.work_done == 40


def test_more_threads_than_cores_serializes():
    stats = run_threads([work(10) for _ in range(8)], ncores=4)
    # 80 work units / 4 cores = 20 ticks ideal; round-robin rotation may
    # cost one extra tick at the tail
    assert 20 <= stats.ticks <= 21
    assert stats.work_done == 80


def test_bulk_work_event():
    def bulk():
        yield (WORK, 5)
        yield 5

    stats = run_threads([bulk()], ncores=1)
    assert stats.ticks == 10


def test_try_event_blocks_until_predicate():
    state = {"ready": False, "polls": 0}

    def waiter():
        def predicate():
            state["polls"] += 1
            return state["ready"]

        yield (TRY, predicate)
        yield 1

    def signaler():
        for _ in range(5):
            yield 1
        state["ready"] = True
        yield 1

    stats = run_threads([waiter(), signaler()], ncores=2)
    assert state["polls"] > 1
    assert stats.ticks >= 6


def test_blocked_threads_free_their_core():
    # one blocked thread + two workers on one core: the blocked thread must
    # not consume the core
    state = {"ready": False}

    def blocked():
        yield (TRY, lambda: state["ready"])
        yield 1

    def finisher():
        for _ in range(3):
            yield 1
        state["ready"] = True
        yield 1

    stats = run_threads([blocked(), finisher()], ncores=1)
    assert stats.blocked_ticks > 0


def test_zero_length_work_event_rejected():
    def zero_int():
        yield 0

    with pytest.raises(ValueError):
        run_threads([zero_int()], ncores=1)


def test_zero_length_work_tuple_rejected():
    def zero_tuple():
        yield (WORK, 0)

    with pytest.raises(ValueError):
        run_threads([zero_tuple()], ncores=1)

    def negative():
        yield -3

    with pytest.raises(ValueError):
        run_threads([negative()], ncores=1)


def test_failed_try_not_counted_as_work():
    """Utilization pinned on a hand-built block/unblock schedule.

    Two cores. Thread A's TRY fails on tick 1 (occupies a core slot, does
    no work, blocks); thread B works ticks 1-3 and flips the flag at the
    end of tick 2; A wakes at the start of tick 3 and does its single work
    unit alongside B's last. Exactly 4 work units in 3 ticks on 2 cores.
    """
    state = {"ready": False}

    def a():
        yield (TRY, lambda: state["ready"])
        yield 1

    def b():
        yield 1
        yield 1
        state["ready"] = True
        yield 1

    stats = run_threads([a(), b()], ncores=2)
    assert stats.ticks == 3
    assert stats.work_done == 4  # A: 1, B: 3 — the failed TRY is not work
    assert stats.failed_tries == 1
    assert stats.per_thread_failed_tries == {0: 1, 1: 0}
    assert stats.blocked_ticks == 2  # A blocked during ticks 1 and 2
    assert stats.per_thread_work == {0: 1, 1: 3}
    assert stats.utilization == pytest.approx(4 / (3 * 2))


def test_wake_into_a_second_failing_try_on_the_same_tick():
    """Back-to-back TRY events, three cores, one token.

    A and C block on tick 1 (FIFO: A, C). A wakes from its first wait at
    the start of tick 2 and its second TRY fails on that same tick: it
    re-enters the FIFO once, at the back (C, A), and is counted blocked
    once per tick. B frees the token at the end of tick 3; C takes it on
    tick 4 and hands it to A on tick 5.
    """
    state = {"go": False, "free": False}
    grants = []

    def take(name):
        def attempt():
            if not state["free"]:
                return False
            state["free"] = False
            grants.append(name)
            return True
        return attempt

    def a():
        yield (TRY, lambda: state["go"])
        yield (TRY, take("a"))
        yield 1
        state["free"] = True
        yield 1

    def c():
        yield (TRY, take("c"))
        yield 1
        state["free"] = True
        yield 1

    def b():
        yield 1
        state["go"] = True
        yield 1
        yield 1
        state["free"] = True
        yield 1

    stats = run_threads([a(), c(), b()], ncores=3)
    assert grants == ["c", "a"]  # blocking order, not spawn order
    assert stats.ticks == 6
    assert stats.work_done == 8
    assert stats.failed_tries == 3
    assert stats.per_thread_failed_tries == {0: 2, 1: 1, 2: 0}
    assert stats.blocked_ticks == 7
    assert stats.per_thread_blocked == {0: 4, 1: 3, 2: 0}


def test_successful_try_counts_as_work():
    def taker():
        yield (TRY, lambda: True)  # succeeds inline: consumed the tick
        yield 1

    stats = run_threads([taker()], ncores=1)
    assert stats.ticks == 2
    assert stats.work_done == 2
    assert stats.failed_tries == 0


def test_deadlock_detected():
    def stuck():
        yield (TRY, lambda: False)

    with pytest.raises(DeadlockError):
        run_threads([stuck(), stuck()], ncores=2)


def test_blocking_try_as_last_event_completes():
    """A thread whose last event is a TRY finishes inside the wake pass;
    with nobody left the run ends, it is not a deadlock."""
    flag = []

    def waiter():
        yield (TRY, lambda: bool(flag))

    def setter():
        yield 1
        flag.append(True)

    stats = run_threads([waiter(), setter()], ncores=2)
    assert stats.ticks == 1
    assert stats.work_done == 1
    assert stats.failed_tries == 1
    assert stats.per_thread_blocked == {0: 1, 1: 0}


def test_livelock_guard():
    def forever():
        while True:
            yield 1

    scheduler = Scheduler(ncores=1, max_ticks=100)
    scheduler.spawn(forever())
    with pytest.raises(RuntimeError):
        scheduler.run()


def test_determinism():
    def noisy(n):
        for i in range(n):
            yield 1 + (i % 3)

    s1 = run_threads([noisy(20), noisy(15), work(10)], ncores=2)
    s2 = run_threads([noisy(20), noisy(15), work(10)], ncores=2)
    assert s1.ticks == s2.ticks
    assert s1.per_thread_work == s2.per_thread_work


def test_round_robin_fairness():
    stats = run_threads([work(100) for _ in range(3)], ncores=2)
    works = list(stats.per_thread_work.values())
    assert max(works) - min(works) == 0  # all finish with equal work


def test_deadline_set_check_clear():
    """The cooperative deadline the scheduler polls every few ticks."""
    set_deadline(3600.0)
    check_deadline()  # far in the future: no raise
    set_deadline(-1.0)
    with pytest.raises(DeadlineExceeded):
        check_deadline()
    clear_deadline()
    check_deadline()  # disarmed
