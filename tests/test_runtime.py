"""Multi-granularity lock runtime tests (paper §5)."""

import itertools

import pytest

from repro.locks import RO, RW, TVar, TStar, coarse_lock, fine_lock, global_lock
from repro.runtime import (
    IS,
    IX,
    MODES,
    ROOT,
    S,
    SIX,
    X,
    LockManager,
    acquire_all,
    canonical_order,
    combine,
    compatible,
    grants_read,
    grants_write,
    intention_for_effect,
    mode_for_effect,
    plan_requests,
)
from repro.sim import Scheduler


# ---------------------------------------------------------------------------
# Figure 6 compatibility matrix
# ---------------------------------------------------------------------------


def test_compatibility_matrix_matches_figure6():
    expected_compatible = {
        (IS, IS), (IS, IX), (IS, S), (IS, SIX),
        (IX, IS), (IX, IX),
        (S, IS), (S, S),
        (SIX, IS),
    }
    for a, b in itertools.product(MODES, MODES):
        assert compatible(a, b) == ((a, b) in expected_compatible), (a, b)


def test_compatibility_is_symmetric():
    for a, b in itertools.product(MODES, MODES):
        assert compatible(a, b) == compatible(b, a)


def test_x_conflicts_with_everything():
    for mode in MODES:
        assert not compatible(X, mode)


def test_combine_produces_six():
    assert combine(S, IX) == SIX
    assert combine(IX, S) == SIX
    assert combine(IS, IX) == IX
    assert combine(None, S) == S
    assert combine(S, X) == X
    assert combine(SIX, IS) == SIX


def test_combine_grants_both():
    """combine(a, b) must be at least as permissive as both a and b."""
    def stronger(m1, m2):
        # m1 at least as strong as m2: anything compatible with m1 is
        # compatible with m2... approximate via read/write grants + intents
        if grants_write(m2) and not grants_write(m1):
            return False
        if grants_read(m2) and not grants_read(m1):
            return False
        return True

    for a, b in itertools.product(MODES, MODES):
        c = combine(a, b)
        assert stronger(c, a) and stronger(c, b)


def test_mode_for_effect():
    assert mode_for_effect(RO) == S
    assert mode_for_effect(RW) == X
    assert intention_for_effect(RO) == IS
    assert intention_for_effect(RW) == IX


def test_grants():
    assert grants_read(S) and grants_read(SIX) and grants_read(X)
    assert not grants_read(IS) and not grants_read(IX)
    assert grants_write(X)
    assert not grants_write(SIX) and not grants_write(S)


# ---------------------------------------------------------------------------
# lock manager
# ---------------------------------------------------------------------------


def test_manager_grant_and_conflict():
    mgr = LockManager()
    assert mgr.try_acquire_node(1, ROOT, IS)
    assert mgr.try_acquire_node(2, ROOT, IX)  # intentions compatible
    assert not mgr.try_acquire_node(3, ROOT, X)  # X blocked
    mgr.release_all(1)
    assert not mgr.try_acquire_node(3, ROOT, X)  # still IX held by 2
    mgr.release_all(2)
    assert mgr.try_acquire_node(3, ROOT, X)


def test_manager_fifo_no_overtaking():
    mgr = LockManager()
    assert mgr.try_acquire_node(1, ROOT, S)
    assert not mgr.try_acquire_node(2, ROOT, X)  # writer waits
    # a later reader must NOT overtake the waiting writer
    assert not mgr.try_acquire_node(3, ROOT, S)
    mgr.release_all(1)
    assert mgr.try_acquire_node(2, ROOT, X)  # writer goes first
    mgr.release_all(2)
    assert mgr.try_acquire_node(3, ROOT, S)


def test_manager_reentrant_combine():
    mgr = LockManager()
    assert mgr.try_acquire_node(1, ROOT, IS)
    assert mgr.try_acquire_node(1, ROOT, IX)  # upgrade to IX for self
    node = mgr.node(ROOT)
    assert node.holders[1] == IX


def test_release_all_clears_everything():
    mgr = LockManager()
    mgr.try_acquire_node(1, ROOT, IX)
    mgr.try_acquire_node(1, ("cls", 0), X)
    assert mgr.holds_any(1)
    mgr.release_all(1)
    assert not mgr.holds_any(1)
    assert mgr.try_acquire_node(2, ("cls", 0), X)


def test_release_all_clears_waiter_registrations():
    """Regression: a waiter registration on a node the thread never
    acquired must not survive release_all — the stale entry would deny
    every later incompatible request via the FIFO no-overtaking check,
    a false deadlock with no holder anywhere."""
    mgr = LockManager()
    assert mgr.try_acquire_node(1, ROOT, X)  # holder
    assert not mgr.try_acquire_node(2, ROOT, X)  # tid 2 now waits on ROOT
    # tid 2 abandons the attempt (validate-and-retry releases everything
    # before replanning); it holds nothing, but it is registered as a
    # waiter on a node it never acquired
    mgr.release_all(2)
    mgr.release_all(1)
    # no holders, no live waiters: a fresh reader must be granted; with
    # the stale X waiter left behind this was denied forever
    assert mgr.try_acquire_node(3, ROOT, S)
    assert not mgr.node(ROOT).waiters


def test_lock_stats_count_grants_and_refusals_only():
    mgr = LockManager()
    assert mgr.try_acquire_node(1, ROOT, X)
    assert not mgr.try_acquire_node(2, ROOT, X)
    assert not mgr.try_acquire_node(2, ROOT, X)
    stats = mgr.stats
    assert (stats.acquires, stats.node_acquires, stats.blocks) == (0, 1, 2)
    # a misspelt counter is an error, not a new attribute
    with pytest.raises(AttributeError):
        stats.block += 1
    with pytest.raises(AttributeError):
        stats.blocked = 1


def test_release_all_keeps_other_threads_waiters():
    mgr = LockManager()
    assert mgr.try_acquire_node(1, ROOT, S)
    assert not mgr.try_acquire_node(2, ROOT, X)  # writer queues
    mgr.release_all(1)  # must clear only tid 1's state
    # tid 2's waiter survived: FIFO still blocks a later reader
    assert not mgr.try_acquire_node(3, ROOT, S)
    assert mgr.try_acquire_node(2, ROOT, X)


def test_node_version_moves_with_every_holder_or_waiter_change():
    mgr = LockManager()
    node = mgr.node(ROOT)
    seen = [node.version]

    def moved():
        seen.append(node.version)
        return seen[-1] != seen[-2]

    assert mgr.try_acquire_node(1, ROOT, IX) and moved()  # grant
    assert not mgr.try_acquire_node(2, ROOT, S) and moved()  # registration
    assert not mgr.try_acquire_node(2, ROOT, S) and not moved()  # re-poll
    assert not mgr.try_acquire_node(2, ROOT, X) and moved()  # mode change
    mgr.release_all(2)  # registration on a never-acquired node dropped
    assert moved()
    mgr.release_all(1)
    assert moved()


def test_abandoned_registration_wakes_the_thread_queued_behind_it():
    """Pinned lost-wakeup scenario for the version-gated wait.

    tid 2's read is compatible with the holder and refused only by the
    FIFO rule, behind tid 1's pending write. tid 1 then abandons that
    request (validate-and-retry: ``release_all`` on a node it never
    acquired). That is a change to the node: tid 2 must be granted on
    the very next tick. If dropping the registration did not bump the
    node's version, tid 2 would never be re-polled and the run would end
    in DeadlockError."""
    mgr = LockManager()
    name = LockManager.class_node_name(0)
    assert mgr.try_acquire_node(0, name, S)  # a reader that stays
    assert not mgr.try_acquire_node(1, name, X)  # writer queues behind it
    scheduler = Scheduler(ncores=2)
    granted_at = []

    def follower():
        yield from acquire_all(mgr, 2, [(name, S)])
        granted_at.append(scheduler.stats.ticks)
        yield 1

    def abandoner():
        yield 3
        mgr.release_all(1)
        yield 3

    scheduler.spawn(follower())
    scheduler.spawn(abandoner())
    stats = scheduler.run()
    # the registration is dropped during tick 3; the grant is tick 4's wake
    assert granted_at == [3]
    assert mgr.node(name).holders == {0: S, 2: S}
    assert (stats.ticks, stats.blocked_ticks, stats.failed_tries) == (6, 2, 1)


# ---------------------------------------------------------------------------
# request planning
# ---------------------------------------------------------------------------


class FakeObj:
    def __init__(self, oid, shared=True):
        self.oid = oid
        self.shared = shared


class FakeLoc:
    def __init__(self, oid, off, shared=True):
        self.obj = FakeObj(oid, shared)
        self.key = (oid, off)


def test_plan_global_lock():
    plan = plan_requests((global_lock(RW),), lambda lock: None)
    assert plan == [(ROOT, X)]


def test_plan_coarse_lock():
    plan = plan_requests((coarse_lock(3, RO),), lambda lock: None)
    assert plan == [(ROOT, IS), (("cls", 3), S)]


def test_plan_fine_lock_full_path():
    loc = FakeLoc(7, "next")
    plan = plan_requests(
        (fine_lock(TStar(TVar("x")), 3, RW, "f"),), lambda lock: loc
    )
    assert plan == [
        (ROOT, IX),
        (("cls", 3), IX),
        (("cell", 3, (7, "next")), X),
    ]


def test_plan_six_arises_from_coarse_read_plus_fine_write():
    """Gray's SIX: read the whole class, write one cell below it."""
    loc = FakeLoc(7, "next")
    plan = plan_requests(
        (coarse_lock(3, RO), fine_lock(TStar(TVar("x")), 3, RW, "f")),
        lambda lock: loc,
    )
    modes = dict(plan)
    assert modes[("cls", 3)] == SIX
    assert modes[("cell", 3, (7, "next"))] == X


def test_plan_skips_unevaluable_descriptors():
    plan = plan_requests(
        (fine_lock(TStar(TVar("x")), 3, RW, "f"),), lambda lock: None
    )
    assert plan == []


def test_plan_skips_private_cells():
    loc = FakeLoc(7, "next", shared=False)
    plan = plan_requests(
        (fine_lock(TStar(TVar("x")), 3, RW, "f"),), lambda lock: loc
    )
    assert plan == []


def test_canonical_order_root_class_cell():
    requests = {
        ("cell", 2, (9, "f")): X,
        ROOT: IX,
        ("cls", 5): IX,
        ("cls", 2): IX,
        ("cell", 2, (4, 1)): X,
        ("cell", 2, (4, None)): S,
    }
    ordered = [name for name, _ in canonical_order(requests)]
    assert ordered[0] == ROOT
    assert ordered[1] == ("cls", 2)
    assert ordered[2] == ("cls", 5)
    cells = ordered[3:]
    assert cells[0] == ("cell", 2, (4, None))  # base cell sorts first
    assert cells[1] == ("cell", 2, (4, 1))
    assert cells[2] == ("cell", 2, (9, "f"))


def test_canonical_order_is_total_and_deterministic():
    requests = {("cell", 1, (i, "f")): X for i in range(5)}
    requests[ROOT] = IX
    order1 = canonical_order(dict(requests))
    order2 = canonical_order(dict(reversed(list(requests.items()))))
    assert order1 == order2
