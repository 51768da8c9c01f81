"""Negative testing: seeded locking bugs must be caught (checker vacuity).

Each fault kind weakens the transformed program's locking at runtime;
the §4.2 ProtectionChecker, the happens-before race detector, and the
SerializabilityAuditor must each flag the resulting executions. All
cases are parametrized over the inference k-limit (0 = coarsest classes,
9 = the paper's finest) — detection must not depend on lock granularity.
"""

import pytest

from repro.explore import explore_program
from repro.explore.runner import resolve_target, run_schedule
from repro.runtime.faults import (ACQUIRE_FAULT_KINDS, FAULT_KINDS,
                                  RELEASE_FAULT_KINDS, FaultInjector)
from repro.sim import make_policy

K_VALUES = (0, 1, 9)


# -- FaultInjector unit behavior ---------------------------------------------


def test_fault_kinds_registered():
    assert set(ACQUIRE_FAULT_KINDS) == {"drop-acquire", "drop-node",
                                        "weaken-acquire", "invert-order"}
    assert set(RELEASE_FAULT_KINDS) == {"delayed-release", "lost-release"}
    assert set(FAULT_KINDS) == set(ACQUIRE_FAULT_KINDS) | set(
        RELEASE_FAULT_KINDS)


def test_occurrence_streams_are_per_section_and_tid():
    # a shared counter would let the schedule pick which thread draws the
    # fault; each (section, tid) stream must count independently
    injector = FaultInjector("drop-acquire", occurrence=1)
    assert not injector.arm(0, "s#1")  # stream (s#1, 0) index 0
    assert not injector.arm(1, "s#1")  # stream (s#1, 1) index 0
    assert injector.arm(0, "s#1")      # stream (s#1, 0) index 1: fires
    assert injector.arm(1, "s#1")      # stream (s#1, 1) index 1: fires too
    assert not injector.arm(0, "s#2")  # a different section: fresh stream
    assert injector.fired == [(0, "s#1"), (1, "s#1")]


def test_unknown_fault_kind_rejected():
    with pytest.raises(ValueError):
        FaultInjector("drop-everything")


def test_injector_arms_once_per_occurrence():
    injector = FaultInjector("drop-acquire", occurrence=1)
    assert not injector.arm(0, "s#1")  # index 0
    assert injector.arm(0, "s#1")      # index 1: fires
    assert not injector.arm(0, "s#1")  # later occurrences untouched
    assert len(injector.fired) == 1


def test_injector_filters_by_section_and_tid():
    injector = FaultInjector("drop-acquire", section="f#1", tid=2)
    assert not injector.arm(1, "f#1")
    assert not injector.arm(2, "g#1")
    assert injector.arm(2, "f#1")


def test_drop_acquire_empties_plan():
    injector = FaultInjector("drop-acquire")
    assert injector.apply([("a", "X"), ("b", "S")]) == []


def test_drop_node_removes_last():
    injector = FaultInjector("drop-node")
    assert injector.apply([("a", "X"), ("b", "S")]) == [("a", "X")]


def test_weaken_acquire_downgrades_modes():
    from repro.runtime.modes import IS, IX, S, SIX, X

    injector = FaultInjector("weaken-acquire")
    plan = injector.apply([("a", X), ("b", SIX), ("c", IX), ("d", S)])
    assert [mode for _, mode in plan] == [S, S, IS, S]


# -- ProtectionChecker catches every protection-weakening kind, at every k ---
# (invert-order and the release kinds keep protection intact; their canaries
# are DeadlockError / LivelockError, see the stall canaries below)

PROTECTION_FAULT_KINDS = ("drop-acquire", "drop-node", "weaken-acquire")


@pytest.mark.parametrize("k", K_VALUES)
@pytest.mark.parametrize("kind", PROTECTION_FAULT_KINDS)
def test_protection_checker_catches_fault(kind, k):
    report = explore_program(
        "counter", policy="random", seed=0, schedules=5, threads=3, ops=3,
        fault=kind, detector=False, k=k,
    )
    assert report.detections > 0, f"{kind} undetected at k={k}"
    assert all("protection:" in v
               for r in report.records for v in r.violations)


@pytest.mark.parametrize("k", K_VALUES)
def test_clean_run_has_no_detections(k):
    report = explore_program(
        "counter", policy="random", seed=0, schedules=5, threads=3, ops=3,
        k=k,
    )
    assert report.detections == 0


# -- race detector catches drop-acquire with the checker off -----------------


@pytest.mark.parametrize("k", K_VALUES)
def test_race_detector_catches_drop_acquire(k):
    report = explore_program(
        "counter", policy="random", seed=0, schedules=5, threads=3, ops=3,
        fault="drop-acquire", check=False, k=k,
    )
    assert report.races_total > 0, f"race undetected at k={k}"


# -- serializability auditor catches the lost update -------------------------


@pytest.mark.parametrize("k", K_VALUES)
def test_auditor_catches_nonserializable_schedule(k):
    target = resolve_target("counter")
    caught = 0
    for seed in range(10):
        record, _ = run_schedule(
            target, "fine+coarse", make_policy("random", seed=seed),
            threads=3, ops=3, check=False, detector=False,
            fault="drop-acquire", k=k, seed=seed,
        )
        if any("non-serializable" in v for v in record.violations):
            caught += 1
    assert caught > 0, f"auditor caught nothing at k={k}"


# -- stall canaries: order and release faults end in deadlock / livelock ------
# Nothing recovers from these faults, so each must surface as the
# scheduler's own error. The schedule counts are what each canary needs:
# an inverted order interlocks only when the inverted acquirer meets a
# canonical one mid-plan (pct reaches that on its ninth seed), a leaked
# lock blocks every later acquirer, and a delayed release (60 000 ticks)
# outlasts the 50 000-tick livelock window on any schedule.

STALL_CANARIES = {
    "invert-order": ("twocounter", "deadlock:", 12),
    "lost-release": ("counter", "deadlock:", 2),
    "delayed-release": ("counter", "livelock:", 2),
}


@pytest.mark.parametrize("k", (0, 9))
@pytest.mark.parametrize("policy", ("random", "pct"))
@pytest.mark.parametrize("kind", sorted(STALL_CANARIES))
def test_stall_fault_trips_its_canary(kind, policy, k):
    program, canary, schedules = STALL_CANARIES[kind]
    report = explore_program(
        program, policy=policy, seed=0, schedules=schedules, threads=3,
        ops=2, fault=kind, k=k,
    )
    violations = [v for r in report.records for v in r.violations]
    assert any(v.startswith(canary) for v in violations), \
        f"{kind} never tripped {canary} under {policy} at k={k}"
    # protection stays intact: the canary is the only report
    assert all(v.startswith(canary) for v in violations), violations


# -- the CLI-level canary -----------------------------------------------------


def test_explore_canary_flags_undetected_bug():
    # with the checker AND detector off, nothing can flag the bug: the
    # report shows zero detections — the vacuity canary the CLI exits on
    report = explore_program(
        "counter", policy="random", seed=0, schedules=3, threads=3, ops=3,
        fault="weaken-acquire", check=False, detector=False, audit=False,
    )
    assert report.detections == 0
