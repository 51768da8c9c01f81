"""Differential conformance: inferred locks × global lock × TL2 STM.

Fast smoke runs in CI; the ≥50-schedule stress sweep per corpus program
runs under ``pytest --runslow``.
"""

import pytest

from repro.bench.harness import build_world_for_source, run_seq
from repro.explore import (
    DIFF_CORPUS,
    differential_check,
    explore_program,
    heap_fingerprint,
    resolve_target,
)
from repro.explore.diff import semantic_fingerprint, sequential_baseline

SMOKE_SCHEDULES = 3
STRESS_SCHEDULES = 50


# -- corpus sanity ------------------------------------------------------------


def test_corpus_programs_resolve():
    for name in DIFF_CORPUS:
        target = resolve_target(name)
        assert target.schedule(2, 3)  # workload generates
        assert target.observers is not None


def test_benchmark_names_resolve_too():
    target = resolve_target("rbtree")
    assert target.name == "rbtree"
    with pytest.raises(ValueError):
        resolve_target("no-such-program")


def test_corpus_workloads_are_deterministic():
    target = resolve_target("hashtable")
    assert target.schedule(3, 5) == target.schedule(3, 5)


def test_thread_key_ranges_are_disjoint():
    from repro.explore.corpus import KEY_STRIDE

    target = resolve_target("hashtable")
    for tid, ops in enumerate(target.schedule(4, 20)):
        for _, args in ops:
            key = args[0]
            assert tid * KEY_STRIDE <= key < (tid + 1) * KEY_STRIDE


# -- heap fingerprint ---------------------------------------------------------


def test_heap_fingerprint_deterministic_across_builds():
    first, _ = build_world_for_source(DIFF_CORPUS["counter"].source,
                                      "fine+coarse")
    second, _ = build_world_for_source(DIFF_CORPUS["counter"].source,
                                       "fine+coarse")
    assert heap_fingerprint(first) == heap_fingerprint(second)


def test_heap_fingerprint_sees_state_changes():
    world, _ = build_world_for_source(DIFF_CORPUS["counter"].source,
                                      "fine+coarse")
    before = heap_fingerprint(world)
    run_seq(world, "incr")
    assert heap_fingerprint(world) != before


def test_fingerprint_configs_agree_sequentially():
    target = resolve_target("counter")
    base = sequential_baseline(target, threads=2, ops=2)
    for config in ("fine+coarse", "global"):
        world, _ = build_world_for_source(target.source, config)
        for thread_ops in target.schedule(2, 2):
            for func, args in thread_ops:
                run_seq(world, func, args)
        assert semantic_fingerprint(world, target, 2, 2) == base


# -- differential smoke (CI) --------------------------------------------------


@pytest.mark.parametrize("name", sorted(DIFF_CORPUS))
def test_differential_smoke(name):
    report = differential_check(name, schedules=SMOKE_SCHEDULES,
                                threads=3, ops=4)
    assert report.ok, report.describe()
    assert {o.config for o in report.outcomes} == {"fine+coarse", "global",
                                                   "stm"}


@pytest.mark.parametrize("name", sorted(DIFF_CORPUS))
def test_explore_smoke(name):
    report = explore_program(name, policy="pct", seed=0,
                             schedules=SMOKE_SCHEDULES, threads=3, ops=4)
    assert report.detections == 0, report.describe()


@pytest.mark.parametrize("name", sorted(DIFF_CORPUS))
def test_explore_smoke_random_policy(name):
    report = explore_program(name, policy="random", seed=0,
                             schedules=SMOKE_SCHEDULES, threads=3, ops=4)
    assert report.detections == 0, report.describe()


# -- stress sweeps (--runslow) ------------------------------------------------


@pytest.mark.slow
@pytest.mark.parametrize("name", sorted(DIFF_CORPUS))
@pytest.mark.parametrize("policy", ("random", "pct"))
def test_explore_stress(name, policy):
    report = explore_program(name, policy=policy, seed=0,
                             schedules=STRESS_SCHEDULES, threads=4, ops=8)
    assert report.schedules_explored == STRESS_SCHEDULES
    assert report.detections == 0, report.describe()


@pytest.mark.slow
@pytest.mark.parametrize("name", sorted(DIFF_CORPUS))
def test_differential_stress(name):
    report = differential_check(name, schedules=STRESS_SCHEDULES,
                                threads=4, ops=8)
    assert report.ok, report.describe()
    for outcome in report.outcomes:
        assert outcome.schedules == STRESS_SCHEDULES
