"""Benchmark harness tests."""

import pytest

from repro.bench import ALL_BENCHMARKS, run_benchmark
from repro.bench.harness import (build_world, inference_for, run_seq,
                                 seed_inference_cache)
from repro.inference import LockInference
from repro.interp import World


class _CollidingSource(str):
    """Source text whose hash equals every other instance's."""

    def __hash__(self) -> int:
        return 0


def _locks_of(source: str, k: int) -> str:
    return LockInference(str(source), k=k).run().describe()


def test_inference_memo_tells_colliding_sources_apart():
    first = _CollidingSource(ALL_BENCHMARKS["list"].source)
    second = _CollidingSource(ALL_BENCHMARKS["TH"].source)
    assert hash(first) == hash(second) and first != second
    assert inference_for(first, 5).describe() == _locks_of(first, 5)
    assert inference_for(second, 5).describe() == _locks_of(second, 5)


def test_seeded_result_is_keyed_by_text():
    seeded = _CollidingSource(ALL_BENCHMARKS["hashtable"].source)
    other = _CollidingSource(ALL_BENCHMARKS["kmeans"].source)
    seed_inference_cache(seeded, 4, LockInference(str(seeded), k=4).run())
    assert inference_for(other, 4).describe() == _locks_of(other, 4)
    assert inference_for(seeded, 4).describe() == _locks_of(seeded, 4)


def test_seeded_result_is_the_object_served():
    source = ALL_BENCHMARKS["bayes"].source
    installed = LockInference(source, k=3).run()
    seed_inference_cache(source, 3, installed)
    assert inference_for(source, 3) is installed


def test_build_world_modes():
    spec = ALL_BENCHMARKS["rbtree"]
    for config, expected_mode in (
        ("global", "locks"),
        ("coarse", "locks"),
        ("fine+coarse", "locks"),
        ("stm", "stm"),
    ):
        world, mode = build_world(spec, config)
        assert mode == expected_mode
        assert isinstance(world, World)


def test_setup_ran_before_workload():
    spec = ALL_BENCHMARKS["rbtree"]
    world, _ = build_world(spec, "stm")
    assert any(o.label == "rbtree" for o in world.heap.objects.values())


def test_run_result_label():
    spec = ALL_BENCHMARKS["rbtree"]
    result = run_benchmark(spec, "stm", threads=2, setting="low", n_ops=5)
    assert result.label == "rbtree-low"
    result2 = run_benchmark(ALL_BENCHMARKS["genome"], "stm", threads=2, n_ops=5)
    assert result2.label == "genome"


def test_runs_are_deterministic():
    spec = ALL_BENCHMARKS["hashtable-2"]
    a = run_benchmark(spec, "fine+coarse", threads=4, setting="high", n_ops=10)
    b = run_benchmark(spec, "fine+coarse", threads=4, setting="high", n_ops=10)
    assert a.ticks == b.ticks
    assert a.blocked_ticks == b.blocked_ticks


def test_different_seeds_differ():
    spec = ALL_BENCHMARKS["hashtable-2"]
    a = run_benchmark(spec, "fine+coarse", threads=4, setting="high",
                      n_ops=10, seed=1)
    b = run_benchmark(spec, "fine+coarse", threads=4, setting="high",
                      n_ops=10, seed=2)
    assert a.ticks != b.ticks  # overwhelmingly likely with random keys


def test_more_cores_never_hurt_much():
    spec = ALL_BENCHMARKS["hashtable-2"]
    slow = run_benchmark(spec, "fine+coarse", threads=8, setting="low",
                         n_ops=15, ncores=1)
    fast = run_benchmark(spec, "fine+coarse", threads=8, setting="low",
                         n_ops=15, ncores=8)
    assert fast.ticks < slow.ticks


def test_stm_config_runs_original_program():
    spec = ALL_BENCHMARKS["rbtree"]
    world, mode = build_world(spec, "stm")
    from repro.lang import ir

    instrs = [
        i
        for func in world.program.functions.values()
        for i in ir.walk_instrs(func.body)
    ]
    assert any(isinstance(i, ir.IAtomic) for i in instrs)
    assert not any(isinstance(i, ir.IAcquireAll) for i in instrs)


def test_lock_configs_run_transformed_program():
    spec = ALL_BENCHMARKS["rbtree"]
    world, mode = build_world(spec, "coarse")
    from repro.lang import ir

    instrs = [
        i
        for func in world.program.functions.values()
        for i in ir.walk_instrs(func.body)
    ]
    assert not any(isinstance(i, ir.IAtomic) for i in instrs)
    assert any(isinstance(i, ir.IAcquireAll) for i in instrs)


def test_checker_can_be_disabled():
    spec = ALL_BENCHMARKS["rbtree"]
    result = run_benchmark(spec, "coarse", threads=2, setting="low", n_ops=5,
                           check=False)
    assert result.checked_accesses == 0
