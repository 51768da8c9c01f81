"""The compile-then-replay interpreter: the harness seam, the error
paths, call arity, and per-mode compilation.

Event-stream identity with the tree-walker it replaced is
``tests/test_interp_golden.py``; this file covers what a golden run does
not reach.
"""

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

import repro.interp.eval as interp_eval
from repro.bench.configs import ALL_BENCHMARKS
from repro.bench.harness import build_world, run_seq
from repro.inference import infer_locks, transform_with_inference
from repro.interp import InterpError, ThreadExec, World
from repro.lang import lower_program, parse_program
from repro.sim import Scheduler
from repro.stm.tl2 import TL2Tx
from tests.test_soundness_property import build_program


def run_threads(world, mode, schedules, ncores=4):
    scheduler = Scheduler(ncores=ncores)
    for tid, ops in enumerate(schedules):
        scheduler.spawn(ThreadExec(world, tid, mode=mode).run_ops(ops))
    return scheduler.run()


# -- the seam benchmarks/perf/wl_sim.traced_runtime relies on ------------------


def test_runtime_entry_points_are_looked_up_at_call_time(monkeypatch):
    """Swapping ``eval.plan_requests`` / ``acquire_all`` / ``release_all``
    *after* a world compiled and ran its functions must reroute the next
    section: a compiled closure may not capture them."""
    spec = ALL_BENCHMARKS["hashtable"]
    world, mode = build_world(spec, "fine+coarse")
    schedules = spec.schedule("low", 2, 4, seed=3)
    run_threads(world, mode, schedules)  # compiles and runs every op
    calls = {"plan_requests": 0, "acquire_all": 0, "release_all": 0}

    def counting(name):
        real = getattr(interp_eval, name)

        def wrapper(*args, **kwargs):
            calls[name] += 1
            return real(*args, **kwargs)
        return wrapper

    for name in calls:
        monkeypatch.setattr(interp_eval, name, counting(name))
    run_threads(world, mode, schedules)
    sections = sum(len(ops) for ops in schedules)
    assert calls["acquire_all"] >= sections
    assert calls["release_all"] >= sections
    assert calls["plan_requests"] >= 2 * sections  # plan + revalidation


def test_transaction_class_is_looked_up_at_call_time(monkeypatch):
    spec = ALL_BENCHMARKS["hashtable"]
    world, mode = build_world(spec, "stm")
    schedules = spec.schedule("low", 2, 4, seed=3)
    run_threads(world, mode, schedules)
    begun = []

    class CountingTx(TL2Tx):
        def __init__(self, system, tid):
            begun.append(tid)
            super().__init__(system, tid)

    monkeypatch.setattr(interp_eval, "TL2Tx", CountingTx)
    run_threads(world, mode, schedules)
    assert len(begun) >= sum(len(ops) for ops in schedules)


# -- every InterpError, with the ticks consumed before it ----------------------

STRUCT = "struct s { int v; }\n"

# name -> (mode, source, ticks consumed before the error, message); ticks
# and messages are the tree-walking evaluator's, taken on the parent commit
ERRORS = {
    "load": ("seq", "int main() { int x = 1; int* p = null; return *p; }",
             2, "load through non-pointer: *p"),
    "store": ("seq", "void main() { int x = 1; int* p = null; *p = x; }",
              2, "store through non-pointer: *p"),
    "field": ("seq", STRUCT + "int main() { s* p = null; return p->v; }",
              1, "field access on non-pointer: p"),
    "index": ("seq", "int main() { int* a = null; return a[1]; }",
              1, "bad index address: a[1]"),
    "arith": ("seq",
              STRUCT + "int main() { s* p = new s; int x = p + 1; return x; }",
              1, "arithmetic on non-ints: RArith(op='+', "
                 "left=VarAtom(name='p'), right=ConstAtom(value=1))"),
    "ordered": ("seq",
                STRUCT + "int main() { s* p = new s; int x = p < 1; return x; }",
                1, "ordered comparison of non-ints: RArith(op='<', "
                   "left=VarAtom(name='p'), right=ConstAtom(value=1))"),
    "cond": ("seq",
             STRUCT + "int main() { s* p = new s; if (p < 1) { return 1; } "
                      "return 0; }",
             2, "ordered comparison of non-ints: p < 1"),
    "div": ("seq", "int main() { int z = 0; return 1 / z; }",
            1, "division by zero"),
    "mod": ("seq", "int main() { int z = 0; return 1 % z; }",
            1, "modulo by zero"),
    "unknown-function": ("seq", "int main() { int x = 1; return mystery(x); }",
                         2, "unknown function 'mystery'"),
    "atomic-in-locks": ("locks", "int g;\nvoid main() { g = 2; atomic { g = 1; } }",
                        1, "atomic section reached in locks mode; run the "
                           "transformed program (inference.transform_program) "
                           "instead"),
    "arity": ("seq", "int f(int a) { return a; }\n"
                     "int main() { int x = 1; return f(x, x); }",
              2, "f() takes 1 argument(s), 2 given"),
}


def ticks_until_error(gen):
    ticks = 0
    with pytest.raises(InterpError) as err:
        for event in gen:
            ticks += event if isinstance(event, int) else 1
    return ticks, str(err.value)


@pytest.mark.parametrize("name", sorted(ERRORS))
def test_interp_error_message_and_point(name):
    mode, source, ticks, message = ERRORS[name]
    world = World(lower_program(parse_program(source)))
    gen = ThreadExec(world, 0, mode=mode).call("main", [])
    assert ticks_until_error(gen) == (ticks, message)


@pytest.mark.parametrize("args", [(), (1, 2)])
def test_entry_call_checks_arity(args):
    world = World(lower_program(parse_program("int f(int a) { return a; }")))
    with pytest.raises(InterpError, match=r"f\(\) takes 1 argument"):
        run_seq(world, "f", args)


def test_list_benchmark_passes_one_argument_to_insert():
    spec = ALL_BENCHMARKS["list"]
    arities = {name: len(func.params)
               for name, func in spec.shared().program.functions.items()}
    for setting in spec.settings:
        for ops in spec.schedule(setting, 4, 40, seed=5):
            assert all(len(args) == arities[func] for func, args in ops)


# -- one compilation per (function, mode) --------------------------------------


def step_closures(world, func, mode):
    return {id(fn) for _kind, fn, _nxt, _arg in world.code(func, mode).steps
            if fn is not None}


@given(seed=st.integers(0, 10_000), n_stmts=st.integers(1, 6))
@settings(max_examples=15, deadline=None)
def test_modes_never_share_compiled_code(seed, n_stmts):
    """Setup and a first ``op`` run seq, then workers run the same ``op``
    in another mode on the same world: each mode must get its own steps
    (seq's bare heap access under locks would skip the checker; seq's
    in-line ``atomic`` under stm would skip the transaction)."""
    result = infer_locks(build_program(seed, n_stmts), k=9)
    schedules = [[("op", (tid,))] * 2 for tid in range(3)]

    locked = World(transform_with_inference(result), pointsto=result.pointsto)
    run_seq(locked, "setup")
    run_seq(locked, "op", (1,))
    assert locked.checker.checked == 0
    assert locked.lock_manager.stats.acquires == 0
    run_threads(locked, "locks", schedules)
    assert locked.checker.checked > 0
    acquires = locked.lock_manager.stats.acquires
    assert acquires >= 6
    run_threads(locked, "stm", schedules)  # acquireAll is a no-op here
    assert locked.lock_manager.stats.acquires == acquires

    transactional = World(result.program, pointsto=result.pointsto)
    run_seq(transactional, "setup")
    run_seq(transactional, "op", (1,))
    assert transactional.stm.stats.starts == 0
    run_threads(transactional, "stm", schedules)
    assert transactional.stm.stats.commits == 6

    seq, locks, stm = (step_closures(locked, "op", mode)
                       for mode in ("seq", "locks", "stm"))
    assert not (seq & locks or seq & stm or locks & stm)
