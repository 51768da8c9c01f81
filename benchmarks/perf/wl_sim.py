"""The simulator workloads: ``sim_locks`` and ``sim_stm``.

A pass is a handful of ``run_benchmark`` cells (8 threads on 8 simulated
cores, the protection checker on); inference is memoised in set-up, so a
pass is interpreter + scheduler + lock runtime or STM and nothing else.
Work is counted in a simulated quantity (ticks under locks, executed work
units under STM) so that host time per unit compares across seeds.

The traced pass rebuilds what ``run_benchmark`` builds, from the same
public pieces, and wraps the instances it built: each thread generator
(time inside ``next()`` is the interpreter plus what it calls), the lock
manager's entry points and the ``runtime.api`` coroutines (the lock
runtime), and the transaction object (the STM).  ``Scheduler.run`` minus
those is the scheduler's own time.
"""

from __future__ import annotations

from collections import Counter
from contextlib import contextmanager
from typing import Dict, List, Tuple

import repro.interp.eval as interp_eval
from repro.bench.configs import ALL_BENCHMARKS, CONFIG_K
from repro.bench.harness import inference_for, run_benchmark, run_seq
from repro.inference import transform_global, transform_with_inference
from repro.interp import ThreadExec, World
from repro.sim import Scheduler
from repro.stm.tl2 import TL2Tx

import golden
from wl_base import Workload

THREADS = 8
NCORES = 8

# what golden/sim.json pins for every cell
SIM_FIELDS = ("ticks", "work", "blocked_ticks", "lock_acquires",
              "stm_commits", "stm_aborts")


def cell_label(bench: str, config: str, setting: str) -> str:
    return f"{bench}/{config}/{setting}"


@contextmanager
def traced_runtime(tracer):
    """Route the interpreter's calls into ``runtime.api`` and the STM
    through merged spans for the duration of a traced pass."""
    names = ("plan_requests", "acquire_all", "release_all", "TL2Tx")
    saved = {name: getattr(interp_eval, name) for name in names}

    def plan_requests(locks, eval_term):
        # descriptor evaluation calls back into the interpreter
        return tracer.call("runtime.plan", saved["plan_requests"], locks,
                           tracer.wrap("interp.eval_term", eval_term))

    def acquire_all(*args, **kwargs):
        return tracer.wrap_generator("runtime.acquire_all",
                                     saved["acquire_all"](*args, **kwargs))

    def release_all(*args, **kwargs):
        return tracer.wrap_generator("runtime.release_all",
                                     saved["release_all"](*args, **kwargs))

    class TracedTx(TL2Tx):
        def __init__(self, system, tid):
            tracer.call("stm.begin", TL2Tx.__init__, self, system, tid)

        def read(self, loc):
            return tracer.call("stm.read", TL2Tx.read, self, loc)

        def write(self, loc, value):
            return tracer.call("stm.write", TL2Tx.write, self, loc, value)

        def commit(self):
            return tracer.call("stm.commit", TL2Tx.commit, self)

        def abort(self):
            return tracer.call("stm.abort", TL2Tx.abort, self)

    interp_eval.plan_requests = plan_requests
    interp_eval.acquire_all = acquire_all
    interp_eval.release_all = release_all
    interp_eval.TL2Tx = TracedTx
    try:
        yield
    finally:
        for name, value in saved.items():
            setattr(interp_eval, name, value)


class _Sim(Workload):
    cells: Tuple[Tuple[str, str, str], ...] = ()
    n_ops = 0
    # the simulated quantity host time follows, so that host time per unit
    # compares across seeds although each seed draws other op schedules
    work_field = "ticks"

    def work(self, outputs) -> int:
        index = SIM_FIELDS.index(self.work_field)
        return sum(fields[index] for _label, fields in outputs)

    def prepare(self, traced: bool = False) -> None:
        for bench, config, _setting in self.cells:
            inference_for(ALL_BENCHMARKS[bench].source,
                          CONFIG_K.get(config, 9))
        self.expected: Dict[str, List[int]] = {}
        self.stats: Counter = Counter()

    def input_digests(self):
        return {
            cell_label(bench, config, setting): golden.sha256(repr(
                ALL_BENCHMARKS[bench].schedule(setting, THREADS, self.n_ops,
                                               seed=self.seed)))
            for bench, config, setting in self.cells}

    def build_oracle(self) -> None:
        # the protection checker runs inside every pass; beyond it the
        # simulated statistics are pinned (seed 0) or must repeat
        pinned = None if self.regen else golden.load(
            "sim.json", self.name, self.seed)
        if pinned is not None:
            self.expected = dict(pinned)

    def run_pass(self):
        outputs = []
        for bench, config, setting in self.cells:
            result = run_benchmark(
                ALL_BENCHMARKS[bench], config, threads=THREADS,
                ncores=NCORES, n_ops=self.n_ops, setting=setting,
                seed=self.seed, check=True)
            outputs.append((cell_label(bench, config, setting),
                            [getattr(result, name) for name in SIM_FIELDS]))
        return self.work(outputs), outputs

    def check(self, outputs):
        failed = []
        for label, fields in outputs:
            if self.expected.setdefault(label, fields) != fields:
                failed.append(
                    f"{self.name}/{label}: simulated {SIM_FIELDS} = "
                    f"{fields}, expected {self.expected[label]}")
        return len(outputs), failed

    def traced_pass(self, tracer):
        self.stats = stats = Counter()
        outputs = []
        with traced_runtime(tracer):
            for bench, config, setting in self.cells:
                fields = self.traced_cell(tracer, ALL_BENCHMARKS[bench],
                                          config, setting, stats)
                outputs.append((cell_label(bench, config, setting), fields))
        return self.work(outputs), outputs

    def traced_cell(self, tracer, spec, config, setting, stats):
        inference = inference_for(spec.source, CONFIG_K.get(config, 9))
        with tracer.span("inference.transform"):
            if config == "stm":
                program, mode = inference.program, "stm"
            elif config == "global":
                program, mode = transform_global(inference.program), "locks"
            else:
                program, mode = transform_with_inference(inference), "locks"
        with tracer.span("interp.setup"):
            world = World(program, pointsto=inference.pointsto, check=True)
            run_seq(world, spec.setup)
        with tracer.span("harness.schedule"):
            schedules = spec.schedule(setting, THREADS, self.n_ops,
                                      seed=self.seed)
        manager = world.lock_manager
        manager.try_acquire_node = tracer.wrap("runtime.try_acquire",
                                               manager.try_acquire_node)
        manager.release_all = tracer.wrap("runtime.release",
                                          manager.release_all)
        scheduler = Scheduler(ncores=NCORES)
        with tracer.span("sim.run"):
            # spawn prefetches each thread's first event, so it belongs
            # inside the span that owns the interpreter steps
            for tid, ops in enumerate(schedules):
                thread = ThreadExec(world, tid, mode=mode).run_ops(ops)
                scheduler.spawn(tracer.wrap_generator("interp.step", thread))
            sim = scheduler.run()
        locks = manager.stats
        stats.update({
            "ticks": sim.ticks, "work": sim.work_done,
            "blocked_ticks": sim.blocked_ticks,
            "failed_tries": sim.failed_tries,
            "acquires": locks.acquires,
            "node_acquires": locks.node_acquires, "blocks": locks.blocks,
            "commits": world.stm.stats.commits,
            "aborts": world.stm.stats.aborts,
            "checked": world.checker.checked,
        })
        return [sim.ticks, sim.work_done, sim.blocked_ticks, locks.acquires,
                world.stm.stats.commits, world.stm.stats.aborts]

    def layer_metrics(self, span_times, span_counts):
        stats = self.stats
        try_calls = stats["node_acquires"] + stats["blocks"]
        attempts = stats["commits"] + stats["aborts"]
        return {
            "interp.work_units": stats["work"],
            "interp.checked_accesses": stats["checked"],
            "sim.ticks": stats["ticks"],
            "sim.blocked_ticks": stats["blocked_ticks"],
            "sim.failed_tries": stats["failed_tries"],
            "sim.utilization": stats["work"] / (stats["ticks"] * NCORES),
            "runtime.try_calls": try_calls,
            "runtime.node_acquires": stats["node_acquires"],
            "runtime.acquires": stats["acquires"],
            "runtime.blocks": stats["blocks"],
            "runtime.grant_rate": (stats["node_acquires"] / try_calls
                                   if try_calls else 0.0),
            "stm.commits": stats["commits"],
            "stm.aborts": stats["aborts"],
            "stm.abort_rate": stats["aborts"] / attempts if attempts else 0.0,
        }

    def golden_sections(self):
        return {"inputs.json": self.input_digests(),
                "sim.json": self.expected}


class SimLocks(_Sim):
    name = "sim_locks"
    cells = (("hashtable", "fine+coarse", "low"),
             ("rbtree", "coarse", "low"),
             ("hashtable", "global", "high"))
    n_ops = 24


class SimStm(_Sim):
    name = "sim_stm"
    # nothing blocks under TL2, so host time follows the work units the
    # interpreter executes (aborted attempts included), not the makespan
    work_field = "work"
    cells = (("hashtable", "stm", "low"), ("rbtree", "stm", "high"))
    n_ops = 60
