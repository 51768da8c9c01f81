"""Anytime inference: budgets, sound degradation, checkpoint/resume.

Three layers of guarantees:

1. :class:`AnalysisBudget` mechanics — step/wall/RSS ceilings raise
   :class:`BudgetExhausted` with the right reason, and the exception
   survives a pickle round trip (it crosses process-pool boundaries).
2. The anytime contract — a budgeted ``allow_partial`` run is a *pure
   coarsening* of the unbudgeted run: non-degraded sections are
   identical, degraded sections carry exactly ``[(⊤, X)]`` (the global
   lock), and the degraded result still satisfies the §4.2 protection
   checker under a concurrent execution (Theorem 1 holds by
   construction: the global lock in granting mode covers everything).
3. Crash-safe checkpointing — a run killed with SIGKILL at a checkpoint
   boundary resumes from the on-disk cursor and produces byte-identical
   output (minus timing) to an uninterrupted run.
"""

import os
import pickle
import signal
import subprocess
import sys
import time

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from repro.bench import ALL_BENCHMARKS
from repro.bench.programs.spec import generate_spec_program
from repro.inference import (
    AnalysisBudget,
    BudgetExhausted,
    LockInference,
    transform_with_inference,
)
from repro.interp import ThreadExec, World
from repro.locks.effects import RW
from repro.locks.paperlock import global_lock
from repro.sim import Scheduler

GLOBAL_FALLBACK = frozenset({global_lock(RW)})


# ---------------------------------------------------------------------------
# AnalysisBudget mechanics
# ---------------------------------------------------------------------------


def test_unbounded_budget_is_inert():
    budget = AnalysisBudget().arm()
    assert not budget.bounded
    for steps in (0, 10**9):
        budget.check(steps)  # never raises


def test_step_budget_raises_with_reason():
    budget = AnalysisBudget(max_steps=100).arm()
    budget.check(100)
    with pytest.raises(BudgetExhausted) as err:
        budget.check(101)
    assert err.value.reason == "steps"
    assert "step budget" in str(err.value)


def test_wall_budget_raises_after_deadline():
    budget = AnalysisBudget(wall_s=0.01).arm()
    time.sleep(0.03)
    with pytest.raises(BudgetExhausted) as err:
        budget.check(0)
    assert err.value.reason == "wall"


def test_rss_budget_samples_and_raises():
    # 0.001 MB is below any real process footprint, so the first sampled
    # poll must trip
    budget = AnalysisBudget(max_rss_mb=0.001, rss_sample_every=1).arm()
    with pytest.raises(BudgetExhausted) as err:
        budget.check(0)
    assert err.value.reason == "rss"


def test_budget_exhausted_pickles_across_process_boundary():
    err = BudgetExhausted("steps", "dataflow step budget of 5 exhausted")
    clone = pickle.loads(pickle.dumps(err))
    assert clone.reason == "steps"
    assert str(clone) == str(err)


def test_budget_describe_names_active_ceilings():
    text = AnalysisBudget(wall_s=2.0, max_steps=500).describe()
    assert "2" in text and "500" in text


# ---------------------------------------------------------------------------
# sound degradation: pure coarsening + Theorem-1 checker
# ---------------------------------------------------------------------------


def _assert_pure_coarsening(budgeted, full):
    assert set(budgeted.sections) == set(full.sections)
    for sid, section in budgeted.sections.items():
        if sid in budgeted.degraded_sections:
            assert section.locks == GLOBAL_FALLBACK, (
                f"degraded section {sid} must carry exactly the global lock")
        else:
            assert section.locks == full.sections[sid].locks, (
                f"non-degraded section {sid} drifted from the full run")


@given(
    name=st.sampled_from(sorted(ALL_BENCHMARKS)),
    k=st.sampled_from([0, 1, 9]),
    max_steps=st.sampled_from([1, 5, 40, 400]),
)
@settings(max_examples=25, deadline=None)
def test_degraded_result_is_pure_coarsening(name, k, max_steps):
    source = ALL_BENCHMARKS[name].source
    budgeted = LockInference(
        source, k=k, budget=AnalysisBudget(max_steps=max_steps),
        allow_partial=True).run()
    full = LockInference(source, k=k).run()
    _assert_pure_coarsening(budgeted, full)
    assert budgeted.partial == bool(budgeted.degraded_sections)
    assert budgeted.profile.degraded_sections == len(
        budgeted.degraded_sections)
    if budgeted.partial:
        assert budgeted.profile.budget_reason == "steps"


def test_without_allow_partial_budget_exhaustion_raises():
    source = ALL_BENCHMARKS["vacation"].source
    with pytest.raises(BudgetExhausted):
        LockInference(source, k=9,
                      budget=AnalysisBudget(max_steps=1)).run()


def test_tight_budget_degrades_every_section_to_global_lock():
    source = ALL_BENCHMARKS["vacation"].source
    result = LockInference(
        source, k=9, budget=AnalysisBudget(max_steps=1),
        allow_partial=True).run()
    assert result.partial
    assert set(result.degraded_sections) == set(result.sections)
    for section in result.sections.values():
        assert section.locks == GLOBAL_FALLBACK


CHECKED_PROGRAM = """
struct node { node* next; int key; }
node* G0;

void setup() {
  node* first = new node;
  node* prev = first;
  int i = 0;
  while (i < 4) {
    node* n = new node;
    n->key = i;
    prev->next = n;
    prev = n;
    i = i + 1;
  }
  prev->next = first;
  G0 = first;
}

void op(int k) {
  atomic {
    node* p = G0;
    p->key = k;
    p = p->next;
    G0 = p;
  }
}

void scan(int k) {
  atomic {
    node* p = G0;
    int i = 0;
    while (i < 3) {
      p->key = p->key + k;
      p = p->next;
      i = i + 1;
    }
  }
}

void main() { setup(); op(1); scan(2); }
"""


def _run_seq(world, func):
    gen = ThreadExec(world, 999, mode="seq").call(func, [])
    try:
        while True:
            next(gen)
    except StopIteration as stop:
        return stop.value


def test_degraded_result_passes_protection_checker():
    """Theorem 1 on a *mixed* partial result: the first section keeps its
    converged fine-grained locks, the budget trips before the second, and
    the global-lock fallback — which conflicts with every fine lock —
    still protects every shared access in a concurrent run."""
    result = LockInference(
        CHECKED_PROGRAM, k=9, budget=AnalysisBudget(max_steps=1),
        allow_partial=True).run()
    assert result.partial, "budget of 1 step must leave work unconverged"
    assert len(result.degraded_sections) < len(result.sections), (
        "want a mixed result: some sections converged before exhaustion")
    world = World(
        transform_with_inference(result),
        pointsto=result.pointsto,
        check=True,
        audit=True,
    )
    _run_seq(world, "setup")
    scheduler = Scheduler(ncores=4)
    for tid in range(3):
        ops = [("op", (tid,)), ("scan", (tid,)), ("op", (tid + 1,))]
        scheduler.spawn(ThreadExec(world, tid, mode="locks").run_ops(ops))
    scheduler.run()  # ProtectionError/DeadlockError would raise here
    world.auditor.assert_serializable()


# ---------------------------------------------------------------------------
# checkpoint / resume
# ---------------------------------------------------------------------------

RESUME_SOURCE_ARGS = ("vpr", 0.3, 7)


def _resume_source():
    name, kloc, seed = RESUME_SOURCE_ARGS
    return generate_spec_program(name, kloc=kloc, seed=seed)


def test_checkpoints_flush_and_resume_skips_levels(tmp_path):
    cache = str(tmp_path / "cache")
    source = _resume_source()

    class Abort(RuntimeError):
        pass

    seen = []

    def bomb(level):
        seen.append(level)
        if len(seen) >= 2:
            raise Abort

    with pytest.raises(Abort):
        LockInference(source, k=2, cache_dir=cache, checkpoint_every=1,
                      on_checkpoint=bomb).run()
    assert len(seen) == 2

    resumed = LockInference(source, k=2, cache_dir=cache,
                            checkpoint_every=1).run()
    assert resumed.profile.resumed_from_level is not None
    assert resumed.profile.levels_skipped >= 1
    assert resumed.profile.checkpoints >= 1

    pure = LockInference(source, k=2).run()
    assert resumed.describe() == pure.describe()
    assert resumed.lock_counts() == pure.lock_counts()


def test_resume_skips_every_checkpointed_level(tmp_path):
    """At k=9 the rerun resumes from the last cursor, not an earlier one."""
    cache = str(tmp_path / "cache")
    source = _resume_source()

    class Abort(RuntimeError):
        pass

    seen = []

    def bomb(level):
        seen.append(level)
        if len(seen) >= 2:
            raise Abort

    with pytest.raises(Abort):
        LockInference(source, k=9, cache_dir=cache, checkpoint_every=1,
                      on_checkpoint=bomb).run()
    resumed = LockInference(source, k=9, cache_dir=cache,
                            checkpoint_every=1).run()
    assert resumed.profile.levels_skipped >= len(seen) == 2
    assert resumed.describe() == LockInference(source, k=9).run().describe()


def test_sigkill_then_resume_is_tick_identical(tmp_path):
    """Kill -9 at a checkpoint boundary; a rerun with the same cache dir
    completes from the cursor and prints byte-identical inference output."""
    cache = str(tmp_path / "cache")
    program = tmp_path / "prog.mc"
    name, kloc, seed = RESUME_SOURCE_ARGS
    program.write_text(_resume_source())

    # phase 1: a run that SIGKILLs itself after the second checkpoint
    victim = (
        "import os, signal, sys\n"
        "from repro.bench.programs.spec import generate_spec_program\n"
        "from repro.inference import LockInference\n"
        f"source = generate_spec_program({name!r}, kloc={kloc}, seed={seed})\n"
        "hits = []\n"
        "def die(level):\n"
        "    hits.append(level)\n"
        "    if len(hits) >= 2:\n"
        "        os.kill(os.getpid(), signal.SIGKILL)\n"
        f"LockInference(source, k=2, cache_dir={cache!r}, "
        "checkpoint_every=1, on_checkpoint=die).run()\n"
    )
    env = dict(os.environ, PYTHONPATH="src")
    proc = subprocess.run([sys.executable, "-c", victim], env=env,
                          cwd=os.path.dirname(os.path.dirname(__file__)),
                          capture_output=True, timeout=300)
    assert proc.returncode == -signal.SIGKILL

    def analyze(cache_dir_args):
        out = subprocess.run(
            [sys.executable, "-m", "repro", "analyze", str(program),
             "--k", "2", *cache_dir_args],
            env=env, cwd=os.path.dirname(os.path.dirname(__file__)),
            capture_output=True, text=True, timeout=300)
        assert out.returncode == 0, out.stderr
        return [line for line in out.stdout.splitlines()
                if not line.startswith("analysis time:")]

    resumed = analyze(["--cache-dir", cache, "--checkpoint-every", "1"])
    fresh = analyze(["--no-disk-cache"])
    assert resumed == fresh


def test_progress_cursor_cleared_after_completion(tmp_path):
    cache = str(tmp_path / "cache")
    source = _resume_source()
    LockInference(source, k=2, cache_dir=cache, checkpoint_every=1).run()
    progress_dir = os.path.join(cache, "analysis", "progress")
    assert os.path.isdir(progress_dir)
    assert os.listdir(progress_dir) == []


def test_checkpoint_without_a_disk_cache_fails_closed(tmp_path, capsys):
    """Checkpoints are flushed to the disk cache; asking for them without
    one is an error, not a silently ignored option."""
    from repro.cli import main

    source = ALL_BENCHMARKS["vacation"].source
    with pytest.raises(ValueError, match="checkpoint_every"):
        LockInference(source, checkpoint_every=1)
    with pytest.raises(ValueError, match="checkpoint_every"):
        LockInference(source, cache_dir=str(tmp_path / "cache"),
                      enable_caches=False, checkpoint_every=1)
    program = tmp_path / "prog.mc"
    program.write_text(source)
    code = main(["analyze", str(program), "--no-disk-cache",
                 "--checkpoint-every", "1"])
    captured = capsys.readouterr()
    assert code == 2
    assert captured.out == ""
    assert len(captured.err.splitlines()) == 1
    assert "--checkpoint-every" in captured.err
