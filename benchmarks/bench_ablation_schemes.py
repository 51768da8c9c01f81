"""Ablations (beyond the paper's tables).

The paper's framework is parameterized; these ablations quantify the design
choices DESIGN.md calls out:

* **k sweep** — runtime effect of the expression-lock bound on the
  benchmark where it matters most (hashtable-2-high);
* **effects on/off** — the value of the Σ_ε read/write component on a
  read-heavy workload (rbtree-low): without it every lock is exclusive and
  concurrent readers serialize;
* **analysis cost vs k** — dataflow time growth across k on the biggest
  micro program (TH);
* **alias analysis** — Steensgaard vs Andersen mayAlias: the inclusion
  analysis removes spurious may-alias alternatives during store transfers,
  which can only shrink (or keep) the inferred lock sets.

``tests/test_reporting.py`` checks the effects and alias shapes through
:func:`effects_ticks` and :func:`alias_totals`.

Run with ``python benchmarks/bench_ablation_schemes.py``.
"""

import argparse
import os
import sys

sys.path.insert(0, os.path.dirname(__file__))

from conftest import RESULTS_DIR, emit_report  # noqa: E402
from repro.bench import (  # noqa: E402
    ALL_BENCHMARKS,
    ExecutorOptions,
    ablation_k_cells,
    run_cells,
)
from repro.bench.harness import run_seq  # noqa: E402
from repro.inference import (  # noqa: E402
    LockInference,
    shared_analysis,
    transform_with_inference,
)
from repro.interp import ThreadExec, World  # noqa: E402
from repro.sim import Scheduler  # noqa: E402

K_SWEEP = (0, 1, 3, 6, 9)


def _run_with_inference(spec, inference, setting, threads=8, n_ops=60):
    program = transform_with_inference(inference)
    world = World(program, pointsto=inference.pointsto, check=True)
    run_seq(world, spec.setup)
    scheduler = Scheduler(ncores=8)
    for tid, ops in enumerate(spec.schedule(setting, threads, n_ops)):
        scheduler.spawn(ThreadExec(world, tid, mode="locks").run_ops(ops))
    return scheduler.run().ticks


def k_sweep() -> str:
    """The k-limit runtime sweep as one executor grid: the cell's ``k``
    field overrides the configuration's default, so the sweep rides the
    same cache/retry/event machinery as the paper tables."""
    spec = ALL_BENCHMARKS["hashtable-2"]
    cells = ablation_k_cells(K_SWEEP, bench="hashtable-2", setting="high")
    outcomes = run_cells(cells, ExecutorOptions(
        jobs=1,
        events_path=os.path.join(RESULTS_DIR, "ablation_k_events.jsonl"),
    ))
    lines = []
    for cell, outcome in zip(cells, outcomes):
        if not outcome.ok:
            raise RuntimeError(f"k={cell.k} failed: {outcome.error}")
        counts = LockInference(spec.shared(), k=cell.k).run().lock_counts()
        lines.append((cell.k, outcome.ticks,
                      counts.fine_ro + counts.fine_rw,
                      counts.coarse_ro + counts.coarse_rw))
    return "\n".join(
        f"k={k}: ticks={t}  fine locks={f}  coarse locks={c}"
        for k, t, f, c in sorted(lines)
    )


def effects_ticks(n_ops=60):
    """rbtree-low makespans on 8 threads, (with effects, without)."""
    spec = ALL_BENCHMARKS["rbtree"]
    return tuple(
        _run_with_inference(
            spec, LockInference(spec.shared(), k=9,
                                use_effects=use_effects).run(),
            "low", n_ops=n_ops)
        for use_effects in (True, False)
    )


def analysis_cost():
    spec = ALL_BENCHMARKS["TH"]
    return {
        k: LockInference(spec.shared(), k=k).run().dataflow_time
        for k in (0, 3, 6, 9)
    }


def alias_totals():
    """Total inferred locks over every benchmark at k=9, per alias oracle."""
    sources = [spec.source for spec in ALL_BENCHMARKS.values()]
    return {
        alias: sum(
            LockInference(shared_analysis(source), k=9,
                          alias=alias).run().lock_counts().total
            for source in sources)
        for alias in ("steensgaard", "andersen")
    }


def main(argv=None) -> int:
    argparse.ArgumentParser(description=__doc__.splitlines()[0]).parse_args(
        argv)
    emit_report("ablation_k", "Ablation: k sweep on hashtable-2-high",
                k_sweep())
    ticks_eff, ticks_noeff = effects_ticks()
    emit_report(
        "ablation_effects",
        "Ablation: read/write effects on rbtree-low (8 threads)",
        f"with effects (S/X modes): {ticks_eff} ticks\n"
        f"without effects (all X):  {ticks_noeff} ticks",
    )
    emit_report(
        "ablation_analysis_cost",
        "Ablation: dataflow analysis time vs k (TH)",
        "\n".join(f"k={k}: {t:.4f}s"
                  for k, t in sorted(analysis_cost().items())),
    )
    emit_report(
        "ablation_alias",
        "Ablation: total inferred locks by alias analysis (all programs, k=9)",
        "\n".join(f"{alias}: {n} locks"
                  for alias, n in alias_totals().items()),
    )
    return 0


if __name__ == "__main__":
    raise SystemExit(main())
