"""Table 2 — execution times with 8 threads.

For every concurrent benchmark (STAMP stand-ins; micro-benchmarks under the
low and high settings) we run the four configurations of the paper —
Global, Coarse (k=0), Fine+Coarse (k=9), and the TL2 STM — on the simulated
8-core machine and report makespans in ticks.

The grid runs through the parallel fault-tolerant executor
(:mod:`repro.bench.executor`): cells fan out across ``--jobs`` worker
processes, finished cells land in ``results/cache/`` (``--resume`` skips
them on a re-run), and the JSONL event stream is persisted next to the
rendered report at ``results/table2_events.jsonl``.

Reproduced shapes (paper Table 2): STM catastrophic on vacation, worst on
genome/kmeans/bayes/hashtable-high, best on labyrinth and the low-contention
micros; read-only coarse locks ≈ 2x global on the `low` micros; fine locks
≈ 2x coarse on hashtable-2-high; coarse ≈ global on the STAMP programs.

Run with ``python benchmarks/bench_table2_execution_times.py [--jobs N]
[--resume] [--threads N] [--ops N]``; it exits 1 if any cell failed.
"""

import argparse
import os
import sys

sys.path.insert(0, os.path.dirname(__file__))

from conftest import RESULTS_DIR, emit_report  # noqa: E402
from repro.bench import ExecutorOptions  # noqa: E402
from repro.bench.reporting import table2, table2_rows  # noqa: E402

N_OPS = 120
EVENTS_PATH = os.path.join(RESULTS_DIR, "table2_events.jsonl")


def options(jobs=1, resume=False, events_path=EVENTS_PATH):
    os.makedirs(RESULTS_DIR, exist_ok=True)
    if not resume and events_path and os.path.exists(events_path):
        os.remove(events_path)  # fresh sweep, fresh event log
    return ExecutorOptions(jobs=jobs, resume=resume, events_path=events_path)


def regenerate(jobs=1, resume=False, threads=8, n_ops=N_OPS):
    rows = table2_rows(threads=threads, n_ops=n_ops,
                       executor=options(jobs=jobs, resume=resume))
    emit_report(
        "table2",
        f"Table 2: execution times (simulated ticks), {threads} threads, "
        f"{n_ops} ops/thread",
        table2(rows),
    )
    return rows


def main(argv=None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--jobs", type=int, default=None)
    parser.add_argument("--resume", action="store_true")
    parser.add_argument("--threads", type=int, default=8)
    parser.add_argument("--ops", type=int, default=N_OPS)
    args = parser.parse_args(argv)
    rows = regenerate(jobs=args.jobs, resume=args.resume,
                      threads=args.threads, n_ops=args.ops)
    print(f"event log: {EVENTS_PATH}")
    failed = [f"{label}/{config}" for label, results in rows
              for config, result in results.items()
              if not hasattr(result, "ticks")]
    if failed:
        print(f"failed cells: {', '.join(failed)}")
    return 1 if failed else 0


if __name__ == "__main__":
    raise SystemExit(main())
