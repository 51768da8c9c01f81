"""Figure 8 — scalability with 1, 2, 4, and 8 threads.

The paper plots execution time for rbtree, hashtable-2, TH, genome, and
kmeans as the thread count grows. Reproduced shapes: the lock
configurations and TL2 scale on the low-contention micros; coarse locks
flatten where sections serialize (rbtree-high); TH-high is where
multi-grain locks keep scaling while TL2 degrades past 4 threads.

Like Table 2, the grid runs through the parallel fault-tolerant executor;
the JSONL event stream lands at ``results/figure8_events.jsonl`` and the
result cache makes ``--resume`` re-runs incremental.

Run with ``python benchmarks/bench_figure8_scalability.py [--jobs N]
[--resume] [--ops N]``; it exits 1 if any cell failed.
"""

import argparse
import os
import sys

sys.path.insert(0, os.path.dirname(__file__))

from conftest import RESULTS_DIR, emit_report  # noqa: E402
from repro.bench import ExecutorOptions  # noqa: E402
from repro.bench.reporting import FIGURE8_BENCHES, figure8, figure8_series  # noqa: E402

N_OPS = 60
THREADS = (1, 2, 4, 8)
EVENTS_PATH = os.path.join(RESULTS_DIR, "figure8_events.jsonl")


def options(jobs=1, resume=False, events_path=EVENTS_PATH):
    os.makedirs(RESULTS_DIR, exist_ok=True)
    if not resume and events_path and os.path.exists(events_path):
        os.remove(events_path)
    return ExecutorOptions(jobs=jobs, resume=resume, events_path=events_path)


def regenerate(jobs=1, resume=False, n_ops=N_OPS):
    series = figure8_series(
        benches=FIGURE8_BENCHES, thread_counts=THREADS, n_ops=n_ops,
        executor=options(jobs=jobs, resume=resume),
    )
    emit_report(
        "figure8",
        f"Figure 8: scalability (ticks) across {THREADS} threads, "
        f"{n_ops} ops/thread",
        figure8(series),
    )
    return series


def main(argv=None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--jobs", type=int, default=None)
    parser.add_argument("--resume", action="store_true")
    parser.add_argument("--ops", type=int, default=N_OPS)
    args = parser.parse_args(argv)
    series = regenerate(jobs=args.jobs, resume=args.resume, n_ops=args.ops)
    print(f"event log: {EVENTS_PATH}")
    failed = [f"{label}/{config}" for label, per_config in series.items()
              for config, per_thread in per_config.items()
              if None in per_thread.values()]
    if failed:
        print(f"failed cells: {', '.join(failed)}")
    return 1 if failed else 0


if __name__ == "__main__":
    raise SystemExit(main())
