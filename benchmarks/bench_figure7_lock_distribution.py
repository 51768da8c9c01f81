"""Figure 7 — combined lock counts by category as k grows.

The paper counts, over every atomic section of every program, how many
fine-grain read-only / fine-grain read-write / coarse read-only / coarse
read-write locks the analysis selects for each k in 0..9. The reproduced
shape: k=0 is all-coarse; around k=1 coarse locks convert into (more
numerous) fine locks; beyond a few more k the counts plateau, with a dip
where allocation-site tracing removes locks on section-fresh objects.
``tests/test_reporting.py`` checks that shape on the same corpus.

Run with ``python benchmarks/bench_figure7_lock_distribution.py``.
"""

import argparse
import os
import sys

sys.path.insert(0, os.path.dirname(__file__))

from conftest import emit_report  # noqa: E402
from repro.bench import ALL_BENCHMARKS  # noqa: E402
from repro.bench.reporting import figure7, figure7_counts  # noqa: E402


def main(argv=None) -> int:
    argparse.ArgumentParser(description=__doc__.splitlines()[0]).parse_args(
        argv)
    sources = {name: spec.source for name, spec in ALL_BENCHMARKS.items()}
    counts = figure7_counts(sources, ks=tuple(range(10)))
    emit_report(
        "figure7",
        "Figure 7: combined lock counts per category across k",
        figure7(counts),
    )
    return 0


if __name__ == "__main__":
    raise SystemExit(main())
