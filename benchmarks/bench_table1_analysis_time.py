"""Table 1 — program size and analysis time (k=0 vs k=9).

The paper analyzes SPECint2000 programs (main wrapped in one atomic
section), the STAMP benchmarks, and the micro-benchmarks, reporting the
whole-program analysis time at k=0 (≈ pointer-analysis time, no dataflow)
and k=9. We regenerate the same table over the same three program groups;
the SPEC rows use the synthetic corpus at SPEC_SCALE × the paper's KLoC
(see DESIGN.md substitutions — absolute sizes are scaled, ordering and the
k=0 ≪ k=9 growth pattern are the reproduced shape).

Run with ``python benchmarks/bench_table1_analysis_time.py``.
"""

import argparse
import os
import sys

sys.path.insert(0, os.path.dirname(__file__))

from conftest import emit_report  # noqa: E402
from repro.bench import ALL_BENCHMARKS  # noqa: E402
from repro.bench.programs.spec import spec_sources  # noqa: E402
from repro.bench.reporting import table1, table1_row  # noqa: E402

SPEC_SCALE = 0.05  # fraction of the paper's KLoC for the synthetic corpus


def _sources():
    sources = dict(spec_sources(scale=SPEC_SCALE))
    for name, spec in ALL_BENCHMARKS.items():
        sources[name] = spec.source
    return sources


def main(argv=None) -> int:
    argparse.ArgumentParser(description=__doc__.splitlines()[0]).parse_args(
        argv)
    rows = [table1_row(name, source)
            for name, source in sorted(_sources().items())]
    rows.sort(key=lambda r: -r.kloc)
    emit_report(
        "table1",
        f"Table 1: program size and analysis time "
        f"(SPEC corpus at {SPEC_SCALE}x paper KLoC)",
        table1(rows),
    )
    return 0


if __name__ == "__main__":
    raise SystemExit(main())
