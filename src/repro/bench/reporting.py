"""Render the paper's tables and figures as text reports.

Every experiment of §6 has a generator here:

* :func:`table1`  — program size and analysis time at k = 0 and k = 9;
* :func:`figure7` — combined lock counts by category across k = 0..9;
* :func:`table2`  — execution times with 8 threads across configurations;
* :func:`figure8` — scalability series (1/2/4/8 threads) per benchmark.
"""

from __future__ import annotations

from dataclasses import dataclass, field
from typing import Dict, Iterable, List, Optional, Sequence, Tuple

from ..inference import LockClassCounts, LockInference, shared_analysis
from .configs import ALL_BENCHMARKS, CONFIGS, BenchSpec
from .executor import (
    CellResult,
    ExecutorOptions,
    figure8_cells,
    run_cells,
    table2_cells,
)
from .harness import RunResult, run_benchmark


def _fmt_table(headers: Sequence[str], rows: Iterable[Sequence[object]]) -> str:
    rows = [list(map(str, row)) for row in rows]
    widths = [len(h) for h in headers]
    for row in rows:
        for i, cell in enumerate(row):
            widths[i] = max(widths[i], len(cell))
    lines = [
        "  ".join(h.ljust(w) for h, w in zip(headers, widths)),
        "  ".join("-" * w for w in widths),
    ]
    for row in rows:
        lines.append("  ".join(c.ljust(w) for c, w in zip(row, widths)))
    return "\n".join(lines)


# ---------------------------------------------------------------------------
# Table 1: program size and analysis time
# ---------------------------------------------------------------------------


@dataclass
class Table1Row:
    program: str
    kloc: float
    sections: int
    time_k0: float
    time_k9: float


def table1_row(name: str, source: str) -> Table1Row:
    kloc = source.count("\n") / 1000.0
    result0 = LockInference(source, k=0).run()
    result9 = LockInference(source, k=9).run()
    return Table1Row(
        program=name,
        kloc=round(kloc, 1),
        sections=len(result9.sections),
        time_k0=result0.analysis_time,
        time_k9=result9.analysis_time,
    )


def table1(rows: List[Table1Row]) -> str:
    return _fmt_table(
        ["Program", "Size (Kloc)", "Atomic sections", "k=0 (s)", "k=9 (s)"],
        [
            (r.program, r.kloc, r.sections, f"{r.time_k0:.3f}", f"{r.time_k9:.3f}")
            for r in rows
        ],
    )


# ---------------------------------------------------------------------------
# Figure 7: lock distribution across k
# ---------------------------------------------------------------------------


def figure7_counts(
    sources: Dict[str, str], ks: Sequence[int] = tuple(range(10))
) -> Dict[int, LockClassCounts]:
    """Combined lock counts per k across all *sources* (the paper sums over
    every atomic section of every program). The k-independent front half of
    each program's analysis comes from the process's analysis memo, so the
    whole k sweep shares it."""
    combined: Dict[int, LockClassCounts] = {}
    for k in ks:
        total = LockClassCounts()
        for source in sources.values():
            total = total + LockInference(shared_analysis(source),
                                          k=k).run().lock_counts()
        combined[k] = total
    return combined


def figure7(counts: Dict[int, LockClassCounts]) -> str:
    rows = []
    for k in sorted(counts):
        c = counts[k]
        rows.append((f"k={k}", c.fine_ro, c.fine_rw, c.coarse_ro, c.coarse_rw,
                     c.global_locks, c.total))
    return _fmt_table(
        ["k", "fine-ro", "fine-rw", "coarse-ro", "coarse-rw", "global", "total"],
        rows,
    )


# ---------------------------------------------------------------------------
# Table 2: execution times, 8 threads
# ---------------------------------------------------------------------------


CONFIG_TITLES = {
    "global": "Global",
    "coarse": "Coarse (k=0)",
    "fine+coarse": "Fine+Coarse (k=9)",
    "stm": "STM",
}


def _unwrap(outcome: CellResult):
    """A row value: the RunResult when the cell succeeded, otherwise the
    CellResult itself (rendered as an error marker)."""
    return outcome.result if outcome.ok else outcome


def table2_rows(
    benches: Optional[Dict[str, BenchSpec]] = None,
    threads: int = 8,
    n_ops: Optional[int] = None,
    configs: Sequence[str] = CONFIGS,
    executor: Optional[ExecutorOptions] = None,
) -> List[Tuple[str, Dict[str, RunResult]]]:
    """The Table 2 grid through the experiment executor.

    *executor* defaults to the serial in-process path (``jobs=1``); pass
    :class:`ExecutorOptions` to fan the grid out across workers, resume
    an interrupted sweep from the cache, or stream progress events.
    Failed cells surface as :class:`CellResult` error rows in the dict
    instead of aborting the sweep."""
    benches = benches if benches is not None else ALL_BENCHMARKS
    cells = table2_cells(benches, threads=threads, n_ops=n_ops,
                         configs=configs)
    outcomes = run_cells(cells, executor or ExecutorOptions(jobs=1))
    rows: List[Tuple[str, Dict[str, RunResult]]] = []
    by_cell = {(o.cell.label, o.cell.config): o for o in outcomes}
    for spec in benches.values():
        for setting in spec.settings:
            label = f"{spec.name}-{setting}" if setting else spec.name
            rows.append((label, {
                config: _unwrap(by_cell[(label, config)])
                for config in configs
            }))
    return rows


def _cell_text(value) -> object:
    if isinstance(value, RunResult):
        return value.ticks
    if isinstance(value, CellResult):
        return f"!{value.error}"
    return "-"


def table2(rows: List[Tuple[str, Dict[str, RunResult]]]) -> str:
    # render only the configurations actually present: a two-config sweep
    # produces a two-column table instead of a KeyError
    present: List[str] = []
    for _, results in rows:
        for config in results:
            if config not in present:
                present.append(config)
    configs = [c for c in CONFIGS if c in present]
    configs += [c for c in present if c not in configs]
    headers = ["Program"] + [CONFIG_TITLES.get(c, c) for c in configs]
    if "stm" in configs:
        headers.append("STM aborts")
    body = []
    for label, results in rows:
        row: List[object] = [label]
        row += [_cell_text(results.get(config)) for config in configs]
        if "stm" in configs:
            stm = results.get("stm")
            row.append(stm.stm_aborts if isinstance(stm, RunResult) else "-")
        body.append(row)
    return _fmt_table(headers, body)


# ---------------------------------------------------------------------------
# Figure 8: scalability
# ---------------------------------------------------------------------------

FIGURE8_BENCHES: Tuple[Tuple[str, Optional[str]], ...] = (
    ("rbtree", "low"),
    ("rbtree", "high"),
    ("hashtable-2", "low"),
    ("hashtable-2", "high"),
    ("TH", "low"),
    ("TH", "high"),
    ("genome", None),
    ("kmeans", None),
)


def figure8_series(
    benches: Sequence[Tuple[str, Optional[str]]] = FIGURE8_BENCHES,
    thread_counts: Sequence[int] = (1, 2, 4, 8),
    n_ops: Optional[int] = None,
    configs: Sequence[str] = CONFIGS,
    executor: Optional[ExecutorOptions] = None,
) -> Dict[str, Dict[str, Dict[int, int]]]:
    """series[label][config][threads] = ticks (None for failed cells).

    Runs the grid through the experiment executor; see
    :func:`table2_rows` for the *executor* parameter."""
    cells = figure8_cells(benches, thread_counts=thread_counts, n_ops=n_ops,
                          configs=configs)
    outcomes = run_cells(cells, executor or ExecutorOptions(jobs=1))
    series: Dict[str, Dict[str, Dict[int, int]]] = {}
    for name, setting in benches:
        label = f"{name}-{setting}" if setting else name
        series[label] = {config: {} for config in configs}
    for outcome in outcomes:
        cell = outcome.cell
        series[cell.label][cell.config][cell.threads] = outcome.ticks
    return series


def figure8(series: Dict[str, Dict[str, Dict[int, int]]]) -> str:
    blocks = []
    for label, per_config in series.items():
        thread_counts = sorted(next(iter(per_config.values())).keys())
        headers = ["config"] + [f"{t} thr" for t in thread_counts]
        rows = [
            [config] + [
                "-" if per_config[config].get(t) is None
                else per_config[config][t]
                for t in thread_counts
            ]
            for config in per_config
        ]
        blocks.append(f"--- {label} ---\n" + _fmt_table(headers, rows))
    return "\n\n".join(blocks)
