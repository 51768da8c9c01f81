"""What the benchmark measures: workloads, metrics, bounds, and the
statistics that turn pass samples into reported numbers.

This module is the single source for ``BENCHMARK.json`` (``run.py
--write-manifest`` regenerates it, the smoke test checks it is in sync)
and for the tables in ``README.md``.  It imports nothing from ``repro`` so
the runner stays small: a worker's ``ru_maxrss`` starts at its parent's.
"""

from __future__ import annotations

import statistics
from typing import Dict, List, Sequence, Tuple

RUN_SECONDS = 8
WARMUP_PASSES = 3
MIN_PASSES = 21  # below this the tail percentile collapses onto the median
SETUP_SAMPLES = 3  # worker set-ups per run; setup_s is their median
TRACED_MIN_PASSES = 5

# name -> (work unit, why this workload exists)
WORKLOADS: Dict[str, Tuple[str, str]] = {
    "infer_k9": (
        "lines",
        "Table 1 k=9 column over 12 small sources; the inference engine "
        "dominates, so a kernel/engine change must show or hold here"),
    "front_large": (
        "lines",
        "k=0 on one 4.8 kLoC source: lexer/parser/Steensgaard dominate "
        "and the k=9 pre-image machinery is bypassed"),
    "cache_warm": (
        "programs",
        "warm disk-cache replay with zero dataflow steps; set-up pays the "
        "store side, passes the pickle-load side"),
    "cli_cold": (
        "invocations",
        "fresh `python -m repro analyze/transform` processes: what a CLI "
        "user pays, mostly interpreter start and imports"),
    "sim_locks": (
        "ticks",
        "Table 2 lock columns on 8 simulated cores: lock manager and "
        "blocked-thread polling dominate host time"),
    "sim_stm": (
        "work",
        "same scheduler and interpreter under TL2, no lock manager: the "
        "bypass workload for every lock-runtime change"),
    "served_memo": (
        "requests",
        "memo-hit and pickled-result requests to an in-process server: "
        "framing, socket and encode only, the engine does nothing"),
}

# (name, unit, better, bound): bound is the share of the parent's median a
# later change may lose before it counts as a regression
END_TO_END: List[Tuple[str, str, str, float]] = [
    ("setup_s", "s", "lower", 0.25),
    ("unit_us", "us", "lower", 0.18),
    ("unit_tail_us", "us", "lower", 0.20),
    ("unit_cpu_us", "us", "lower", 0.18),
    ("work_per_s", "1/s", "higher", 0.18),
    ("peak_rss_mb", "MB", "lower", 0.25),
]

# (name, unit, better, exact): exact counts must repeat run to run at
# equal seed; times and rates need not.  A workload reports 0 for the
# layers it does not touch.
PER_LAYER: List[Tuple[str, str, str, bool]] = [
    ("lang.lex_s", "s", "lower", False),
    ("lang.parse_s", "s", "lower", False),
    ("lang.lower_s", "s", "lower", False),
    ("lang.print_s", "s", "lower", False),
    ("lang.tokens", "count", "lower", True),
    ("lang.tokens_per_s", "1/s", "higher", False),
    ("lang.ir_instrs", "count", "lower", True),
    ("cfg.build_s", "s", "lower", False),
    ("cfg.schedule_s", "s", "lower", False),
    ("cfg.nodes", "count", "lower", True),
    ("cfg.sccs", "count", "lower", True),
    ("pointer.steensgaard_s", "s", "lower", False),
    ("inference.dataflow_s", "s", "lower", False),
    ("inference.dataflow_steps", "count", "lower", True),
    ("inference.steps_per_s", "1/s", "higher", False),
    ("inference.summary_runs", "count", "lower", True),
    ("inference.section_reruns", "count", "lower", True),
    ("inference.mask_hit_rate", "ratio", "higher", True),
    ("inference.call_cache_hits", "count", "higher", True),
    ("inference.call_cache_stale", "count", "lower", True),
    ("inference.fact_terms", "count", "lower", True),
    ("inference.peak_bits", "count", "lower", True),
    ("inference.alias_class_hit_rate", "ratio", "higher", True),
    ("inference.sections", "count", "higher", True),
    ("inference.locks_total", "count", "lower", True),
    ("inference.locks_fine_share", "ratio", "higher", True),
    ("inference.describe_s", "s", "lower", False),
    ("inference.transform_s", "s", "lower", False),
    ("locks.interned_terms", "count", "lower", True),
    ("diskcache.fill_s", "s", "lower", False),
    ("diskcache.store_overhead_s", "s", "lower", False),
    ("diskcache.bytes", "bytes", "lower", False),
    ("diskcache.entries", "count", "lower", True),
    ("diskcache.load_front_s", "s", "lower", False),
    ("diskcache.open_s", "s", "lower", False),
    ("diskcache.io_s", "s", "lower", False),
    ("diskcache.sections_from_disk", "count", "higher", True),
    ("diskcache.summaries_from_disk", "count", "higher", True),
    ("diskcache.replay_steps", "count", "lower", True),
    ("interp.self_s", "s", "lower", False),
    ("interp.work_units", "count", "lower", True),
    ("interp.work_per_s", "1/s", "higher", False),
    ("interp.checked_accesses", "count", "lower", True),
    ("sim.self_s", "s", "lower", False),
    ("sim.ticks", "count", "lower", True),
    ("sim.ticks_per_s", "1/s", "higher", False),
    ("sim.blocked_ticks", "count", "lower", True),
    ("sim.failed_tries", "count", "lower", True),
    ("sim.utilization", "ratio", "higher", True),
    ("runtime.busy_s", "s", "lower", False),
    ("runtime.try_calls", "count", "lower", True),
    ("runtime.node_acquires", "count", "lower", True),
    ("runtime.acquires", "count", "lower", True),
    ("runtime.blocks", "count", "lower", True),
    ("runtime.grant_rate", "ratio", "higher", True),
    ("runtime.ops_per_s", "1/s", "higher", False),
    ("stm.busy_s", "s", "lower", False),
    ("stm.commits", "count", "higher", True),
    ("stm.aborts", "count", "lower", True),
    ("stm.abort_rate", "ratio", "lower", True),
    ("serve.memo_rtt_us", "us", "lower", False),
    ("serve.pickle_rtt_ms", "ms", "lower", False),
    ("serve.requests", "count", "higher", True),
    ("serve.errors", "count", "lower", True),
    ("serve.payload_bytes", "bytes", "lower", False),
    ("cli.bare_python_s", "s", "lower", False),
    ("cli.import_s", "s", "lower", False),
    ("cli.modules_imported", "count", "lower", True),
    ("cli.analyze_s", "s", "lower", False),
    ("cli.transform_s", "s", "lower", False),
    ("harness.pass_s", "s", "lower", False),
    ("harness.work_units", "count", "higher", True),
    ("harness.fail_share", "ratio", "lower", True),
    ("harness.trace_overhead_share", "ratio", "lower", False),
    ("harness.noise_share", "ratio", "lower", False),
    ("harness.layer_coverage", "ratio", "higher", False),
    ("harness.oracle_s", "s", "lower", False),
    ("harness.passes", "count", "higher", False),
]

PER_LAYER_NAMES = [name for name, _unit, _better, _exact in PER_LAYER]
EXACT_COUNTS = [name for name, _unit, _better, exact in PER_LAYER if exact]

# the layer each workload's traced time must be dominated by
DOMINANT_LAYER = {
    "infer_k9": "inference",
    "front_large": "lang",
    "cache_warm": "diskcache",
    "cli_cold": "cli",
    "sim_locks": "runtime",
    "sim_stm": "interp",
    "served_memo": "serve",
}


def manifest() -> Dict[str, object]:
    """The content of the root ``BENCHMARK.json``."""
    return {
        "command": ["python3", "benchmarks/perf/run.py"],
        "paths": ["benchmarks/perf"],
        "run_seconds": RUN_SECONDS,
        "workloads": [{"name": name, "why": why}
                      for name, (_unit, why) in WORKLOADS.items()],
        "end_to_end": [
            {"name": name, "unit": unit, "better": better, "bound": bound}
            for name, unit, better, bound in END_TO_END],
        "per_layer": [{"name": name, "unit": unit, "better": better}
                      for name, unit, better, _exact in PER_LAYER],
    }


# ---------------------------------------------------------------------------
# statistics over pass samples
# ---------------------------------------------------------------------------


def tail_percent(n: int) -> int:
    """The highest whole percentile with at least ten samples beyond it
    (p75 at 41 samples); never below the median."""
    return max(50, (n - 10) * 100 // n) if n else 50


def percentile(values: Sequence[float], percent: float) -> float:
    """Linear-interpolated percentile of *values*."""
    ordered = sorted(values)
    if len(ordered) == 1:
        return ordered[0]
    rank = (len(ordered) - 1) * percent / 100.0
    low = int(rank)
    high = min(low + 1, len(ordered) - 1)
    return ordered[low] + (ordered[high] - ordered[low]) * (rank - low)


def iqr_share(values: Sequence[float]) -> float:
    """(p75 - p25) / median, the driver's spread measure."""
    if len(values) < 2:
        return 0.0
    q1, _q2, q3 = statistics.quantiles(values, n=4)
    middle = statistics.median(values)
    return (q3 - q1) / middle if middle else 0.0


def end_to_end(passes: List[Dict[str, float]], setup_samples: Sequence[float],
               peak_rss_kb: float) -> Dict[str, float]:
    """End-to-end metric values from one worker's timed passes.

    Each pass is normalised by its own work count before the median is
    taken, so a seed that draws a longer schedule moves ``work`` and
    ``wall`` together and leaves the per-unit numbers comparable.
    ``work_per_s`` is the throughput of the whole timed window, slow
    passes included, which the median hides.
    """
    wall = [1e6 * p["wall"] / p["work"] for p in passes]
    cpu = [1e6 * p["cpu"] / p["work"] for p in passes]
    return {
        "setup_s": statistics.median(setup_samples),
        "unit_us": statistics.median(wall),
        "unit_tail_us": percentile(wall, tail_percent(len(wall))),
        "unit_cpu_us": statistics.median(cpu),
        "work_per_s": (sum(p["work"] for p in passes)
                       / sum(p["wall"] for p in passes)),
        "peak_rss_mb": peak_rss_kb / 1024.0,
    }


def worse_by(name: str, before: float, after: float) -> float:
    """Share by which *after* is worse than *before* (negative = better)."""
    better = {n: b for n, _u, b, _bound in END_TO_END}[name]
    if not before:
        return 0.0
    change = (after - before) / before
    return change if better == "lower" else -change

