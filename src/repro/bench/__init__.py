"""Benchmark programs, workloads, configurations, and harness (paper §6)."""

from .._lazy import lazy_exports

__getattr__, __dir__, __all__ = lazy_exports(__name__, globals(), {
    "configs": ("BenchSpec", "ALL_BENCHMARKS", "MICRO_BENCHMARKS",
                "STAMP_BENCHMARKS", "CONFIGS", "CONFIG_K"),
    "harness": ("RunResult", "run_benchmark", "build_world", "run_seq"),
    "executor": ("Cell", "CellResult", "CellTimeout", "ExecutorOptions",
                 "run_cells", "cell_key", "table2_cells", "figure8_cells",
                 "ablation_k_cells"),
})
