"""Guard: the paper's report scripts stay importable and runnable.

Each ``benchmarks/bench_*.py`` file is a plain script that renders one
table or figure; importing it must not run anything, and ``main`` runs it.
"""

import importlib.util
import os
import sys

REPO = os.path.dirname(os.path.dirname(os.path.abspath(__file__)))
BENCH_DIR = os.path.join(REPO, "benchmarks")


def load_report_script(filename):
    """Import ``benchmarks/<filename>`` without running it."""
    path = os.path.join(BENCH_DIR, filename)
    spec = importlib.util.spec_from_file_location(filename[:-3], path)
    module = importlib.util.module_from_spec(spec)
    saved = list(sys.path)  # the script puts benchmarks/ on the path
    try:
        spec.loader.exec_module(module)
    finally:
        sys.path[:] = saved
    return module


def test_every_report_script_imports_and_exposes_main():
    names = sorted(f for f in os.listdir(BENCH_DIR)
                   if f.startswith("bench_") and f.endswith(".py"))
    assert len(names) == 5  # table1, table2, figure7, figure8, ablations
    for filename in names:
        module = load_report_script(filename)
        assert callable(getattr(module, "main", None)), filename
        assert not [n for n in dir(module) if n.startswith("test_")]


def test_expected_experiment_coverage():
    names = set(os.listdir(BENCH_DIR))
    for required in (
        "bench_table1_analysis_time.py",
        "bench_table2_execution_times.py",
        "bench_figure7_lock_distribution.py",
        "bench_figure8_scalability.py",
        "bench_ablation_schemes.py",
    ):
        assert required in names
