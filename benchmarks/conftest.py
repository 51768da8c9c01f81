"""Shared helper for the report scripts.

Each ``bench_*.py`` script regenerates one of the paper's tables/figures
and writes the rendered report to ``benchmarks/results/<name>.txt``.
"""

import os

RESULTS_DIR = os.path.join(os.path.dirname(__file__), "results")


def emit_report(name: str, title: str, text: str) -> None:
    os.makedirs(RESULTS_DIR, exist_ok=True)
    path = os.path.join(RESULTS_DIR, f"{name}.txt")
    with open(path, "w") as handle:
        handle.write(text + "\n")
    print(f"== {title} ==\n{text}\n")
