"""What ``worker.py`` needs from a workload."""

from __future__ import annotations

import os
import resource
import shutil
from typing import Dict, List, Tuple


class Workload:
    """One set of inputs and the pass that sweeps them.

    ``prepare`` builds inputs and fills caches (part of ``setup_s``);
    ``build_oracle`` computes the expected outputs by means other than
    the code under test (timed apart as ``harness.oracle_s``);
    ``run_pass`` is the timed sweep and returns ``(work units,
    outputs)``; ``check`` compares outputs outside the timed region and
    returns ``(operations attempted, failure messages)``;
    ``traced_pass`` re-drives the same sweep stage by stage under spans.
    """

    name = ""

    def __init__(self, seed: int, scratch: str, regen: bool = False) -> None:
        self.seed = seed
        self.scratch = scratch  # relative path under benchmarks/perf/out
        self.regen = regen  # rewriting golden files: do not compare to them
        os.makedirs(scratch, exist_ok=True)

    def prepare(self, traced: bool = False) -> None:
        raise NotImplementedError

    def input_digests(self) -> Dict[str, str]:
        """SHA-256 of every generated input (pinned for seed 0)."""
        raise NotImplementedError

    def build_oracle(self) -> None:
        raise NotImplementedError

    def run_pass(self) -> Tuple[float, object]:
        raise NotImplementedError

    def check(self, outputs) -> Tuple[int, List[str]]:
        raise NotImplementedError

    def traced_pass(self, tracer) -> Tuple[float, object]:
        raise NotImplementedError

    def layer_metrics(self, span_times: Dict[str, float],
                      span_counts: Dict[str, float]) -> Dict[str, float]:
        """Counts and derived numbers for the layers this workload runs."""
        raise NotImplementedError

    def golden_sections(self) -> Dict[str, object]:
        """golden file name -> this workload's section (``--regen-golden``)."""
        return {}

    def peak_rss_kb(self) -> float:
        return resource.getrusage(resource.RUSAGE_SELF).ru_maxrss

    def close(self) -> None:
        shutil.rmtree(self.scratch, ignore_errors=True)
