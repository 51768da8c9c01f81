"""Benchmark specifications and run configurations (paper Table 2 columns).

Configurations:

* ``global``       — every atomic section takes the single ⊤ lock (X mode);
* ``coarse``       — inferred locks with k = 0 (points-to classes + effects);
* ``fine+coarse``  — inferred locks with k = 9 (the paper's best);
* ``stm``          — the TL2 baseline on the untransformed program.
"""

from __future__ import annotations

import random
from dataclasses import dataclass, field
from typing import Callable, Dict, List, Optional, Sequence, Tuple

from ..defaults import CONFIGS
from ..inference import SharedAnalysis
from . import workload
from .programs import micro, stamp

Op = Tuple[str, Tuple[int, ...]]
OpMaker = Callable[[str, random.Random, int], List[Op]]

CONFIG_K = {"coarse": 0, "fine+coarse": 9}


@dataclass(frozen=True)
class BenchSpec:
    """One benchmark: its program, setup entry point, and workload maker."""

    name: str
    source: str
    make_ops: OpMaker
    settings: Tuple[Optional[str], ...] = (None,)
    setup: str = "setup"
    default_ops: int = 120

    def shared(self) -> SharedAnalysis:
        """The memoized k-independent analysis front half for this program:
        every (k, use_effects) configuration in a sweep reuses one parse,
        lowering, CFG build, and pointer analysis."""
        from ..inference.memo import shared_analysis

        return shared_analysis(self.source)

    def schedule(self, setting: Optional[str], threads: int, n_ops: int,
                 seed: int = 1234) -> List[List[Op]]:
        """Deterministic per-thread op schedules."""
        result = []
        for tid in range(threads):
            rng = random.Random((seed, self.name, setting, tid).__repr__())
            result.append(self.make_ops(setting or "low", rng, n_ops))
        return result


def _micro(put: str, get: str, remove: str,
           put_takes_value: bool = True) -> OpMaker:
    def maker(setting: str, rng: random.Random, n_ops: int) -> List[Op]:
        return workload.micro_ops(put, get, remove, setting, rng, n_ops,
                                  put_takes_value=put_takes_value)

    return maker


MICRO_BENCHMARKS: Dict[str, BenchSpec] = {
    "hashtable": BenchSpec(
        name="hashtable",
        source=micro.HASHTABLE_SRC,
        make_ops=_micro("ht_put", "ht_get", "ht_remove"),
        settings=("low", "high"),
    ),
    "rbtree": BenchSpec(
        name="rbtree",
        source=micro.RBTREE_SRC,
        make_ops=_micro("rb_put", "rb_get", "rb_remove"),
        settings=("low", "high"),
    ),
    "list": BenchSpec(
        name="list",
        source=micro.LIST_SRC,
        make_ops=_micro("list_insert", "list_contains", "list_remove",
                        put_takes_value=False),  # void list_insert(int k)
        settings=("low", "high"),
    ),
    "hashtable-2": BenchSpec(
        name="hashtable-2",
        source=micro.HASHTABLE2_SRC,
        make_ops=_micro("h2_put", "h2_get", "h2_remove"),
        settings=("low", "high"),
    ),
    "TH": BenchSpec(
        name="TH",
        source=micro.TH_SRC,
        make_ops=workload.th_ops,
        settings=("low", "high"),
    ),
}

STAMP_BENCHMARKS: Dict[str, BenchSpec] = {
    "vacation": BenchSpec(
        name="vacation",
        source=stamp.VACATION_SRC,
        make_ops=workload.vacation_ops,
    ),
    "genome": BenchSpec(
        name="genome",
        source=stamp.GENOME_SRC,
        make_ops=workload.genome_ops,
    ),
    "kmeans": BenchSpec(
        name="kmeans",
        source=stamp.KMEANS_SRC,
        make_ops=workload.kmeans_ops,
    ),
    "bayes": BenchSpec(
        name="bayes",
        source=stamp.BAYES_SRC,
        make_ops=workload.bayes_ops,
    ),
    "labyrinth": BenchSpec(
        name="labyrinth",
        source=stamp.LABYRINTH_SRC,
        make_ops=workload.labyrinth_ops,
    ),
}

ALL_BENCHMARKS: Dict[str, BenchSpec] = {**STAMP_BENCHMARKS, **MICRO_BENCHMARKS}
