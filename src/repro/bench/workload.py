"""Workload generation (paper §6.1 and §6.3).

Micro-benchmarks run a harness of put/get/remove operations under two
contention settings: *low* makes gets four times more common; *high* makes
puts four times more common. TH additionally flips a coin per operation to
pick the hashtable or the rbtree. STAMP stand-ins have their own mixes,
using the low-contention parameters the paper takes from the STAMP
documentation.

All schedules are seeded and deterministic: run i of thread t of benchmark b
is identical across configurations, so configuration comparisons measure
concurrency control, not workload noise.
"""

from __future__ import annotations

import random
from typing import Callable, Dict, List, Sequence, Tuple

Op = Tuple[str, Tuple[int, ...]]

# put : get : remove weights
LOW_MIX = (2, 8, 2)  # gets 4x more common
HIGH_MIX = (8, 2, 2)  # puts 4x more common


def _pick(rng: random.Random, weights: Sequence[int]) -> int:
    total = sum(weights)
    draw = rng.randrange(total)
    for index, weight in enumerate(weights):
        if draw < weight:
            return index
        draw -= weight
    return len(weights) - 1


def micro_ops(
    put: str,
    get: str,
    remove: str,
    setting: str,
    rng: random.Random,
    n_ops: int,
    keyspace: int = 256,
    put_takes_value: bool = True,
) -> List[Op]:
    """*put_takes_value* is False for a set (``put(k)``); the value is
    drawn regardless, so every harness sees the same key stream."""
    mix = LOW_MIX if setting == "low" else HIGH_MIX
    ops: List[Op] = []
    for _ in range(n_ops):
        kind = _pick(rng, mix)
        key = rng.randrange(keyspace)
        if kind == 0:
            value = rng.randrange(1000)
            ops.append((put, (key, value) if put_takes_value else (key,)))
        elif kind == 1:
            ops.append((get, (key,)))
        else:
            ops.append((remove, (key,)))
    return ops


def th_ops(setting: str, rng: random.Random, n_ops: int,
           keyspace: int = 2048) -> List[Op]:
    """TH: each op randomly selects the hashtable (0) or the rbtree (1).

    The larger keyspace keeps inserts fresh so the hashtable keeps growing
    and rehashing — the behavior behind the paper's TH-high TL2 collapse at
    8 threads."""
    mix = LOW_MIX if setting == "low" else HIGH_MIX
    ops: List[Op] = []
    for _ in range(n_ops):
        sel = rng.randrange(2)
        kind = _pick(rng, mix)
        key = rng.randrange(keyspace)
        if kind == 0:
            ops.append(("th_put", (sel, key, rng.randrange(1000))))
        elif kind == 1:
            ops.append(("th_get", (sel, key)))
        else:
            ops.append(("th_remove", (sel, key)))
    return ops


def vacation_ops(setting: str, rng: random.Random, n_ops: int) -> List[Op]:
    ops: List[Op] = []
    for _ in range(n_ops):
        draw = rng.randrange(10)
        ids = (rng.randrange(16), rng.randrange(16), rng.randrange(16))
        if draw < 6:
            ops.append(("reserve", ids))
        elif draw < 9:
            ops.append(("browse", ids))
        else:
            ops.append(("cancel", (ids[0],)))
    return ops


def genome_ops(setting: str, rng: random.Random, n_ops: int) -> List[Op]:
    # A large segment space keeps inserts fresh, so the unique-segment
    # counter and the result list stay contended (as in genome's insert
    # phase, which dominates the paper's measurement).
    ops: List[Op] = []
    for _ in range(n_ops):
        h = rng.randrange(100000)
        if rng.randrange(10) < 7:
            ops.append(("seg_insert", (h,)))
            ops.append(("glist_append", (h,)))
        else:
            ops.append(("seg_lookup", (h,)))
    return ops


def kmeans_ops(setting: str, rng: random.Random, n_ops: int) -> List[Op]:
    ops: List[Op] = []
    for i in range(n_ops):
        if i % 50 == 49:
            ops.append(("recenter", ()))
        else:
            ops.append(("assign_point", (rng.randrange(100), rng.randrange(100))))
    return ops


def bayes_ops(setting: str, rng: random.Random, n_ops: int) -> List[Op]:
    ops: List[Op] = []
    for _ in range(n_ops):
        a, b = rng.randrange(24), rng.randrange(24)
        draw = rng.randrange(10)
        if draw < 4:
            ops.append(("insert_edge", (a, b)))
        elif draw < 8:
            ops.append(("has_edge", (a, b)))
        else:
            ops.append(("score", (a,)))
    return ops


def labyrinth_ops(setting: str, rng: random.Random, n_ops: int) -> List[Op]:
    """Routing requests over mostly disjoint grid regions (one stripe per
    request); occasional overlap keeps conflicts possible but rare."""
    ops: List[Op] = []
    for _ in range(n_ops):
        stripe = rng.randrange(64) * 16
        length = 4 + rng.randrange(8)
        if rng.randrange(10) < 8:
            ops.append(("route", (stripe, length)))
        else:
            ops.append(("unroute", (stripe, length)))
    return ops
