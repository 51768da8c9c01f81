"""Constants ``repro.cli`` needs to build its parser and locate the cache
before it knows which subcommand runs.  A leaf: it imports nothing from
``repro``, so reading a name here loads no benchmark program and no
analysis module.  ``bench.configs`` and ``bench.executor`` re-export them.
"""

from __future__ import annotations

import os

CONFIGS = ("global", "coarse", "fine+coarse", "stm")

DEFAULT_CACHE_DIR = os.path.normpath(os.path.join(
    os.path.dirname(__file__), "..", "..", "benchmarks", "results", "cache",
))
