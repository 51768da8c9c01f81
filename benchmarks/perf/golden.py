"""Committed expectations for seed 0 (``golden/``).

``inputs.json`` pins the SHA-256 of every generated source and op
schedule, ``locks.json`` the digest of every rendered lock set and
transformed program, ``sim.json`` the simulated statistics of every run,
``cli/`` the CLI's standard output.  Other seeds have no golden files;
their passes are still checked against the oracles built in set-up.
``run.py --regen-golden`` rewrites the files from what the workers saw.
"""

from __future__ import annotations

import hashlib
import json
import os
from typing import Dict, Optional

GOLDEN_DIR = os.path.join(os.path.dirname(os.path.abspath(__file__)),
                          "golden")
GOLDEN_SEED = 0


def sha256(text: str) -> str:
    return hashlib.sha256(text.encode("utf-8")).hexdigest()


def sha256_each(texts: Dict[str, str]) -> Dict[str, str]:
    return {name: sha256(text) for name, text in texts.items()}


def load(filename: str, workload: str, seed: int) -> Optional[Dict]:
    """The golden section for *workload*, or None when *seed* has none."""
    if seed != GOLDEN_SEED:
        return None
    path = os.path.join(GOLDEN_DIR, filename)
    if not os.path.exists(path):
        return None
    with open(path) as handle:
        return json.load(handle).get(workload)


def store(filename: str, workload: str, section: Dict) -> None:
    """Replace *workload*'s section of a golden file."""
    path = os.path.join(GOLDEN_DIR, filename)
    content = {}
    if os.path.exists(path):
        with open(path) as handle:
            content = json.load(handle)
    content[workload] = section
    with open(path, "w") as handle:
        json.dump(content, handle, indent=1, sort_keys=True)
        handle.write("\n")
