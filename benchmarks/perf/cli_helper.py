"""``cli_helper.py inputs|oracle DIR``: the part of ``cli_cold``'s set-up
that needs ``repro`` imported, kept out of the worker process (see
``wl_cli.py``).  ``inputs`` writes the two source files; ``oracle`` writes
what the dict-based reference engine expects each command to print.
"""

from __future__ import annotations

import os
import sys

from repro.bench.configs import ALL_BENCHMARKS
from repro.inference import LockInference, transform_with_inference
from repro.lang import print_lowered_program

from wl_cli import COMMANDS


def write(path: str, text: str) -> None:
    with open(path, "w") as handle:
        handle.write(text)


def main(argv) -> int:
    what, directory = argv
    for label, (source_name, _options) in COMMANDS.items():
        source = ALL_BENCHMARKS[source_name].source
        if what == "inputs":
            write(os.path.join(directory, source_name + ".mc"), source)
            continue
        result = LockInference(source, k=9, enable_caches=False).run()
        if label.startswith("analyze"):
            expected = result.describe()
        else:
            expected = print_lowered_program(
                transform_with_inference(result)) + "\n"
        write(os.path.join(directory, label + ".expected"), expected)
    return 0


if __name__ == "__main__":
    raise SystemExit(main(sys.argv[1:]))
