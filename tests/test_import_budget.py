"""Import budget: a fresh process loads what its subcommand uses.

``cli_cold`` is mostly import time (this tree runs with bytecode caching
off in the benchmark, so every imported line is recompiled per process),
and an eager import is easy to add back without noticing.  Each case here
runs in a fresh interpreter and reads ``sys.modules`` afterwards; see
``docs/PERFORMANCE.md``, "Cold start".
"""

import os
import pkgutil
import re
import subprocess
import sys

import pytest

import repro

SRC = os.path.join(os.path.dirname(__file__), os.pardir, "src")

MOVE = """
struct elem { elem* next; }
struct list { elem* head; }
void move(list* from, list* to) {
  atomic { elem* x = to->head; to->head = from->head; from->head = x; }
}
void main() { list* a = new list; list* b = new list; move(a, b); }
"""

# what ``analyze --no-disk-cache`` and ``transform`` never execute;
# ``hashlib`` serves only the disk cache's cone hashes
FORBIDDEN = (
    "repro.bench", "repro.interp", "repro.stm", "repro.runtime",
    "repro.explore", "repro.serve", "repro.sim.scheduler",
    "repro.inference.diskcache", "repro.inference.reference",
    "repro.pointer.andersen", "repro.obs.metrics",
    "pickle", "multiprocessing", "concurrent.futures", "socket", "logging",
    "hashlib",
)
# 40: every solve walks the call-graph condensation, so ``cfg.callgraph``
# is part of it (``transform`` loads 40, ``analyze`` 39)
MAX_REPRO_MODULES = 40


def fresh(code, *argv):
    """Run *code* in a new interpreter; return the names it printed."""
    env = dict(os.environ, PYTHONPATH=SRC)
    done = subprocess.run([sys.executable, "-c", code, *argv], env=env,
                          capture_output=True, text=True, timeout=120)
    assert done.returncode == 0, done.stderr
    return done.stdout.split()


@pytest.fixture
def move_file(tmp_path):
    path = tmp_path / "move.mc"
    path.write_text(MOVE)
    return str(path)


@pytest.mark.parametrize("command", [
    ["analyze", "--k", "9", "--no-disk-cache"],
    ["transform"],
], ids=["analyze", "transform"])
def test_subcommand_loads_only_what_it_runs(move_file, command):
    loaded = fresh(
        "import contextlib, io, sys, repro.cli\n"
        "with contextlib.redirect_stdout(io.StringIO()):\n"
        "    code = repro.cli.main(sys.argv[1:])\n"
        "assert code == 0, code\n"
        "print(*sys.modules)",
        command[0], move_file, *command[1:])
    eager = [name for name in loaded for prefix in FORBIDDEN
             if name == prefix or name.startswith(prefix + ".")]
    assert not eager
    ours = [name for name in loaded if name.split(".")[0] == "repro"]
    assert len(ours) <= MAX_REPRO_MODULES, sorted(ours)


def test_bare_import_loads_no_subpackage():
    loaded = fresh("import sys, repro; print(*sys.modules)")
    ours = {name for name in loaded if name.split(".")[0] == "repro"}
    assert ours == {"repro", "repro._lazy"}


def test_importing_the_cli_loads_the_parser_and_nothing_else():
    loaded = fresh("import sys, repro.cli; print(*sys.modules)")
    ours = {name for name in loaded if name.split(".")[0] == "repro"}
    assert ours == {"repro", "repro._lazy", "repro.cli", "repro.defaults"}


def _import_first_targets():
    """Every top-level module and subpackage of ``repro``, plus every
    module ``cli.py`` imports inside a command."""
    targets = {info.name for info in pkgutil.iter_modules(repro.__path__)}
    with open(os.path.join(SRC, "repro", "cli.py")) as handle:
        targets.update(re.findall(r"^\s+from \.([\w.]+) import",
                                  handle.read(), re.MULTILINE))
    return sorted(targets - {"__main__"})


@pytest.mark.parametrize("module", _import_first_targets())
def test_module_is_importable_first(module):
    """The eager ``__init__``s used to fix one import order for everyone;
    with lazy exports any module may be the first one a process touches,
    so each must import (and resolve every export) from a cold start."""
    fresh(f"from repro.{module} import *")
