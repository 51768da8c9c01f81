"""The command-line workload: ``cli_cold``.

A pass is two fresh processes, ``python -m repro analyze vacation.mc --k 9
--no-disk-cache`` and ``python -m repro transform hashtable.mc --k 9``.
The inputs are two fixed benchmark sources, so the seed changes nothing
here.

This module imports nothing from ``repro`` at the top: a child's
``ru_maxrss`` starts at its parent's resident size, so the worker must
stay smaller than the processes it measures.  Inputs and expected outputs
are written by a helper process (``cli_helper.py``).
"""

from __future__ import annotations

import os
import statistics
import sys
import time
from typing import Dict, List, Tuple

import golden
from wl_base import Workload

PERF_DIR = os.path.dirname(os.path.abspath(__file__))
PROBE_REPEATS = 5

# label -> (source name, arguments after the file name)
COMMANDS = {
    "analyze-vacation": ("vacation", ["--k", "9", "--no-disk-cache"]),
    "transform-hashtable": ("hashtable", ["--k", "9"]),
}


def strip_timing(stdout: str) -> str:
    """``repro analyze`` ends with a wall-clock line; drop it."""
    return "".join(line for line in stdout.splitlines(keepends=True)
                   if not line.startswith("analysis time:"))


def spawn(argv: List[str], stdout_path: str) -> Tuple[int, object]:
    """Run ``python argv`` to completion; return (exit code, rusage)."""
    write = os.O_WRONLY | os.O_CREAT | os.O_TRUNC
    pid = os.posix_spawn(
        sys.executable, [sys.executable] + argv, os.environ,
        file_actions=[
            (os.POSIX_SPAWN_OPEN, 1, stdout_path, write, 0o644),
            (os.POSIX_SPAWN_OPEN, 2, stdout_path + ".err", write, 0o644),
        ])
    _pid, status, usage = os.wait4(pid, 0)
    return os.waitstatus_to_exitcode(status), usage


def read(path: str) -> str:
    with open(path) as handle:
        return handle.read()


class CliCold(Workload):
    name = "cli_cold"

    def prepare(self, traced: bool = False) -> None:
        self.expected: Dict[str, str] = {}
        self.pinned: Dict[str, str] = {}
        self.stdout: Dict[str, str] = {}
        self.max_child_rss_kb = 0
        self.probes: Dict[str, float] = {}
        self.helper("inputs")
        self.argv = {
            label: ["-m", "repro", label.split("-")[0],
                    os.path.join(self.scratch, source_name + ".mc")] + options
            for label, (source_name, options) in COMMANDS.items()}
        if traced:
            self.probe_interpreter()

    def helper(self, what: str) -> None:
        code, _usage = spawn([os.path.join(PERF_DIR, "cli_helper.py"), what,
                              self.scratch],
                             os.path.join(self.scratch, f"helper-{what}.out"))
        if code != 0:
            raise RuntimeError(
                f"cli_cold helper '{what}' exited {code}: "
                + read(os.path.join(self.scratch, f"helper-{what}.out.err")))

    def probe_interpreter(self) -> None:
        """Interpreter start and ``import repro.cli``, apart from passes."""
        out = os.path.join(self.scratch, "probe.out")
        for label, code in (
                ("bare", "pass"),
                ("import", "import sys, repro.cli; print(len(sys.modules))")):
            walls = []
            for _repeat in range(PROBE_REPEATS):
                t0 = time.perf_counter()
                spawn(["-c", code], out)
                walls.append(time.perf_counter() - t0)
            self.probes[label] = statistics.median(walls)
        self.probes["modules"] = int(read(out))

    def input_digests(self):
        return {source_name: golden.sha256(
                    read(os.path.join(self.scratch, source_name + ".mc")))
                for source_name, _options in COMMANDS.values()}

    def build_oracle(self) -> None:
        self.helper("oracle")
        for label in COMMANDS:
            self.expected[label] = read(
                os.path.join(self.scratch, label + ".expected"))
            path = os.path.join(golden.GOLDEN_DIR, "cli", label + ".txt")
            if not self.regen and os.path.exists(path):
                self.pinned[label] = read(path)

    def run_cli(self, label: str):
        out = os.path.join(self.scratch, label + ".out")
        code, usage = spawn(self.argv[label], out)
        self.max_child_rss_kb = max(self.max_child_rss_kb, usage.ru_maxrss)
        return label, code, strip_timing(read(out))

    def run_pass(self):
        outputs = [self.run_cli(label) for label in COMMANDS]
        return len(outputs), outputs

    def verdict(self, label: str, code: int, stdout: str):
        """Why this invocation failed, or None."""
        if code != 0:
            return f"exit code {code}"
        # analyze prints the lock sets, a blank line, then totals
        printed = (stdout.split("\n\n")[0] if label.startswith("analyze")
                   else stdout)
        if printed != self.expected[label]:
            return "output differs from the reference engine's"
        if label in self.pinned and stdout != self.pinned[label]:
            return f"stdout differs from golden/cli/{label}.txt"
        return None

    def check(self, outputs):
        failed = []
        for label, code, stdout in outputs:
            self.stdout[label] = stdout
            why = self.verdict(label, code, stdout)
            if why is not None:
                failed.append(f"cli_cold/{label}: {why}")
        return len(outputs), failed

    def traced_pass(self, tracer):
        outputs = []
        for label in COMMANDS:
            with tracer.span("cli." + label.split("-")[0]):
                outputs.append(self.run_cli(label))
        return len(outputs), outputs

    def layer_metrics(self, span_times, span_counts):
        return {
            "cli.bare_python_s": self.probes["bare"],
            "cli.import_s": self.probes["import"] - self.probes["bare"],
            "cli.modules_imported": self.probes["modules"],
        }

    def golden_sections(self):
        sections = {"inputs.json": self.input_digests()}
        for label, stdout in self.stdout.items():
            sections[f"cli/{label}.txt"] = stdout
        return sections

    def peak_rss_kb(self) -> float:
        return self.max_child_rss_kb
