"""The repository's one benchmark: ``source -> lock sets`` and ``program ->
makespan``, end to end and layer by layer.

    python benchmarks/perf/run.py                      # every workload
    python benchmarks/perf/run.py --workload sim_stm   # one workload
    python benchmarks/perf/run.py --selfcheck          # two sets must agree
    python benchmarks/perf/run.py --regen-golden       # rewrite golden/

With ``--workload`` and ``--trace 0|1`` it measures one workload the way
the benchmark driver asks and ends with one JSON line: the end-to-end
metrics (``--trace 0``) or the per-layer metrics (``--trace 1``).  See
``README.md`` beside this file for what each number means.

Workers run one after another, each in its own process spawned with
``PYTHONHASHSEED=0``; this process imports nothing from ``repro``.
"""

from __future__ import annotations

import argparse
import fcntl
import json
import os
import platform
import subprocess
import sys
import time
from typing import Dict, List, Optional

import golden
import metrics

PERF_DIR = os.path.dirname(os.path.abspath(__file__))
ROOT = os.path.dirname(os.path.dirname(PERF_DIR))
OUT_DIR = os.path.join(PERF_DIR, "out")
WORKER_TIMEOUT_S = 150


class WorkerFailed(Exception):
    pass


def spawn_worker(workload: str, mode: str, seed: int, seconds: float,
                 passes: int, regen: bool = False) -> Dict[str, object]:
    env = dict(os.environ, PYTHONHASHSEED="0")
    env["PYTHONPATH"] = os.pathsep.join(
        [os.path.join(ROOT, "src")]
        + [p for p in [os.environ.get("PYTHONPATH")] if p])
    argv = [sys.executable, os.path.join(PERF_DIR, "worker.py"),
            "--workload", workload, "--mode", mode, "--seed", str(seed),
            "--seconds", str(seconds), "--passes", str(passes),
            "--spawned-at", repr(time.monotonic())]
    if regen:
        argv.append("--regen-golden")
    try:
        done = subprocess.run(argv, env=env, cwd=ROOT, text=True,
                              stdout=subprocess.PIPE,
                              timeout=WORKER_TIMEOUT_S)
    except subprocess.TimeoutExpired:
        raise WorkerFailed(f"{workload} ({mode}) ran past "
                           f"{WORKER_TIMEOUT_S} s") from None
    if done.returncode != 0:
        raise WorkerFailed(f"{workload} ({mode}) exited {done.returncode}")
    return json.loads(done.stdout.splitlines()[-1])


def environment(seed: int, seconds: float, passes: int) -> Dict[str, object]:
    commit = "unknown"
    if os.path.isdir(os.path.join(ROOT, ".git")):
        found = subprocess.run(["git", "rev-parse", "HEAD"], cwd=ROOT,
                               text=True, stdout=subprocess.PIPE,
                               stderr=subprocess.DEVNULL)
        commit = found.stdout.strip() or commit
    return {"nproc": os.cpu_count(), "python": platform.python_version(),
            "commit": commit, "load_1min": os.getloadavg()[0],
            "seed": seed, "seconds": seconds, "passes": passes}


def warn_if_loaded() -> None:
    load, nproc = os.getloadavg()[0], os.cpu_count() or 1
    if load > 0.5 * nproc:
        sys.stderr.write(f"warning: 1-min load average {load:.2f} is above "
                         f"half of {nproc} cores; timings will be noisy\n")


def measure_end_to_end(workload: str, seed: int, seconds: float,
                       passes: int) -> Dict[str, object]:
    """Timed passes plus extra set-up probes: setup_s is the median over
    the workers, peak_rss_mb the largest any of them reached."""
    workers = [spawn_worker(workload, "setup", seed, seconds, passes)
               for _probe in range(metrics.SETUP_SAMPLES - 1)]
    worker = spawn_worker(workload, "timed", seed, seconds, passes)
    workers.append(worker)
    setups = [w["setup_s"] for w in workers]
    records = worker["passes"]
    return {
        "values": metrics.end_to_end(
            records, setups, max(w["peak_rss_kb"] for w in workers)),
        "attempted": sum(p["ops"] for p in records),
        "failed": sum(p["failed"] for p in records),
        "failures": worker["failures"],
        "samples": len(records),
        "tail_percent": metrics.tail_percent(len(records)),
        "setup_samples": setups,
    }


def measure_layers(workload: str, seed: int, seconds: float,
                   passes: int) -> Dict[str, object]:
    worker = spawn_worker(workload, "traced", seed, seconds, passes)
    records = worker["passes"] + worker["traced_passes"]
    return {
        "values": worker["layers"],
        "attempted": sum(p["ops"] for p in records),
        "failed": sum(p["failed"] for p in records),
        "failures": worker["failures"],
        "layer_self_s": worker["layer_self_s"],
        "dominant_layer": worker["dominant_layer"],
    }


def print_end_to_end(workload: str, result: Dict[str, object]) -> None:
    unit = metrics.WORKLOADS[workload][0]
    print(f"{workload}: end to end, {result['samples']} passes, work unit "
          f"= {unit}, tail = p{result['tail_percent']}")
    for name, metric_unit, _better, bound in metrics.END_TO_END:
        print(f"  {name:<30} {result['values'][name]:>16.4f} {metric_unit:<6}"
              f" (bound {bound:.0%})")
    share = result["failed"] / result["attempted"]
    print(f"  {'fail_share':<30} {share:>16.4f} ratio  "
          f"({result['failed']} of {result['attempted']} operations)")
    for message in result["failures"]:
        print(f"  FAILED {message}")


def print_layers(workload: str, result: Dict[str, object]) -> None:
    print(f"{workload}: per layer (traced run)")
    units = {name: unit for name, unit, _b, _e in metrics.PER_LAYER}
    for name in metrics.PER_LAYER_NAMES:
        value = result["values"][name]
        if value or name.startswith("harness."):
            print(f"  {name:<30} {value:>16.6g} {units[name]}")
    total = sum(result["layer_self_s"].values())
    shares = ", ".join(
        f"{layer} {seconds / total:.0%}" for layer, seconds in sorted(
            result["layer_self_s"].items(), key=lambda item: -item[1]))
    expected = metrics.DOMINANT_LAYER[workload]
    verdict = ("as expected" if result["dominant_layer"] == expected
               else f"EXPECTED {expected}")
    print(f"  self time by layer: {shares}")
    print(f"  dominant layer: {result['dominant_layer']} ({verdict})")
    for message in result["failures"]:
        print(f"  FAILED {message}")


def run_suite(workloads: List[str], seed: int, seconds: float,
              passes: int) -> Dict[str, object]:
    """Both runs of every workload, one worker at a time."""
    suite: Dict[str, object] = {
        "environment": environment(seed, seconds, passes), "workloads": {}}
    print("environment: " + json.dumps(suite["environment"]))
    for workload in workloads:
        end_to_end = measure_end_to_end(workload, seed, seconds, passes)
        print_end_to_end(workload, end_to_end)
        layers = measure_layers(workload, seed, seconds, passes)
        print_layers(workload, layers)
        suite["workloads"][workload] = {"end_to_end": end_to_end,
                                        "per_layer": layers}
    return suite


def suite_failed(suite: Dict[str, object]) -> int:
    return sum(run["failed"] for both in suite["workloads"].values()
               for run in both.values())


def selfcheck(first: Dict[str, object], second: Dict[str, object]) -> int:
    """Two sets of runs of one tree must agree: every end-to-end metric
    within its bound, every exact count identical."""
    problems = 0
    for workload, before in first["workloads"].items():
        after = second["workloads"][workload]
        for name, _unit, _better, bound in metrics.END_TO_END:
            a = before["end_to_end"]["values"][name]
            b = after["end_to_end"]["values"][name]
            drift = max(metrics.worse_by(name, a, b),
                        metrics.worse_by(name, b, a))
            verdict = "ok" if drift <= bound else "OUTSIDE BOUND"
            problems += drift > bound
            print(f"selfcheck {workload:<12} {name:<14} {a:>14.4f} "
                  f"{b:>14.4f} drift {drift:>7.2%} of {bound:.0%} {verdict}")
        for name in metrics.EXACT_COUNTS:
            a = before["per_layer"]["values"][name]
            b = after["per_layer"]["values"][name]
            if a != b:
                problems += 1
                print(f"selfcheck {workload:<12} {name}: {a} then {b}: "
                      "an exact count did not repeat")
    return problems


def regen_golden(workloads: List[str]) -> None:
    for workload in workloads:
        worker = spawn_worker(workload, "timed", golden.GOLDEN_SEED, 0, 1,
                              regen=True)
        for filename, section in worker["golden"].items():
            if filename.endswith(".json"):
                golden.store(filename, workload, section)
            else:
                path = os.path.join(golden.GOLDEN_DIR, filename)
                os.makedirs(os.path.dirname(path), exist_ok=True)
                with open(path, "w") as handle:
                    handle.write(section)
        print(f"{workload}: golden files rewritten")


def write_manifest() -> None:
    with open(os.path.join(ROOT, "BENCHMARK.json"), "w") as handle:
        json.dump(metrics.manifest(), handle, indent=2)
        handle.write("\n")


def driver_line(result: Dict[str, object], names_units) -> str:
    """The one JSON object the benchmark driver reads."""
    return json.dumps({
        "correct": result["failed"] == 0,
        "attempted": result["attempted"],
        "failed": result["failed"],
        "metrics": {name: {"value": result["values"][name], "unit": unit}
                    for name, unit in names_units},
    })


def main(argv: Optional[List[str]] = None) -> int:
    parser = argparse.ArgumentParser(
        description=__doc__, formatter_class=argparse.RawTextHelpFormatter)
    parser.add_argument("--workload", choices=list(metrics.WORKLOADS))
    parser.add_argument("--seed", type=int, default=0)
    parser.add_argument("--seconds", type=float, default=metrics.RUN_SECONDS,
                        help="how long the timed passes of one run last")
    parser.add_argument("--passes", type=int, default=0,
                        help="a fixed number of passes instead of --seconds")
    parser.add_argument("--trace", type=int, choices=(0, 1),
                        help="one run only: 0 end to end, 1 per layer")
    parser.add_argument("--selfcheck", action="store_true")
    parser.add_argument("--regen-golden", action="store_true")
    parser.add_argument("--write-manifest", action="store_true",
                        help="rewrite BENCHMARK.json from metrics.py")
    args = parser.parse_args(argv)

    if args.write_manifest:
        write_manifest()
        return 0
    if not os.path.isdir(os.path.join(ROOT, "src", "repro")):
        sys.stderr.write("no src/repro beside benchmarks/: nothing to "
                         "measure\n")
        return 2
    os.makedirs(OUT_DIR, exist_ok=True)
    # one set of workers at a time: a second runner would share the cores
    lock = open(os.path.join(OUT_DIR, "run.lock"), "w")
    try:
        fcntl.flock(lock, fcntl.LOCK_EX | fcntl.LOCK_NB)
    except OSError:
        sys.stderr.write("another benchmark run holds out/run.lock\n")
        return 2
    warn_if_loaded()
    workloads = [args.workload] if args.workload else list(metrics.WORKLOADS)
    try:
        if args.regen_golden:
            regen_golden(workloads)
            return 0
        if args.trace is not None:
            if args.workload is None:
                parser.error("--trace needs --workload")
            if args.trace == 0:
                result = measure_end_to_end(args.workload, args.seed,
                                            args.seconds, args.passes)
                print_end_to_end(args.workload, result)
                names_units = [(n, u) for n, u, _b, _bd in metrics.END_TO_END]
            else:
                result = measure_layers(args.workload, args.seed,
                                        args.seconds, args.passes)
                print_layers(args.workload, result)
                names_units = [(n, u) for n, u, _b, _e in metrics.PER_LAYER]
            print(driver_line(result, names_units))
            return 0
        suite = run_suite(workloads, args.seed, args.seconds, args.passes)
        problems = suite_failed(suite)
        if args.selfcheck:
            second = run_suite(workloads, args.seed, args.seconds,
                               args.passes)
            problems += suite_failed(second) + selfcheck(suite, second)
        with open(os.path.join(OUT_DIR, "results.json"), "w") as handle:
            json.dump(suite, handle, indent=1)
        print(f"{problems} problem(s); results in "
              f"{os.path.relpath(os.path.join(OUT_DIR, 'results.json'))}")
        return 1 if problems else 0
    except WorkerFailed as err:
        sys.stderr.write(f"benchmark aborted: {err}\n")
        return 1
    finally:
        lock.close()


if __name__ == "__main__":
    raise SystemExit(main())
