"""One workload in one process: set up, warm up, run passes, report JSON.

``run.py`` spawns this with ``PYTHONHASHSEED=0`` and ``PYTHONPATH=src``;
it is not meant to be run by hand.  Modes:

* ``setup``  — set up and warm up only; reports ``setup_s`` (a probe, so
  one run can report the median of several set-ups);
* ``timed``  — set up, build the oracle, warm up, then timed passes with
  the program's tracer off and no benchmark spans;
* ``traced`` — as ``timed`` for half the budget, then passes re-driven
  stage by stage under :mod:`spans` for the per-layer numbers.

A pass is one fixed sweep over the workload's inputs; the pass is the
sample.  Every pass's outputs are checked, outside the timed region,
against the oracle built in set-up and (seed 0) the golden files.
"""

from __future__ import annotations

import argparse
import gc
import importlib
import json
import os
import resource
import statistics
import sys
import time

import golden
import metrics
import spans

PERF_DIR = os.path.dirname(os.path.abspath(__file__))
OUT_DIR = os.path.join(PERF_DIR, "out")

# workload name -> (module, class); imported lazily so the cli_cold worker
# never imports repro and stays smaller than the processes it measures
WORKLOAD_CLASSES = {
    "infer_k9": ("wl_analysis", "InferK9"),
    "front_large": ("wl_analysis", "FrontLarge"),
    "cache_warm": ("wl_analysis", "CacheWarm"),
    "cli_cold": ("wl_cli", "CliCold"),
    "sim_locks": ("wl_sim", "SimLocks"),
    "sim_stm": ("wl_sim", "SimStm"),
    "served_memo": ("wl_serve", "ServedMemo"),
}

EXIT_INPUT_MISMATCH = 3

# per-layer times that are the self time of the span of the same name
SPAN_TIMES = (
    "lang.lex", "lang.parse", "lang.lower", "lang.print", "cfg.build",
    "cfg.schedule", "pointer.steensgaard", "inference.dataflow",
    "inference.describe", "inference.transform", "diskcache.load_front",
    "diskcache.open", "cli.analyze", "cli.transform",
)
# per-layer times that are a whole layer's self time
LAYER_TIMES = {"interp.self_s": "interp", "sim.self_s": "sim",
               "runtime.busy_s": "runtime", "stm.busy_s": "stm"}
# rate = count / seconds
RATES = {
    "lang.tokens_per_s": ("lang.tokens", "lang.lex_s"),
    "inference.steps_per_s": ("inference.dataflow_steps",
                              "inference.dataflow_s"),
    "interp.work_per_s": ("interp.work_units", "interp.self_s"),
    "sim.ticks_per_s": ("sim.ticks", "sim.self_s"),
    "runtime.ops_per_s": ("runtime.try_calls", "runtime.busy_s"),
}


def pin_to_one_cpu() -> None:
    """Keep this worker, its threads and its children on one core.

    ``served_memo``'s client and in-process server hand the GIL back and
    forth; across two cores a process settles into one of two speeds
    (0.34 or 0.49 s a pass, measured), on one core always the faster.
    The single-threaded workloads lose nothing and stop migrating.
    """
    if hasattr(os, "sched_setaffinity"):
        try:
            os.sched_setaffinity(0, {max(os.sched_getaffinity(0))})
        except OSError:
            pass  # not permitted here: run unpinned


def cpu_seconds() -> float:
    """User + system CPU of this process and its reaped children."""
    children = resource.getrusage(resource.RUSAGE_CHILDREN)
    return time.process_time() + children.ru_utime + children.ru_stime


def run_passes(workload, one_pass, seconds, passes, floor, failures):
    """Run *one_pass* until *passes* are done or *seconds* have elapsed
    (and at least *floor* passes); return one record per pass.

    Every pass starts from a collected heap: a full collection owed to
    earlier passes' garbage would otherwise land in whichever pass trips
    the threshold, and ``ru_maxrss`` would depend on how many passes ran.
    """
    records = []
    began = time.perf_counter()
    while True:
        gc.collect()
        cpu0 = cpu_seconds()
        t0 = time.perf_counter()
        work, outputs = one_pass()
        wall = time.perf_counter() - t0
        cpu = cpu_seconds() - cpu0
        ops, failed = workload.check(outputs)
        failures.extend(failed)
        records.append({"wall": wall, "cpu": cpu, "work": work,
                        "ops": ops, "failed": len(failed)})
        if passes:
            if len(records) >= passes:
                return records
        elif (len(records) >= floor
              and time.perf_counter() - began >= seconds):
            return records


def check_inputs(workload, regen: bool) -> None:
    """Abort, not skew: generated inputs must match the pinned digests."""
    digests = workload.input_digests()
    if regen:
        return
    pinned = golden.load("inputs.json", workload.name, workload.seed)
    if pinned is not None and pinned != digests:
        changed = sorted(name for name in set(pinned) | set(digests)
                         if pinned.get(name) != digests.get(name))
        sys.stderr.write(
            f"{workload.name}: generated inputs differ from "
            f"golden/inputs.json: {', '.join(changed)}\n")
        raise SystemExit(EXIT_INPUT_MISMATCH)


def layer_report(workload, tracer, untraced, traced, oracle_s):
    """The per-layer metrics of one traced run."""
    span_times = tracer.median_self_times()
    layers = spans.layer_self_times(span_times)
    report = {name: 0.0 for name in metrics.PER_LAYER_NAMES}
    for span_name in SPAN_TIMES:
        report[span_name + "_s"] = span_times.get(span_name, 0.0)
    for metric, layer in LAYER_TIMES.items():
        report[metric] = layers.get(layer, 0.0)
    report.update(workload.layer_metrics(span_times, tracer.median_counts()))
    for metric, (count, seconds) in RATES.items():
        if report[seconds]:
            report[metric] = report[count] / report[seconds]
    plain = [p["wall"] for p in untraced]
    with_spans = [p["wall"] for p in traced]
    attributed = sum(seconds for layer, seconds in layers.items()
                     if layer != "harness")
    ops = sum(p["ops"] for p in untraced + traced)
    report.update({
        "harness.pass_s": statistics.median(plain),
        "harness.work_units": traced[-1]["work"],
        "harness.fail_share":
            sum(p["failed"] for p in untraced + traced) / ops,
        "harness.trace_overhead_share":
            statistics.median(with_spans) / statistics.median(plain) - 1.0,
        "harness.noise_share": metrics.iqr_share(plain),
        "harness.layer_coverage": attributed / sum(layers.values()),
        "harness.oracle_s": oracle_s,
        "harness.passes": len(traced),
    })
    dominant = max((layer for layer in layers if layer != "harness"),
                   key=lambda layer: layers[layer])
    return report, layers, dominant


def main(argv=None) -> int:
    parser = argparse.ArgumentParser(description=__doc__)
    parser.add_argument("--workload", required=True,
                        choices=sorted(WORKLOAD_CLASSES))
    parser.add_argument("--mode", required=True,
                        choices=("setup", "timed", "traced"))
    parser.add_argument("--seed", type=int, default=0)
    parser.add_argument("--seconds", type=float, default=metrics.RUN_SECONDS)
    parser.add_argument("--passes", type=int, default=0)
    parser.add_argument("--spawned-at", type=float, required=True,
                        help="time.monotonic() in the runner at spawn")
    parser.add_argument("--regen-golden", action="store_true")
    args = parser.parse_args(argv)

    pin_to_one_cpu()
    module_name, class_name = WORKLOAD_CLASSES[args.workload]
    os.makedirs(OUT_DIR, exist_ok=True)
    scratch = os.path.relpath(
        os.path.join(OUT_DIR, f"tmp-{args.workload}-{os.getpid()}"))
    workload = getattr(importlib.import_module(module_name), class_name)(
        args.seed, scratch, regen=args.regen_golden)
    failures = []
    try:
        workload.prepare(traced=args.mode == "traced")
        check_inputs(workload, args.regen_golden)
        # warm-ups run before the oracle exists and are not checked
        for _warmup in range(metrics.WARMUP_PASSES):
            gc.collect()
            workload.run_pass()
        setup_s = time.monotonic() - args.spawned_at
        oracle_s = 0.0
        if args.mode != "setup":
            t0 = time.perf_counter()
            workload.build_oracle()
            oracle_s = time.perf_counter() - t0
        result = {"workload": args.workload, "seed": args.seed,
                  "mode": args.mode, "setup_s": setup_s,
                  "oracle_s": oracle_s}
        if args.mode == "timed":
            result["passes"] = run_passes(
                workload, workload.run_pass, args.seconds,
                args.passes, metrics.MIN_PASSES, failures)
        elif args.mode == "traced":
            untraced = run_passes(
                workload, workload.run_pass, args.seconds / 2,
                args.passes, metrics.TRACED_MIN_PASSES, failures)
            tracer = spans.Tracer(args.workload)

            def traced_pass():
                with tracer.one_pass():
                    return workload.traced_pass(tracer)

            traced = run_passes(
                workload, traced_pass, args.seconds / 2, args.passes,
                metrics.TRACED_MIN_PASSES, failures)
            tracer.write(os.path.join(OUT_DIR,
                                      f"trace-{args.workload}.json"))
            report, layers, dominant = layer_report(
                workload, tracer, untraced, traced, oracle_s)
            result.update(passes=untraced, traced_passes=traced,
                          layers=report, layer_self_s=layers,
                          dominant_layer=dominant)
        result["peak_rss_kb"] = workload.peak_rss_kb()
        result["failures"] = failures[:20]
        if args.regen_golden:
            result["golden"] = workload.golden_sections()
    finally:
        workload.close()
    sys.stdout.write(json.dumps(result) + "\n")
    return 0


if __name__ == "__main__":
    raise SystemExit(main())
