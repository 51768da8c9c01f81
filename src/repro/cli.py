"""Command-line driver: ``python -m repro <command> …``.

Commands:

* ``analyze <file.mc> [--k K] [--no-effects] [--cache-dir D]
  [--no-disk-cache] [--profile]`` — print the inferred locks per atomic
  section and the Figure 7-style classification counts; the persistent
  analysis cache (on by default, rooted next to the bench result cache)
  makes warm reruns of an unchanged file skip the dataflow outright;
  ``--profile`` appends the AnalysisProfile (phase timers, per-SCC
  timings, solver counters, disk-cache traffic,
  the bitset kernel's mask-hit rate / fallback count / fact-interner
  size / peak IN-set popcount, intern-table sizes);
* ``transform <file.mc> [--k K]`` — print the transformed (acquireAll /
  releaseAll) program;
* ``run <bench> --config CFG [--threads N] [--ops N] [--setting S]`` —
  simulate one benchmark cell and print the makespan and statistics;
* ``bench <table2|figure8> [--jobs N] [--resume] [--cell-timeout S]
  [--benches ...] [--configs ...] [--threads ...] [--ops N]
  [--events PATH]`` — run an experiment grid through the parallel
  fault-tolerant executor: cells fan out across worker processes, finished
  cells are cached (``--resume`` skips them), failing cells become error
  rows instead of killing the sweep, and the JSONL event stream renders
  as live progress;
* ``serve --socket PATH [--cache-dir D] [--max-inflight N]
  [--queue-depth N] [--deadline S] [--events PATH]`` — run the long-lived
  analysis service: interned programs, pointer results, and the disk
  cache stay resident across requests, so repeat analyses cost a lookup
  (see docs/SERVING.md); SIGTERM/SIGINT drain gracefully;
* ``client <analyze|status|flush|shutdown> [--socket PATH] …`` — thin
  client for a running server; ``client analyze FILE`` prints exactly
  what ``analyze FILE`` would;
* ``explore <program|all> [--policy P] [--seed S] [--schedules N]
  [--inject-fault KIND] [--diff]`` — schedule exploration with the race
  detector, protection checker, and serializability auditor armed;
  ``--diff`` runs the differential conformance harness (inferred ×
  global × STM against the sequential baseline) instead. Exits non-zero
  when violations are found — or, with ``--inject-fault``, when the
  seeded bug is *not* detected (checker vacuity canary);
* ``list-benchmarks`` — show the registered benchmark programs.

Only ``argparse`` and what :func:`build_parser` needs are imported here;
each ``cmd_*`` imports what it runs, so a fresh process pays for its own
subcommand only (``tests/test_import_budget.py`` pins what ``analyze``
and ``transform`` may load).
"""

from __future__ import annotations

import argparse
import sys
from typing import Dict, List, Optional

from .defaults import CONFIGS, DEFAULT_CACHE_DIR


def _read_source(path: str) -> Optional[str]:
    """The text of *path*, or None after saying on stderr why it cannot be
    read; the caller exits 2, as for any other malformed input."""
    try:
        with open(path) as handle:
            return handle.read()
    except (OSError, UnicodeDecodeError) as err:
        reason = err.strerror if isinstance(err, OSError) else err
        print(f"error[read]: cannot read {path}: {reason}", file=sys.stderr)
        return None


def _load_program(path: str):
    """``(text, validated ast.Program)`` of the file at *path*, or None
    after printing the diagnostic; the caller exits 2."""
    from .lang import SourceError, parse_program
    from .lang.validate import validate_program

    source = _read_source(path)
    if source is None:
        return None
    try:
        program = parse_program(source)
        validate_program(program)
    except SourceError as err:
        print(err.diagnostic(source), file=sys.stderr)
        return None
    return source, program


def _budget_from_args(args: argparse.Namespace):
    if (args.budget_seconds is None and args.budget_steps is None
            and args.budget_rss_mb is None):
        return None
    from .inference import AnalysisBudget

    return AnalysisBudget(wall_s=args.budget_seconds,
                          max_steps=args.budget_steps,
                          max_rss_mb=args.budget_rss_mb)


def _print_analysis(fields: Dict[str, object]) -> None:
    """What ``analyze`` prints, from the fields of an ``analyze`` response:
    ``client analyze`` prints the same lines, so the two stay diffable."""
    counts = fields["counts"]
    print(fields["sections"])
    print(f"\nlocks: {counts['fine_ro']} fine-ro, "
          f"{counts['fine_rw']} fine-rw, {counts['coarse_ro']} coarse-ro, "
          f"{counts['coarse_rw']} coarse-rw, {counts['global_locks']} global")
    print(f"analysis time: {fields['analysis_time']:.3f}s "
          f"(pointer {fields['pointer_time']:.3f}s, "
          f"dataflow {fields['dataflow_time']:.3f}s)")


def cmd_analyze(args: argparse.Namespace) -> int:
    from .inference import BudgetExhausted, LockInference
    from .lang import SourceError

    if args.checkpoint_every > 0 and args.no_disk_cache:
        print("error[usage]: --checkpoint-every flushes to the disk cache; "
              "it cannot be combined with --no-disk-cache", file=sys.stderr)
        return 2
    loaded = _load_program(args.file)
    if loaded is None:
        return 2
    source, program = loaded
    cache_dir = (None if args.no_disk_cache
                 else args.cache_dir or DEFAULT_CACHE_DIR)
    tracer = None
    if args.trace:
        from .obs.trace import configure

        tracer = configure(True)
        tracer.drain()
    try:
        # the disk cache keys the front half on the text; without it the
        # validated AST goes in and nothing is lexed or parsed twice
        result = LockInference(source if cache_dir else program, k=args.k,
                               use_effects=not args.no_effects,
                               cache_dir=cache_dir,
                               budget=_budget_from_args(args),
                               allow_partial=args.allow_partial,
                               checkpoint_every=args.checkpoint_every).run()
    except SourceError as err:
        print(err.diagnostic(source), file=sys.stderr)
        return 2
    except BudgetExhausted as err:
        print(f"analysis budget exhausted ({err.reason}); rerun with "
              f"--allow-partial for a sound degraded result",
              file=sys.stderr)
        return 3
    if tracer is not None:
        import dataclasses

        from .obs.events import EventWriter, envelope

        records = tracer.drain()
        tracer.configure(False)
        with EventWriter(args.trace) as writer:
            writer.write_all(records)
            if result.profile is not None:
                writer.write(envelope(
                    "metrics", snapshot=dataclasses.asdict(result.profile)))
        print(f"# {len(records)} trace records -> {args.trace}",
              file=sys.stderr)
    _print_analysis({"sections": result.describe(),
                     "counts": vars(result.lock_counts()),
                     "analysis_time": result.analysis_time,
                     "pointer_time": result.pointer_time,
                     "dataflow_time": result.dataflow_time})
    if result.degraded_sections:
        reasons = ", ".join(sorted(set(result.degraded_sections.values())))
        print(f"# partial: {len(result.degraded_sections)} section(s) "
              f"degraded to the global lock ({reasons} budget)",
              file=sys.stderr)
    if args.profile and result.profile is not None:
        print()
        print(result.profile.describe())
    return 0


def cmd_transform(args: argparse.Namespace) -> int:
    from .inference import LockInference, transform_with_inference
    from .lang import SourceError, print_lowered_program

    loaded = _load_program(args.file)
    if loaded is None:
        return 2
    source, program = loaded
    try:
        result = LockInference(program, k=args.k).run()
    except SourceError as err:
        print(err.diagnostic(source), file=sys.stderr)
        return 2
    print(print_lowered_program(transform_with_inference(result)))
    return 0


def cmd_fuzz(args: argparse.Namespace) -> int:
    from .fuzz import fuzz_range

    try:
        start_text, end_text = args.seeds.split(":", 1)
        start, end = int(start_text), int(end_text)
    except ValueError:
        print(f"--seeds wants START:END, got {args.seeds!r}",
              file=sys.stderr)
        return 2
    report = fuzz_range(start, end, k=args.k,
                        budget_steps=args.budget_steps)
    print(report.describe())
    if args.save_crashes and report.failures:
        import os

        os.makedirs(args.save_crashes, exist_ok=True)
        for failure in report.failures:
            path = os.path.join(args.save_crashes,
                                f"seed{failure.seed}.mc")
            with open(path, "w") as handle:
                handle.write(failure.source)
            print(f"wrote {path}", file=sys.stderr)
    return 0 if report.ok else 1


def cmd_run(args: argparse.Namespace) -> int:
    from .bench import ALL_BENCHMARKS, run_benchmark

    spec = ALL_BENCHMARKS.get(args.bench)
    if spec is None:
        print(f"unknown benchmark {args.bench!r}; see list-benchmarks",
              file=sys.stderr)
        return 2
    setting = args.setting
    if setting is None and spec.settings != (None,):
        setting = spec.settings[0]
    result = run_benchmark(
        spec,
        args.config,
        threads=args.threads,
        setting=setting,
        n_ops=args.ops,
        ncores=args.cores,
    )
    print(f"{result.label} [{args.config}] x{args.threads} threads: "
          f"{result.ticks} ticks")
    print(f"  work={result.work} blocked_ticks={result.blocked_ticks} "
          f"lock_acquires={result.lock_acquires}")
    if args.config == "stm":
        print(f"  stm: {result.stm_commits} commits, "
              f"{result.stm_aborts} aborts")
    else:
        print(f"  checker validated {result.checked_accesses} accesses")
    return 0


def _parse_bench_list(tokens: Optional[str], grid: str):
    """Expand ``--benches`` into (name, setting) pairs. Each comma token is
    ``name`` (all of the benchmark's settings) or ``name:setting``."""
    from .bench import ALL_BENCHMARKS
    from .bench.reporting import FIGURE8_BENCHES

    if not tokens:
        if grid == "figure8":
            return list(FIGURE8_BENCHES)
        return [
            (name, setting)
            for name, spec in ALL_BENCHMARKS.items()
            for setting in spec.settings
        ]
    pairs = []
    for token in tokens.split(","):
        token = token.strip()
        if ":" in token:
            name, setting = token.split(":", 1)
        else:
            name, setting = token, None
        spec = ALL_BENCHMARKS.get(name)
        if spec is None:
            raise ValueError(
                f"unknown benchmark {name!r}; see list-benchmarks")
        if setting is not None:
            pairs.append((name, setting or None))
        else:
            for each in spec.settings:
                pairs.append((name, each))
    return pairs


def cmd_bench(args: argparse.Namespace) -> int:
    from .bench import ExecutorOptions, figure8_cells, run_cells
    from .bench.reporting import figure8, table2, _unwrap

    configs = tuple(
        c.strip() for c in (args.configs or ",".join(CONFIGS)).split(",")
    )
    for config in configs:
        if config not in CONFIGS:
            print(f"unknown config {config!r} (choices: {CONFIGS})",
                  file=sys.stderr)
            return 2
    try:
        benches = _parse_bench_list(args.benches, args.grid)
    except ValueError as exc:
        print(exc, file=sys.stderr)
        return 2
    if args.threads:
        thread_counts = tuple(int(t) for t in args.threads.split(","))
    else:
        thread_counts = (1, 2, 4, 8) if args.grid == "figure8" else (8,)
    cells = figure8_cells(benches, thread_counts=thread_counts,
                          n_ops=args.ops, configs=configs)

    state = {"done": 0}
    total = len(cells)

    def progress(event: dict) -> None:
        if args.quiet:
            return
        kind = event["event"]
        label = event.get("label", "")
        where = (f"{label} [{event.get('config')}] "
                 f"x{event.get('threads')} thr")
        if kind == "cell-finish":
            state["done"] += 1
            print(f"[{state['done']:3d}/{total}] done   {where}: "
                  f"{event['ticks']} ticks ({event['duration_s']:.2f}s)")
        elif kind == "cache-hit":
            state["done"] += 1
            print(f"[{state['done']:3d}/{total}] cached {where}: "
                  f"{event['ticks']} ticks")
        elif kind == "cell-error":
            if event.get("will_retry"):
                print(f"[{state['done']:3d}/{total}] RETRY  {where}: "
                      f"{event.get('error')}: {event.get('message')}")
            else:
                state["done"] += 1
                print(f"[{state['done']:3d}/{total}] ERROR  {where}: "
                      f"{event.get('error')}: {event.get('message')}")
        elif kind == "sweep-end":
            print(f"sweep done: {event['ok']} ok, {event['errors']} errors, "
                  f"{event['cached']} cached, {event['duration_s']:.2f}s")

    options = ExecutorOptions(
        jobs=args.jobs,
        resume=args.resume,
        cell_timeout=args.cell_timeout,
        max_attempts=args.retries,
        cache_dir=args.cache_dir,
        # --trace is --events plus per-cell span collection in the workers
        events_path=args.trace or args.events,
        progress=progress,
        trace=bool(args.trace),
        serve_via=args.serve_via,
    )
    try:
        outcomes = run_cells(cells, options)
    except KeyboardInterrupt:
        # run_cells already cancelled pending cells, terminated the pool
        # workers, and closed the event stream with aborted: true
        print("\nsweep aborted (Ctrl-C): workers stopped, "
              "event stream closed", file=sys.stderr)
        return 130
    if args.trace:
        print(f"# trace -> {args.trace} "
              f"(render: python -m repro trace {args.trace} "
              f"--format summary)", file=sys.stderr)

    # render: one table2-style block per thread count
    print()
    for threads in thread_counts:
        rows = {}
        for outcome in outcomes:
            if outcome.cell.threads != threads:
                continue
            rows.setdefault(outcome.cell.label, {})[outcome.cell.config] = (
                _unwrap(outcome)
            )
        print(f"--- {threads} thread(s) ---")
        print(table2(list(rows.items())))
        print()
    errors = [o for o in outcomes if not o.ok]
    if errors:
        print(f"{len(errors)} cell(s) failed:", file=sys.stderr)
        for outcome in errors:
            print(f"  {outcome.cell.label} [{outcome.cell.config}] "
                  f"x{outcome.cell.threads}: {outcome.error}: "
                  f"{outcome.message}", file=sys.stderr)
    return 1 if errors else 0


def cmd_serve(args: argparse.Namespace) -> int:
    import signal

    from .serve import AnalysisServer

    cache_dir = (None if args.no_disk_cache
                 else args.cache_dir or DEFAULT_CACHE_DIR)
    server = AnalysisServer(
        socket_path=args.socket,
        host=args.host,
        port=args.port,
        cache_dir=cache_dir,
        max_inflight=args.max_inflight,
        queue_depth=args.queue_depth,
        deadline_s=args.deadline,
        events_path=args.events,
    )

    def _on_signal(signum, frame):
        server.initiate_shutdown()

    for signame in ("SIGTERM", "SIGINT"):
        if hasattr(signal, signame):
            signal.signal(getattr(signal, signame), _on_signal)
    server.start()
    print(f"serving on {server.address} "
          f"(max-inflight {server.max_inflight}, "
          f"queue {server.queue_depth})", file=sys.stderr, flush=True)
    server.serve_forever()
    print("server drained, exiting", file=sys.stderr)
    return 0


def cmd_client(args: argparse.Namespace) -> int:
    import json

    from .serve import ServeClient, ServeError

    if args.action == "analyze" and not args.file:
        print("client analyze needs a FILE argument", file=sys.stderr)
        return 2
    try:
        client = ServeClient(socket_path=args.socket, host=args.host,
                             port=args.port, timeout=args.timeout)
    except OSError as err:
        print(f"cannot connect to {args.socket or args.host}: {err}",
              file=sys.stderr)
        return 2
    with client:
        try:
            if args.action == "analyze":
                source = _read_source(args.file)
                if source is None:
                    return 2
                response = client.analyze(
                    source, k=args.k, use_effects=not args.no_effects,
                    deadline_s=args.deadline,
                    allow_partial=args.allow_partial)
                _print_analysis(response)
                print(f"# served: {response['served']}", file=sys.stderr)
                if response.get("partial"):
                    degraded = response.get("degraded_sections", [])
                    print(f"# partial: {len(degraded)} section(s) degraded "
                          f"to the global lock", file=sys.stderr)
                if args.profile and response.get("profile"):
                    print(json.dumps(response["profile"], indent=2,
                                     sort_keys=True))
            else:
                response = client.request(args.action)
                print(json.dumps(response, indent=2, sort_keys=True))
        except ServeError as err:
            print(f"server error [{err.code}]: {err.message}",
                  file=sys.stderr)
            return 3
    return 0


def cmd_explore(args: argparse.Namespace) -> int:
    from .explore import (
        DIFF_CORPUS,
        differential_check,
        explore_program,
        resolve_target,
    )

    if args.program == "all":
        names = sorted(DIFF_CORPUS)
    else:
        try:
            resolve_target(args.program)
        except ValueError as err:
            print(err, file=sys.stderr)
            return 2
        names = [args.program]
    failed = False
    for name in names:
        if args.diff:
            report = differential_check(
                name, policy=args.policy, seed=args.seed,
                schedules=args.schedules, threads=args.threads, ops=args.ops,
                ncores=args.cores, depth=args.depth,
            )
            print(report.describe())
            failed = failed or not report.ok
        else:
            report = explore_program(
                name, policy=args.policy, seed=args.seed,
                schedules=args.schedules, threads=args.threads, ops=args.ops,
                config=args.config, fault=args.inject_fault,
                detector=not args.no_detector, check=not args.no_check,
                audit=not args.no_audit, k=args.k, ncores=args.cores,
                depth=args.depth, setting=args.setting,
            )
            print(report.describe())
            if args.inject_fault:
                # canary: the seeded bug MUST be detected
                failed = failed or report.detections == 0
            else:
                failed = failed or report.detections > 0
        print()
    return 1 if failed else 0


def cmd_trace(args: argparse.Namespace) -> int:
    import json
    import os

    from .obs.events import SchemaError
    from .obs.export import load_events, summarize, to_chrome

    try:
        events = load_events(args.file)
    except (OSError, SchemaError) as err:
        print(err, file=sys.stderr)
        return 2
    if not events:
        print(f"no events in {args.file}", file=sys.stderr)
        return 1
    try:
        if args.format == "chrome":
            payload = to_chrome(events)
            if args.output:
                with open(args.output, "w") as handle:
                    json.dump(payload, handle)
                print(f"{len(payload['traceEvents'])} trace events -> "
                      f"{args.output} (open in Perfetto / chrome://tracing)")
            else:
                json.dump(payload, sys.stdout)
                print()
        else:
            print(summarize(events))
    except BrokenPipeError:
        # stdout consumer (head, a pager) closed early: not an error
        os.close(sys.stdout.fileno())
        return 0
    return 0


def cmd_list(args: argparse.Namespace) -> int:
    from .bench import ALL_BENCHMARKS

    for name, spec in sorted(ALL_BENCHMARKS.items()):
        settings = ", ".join(s or "-" for s in spec.settings)
        print(f"{name:14s} settings: {settings}")
    return 0


def build_parser() -> argparse.ArgumentParser:
    parser = argparse.ArgumentParser(
        prog="repro",
        description="Inferring Locks for Atomic Sections (PLDI'08) tooling",
    )
    sub = parser.add_subparsers(dest="command", required=True)

    p = sub.add_parser("analyze", help="infer locks for a mini-C file")
    p.add_argument("file")
    p.add_argument("--k", type=int, default=9)
    p.add_argument("--no-effects", action="store_true")
    p.add_argument("--cache-dir", default=None,
                   help="root of the persistent analysis cache (default "
                        "benchmarks/results/cache; shared with the bench "
                        "executor's cell cache, separate namespaces)")
    p.add_argument("--no-disk-cache", action="store_true",
                   help="disable the persistent cross-run analysis cache")
    p.add_argument("--profile", action="store_true",
                   help="print the AnalysisProfile (phase timers, solver "
                        "counters, bitset kernel stats, cache hit rates)")
    p.add_argument("--trace", default=None, metavar="PATH",
                   help="record analysis spans to this JSONL file "
                        "(render with: repro trace PATH)")
    p.add_argument("--budget-seconds", type=float, default=None, metavar="S",
                   help="wall-clock budget for the solve; on exhaustion "
                        "the run fails (exit 3) unless --allow-partial")
    p.add_argument("--budget-steps", type=int, default=None, metavar="N",
                   help="dataflow-step budget for the solve")
    p.add_argument("--budget-rss-mb", type=float, default=None, metavar="MB",
                   help="peak-RSS budget for the solve (sampled)")
    p.add_argument("--allow-partial", action="store_true",
                   help="on budget exhaustion, degrade unconverged "
                        "sections to the sound global lock [(T, X)] "
                        "instead of failing (see docs/ROBUSTNESS.md)")
    p.add_argument("--checkpoint-every", type=int, default=0, metavar="N",
                   help="flush converged summary bundles every N solved "
                        "SCC levels so a killed run resumes from the last "
                        "checkpoint (needs the disk cache; 0 = off)")
    p.set_defaults(func=cmd_analyze)

    p = sub.add_parser("transform", help="print the lock-based program")
    p.add_argument("file")
    p.add_argument("--k", type=int, default=9)
    p.set_defaults(func=cmd_transform)

    p = sub.add_parser(
        "fuzz",
        help="grammar-fuzz the front end and the anytime analysis",
    )
    p.add_argument("--seeds", default="0:100", metavar="START:END",
                   help="half-open seed range to fuzz (default 0:100)")
    p.add_argument("--k", type=int, default=2)
    p.add_argument("--budget-steps", type=int, default=120, metavar="N",
                   help="dataflow-step budget for the partial run each "
                        "seed is analyzed under")
    p.add_argument("--save-crashes", default=None, metavar="DIR",
                   help="write crashing/unsound inputs here as .mc files")
    p.set_defaults(func=cmd_fuzz)

    p = sub.add_parser("run", help="simulate one benchmark cell")
    p.add_argument("bench")
    p.add_argument("--config", choices=CONFIGS, default="fine+coarse")
    p.add_argument("--threads", type=int, default=8)
    p.add_argument("--cores", type=int, default=8)
    p.add_argument("--ops", type=int, default=None)
    p.add_argument("--setting", choices=("low", "high"), default=None)
    p.set_defaults(func=cmd_run)

    p = sub.add_parser(
        "bench",
        help="run an experiment grid through the parallel executor",
    )
    p.add_argument("grid", choices=("table2", "figure8"), nargs="?",
                   default="table2",
                   help="grid preset: table2 = benches x configs at one "
                        "thread count; figure8 = x thread counts")
    p.add_argument("--benches", default=None,
                   help="comma list of benchmark names (name or "
                        "name:setting); default = the preset's grid")
    p.add_argument("--configs", default=None,
                   help=f"comma list from {CONFIGS}; default all")
    p.add_argument("--threads", default=None,
                   help="comma list of thread counts "
                        "(default: 8 for table2, 1,2,4,8 for figure8)")
    p.add_argument("--ops", type=int, default=None,
                   help="ops per thread (default: each benchmark's own)")
    p.add_argument("--jobs", type=int, default=None,
                   help="worker processes (default: cpu count; 1 = serial "
                        "in-process)")
    p.add_argument("--resume", action="store_true",
                   help="serve cells already in the result cache instead "
                        "of re-running them")
    p.add_argument("--cell-timeout", type=float, default=None,
                   help="wall-clock seconds per cell attempt")
    p.add_argument("--retries", type=int, default=2,
                   help="max attempts per cell (timeout/crash retry)")
    p.add_argument("--events", default=None,
                   help="append the JSONL event stream to this file")
    p.add_argument("--trace", default=None, metavar="PATH",
                   help="like --events, but workers also collect and ship "
                        "spans (inference + simulator + executor) into the "
                        "stream; render with: repro trace PATH")
    p.add_argument("--cache-dir", default=None,
                   help="result cache dir (default benchmarks/results/cache)")
    p.add_argument("--quiet", action="store_true",
                   help="suppress live progress lines")
    p.add_argument("--serve-via", default=None, metavar="SOCKET",
                   help="warm the inference memo from a running "
                        "'repro serve' instance at this Unix socket "
                        "before dispatching cells")
    p.set_defaults(func=cmd_bench)

    p = sub.add_parser(
        "serve",
        help="run the long-lived analysis service (see docs/SERVING.md)",
    )
    p.add_argument("--socket", default=None, metavar="PATH",
                   help="Unix domain socket path to listen on")
    p.add_argument("--host", default=None,
                   help="TCP host to listen on instead of --socket")
    p.add_argument("--port", type=int, default=0,
                   help="TCP port (0 = ephemeral; printed at startup)")
    p.add_argument("--cache-dir", default=None,
                   help="persistent analysis cache root (default "
                        "benchmarks/results/cache)")
    p.add_argument("--no-disk-cache", action="store_true",
                   help="serve from memory only; no on-disk cache")
    p.add_argument("--max-inflight", type=int, default=2,
                   help="analyze worker threads (default 2)")
    p.add_argument("--queue-depth", type=int, default=8,
                   help="bounded request queue; a full queue answers "
                        "with a structured backpressure error (default 8)")
    p.add_argument("--deadline", type=float, default=60.0,
                   help="per-request wall-clock budget in seconds "
                        "(default 60; requests may lower it)")
    p.add_argument("--events", default=None, metavar="PATH",
                   help="append serve lifecycle/request events (v1 "
                        "envelope JSONL) to this file")
    p.set_defaults(func=cmd_serve)

    p = sub.add_parser(
        "client",
        help="talk to a running 'repro serve' instance",
    )
    p.add_argument("action",
                   choices=("analyze", "status", "flush", "shutdown"))
    p.add_argument("file", nargs="?", default=None,
                   help="mini-C file (analyze only)")
    p.add_argument("--socket", default=None, metavar="PATH",
                   help="server Unix socket path")
    p.add_argument("--host", default=None, help="server TCP host")
    p.add_argument("--port", type=int, default=0, help="server TCP port")
    p.add_argument("--k", type=int, default=9)
    p.add_argument("--no-effects", action="store_true")
    p.add_argument("--deadline", type=float, default=None,
                   help="per-request wall-clock budget override")
    p.add_argument("--allow-partial", action="store_true",
                   help="accept a sound degraded result instead of a "
                        "deadline error")
    p.add_argument("--timeout", type=float, default=120.0,
                   help="client socket timeout in seconds")
    p.add_argument("--profile", action="store_true",
                   help="print the server-side AnalysisProfile as JSON")
    p.set_defaults(func=cmd_client)

    p = sub.add_parser(
        "explore",
        help="schedule exploration / race detection / differential check",
    )
    p.add_argument("program",
                   help="corpus or benchmark program name, or 'all'")
    p.add_argument("--policy", default="random",
                   choices=("rr", "round-robin", "random", "pct",
                            "exhaustive"))
    p.add_argument("--seed", type=int, default=0)
    p.add_argument("--schedules", type=int, default=50,
                   help="schedules to sample (enumeration cap for "
                        "--policy exhaustive)")
    p.add_argument("--threads", type=int, default=4)
    p.add_argument("--ops", type=int, default=8)
    p.add_argument("--config", choices=CONFIGS, default="fine+coarse")
    p.add_argument("--cores", type=int, default=2)
    p.add_argument("--depth", type=int, default=3,
                   help="PCT priority-change-point count")
    p.add_argument("--setting", choices=("low", "high"), default=None)
    p.add_argument("--k", type=int, default=None,
                   help="override the configuration's k-limit")
    p.add_argument("--inject-fault", default=None,
                   choices=("drop-acquire", "drop-node", "weaken-acquire",
                            "invert-order", "delayed-release",
                            "lost-release"),
                   help="seed a locking bug; exit non-zero if undetected "
                        "(stall kinds surface as deadlock/livelock)")
    p.add_argument("--no-detector", action="store_true",
                   help="disable the dynamic race detector")
    p.add_argument("--no-check", action="store_true",
                   help="disable the §4.2 protection checker")
    p.add_argument("--no-audit", action="store_true",
                   help="disable the serializability auditor")
    p.add_argument("--diff", action="store_true",
                   help="differential conformance instead of exploration")
    p.set_defaults(func=cmd_explore)

    p = sub.add_parser(
        "trace",
        help="render a recorded JSONL trace/event stream",
    )
    p.add_argument("file", help="JSONL file from --trace/--events")
    p.add_argument("--format", choices=("chrome", "summary"),
                   default="summary",
                   help="chrome = Perfetto/chrome://tracing JSON; "
                        "summary = per-phase/per-lock text tables")
    p.add_argument("-o", "--output", default=None,
                   help="write chrome JSON here (default: stdout)")
    p.set_defaults(func=cmd_trace)

    p = sub.add_parser("list-benchmarks", help="list benchmark programs")
    p.set_defaults(func=cmd_list)

    return parser


def main(argv: Optional[List[str]] = None) -> int:
    args = build_parser().parse_args(argv)
    return args.func(args)


if __name__ == "__main__":
    raise SystemExit(main())
