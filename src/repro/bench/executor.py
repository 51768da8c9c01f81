"""Parallel fault-tolerant experiment executor (Table 2 / Figure 8 grids).

The paper's evaluation is a grid of (benchmark × configuration ×
thread-count) cells, each an independent deterministic simulation.
``run_cells`` fans a grid out across a :class:`ProcessPoolExecutor`:

* **result cache** — every finished cell is persisted under
  ``benchmarks/results/cache/<key>.json`` where ``key`` is a content hash
  of the cell's inputs (benchmark *source text*, config, k, threads,
  setting, n_ops, ncores).  With ``resume=True`` cached cells are served
  without re-running, so an interrupted sweep restarts where it died and
  unchanged cells are never recomputed.  The key depends only on the
  inputs — reformatting a cache file never invalidates it;
* **crash isolation** — a worker that raises (``DeadlockError``,
  ``LivelockError``, a cell timeout, anything) produces a structured
  error row instead of aborting the sweep, with a bounded retry +
  backoff per cell;
* **event stream** — every state change (cell started / finished /
  failed / cache-hit, with durations and tick counts) is appended as one
  JSON line to ``events_path`` and forwarded to an optional ``progress``
  callback, which the CLI renders as live progress.

Workers are long-lived: each process keeps its own analysis memo
(:data:`repro.inference.memo.MEMO`), so all cells of one benchmark source
that land on the same worker pay the analysis front half once.  ``jobs=1``
runs the same code path inline in the calling process and is
bitwise-identical in tick counts to the pool path (the simulation is
deterministic; see ``tests/test_executor.py``).
"""

from __future__ import annotations

import dataclasses
import hashlib
import json
import os
import signal
import threading
import time
from concurrent.futures import FIRST_COMPLETED, ProcessPoolExecutor, wait
from contextlib import contextmanager
from dataclasses import dataclass, field
from typing import Callable, Dict, List, Optional, Sequence, Tuple

from ..defaults import DEFAULT_CACHE_DIR
from ..obs.events import envelope
from ..obs.trace import get_tracer
from ..sim.deadline import DeadlineExceeded, clear_deadline, set_deadline
from .configs import ALL_BENCHMARKS, CONFIG_K, CONFIGS, BenchSpec
from .harness import RunResult, run_benchmark, seed_inference_cache

CACHE_VERSION = 1


class CellTimeout(Exception):
    """A cell exceeded the per-cell wall-clock budget."""


# ---------------------------------------------------------------------------
# cells and outcomes
# ---------------------------------------------------------------------------


@dataclass(frozen=True)
class Cell:
    """One point of the experiment grid."""

    bench: str
    config: str
    threads: int = 8
    setting: Optional[str] = None
    n_ops: Optional[int] = None
    ncores: int = 8
    k: Optional[int] = None

    @property
    def label(self) -> str:
        suffix = f"-{self.setting}" if self.setting else ""
        return f"{self.bench}{suffix}"

    def to_dict(self) -> Dict[str, object]:
        return dataclasses.asdict(self)

    @classmethod
    def from_dict(cls, data: Dict[str, object]) -> "Cell":
        return cls(**data)


@dataclass
class CellResult:
    """Outcome of one cell: a :class:`RunResult` or a structured error."""

    cell: Cell
    ok: bool
    result: Optional[RunResult] = None
    error: Optional[str] = None  # exception class name
    message: str = ""
    attempts: int = 1
    duration_s: float = 0.0
    cached: bool = False

    @property
    def ticks(self) -> Optional[int]:
        return self.result.ticks if self.result is not None else None


@dataclass
class ExecutorOptions:
    """Knobs for :func:`run_cells` (CLI: ``--jobs/--resume/--cell-timeout``)."""

    jobs: Optional[int] = None  # None -> os.cpu_count()
    resume: bool = False
    cell_timeout: Optional[float] = None  # seconds of wall clock per attempt
    max_attempts: int = 2
    backoff_base: float = 0.05  # seconds; doubles per retry
    cache_dir: Optional[str] = None  # None -> benchmarks/results/cache
    events_path: Optional[str] = None  # JSONL event stream
    progress: Optional[Callable[[Dict[str, object]], None]] = None
    trace: bool = False  # collect spans in workers, ship into the stream
    serve_via: Optional[str] = None  # analysis-server socket to warm from

    def resolved_jobs(self) -> int:
        return max(1, self.jobs if self.jobs is not None else
                   (os.cpu_count() or 1))

    def resolved_cache_dir(self) -> str:
        return self.cache_dir if self.cache_dir else DEFAULT_CACHE_DIR


# ---------------------------------------------------------------------------
# content-hash cache keys
# ---------------------------------------------------------------------------


def cell_key(cell: Cell, source: str) -> str:
    """Content hash of everything that determines a cell's result.

    Keyed on the benchmark *source text* (not its name), so editing a
    program invalidates its cells while renaming does not, and on every
    run parameter.  The key never depends on anything stored in the cache
    directory, so cosmetic changes there (reformatting, whitespace) cannot
    invalidate or alias entries.
    """
    payload = json.dumps({
        "version": CACHE_VERSION,
        "source": source,
        "config": cell.config,
        "k": cell.k,
        "threads": cell.threads,
        "setting": cell.setting,
        "n_ops": cell.n_ops,
        "ncores": cell.ncores,
    }, sort_keys=True)
    return hashlib.sha256(payload.encode("utf-8")).hexdigest()


def _key_for(cell: Cell) -> Optional[str]:
    spec = ALL_BENCHMARKS.get(cell.bench)
    if spec is None:
        return None
    return cell_key(cell, spec.source)


def _cache_path(cache_dir: str, key: str) -> str:
    # experiment cells live under their own namespace so the analysis disk
    # cache (inference.diskcache, ``<cache_dir>/analysis/``) can share one
    # ``--cache-dir`` root without key collisions
    return os.path.join(cache_dir, "cells", f"{key}.json")


def _cache_load(cache_dir: str, key: str) -> Optional[Dict[str, object]]:
    try:
        with open(_cache_path(cache_dir, key)) as handle:
            data = json.load(handle)
    except (OSError, ValueError):
        return None
    if data.get("key") != key or "result" not in data:
        return None
    return data


def _cache_store(cache_dir: str, key: str, cell: Cell,
                 result: RunResult, duration_s: float) -> None:
    path = _cache_path(cache_dir, key)
    os.makedirs(os.path.dirname(path), exist_ok=True)
    tmp = path + ".tmp"
    with open(tmp, "w") as handle:
        json.dump({
            "key": key,
            "cell": cell.to_dict(),
            "result": result.to_dict(),
            "duration_s": round(duration_s, 4),
        }, handle, indent=2, sort_keys=True)
        handle.write("\n")
    os.replace(tmp, path)  # atomic: a killed sweep never leaves torn entries


# ---------------------------------------------------------------------------
# event stream
# ---------------------------------------------------------------------------


class _EventLog:
    """Appends one JSON object per line; forwards to a progress callback."""

    def __init__(self, path: Optional[str],
                 progress: Optional[Callable]) -> None:
        self._handle = None
        self._progress = progress
        if path:
            directory = os.path.dirname(os.path.abspath(path))
            os.makedirs(directory, exist_ok=True)
            self._handle = open(path, "a")

    def emit(self, event: str, cell: Optional[Cell] = None,
             **extra: object) -> None:
        payload: Dict[str, object] = {}
        if cell is not None:
            payload["cell"] = cell.to_dict()
            payload["label"] = cell.label
        payload.update(extra)
        record = envelope(event, **payload)
        if self._handle is not None:
            self._handle.write(json.dumps(record, sort_keys=True) + "\n")
            self._handle.flush()
        if self._progress is not None:
            self._progress(record)

    def write_raw(self, record: Dict[str, object]) -> None:
        """Append an already-built envelope record (e.g. a shipped span)
        without routing it through the progress callback."""
        if self._handle is not None:
            self._handle.write(json.dumps(record, sort_keys=True) + "\n")
            self._handle.flush()

    def close(self) -> None:
        if self._handle is not None:
            self._handle.close()
            self._handle = None


# ---------------------------------------------------------------------------
# the worker (runs in pool processes and inline for jobs=1)
# ---------------------------------------------------------------------------


@contextmanager
def _alarm(timeout: Optional[float]):
    """Raise :class:`CellTimeout` after *timeout* seconds of wall clock.

    Uses ``SIGALRM`` when available **and** we are on the main thread —
    ``signal.signal`` raises anywhere else, which used to make the
    per-cell timeout silently inert for threaded callers. Off the main
    thread (or on platforms without the signal) it falls back to the
    cooperative monotonic deadline that the simulation loop polls every
    :data:`~repro.sim.deadline.CHECK_EVERY_TICKS` ticks."""
    if not timeout:
        yield
        return
    use_signal = (hasattr(signal, "SIGALRM")
                  and threading.current_thread() is threading.main_thread())
    if not use_signal:
        set_deadline(timeout)
        try:
            yield
        except DeadlineExceeded as err:
            raise CellTimeout(f"cell exceeded {timeout}s ({err})") from err
        finally:
            clear_deadline()
        return

    def _on_alarm(signum, frame):
        raise CellTimeout(f"cell exceeded {timeout}s")

    previous = signal.signal(signal.SIGALRM, _on_alarm)
    signal.setitimer(signal.ITIMER_REAL, timeout)
    try:
        yield
    finally:
        signal.setitimer(signal.ITIMER_REAL, 0.0)
        signal.signal(signal.SIGALRM, previous)


def _execute_cell(payload: Dict[str, object]) -> Dict[str, object]:
    """Run one cell attempt; never raises — errors become structured rows."""
    backoff = payload.get("backoff_s") or 0.0
    if backoff:
        time.sleep(backoff)
    cell = Cell.from_dict(payload["cell"])
    tracer = get_tracer()
    tracing = bool(payload.get("trace"))
    inherited: List[Dict[str, object]] = []
    if tracing:
        tracer.configure(True)
        # a forked worker inherits the coordinator's span buffer (and the
        # inline jobs=1 path shares it outright): set it aside so this
        # cell ships only its own spans, and restore it afterwards
        inherited = tracer.drain()
    started = time.perf_counter()
    try:
        spec = ALL_BENCHMARKS.get(cell.bench)
        if spec is None:
            raise KeyError(f"unknown benchmark {cell.bench!r}")
        with _alarm(payload.get("timeout")):
            with tracer.span(f"cell:{cell.label}", "executor",
                             config=cell.config, threads=cell.threads,
                             attempt=payload.get("attempt", 1)):
                result = run_benchmark(
                    spec, cell.config, threads=cell.threads,
                    setting=cell.setting, n_ops=cell.n_ops,
                    ncores=cell.ncores, k=cell.k,
                )
        outcome: Dict[str, object] = {
            "ok": True,
            "result": result.to_dict(),
            "duration_s": time.perf_counter() - started,
        }
    except Exception as err:
        outcome = {
            "ok": False,
            "error": type(err).__name__,
            "message": str(err),
            "duration_s": time.perf_counter() - started,
        }
    if tracing:
        outcome["spans"] = tracer.drain()
        tracer.adopt(inherited)
    return outcome


def _payload(cell: Cell, attempt: int, options: ExecutorOptions) -> Dict[str, object]:
    backoff = 0.0
    if attempt > 1:
        backoff = options.backoff_base * (2 ** (attempt - 2))
    return {"cell": cell.to_dict(), "attempt": attempt,
            "backoff_s": backoff, "timeout": options.cell_timeout,
            "trace": options.trace}


# ---------------------------------------------------------------------------
# the coordinator
# ---------------------------------------------------------------------------


def _make_pool(jobs: int) -> ProcessPoolExecutor:
    import multiprocessing

    kwargs = {}
    if "fork" in multiprocessing.get_all_start_methods():
        # fork keeps the hash seed (and therefore any hash-ordered
        # iteration in the analysis) identical to the parent, so pool
        # results match the inline path bit for bit
        kwargs["mp_context"] = multiprocessing.get_context("fork")
    return ProcessPoolExecutor(max_workers=jobs, **kwargs)


def _ship_spans(events: _EventLog, outcome: Dict[str, object]) -> None:
    """Write the spans a worker collected for one attempt to the stream."""
    for record in outcome.get("spans") or ():
        events.write_raw(record)


def _finish(results: Dict[int, CellResult], index: int, cell: Cell,
            outcome: Dict[str, object], attempt: int, cache_dir: str,
            events: _EventLog) -> None:
    duration = float(outcome.get("duration_s", 0.0))
    run = RunResult.from_dict(outcome["result"])
    results[index] = CellResult(cell=cell, ok=True, result=run,
                                attempts=attempt, duration_s=duration)
    key = _key_for(cell)
    if key is not None:
        _cache_store(cache_dir, key, cell, run, duration)
    events.emit("cell-finish", cell, config=cell.config,
                threads=cell.threads, attempt=attempt,
                ticks=run.ticks, duration_s=round(duration, 4))


def _fail(results: Dict[int, CellResult], index: int, cell: Cell,
          outcome: Dict[str, object], attempt: int,
          events: _EventLog) -> None:
    results[index] = CellResult(
        cell=cell, ok=False, error=str(outcome.get("error")),
        message=str(outcome.get("message", "")), attempts=attempt,
        duration_s=float(outcome.get("duration_s", 0.0)),
    )
    events.emit("cell-error", cell, config=cell.config,
                threads=cell.threads, attempt=attempt, will_retry=False,
                error=outcome.get("error"), message=outcome.get("message"))


def _warm_from_server(todo: List[Tuple[int, "Cell"]], serve_via: str,
                      events: _EventLog) -> int:
    """Pre-populate the inference memo from a running analysis server.

    One warm request per unique (source, k) of the pending cells; the
    seeded results land in the coordinator's per-process cache *before*
    the pool forks, so every worker inherits them and no cell re-runs
    the analysis locally.
    """
    from ..serve.client import fetch_inference

    wanted = {}
    for _index, cell in todo:
        spec = ALL_BENCHMARKS.get(cell.bench)
        if spec is None:
            continue
        k = cell.k if cell.k is not None else CONFIG_K.get(cell.config, 9)
        wanted[(spec.source, k)] = None
    for source, k in wanted:
        seed_inference_cache(source, k,
                             fetch_inference(source, k,
                                             socket_path=serve_via))
    events.emit("serve-warm", socket=serve_via, entries=len(wanted))
    return len(wanted)


def run_cells(cells: Sequence[Cell],
              options: Optional[ExecutorOptions] = None) -> List[CellResult]:
    """Execute *cells*, returning one :class:`CellResult` per cell in order.

    The sweep never aborts on a failing cell: deterministic simulator
    errors, timeouts, and worker crashes all become error rows after
    ``max_attempts`` tries.  With ``options.resume`` cells whose content
    hash is already in the cache are served from it (emitting a
    ``cache-hit`` event) without re-running.

    Ctrl-C is a clean abort, not a mess of orphans: the coordinator
    cancels pending cells, terminates pool workers, closes the JSONL
    stream with a final ``sweep-end`` record carrying ``aborted: true``,
    and re-raises ``KeyboardInterrupt`` (the CLI maps it to exit 130).
    """
    options = options if options is not None else ExecutorOptions()
    jobs = options.resolved_jobs()
    cache_dir = options.resolved_cache_dir()
    events = _EventLog(options.events_path, options.progress)
    started = time.perf_counter()
    results: Dict[int, CellResult] = {}
    todo: List[Tuple[int, Cell]] = []
    aborted = False

    events.emit("sweep-start", cells=len(cells), jobs=jobs,
                resume=options.resume)
    try:
        for index, cell in enumerate(cells):
            cached = None
            if options.resume:
                key = _key_for(cell)
                cached = _cache_load(cache_dir, key) if key else None
            if cached is not None:
                run = RunResult.from_dict(cached["result"])
                results[index] = CellResult(
                    cell=cell, ok=True, result=run, cached=True,
                    duration_s=float(cached.get("duration_s", 0.0)),
                )
                events.emit("cache-hit", cell, config=cell.config,
                            threads=cell.threads, key=cached["key"],
                            ticks=run.ticks)
            else:
                todo.append((index, cell))

        if options.serve_via and todo:
            _warm_from_server(todo, options.serve_via, events)
        if jobs <= 1 or len(todo) <= 1:
            _run_serial(todo, options, cache_dir, results, events)
        else:
            _run_pool(todo, jobs, options, cache_dir, results, events)
    except KeyboardInterrupt:
        aborted = True
        raise
    finally:
        ok = sum(1 for r in results.values() if r.ok)
        events.emit(
            "sweep-end",
            cells=len(cells),
            ok=ok,
            errors=len(results) - ok,
            cached=sum(1 for r in results.values() if r.cached),
            duration_s=round(time.perf_counter() - started, 4),
            aborted=aborted,
        )
        events.close()
    return [results[i] for i in sorted(results)]


def _run_serial(todo: List[Tuple[int, Cell]], options: ExecutorOptions,
                cache_dir: str, results: Dict[int, CellResult],
                events: _EventLog) -> None:
    for index, cell in todo:
        for attempt in range(1, options.max_attempts + 1):
            events.emit("cell-start", cell, config=cell.config,
                        threads=cell.threads, attempt=attempt)
            outcome = _execute_cell(_payload(cell, attempt, options))
            _ship_spans(events, outcome)
            if outcome["ok"]:
                _finish(results, index, cell, outcome, attempt, cache_dir,
                        events)
                break
            if attempt < options.max_attempts:
                events.emit("cell-error", cell, config=cell.config,
                            threads=cell.threads, attempt=attempt,
                            will_retry=True, error=outcome.get("error"),
                            message=outcome.get("message"))
            else:
                _fail(results, index, cell, outcome, attempt, events)


def _run_pool(todo: List[Tuple[int, Cell]], jobs: int,
              options: ExecutorOptions, cache_dir: str,
              results: Dict[int, CellResult], events: _EventLog) -> None:
    pool = _make_pool(jobs)
    pending: Dict[object, Tuple[int, Cell, int]] = {}
    interrupted = False

    def submit(index: int, cell: Cell, attempt: int) -> None:
        future = pool.submit(_execute_cell, _payload(cell, attempt, options))
        pending[future] = (index, cell, attempt)
        events.emit("cell-start", cell, config=cell.config,
                    threads=cell.threads, attempt=attempt)

    try:
        for index, cell in todo:
            submit(index, cell, 1)
        while pending:
            done, _ = wait(list(pending), return_when=FIRST_COMPLETED)
            crashed: List[Tuple[int, Cell, int]] = []
            crash_error: Optional[BaseException] = None
            for future in done:
                index, cell, attempt = pending.pop(future)
                try:
                    outcome = future.result()
                except Exception as err:  # worker died / pool broke
                    crashed.append((index, cell, attempt))
                    outcome = None
                    crash_error = err
                if outcome is None:
                    continue
                _ship_spans(events, outcome)
                if outcome["ok"]:
                    _finish(results, index, cell, outcome, attempt,
                            cache_dir, events)
                elif attempt < options.max_attempts:
                    events.emit("cell-error", cell, config=cell.config,
                                threads=cell.threads, attempt=attempt,
                                will_retry=True, error=outcome.get("error"),
                                message=outcome.get("message"))
                    submit(index, cell, attempt + 1)
                else:
                    _fail(results, index, cell, outcome, attempt, events)
            if crashed:
                # a hard worker crash poisons every in-flight future:
                # rebuild the pool and retry (bounded) everything pending
                crashed.extend(pending.values())
                pending.clear()
                pool.shutdown(wait=False)
                pool = _make_pool(jobs)
                for index, cell, attempt in crashed:
                    outcome = {"ok": False, "error": type(crash_error).__name__,
                               "message": str(crash_error), "duration_s": 0.0}
                    if attempt < options.max_attempts:
                        events.emit("cell-error", cell, config=cell.config,
                                    threads=cell.threads, attempt=attempt,
                                    will_retry=True,
                                    error=outcome["error"],
                                    message=outcome["message"])
                        submit(index, cell, attempt + 1)
                    else:
                        _fail(results, index, cell, outcome, attempt, events)
    except KeyboardInterrupt:
        # don't orphan the workers: cancel what hasn't started, terminate
        # what has (the cells are deterministic and re-runnable), and let
        # the interrupt propagate so run_cells can close the stream
        interrupted = True
        for future in pending:
            future.cancel()
        pending.clear()
        pool.shutdown(wait=False, cancel_futures=True)
        procs = list((getattr(pool, "_processes", None) or {}).values())
        for proc in procs:
            try:
                proc.terminate()
            except (OSError, ValueError):
                pass
        for proc in procs:
            proc.join(timeout=2.0)
        raise
    finally:
        if not interrupted:
            pool.shutdown(wait=True)


# ---------------------------------------------------------------------------
# grid builders (the paper's experiment shapes)
# ---------------------------------------------------------------------------


def table2_cells(
    benches: Optional[Dict[str, BenchSpec]] = None,
    threads: int = 8,
    n_ops: Optional[int] = None,
    configs: Sequence[str] = CONFIGS,
    ncores: int = 8,
) -> List[Cell]:
    """The Table 2 grid: every (benchmark, setting) × config at one
    thread count."""
    benches = benches if benches is not None else ALL_BENCHMARKS
    return [
        Cell(bench=spec.name, config=config, threads=threads,
             setting=setting, n_ops=n_ops, ncores=ncores)
        for spec in benches.values()
        for setting in spec.settings
        for config in configs
    ]


def figure8_cells(
    benches: Sequence[Tuple[str, Optional[str]]],
    thread_counts: Sequence[int] = (1, 2, 4, 8),
    n_ops: Optional[int] = None,
    configs: Sequence[str] = CONFIGS,
    ncores: int = 8,
) -> List[Cell]:
    """The Figure 8 grid: (benchmark, setting) × config × thread count."""
    return [
        Cell(bench=name, config=config, threads=threads, setting=setting,
             n_ops=n_ops, ncores=ncores)
        for name, setting in benches
        for config in configs
        for threads in thread_counts
    ]


def ablation_k_cells(
    ks: Sequence[int],
    bench: str = "hashtable-2",
    setting: Optional[str] = "high",
    config: str = "fine+coarse",
    threads: int = 8,
    n_ops: Optional[int] = 60,
    ncores: int = 8,
) -> List[Cell]:
    """The k-sweep ablation: one benchmark across k-limits."""
    return [
        Cell(bench=bench, config=config, threads=threads, setting=setting,
             n_ops=n_ops, ncores=ncores, k=k)
        for k in ks
    ]
