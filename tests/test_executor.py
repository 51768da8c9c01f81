"""Parallel experiment executor: cache, resume, timeout, golden equivalence."""

import json
import pathlib
import re

import repro
from repro.bench import (
    Cell,
    ExecutorOptions,
    MICRO_BENCHMARKS,
    cell_key,
    run_cells,
    table2_cells,
)
from repro.bench.executor import _cache_path


SMALL_GRID = table2_cells(
    {"hashtable-2": MICRO_BENCHMARKS["hashtable-2"]},
    threads=2,
    n_ops=6,
    configs=("global", "fine+coarse"),
)


def opts(tmp_path, **kwargs):
    kwargs.setdefault("cache_dir", str(tmp_path / "cache"))
    kwargs.setdefault("jobs", 1)
    return ExecutorOptions(**kwargs)


def read_events(path):
    with open(path) as handle:
        return [json.loads(line) for line in handle]


# -- one process pool in the tree ---------------------------------------------


def test_executor_is_the_only_process_pool():
    """Worker processes are the executor's business alone: the analysis
    solves its summaries in one process."""
    pool = re.compile(r"ProcessPoolExecutor|multiprocessing|concurrent\.futures")
    src_root = pathlib.Path(repro.__file__).parent
    users = {path.relative_to(src_root).as_posix()
             for path in src_root.rglob("*.py")
             if pool.search(path.read_text(encoding="utf-8"))}
    assert users == {"bench/executor.py"}


# -- content-hash cache keys -------------------------------------------------


def test_cell_key_changes_with_source_and_config():
    cell = Cell(bench="hashtable-2", config="global", threads=2)
    base = cell_key(cell, "int x;")
    assert cell_key(cell, "int x;") == base  # deterministic
    assert cell_key(cell, "int y;") != base  # source content matters
    other = Cell(bench="hashtable-2", config="stm", threads=2)
    assert cell_key(other, "int x;") != base  # config matters
    assert cell_key(Cell(bench="hashtable-2", config="global", threads=4),
                    "int x;") != base  # threads matter
    assert cell_key(Cell(bench="hashtable-2", config="global", threads=2,
                         k=3), "int x;") != base  # k matters
    # the benchmark *name* is not part of the key — only its source text
    renamed = Cell(bench="renamed", config="global", threads=2)
    assert cell_key(renamed, "int x;") == base


def test_cache_survives_cosmetic_whitespace_rewrite(tmp_path):
    """Reformatting a cached entry must not invalidate it: the key is a
    content hash of the cell's inputs, never of the cache file."""
    cell = SMALL_GRID[0]
    options = opts(tmp_path)
    first = run_cells([cell], options)[0]
    spec = MICRO_BENCHMARKS["hashtable-2"]
    path = _cache_path(options.resolved_cache_dir(),
                       cell_key(cell, spec.source))
    with open(path) as handle:
        data = json.load(handle)
    with open(path, "w") as handle:  # cosmetic rewrite: indentation + order
        json.dump(data, handle, indent=8, sort_keys=False)
        handle.write("\n\n")
    events = str(tmp_path / "events.jsonl")
    again = run_cells([cell], opts(tmp_path, resume=True,
                                   events_path=events))[0]
    assert again.cached
    assert again.ticks == first.ticks
    assert [e["event"] for e in read_events(events)] == [
        "sweep-start", "cache-hit", "sweep-end"]


# -- resume ------------------------------------------------------------------


def test_resume_reruns_only_unfinished_cells(tmp_path):
    primed = SMALL_GRID[:2]
    run_cells(primed, opts(tmp_path))
    events = str(tmp_path / "events.jsonl")
    results = run_cells(SMALL_GRID, opts(tmp_path, resume=True,
                                         events_path=events))
    assert [r.cached for r in results] == [True, True, False, False]
    log = read_events(events)
    assert sum(e["event"] == "cache-hit" for e in log) == 2
    assert sum(e["event"] == "cell-start" for e in log) == 2


def test_without_resume_cells_rerun(tmp_path):
    run_cells(SMALL_GRID[:1], opts(tmp_path))
    results = run_cells(SMALL_GRID[:1], opts(tmp_path))  # no resume flag
    assert not results[0].cached


# -- fault tolerance ---------------------------------------------------------


def test_timeout_produces_error_row_not_sweep_abort(tmp_path):
    events = str(tmp_path / "events.jsonl")
    results = run_cells(SMALL_GRID, opts(tmp_path, cell_timeout=1e-4,
                                         max_attempts=2,
                                         events_path=events))
    assert len(results) == len(SMALL_GRID)  # the sweep finished
    assert all(not r.ok for r in results)
    assert all(r.error == "CellTimeout" for r in results)
    assert all(r.attempts == 2 for r in results)
    log = read_events(events)
    retries = [e for e in log if e["event"] == "cell-error"]
    assert any(e["will_retry"] for e in retries)
    assert log[-1]["event"] == "sweep-end"
    assert log[-1]["errors"] == len(SMALL_GRID)


def test_timeout_enforced_off_main_thread(tmp_path):
    """SIGALRM cannot be armed off the main thread (signal.signal raises
    there), which used to leave threaded callers with no per-cell budget
    at all; the cooperative monotonic-deadline fallback must kick in and
    produce the same CellTimeout error rows."""
    import threading

    box = {}

    def run():
        box["results"] = run_cells(
            SMALL_GRID[:1],
            opts(tmp_path, cell_timeout=1e-4, max_attempts=1, jobs=1),
        )

    worker = threading.Thread(target=run)
    worker.start()
    worker.join()
    results = box["results"]
    assert len(results) == 1
    assert not results[0].ok
    assert results[0].error == "CellTimeout"


def test_unknown_benchmark_is_error_row(tmp_path):
    cells = [Cell(bench="no-such-bench", config="global"), SMALL_GRID[0]]
    results = run_cells(cells, opts(tmp_path))
    assert not results[0].ok and results[0].error == "KeyError"
    assert results[1].ok and results[1].ticks > 0


def test_simulator_error_is_structured_row(tmp_path, monkeypatch):
    """A DeadlockError (or any exception) in a worker becomes a row."""
    from repro.bench import executor as executor_mod

    def boom(payload):
        return {"ok": False, "error": "DeadlockError",
                "message": "all threads blocked", "duration_s": 0.0}

    monkeypatch.setattr(executor_mod, "_execute_cell", boom)
    results = run_cells(SMALL_GRID[:1], opts(tmp_path, max_attempts=1))
    assert results[0].error == "DeadlockError"
    assert "blocked" in results[0].message


# -- golden equivalence: serial path == pool path ---------------------------


def test_jobs1_matches_process_pool(tmp_path):
    serial = run_cells(SMALL_GRID, opts(tmp_path, jobs=1,
                                        cache_dir=str(tmp_path / "c1")))
    pooled = run_cells(SMALL_GRID, opts(tmp_path, jobs=2,
                                        cache_dir=str(tmp_path / "c2")))
    assert all(r.ok for r in serial)
    assert all(r.ok for r in pooled)
    for a, b in zip(serial, pooled):
        assert a.result.to_dict() == b.result.to_dict()


def test_reporting_rows_via_pool_match_serial(tmp_path):
    from repro.bench.reporting import table2_rows

    benches = {"hashtable-2": MICRO_BENCHMARKS["hashtable-2"]}
    serial = table2_rows(benches, threads=2, n_ops=6,
                         configs=("global", "stm"))
    pooled = table2_rows(
        benches, threads=2, n_ops=6, configs=("global", "stm"),
        executor=opts(tmp_path, jobs=2))
    for (label_a, row_a), (label_b, row_b) in zip(serial, pooled):
        assert label_a == label_b
        for config in row_a:
            assert row_a[config].ticks == row_b[config].ticks


# -- event stream shape ------------------------------------------------------


def test_event_stream_schema(tmp_path):
    events = str(tmp_path / "events.jsonl")
    run_cells(SMALL_GRID[:1], opts(tmp_path, events_path=events))
    log = read_events(events)
    assert log[0]["event"] == "sweep-start"
    assert log[0]["cells"] == 1 and log[0]["jobs"] == 1
    start = log[1]
    assert start["event"] == "cell-start"
    assert start["cell"]["bench"] == "hashtable-2"
    assert start["attempt"] == 1
    finish = log[2]
    assert finish["event"] == "cell-finish"
    assert finish["ticks"] > 0 and finish["duration_s"] >= 0
    assert log[3]["event"] == "sweep-end"
    assert log[3]["ok"] == 1 and log[3]["errors"] == 0


def test_progress_callback_receives_events(tmp_path):
    seen = []
    run_cells(SMALL_GRID[:1], opts(tmp_path, progress=seen.append))
    assert [e["event"] for e in seen] == [
        "sweep-start", "cell-start", "cell-finish", "sweep-end"]
