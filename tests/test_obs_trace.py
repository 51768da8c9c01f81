"""Tracer, exporter and CLI tests, plus the disabled-mode guarantees.

The two load-bearing guarantees of the tracing layer:

* **tick identity** — enabling tracing must not change a single simulator
  tick: the tick counts of the pinned benchmark cells match the pre-obs
  goldens with tracing off *and* with tracing on;
* **bounded disabled overhead** — a disabled ``span()`` is one shared
  no-op object; a micro-benchmark here pins a generous per-op ceiling so
  a regression to per-call allocation fails loudly.
"""

import json
import time

import pytest

from repro.bench import ALL_BENCHMARKS, run_benchmark
from repro.bench.executor import Cell, ExecutorOptions, run_cells
from repro.cli import main as cli_main
from repro.obs.export import load_events, summarize, to_chrome
from repro.obs.trace import _NOOP, Tracer, get_tracer

# Pre-obs golden tick counts (captured at the seed commit) for two pinned
# cells: (ticks, work, blocked_ticks, lock_acquires).
GOLDEN_FINE = (367, 1323, 70, 48)
GOLDEN_GLOBAL = (415, 469, 343, 24)


@pytest.fixture(autouse=True)
def _quiet_tracer():
    """Leave the process-global tracer disabled and empty around each test."""
    tracer = get_tracer()
    tracer.configure(False)
    tracer.reset()
    yield
    tracer.configure(False)
    tracer.reset()


def _run_golden_cells():
    fine = run_benchmark(ALL_BENCHMARKS["hashtable-2"], "fine+coarse",
                         threads=4, setting="high", n_ops=12)
    glob = run_benchmark(ALL_BENCHMARKS["hashtable-2"], "global",
                         threads=2, setting="high", n_ops=12)
    return (
        (fine.ticks, fine.work, fine.blocked_ticks, fine.lock_acquires),
        (glob.ticks, glob.work, glob.blocked_ticks, glob.lock_acquires),
    )


# ---------------------------------------------------------------------------
# tracer core
# ---------------------------------------------------------------------------


def test_disabled_span_is_shared_noop():
    tracer = Tracer()
    assert tracer.span("a") is tracer.span("b") is _NOOP
    with tracer.span("a", "cat", k=1):
        pass
    assert tracer.drain() == []


def test_timed_measures_even_when_disabled():
    tracer = Tracer()
    with tracer.timed("phase") as span:
        time.sleep(0.002)
    assert span.duration > 0.0
    assert tracer.drain() == []  # measured, not recorded
    tracer.configure(True)
    with tracer.timed("phase"):
        pass
    assert len(tracer.drain()) == 1


def test_enabled_spans_record_envelopes_with_depth():
    tracer = Tracer()
    tracer.configure(True)
    with tracer.span("outer", "test"):
        with tracer.span("inner", "test", detail=7):
            pass
    records = {r["name"]: r for r in tracer.drain()}
    assert records["outer"]["depth"] == 1
    assert records["inner"]["depth"] == 2
    assert records["inner"]["attrs"] == {"detail": 7}
    assert records["inner"]["clock"] == "wall"
    assert all(r["v"] == 1 and r["source"] == "tracer"
               for r in records.values())


def test_tick_clock_sections_and_clamping():
    tracer = Tracer()
    tracer.configure(True)
    tracer.now_ticks = 10
    token = tracer.begin_section(3, "section:s#1", locks=["<g>"])
    tracer.now_ticks = 25
    tracer.end_section(token, outcome="committed")
    tracer.tick_span(4, "blocked", 30, 20)  # end < start clamps to 0
    spans = tracer.drain()
    section, blocked = spans[0], spans[1]
    assert (section["start"], section["dur"]) == (10, 15)
    assert section["attrs"] == {"locks": ["<g>"], "outcome": "committed"}
    assert blocked["dur"] == 0
    # disabled begin_section hands out no token at all
    tracer.configure(False)
    assert tracer.begin_section(0, "x") is None


def test_drain_and_adopt_ship_spans_between_tracers():
    worker = Tracer()
    worker.configure(True)
    with worker.span("work"):
        pass
    shipped = worker.drain()
    parent = Tracer()
    parent.configure(True)
    parent.adopt(shipped)
    assert [r["name"] for r in parent.drain()] == ["work"]


# ---------------------------------------------------------------------------
# exporters
# ---------------------------------------------------------------------------


def _synthetic_records():
    tracer = Tracer()
    tracer.configure(True)
    with tracer.span("analysis.run", "inference", k=9):
        pass
    tracer.now_ticks = 5
    tracer.tick_span(1, "section:s#1", 0, 40, locks=["<g>"])
    tracer.tick_span(1, "blocked", 10, 30, node="('root',)", mode="X",
                     section="s#1")
    tracer.instant("locks-chosen", "inference", section="s#1", locks=["<g>"])
    tracer.sample("sim.occupancy", {"runnable": 2, "blocked": 1})
    return tracer.drain()


def test_to_chrome_structure():
    payload = to_chrome(_synthetic_records())
    events = payload["traceEvents"]
    phases = {e["ph"] for e in events}
    assert {"X", "i", "C", "M"} <= phases
    # two clocks on one process -> two chrome pids
    assert len({e["pid"] for e in events}) == 2
    ticks = [e for e in events if e["ph"] == "X" and e["name"] == "blocked"]
    assert ticks and ticks[0]["ts"] == 10 and ticks[0]["dur"] == 20  # 1tick=1µs
    assert payload["displayTimeUnit"] == "ms"


def test_summarize_correlates_sections_and_locks():
    text = summarize(_synthetic_records())
    assert "analysis.run" in text
    assert "section s#1" in text
    assert "blocked on ('root',)[X]" in text
    assert "50.0%" in text  # 20 of 40 open ticks


# ---------------------------------------------------------------------------
# CLI
# ---------------------------------------------------------------------------


def test_cli_trace_rejects_unversioned_stream(tmp_path, capsys):
    path = tmp_path / "old.jsonl"
    path.write_text(json.dumps({"event": "rollback", "tick": 3, "tid": 0,
                                "section": "s#1"}) + "\n")
    assert cli_main(["trace", str(path)]) == 2
    assert "old.jsonl:1: schema version None" in capsys.readouterr().err


def test_cli_trace_summary_and_chrome(tmp_path, capsys):
    path = tmp_path / "run.jsonl"
    with open(path, "w") as handle:
        for record in _synthetic_records():
            handle.write(json.dumps(record) + "\n")
    assert cli_main(["trace", str(path)]) == 0
    out = capsys.readouterr().out
    assert "wall clock" in out and "section s#1" in out
    chrome = tmp_path / "run.chrome.json"
    assert cli_main(["trace", str(path), "--format", "chrome",
                     "-o", str(chrome)]) == 0
    data = json.loads(chrome.read_text())
    assert data["traceEvents"]
    assert cli_main(["trace", str(tmp_path / "empty.jsonl")]) == 2


def test_cli_analyze_trace(tmp_path, capsys):
    source = tmp_path / "prog.mc"
    source.write_text(ALL_BENCHMARKS["list"].source)
    out_path = tmp_path / "analyze.jsonl"
    assert cli_main(["analyze", str(source), "--no-disk-cache",
                     "--trace", str(out_path)]) == 0
    capsys.readouterr()
    events = load_events(str(out_path))
    kinds = {e["event"] for e in events}
    assert "span" in kinds and "metrics" in kinds
    names = {e.get("name") for e in events}
    assert "analysis.run" in names
    snapshot = next(e for e in events if e["event"] == "metrics")["snapshot"]
    assert snapshot["sections"] >= 1
    assert not get_tracer().enabled  # the command turns tracing back off


# ---------------------------------------------------------------------------
# executor span shipping
# ---------------------------------------------------------------------------


def test_bench_trace_ships_spans_from_all_layers(tmp_path):
    # the harness memoizes inference per (source, k) in-process; an earlier
    # test may have analysed this cell already, which would (truthfully)
    # leave no inference spans in the trace — start from a cold memo
    from repro.inference.memo import MEMO
    MEMO.flush()
    events_path = tmp_path / "run.jsonl"
    cells = [Cell(bench="hashtable-2", config="fine+coarse", threads=2,
                  setting="high", n_ops=4, ncores=2)]
    run_cells(cells, ExecutorOptions(
        jobs=1, events_path=str(events_path),
        cache_dir=str(tmp_path / "cache"), trace=True,
    ))
    events = load_events(str(events_path))
    cats = {e.get("cat") for e in events if e["event"] == "span"}
    # one stream, three layers
    assert {"executor", "inference", "runtime"} <= cats
    names = {e.get("name") for e in events}
    assert "cell:hashtable-2-high" in names
    assert "sim.run" in names
    assert any(n and n.startswith("section:") for n in names)


# ---------------------------------------------------------------------------
# tick identity and disabled overhead
# ---------------------------------------------------------------------------


def test_tick_identity_disabled_matches_golden():
    assert _run_golden_cells() == (GOLDEN_FINE, GOLDEN_GLOBAL)


def test_tick_identity_enabled_matches_golden():
    tracer = get_tracer()
    tracer.configure(True)
    try:
        results = _run_golden_cells()
        assert results == (GOLDEN_FINE, GOLDEN_GLOBAL)
        records = tracer.drain()
    finally:
        tracer.configure(False)
        tracer.reset()
    assert any(r["name"] == "sim.run" for r in records
               if r["event"] == "span")


def test_disabled_span_overhead_bounded():
    tracer = Tracer()
    iterations = 200_000
    started = time.perf_counter()
    for _ in range(iterations):
        with tracer.span("hot", "x", a=1):
            pass
    per_op = (time.perf_counter() - started) / iterations
    # a no-op span costs well under a microsecond; 5µs flags a regression
    # to per-call allocation without being flaky on loaded CI machines
    assert per_op < 5e-6, f"disabled span costs {per_op * 1e9:.0f}ns"
