"""Command-line interface tests."""

import json

import pytest

from repro.cli import build_parser, main

MOVE = """
struct elem { elem* next; }
struct list { elem* head; }
void move(list* from, list* to) {
  atomic {
    elem* x = to->head;
    to->head = from->head;
    from->head = x;
  }
}
void main() { list* a = new list; list* b = new list; move(a, b); }
"""


@pytest.fixture
def move_file(tmp_path):
    path = tmp_path / "move.mc"
    path.write_text(MOVE)
    return str(path)


def test_analyze(move_file, capsys):
    assert main(["analyze", move_file, "--k", "9"]) == 0
    out = capsys.readouterr().out
    assert "move#1" in out
    assert "fine-rw" in out


def test_analyze_no_effects(move_file, capsys):
    assert main(["analyze", move_file, "--no-effects"]) == 0
    out = capsys.readouterr().out
    assert "0 fine-ro" in out  # everything promoted to rw


def test_transform(move_file, capsys):
    assert main(["transform", move_file]) == 0
    out = capsys.readouterr().out
    assert "acquireAll" in out and "releaseAll" in out


@pytest.mark.parametrize("command", [
    ["transform"], ["analyze", "--no-disk-cache"]])
def test_source_is_lexed_once(move_file, capsys, monkeypatch, command):
    """The CLI validates the program it parsed and hands *that* to the
    engine; only the disk cache needs the text again (as its key)."""
    from repro.lang import parser

    calls = []

    def counting_tokenize(source):
        calls.append(source)
        return tokenize(source)

    tokenize = parser.tokenize
    monkeypatch.setattr(parser, "tokenize", counting_tokenize)
    assert main([command[0], move_file, *command[1:]]) == 0
    assert calls == [MOVE]


def test_run_benchmark(capsys):
    code = main([
        "run", "hashtable-2", "--config", "coarse",
        "--threads", "2", "--ops", "5",
    ])
    assert code == 0
    out = capsys.readouterr().out
    assert "ticks" in out
    assert "checker validated" in out


def test_run_stm_reports_aborts(capsys):
    code = main([
        "run", "rbtree", "--config", "stm", "--threads", "2", "--ops", "5",
    ])
    assert code == 0
    assert "commits" in capsys.readouterr().out


def test_run_unknown_benchmark(capsys):
    assert main(["run", "nope", "--config", "stm"]) == 2


def test_list_benchmarks(capsys):
    assert main(["list-benchmarks"]) == 0
    out = capsys.readouterr().out
    for name in ("rbtree", "hashtable-2", "vacation", "labyrinth"):
        assert name in out


def test_bench_mini_sweep(tmp_path, capsys):
    events = tmp_path / "events.jsonl"
    code = main([
        "bench", "table2", "--benches", "hashtable-2",
        "--configs", "global,fine+coarse", "--threads", "2", "--ops", "6",
        "--cache-dir", str(tmp_path / "cache"), "--events", str(events),
        "--quiet",
    ])
    assert code == 0
    out = capsys.readouterr().out
    assert "hashtable-2-low" in out and "Fine+Coarse" in out
    assert "STM" not in out  # only requested configs rendered
    assert events.exists()
    with open(events) as handle:
        kinds = [json.loads(line)["event"] for line in handle]
    assert kinds[0] == "sweep-start" and kinds[-1] == "sweep-end"
    assert kinds.count("cell-finish") == 4  # 2 configs x 2 settings


def test_bench_resume_uses_cache(tmp_path, capsys):
    base = [
        "bench", "table2", "--benches", "hashtable-2",
        "--configs", "global", "--threads", "2", "--ops", "6",
        "--cache-dir", str(tmp_path / "cache"),
    ]
    assert main(base + ["--quiet"]) == 0
    capsys.readouterr()
    assert main(base + ["--resume"]) == 0
    assert "2 cached" in capsys.readouterr().out


def test_bench_unknown_benchmark_fails(capsys):
    assert main(["bench", "table2", "--benches", "nope"]) == 2


def test_parser_requires_command():
    with pytest.raises(SystemExit):
        build_parser().parse_args([])


def test_explore_clean_program(capsys):
    code = main([
        "explore", "counter", "--policy", "pct", "--seed", "0",
        "--schedules", "5", "--threads", "3", "--ops", "3",
    ])
    assert code == 0
    out = capsys.readouterr().out
    assert "schedules explored: 5" in out
    assert "violations: 0" in out


def test_explore_fault_canary_detected(capsys):
    code = main([
        "explore", "counter", "--schedules", "5", "--threads", "3",
        "--ops", "3", "--inject-fault", "drop-acquire",
    ])
    assert code == 0  # detected = canary passes
    assert "protection:" in capsys.readouterr().out


def test_explore_fault_canary_fails_when_oracles_off(capsys):
    code = main([
        "explore", "counter", "--schedules", "2", "--threads", "2",
        "--ops", "2", "--inject-fault", "drop-node",
        "--no-check", "--no-detector", "--no-audit",
    ])
    assert code == 1  # nothing could flag the seeded bug


def test_explore_differential_mode(capsys):
    code = main([
        "explore", "counter", "--diff", "--schedules", "2",
        "--threads", "2", "--ops", "2",
    ])
    assert code == 0
    out = capsys.readouterr().out
    assert "differential: counter" in out
    assert "stm" in out


def test_explore_exhaustive_policy(capsys):
    code = main([
        "explore", "counter", "--policy", "exhaustive", "--schedules", "10",
        "--threads", "2", "--ops", "1",
    ])
    assert code == 0
    assert "schedules explored: 10" in capsys.readouterr().out


def test_explore_unknown_program(capsys):
    assert main(["explore", "nope"]) == 2
