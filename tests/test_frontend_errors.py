"""Hardened front end: one structured error type, rustc-style diagnostics.

Every front-end phase (lex, parse, validate, lower) reports failures as a
subclass of :class:`~repro.lang.SourceError` carrying line/column and a
phase tag; ``diagnostic(source)`` renders the offending line with a caret.
``repro analyze`` turns any of them into exit code 2 with the diagnostic
on stderr — never a traceback.  The regression corpus under
``tests/fixtures/fuzz/`` pins down crash classes the grammar fuzzer
found (deep nesting → ``RecursionError``, NUL injection, truncation,
unterminated comments); ``fuzz_range`` re-runs a fixed seed window as a
smoke test so the invariants hold beyond the pinned fixtures.
"""

import glob
import os
import subprocess
import sys

import pytest

from repro.fuzz import fuzz_one, fuzz_range, mutate_source
from repro.lang import SourceError, lower_program, parse_program
from repro.lang.lexer import LexError, tokenize
from repro.lang.lower import LoweringError
from repro.lang.parser import ParseError
from repro.lang.validate import ValidationError, validate_program

FIXTURES = sorted(glob.glob(os.path.join(
    os.path.dirname(__file__), "fixtures", "fuzz", "*.mc")))


# ---------------------------------------------------------------------------
# the SourceError hierarchy
# ---------------------------------------------------------------------------


def test_every_frontend_error_is_a_source_error():
    for cls in (LexError, ParseError, LoweringError, ValidationError):
        assert issubclass(cls, SourceError)


def test_lexer_reports_line_and_col():
    with pytest.raises(LexError) as err:
        tokenize("void main() {\n  int x = `;\n}")
    assert err.value.line == 2
    assert err.value.col == 11
    assert "line 2" in str(err.value)


def test_token_columns_survive_block_comments():
    tokens = tokenize("/* a\nmultiline\ncomment */ int x;")
    first = tokens[0]
    assert first.text == "int"
    assert first.line == 3
    assert first.col == 12


def test_parse_error_carries_position_and_token():
    with pytest.raises(ParseError) as err:
        parse_program("void main() { int x = ; }")
    assert err.value.line == 1
    assert err.value.col == 23
    assert err.value.token.text == ";"


def test_deep_nesting_is_rejected_not_recursion_error():
    source = "void main() { int x = " + "(" * 5000 + "1" + ")" * 5000 + "; }"
    with pytest.raises(ParseError, match="nesting too deep"):
        parse_program(source)


def test_diagnostic_renders_caret_under_offending_column():
    source = "void main() { int x = ; }"
    with pytest.raises(ParseError) as err:
        parse_program(source)
    text = err.value.diagnostic(source)
    lines = text.splitlines()
    assert lines[0].startswith("error[parse]:")
    assert "--> line 1, col 23" in lines[1]
    gutter, code_line, caret_line = lines[2], lines[3], lines[4]
    assert gutter.strip() == "|"
    assert code_line.endswith(source)
    # the caret must sit exactly under column 23 of the source line
    assert caret_line[caret_line.index("^"):] == "^"
    pad = len(code_line) - len(source)
    assert caret_line.index("^") == pad + 23 - 1


def test_diagnostic_without_source_omits_excerpt():
    err = SourceError("boom", line=3, col=7)
    text = err.diagnostic()
    assert "boom" in text
    assert "line 3, col 7" in text
    assert "^" not in text


# ---------------------------------------------------------------------------
# regression fixtures + fuzz smoke
# ---------------------------------------------------------------------------


def test_fixture_corpus_is_nonempty():
    assert len(FIXTURES) >= 4


@pytest.mark.parametrize("path", FIXTURES,
                         ids=[os.path.basename(p) for p in FIXTURES])
def test_fixture_is_rejected_with_source_error(path):
    with open(path) as handle:
        source = handle.read()
    with pytest.raises(SourceError) as err:
        validate_program(parse_program(source))
        lower_program(parse_program(source))
    # the renderer is part of the contract: it must not crash either
    assert err.value.diagnostic(source)


def test_cli_analyze_malformed_input_exits_2_without_traceback(tmp_path):
    bad = tmp_path / "bad.mc"
    bad.write_text("void main() { atomic { x = ; } }\n")
    env = dict(os.environ, PYTHONPATH="src")
    proc = subprocess.run(
        [sys.executable, "-m", "repro", "analyze", str(bad)],
        env=env, cwd=os.path.dirname(os.path.dirname(__file__)),
        capture_output=True, text=True, timeout=120)
    assert proc.returncode == 2
    assert "error[" in proc.stderr
    assert "Traceback" not in proc.stderr


def _unreadable_sources(tmp_path):
    garbage = tmp_path / "utf16.mc"
    garbage.write_bytes(b"\xff\xfevoid main() { }")
    return {"missing": str(tmp_path / "nonexistent.mc"),
            "directory": str(tmp_path), "undecodable": str(garbage)}


@pytest.mark.parametrize("command", ["analyze", "transform"])
@pytest.mark.parametrize("kind", ["missing", "directory", "undecodable"])
def test_cli_unreadable_source_is_one_line_and_exit_2(tmp_path, capsys,
                                                      command, kind):
    from repro.cli import main

    path = _unreadable_sources(tmp_path)[kind]
    assert main([command, path]) == 2
    captured = capsys.readouterr()
    assert captured.out == ""
    assert captured.err.startswith(f"error[read]: cannot read {path}: ")
    assert captured.err.count("\n") == 1


def test_mutations_are_deterministic_per_seed():
    import random
    base = "void main() { int x = 1; }"
    a = mutate_source(base, random.Random(42))
    b = mutate_source(base, random.Random(42))
    assert a == b


def test_fuzz_smoke_no_crashes_no_unsoundness():
    report = fuzz_range(0, 60, k=2, budget_steps=120)
    assert report.ok, report.describe()
    assert sum(report.counts.values()) == 60


def test_fuzz_one_replays_exactly():
    first = fuzz_one(7)
    second = fuzz_one(7)
    assert first.status == second.status
    assert first.source == second.source
