"""Golden digests of the front end: tokens, AST, lowered IR, diagnostics.

For each of the ten benchmark sources the fixture holds a sha256 of the
token stream ``(kind, text, line, col)``, of ``str()`` of every AST
expression (with the statement and declaration skeleton around them),
and of the printed lowered program; a few lexer corner cases pin their
token stream or ``LexError``.  Every ``tests/fixtures/fuzz`` input
and a fixed set of seeded mutations of the benchmark sources
(:func:`repro.fuzz.mutate_source`) pin the front end's verdict: the
lowered-program digest when accepted, the ``SourceError``'s phase,
message, line and column when rejected.  The SPEC generator is left out:
its text depends on ``PYTHONHASHSEED``.

``tests/fixtures/frontend_golden.json`` was written by running this file
on the commit before the lexer, parser and node classes were rewritten;
``tests/test_frontend_golden.py`` replays it.  Regenerate (only when the
language is meant to change) with::

    PYTHONPATH=src python tests/frontend_golden.py
"""

from __future__ import annotations

import glob
import hashlib
import json
import os
import random
from pathlib import Path
from typing import Dict, Iterator, List

from repro.bench.configs import ALL_BENCHMARKS
from repro.fuzz import mutate_source
from repro.lang import (SourceError, ast, lower_program, parse_program,
                        print_lowered_program, tokenize)
from repro.lang.validate import validate_program

FIXTURE = Path(__file__).parent / "fixtures" / "frontend_golden.json"
FUZZ_INPUTS = sorted(glob.glob(os.path.join(
    os.path.dirname(__file__), "fixtures", "fuzz", "*.mc")))
MUTATION_SEEDS = range(64)

# where a recursion overflow surfaces depends on the caller's stack depth,
# so that diagnostic's column is not a function of the input
STACK_DEPENDENT = "expression nesting too deep"

# lexer corner cases: keyword prefixes, digits glued to names, division
# next to comments, CR/LF, tabs, trailing blanks, non-ASCII names, and
# characters no token starts with
LEXER_SNIPPETS = (
    "", "   \n\t ", "123abc intx int$ $t1 x_9", "a/b /c//d\n/ * /",
    "a/*x\ny*/b", "a /* never closed", "a\r\nb\r\n", "x =\f1;",
    "née = ٣;", "a\n@", "`", "p->q[i] <= -1 && !r || s != t",
    "x\t=\t1;   ",
)

_CHILDREN = ("ptr", "lvalue", "base", "index", "operand", "left", "right",
             "size")


def _sha(lines: List[str]) -> str:
    return hashlib.sha256("\n".join(lines).encode("utf-8")).hexdigest()


def token_digest(source: str) -> str:
    return _sha([f"{t.kind} {t.text!r} {t.line} {t.col}"
                 for t in tokenize(source)])


def lex_verdict(source: str) -> Dict[str, object]:
    try:
        return {"tokens": token_digest(source)}
    except SourceError as err:
        return {"message": err.message, "line": err.line, "col": err.col}


def _expr_lines(expr: ast.Expr, depth: int) -> Iterator[str]:
    yield f"{'  ' * depth}{type(expr).__name__} {expr}"
    for name in _CHILDREN:
        child = getattr(expr, name, None)
        if isinstance(child, ast.Expr):
            yield from _expr_lines(child, depth + 1)
    for arg in getattr(expr, "args", ()):
        yield from _expr_lines(arg, depth + 1)


def _stmt_lines(stmt: ast.Stmt, depth: int) -> Iterator[str]:
    pad = "  " * depth
    if isinstance(stmt, ast.Block):
        yield f"{pad}Block"
        for inner in stmt.stmts:
            yield from _stmt_lines(inner, depth + 1)
        return
    if isinstance(stmt, ast.VarDecl):
        yield f"{pad}VarDecl {stmt.type} {stmt.name}"
    elif isinstance(stmt, ast.Nop):
        yield f"{pad}Nop {stmt.cost}"
    else:
        yield f"{pad}{type(stmt).__name__}"
    for name in ("init", "target", "value", "expr", "cond"):
        expr = getattr(stmt, name, None)
        if isinstance(expr, ast.Expr):
            yield from _expr_lines(expr, depth + 1)
    for name in ("then", "orelse", "body"):
        block = getattr(stmt, name, None)
        if block is not None:
            yield from _stmt_lines(block, depth + 1)


def ast_digest(program: ast.Program) -> str:
    lines = []
    for struct in program.structs.values():
        lines.append(f"struct {struct.name} "
                     + " ".join(f"{t} {n}" for t, n in struct.fields))
    for glob_ in program.globals.values():
        lines.append(f"global {glob_.type} {glob_.name}")
    for func in program.functions.values():
        lines.append(f"function {func.ret_type} {func.name} "
                     + " ".join(f"{p.type} {p.name}" for p in func.params))
        lines.extend(_stmt_lines(func.body, 1))
    return _sha(lines)


def lowered_digest(program: ast.Program) -> str:
    return _sha([print_lowered_program(lower_program(program))])


def verdict(source: str) -> Dict[str, object]:
    """The lowered digest of an accepted *source*, or its diagnostic."""
    try:
        program = parse_program(source)
        validate_program(program)
        return {"lowered": lowered_digest(program)}
    except SourceError as err:
        col = None if err.message.startswith(STACK_DEPENDENT) else err.col
        return {"phase": err.phase, "message": err.message,
                "line": err.line, "col": col}


def benchmark_case(source: str) -> Dict[str, str]:
    program = parse_program(source)
    return {"tokens": token_digest(source), "ast": ast_digest(program),
            "lowered": lowered_digest(program)}


def fuzz_cases() -> Iterator:
    for path in FUZZ_INPUTS:
        yield os.path.basename(path), Path(path).read_text()


def mutation_cases() -> Iterator:
    for name, spec in ALL_BENCHMARKS.items():
        for seed in MUTATION_SEEDS:
            mutated = mutate_source(spec.source, random.Random(seed))
            yield f"{name}/{seed}", mutated


def compute() -> Dict[str, Dict[str, object]]:
    return {
        "benchmarks": {name: benchmark_case(spec.source)
                       for name, spec in ALL_BENCHMARKS.items()},
        "lexer": {repr(source): lex_verdict(source)
                  for source in LEXER_SNIPPETS},
        "fuzz": {name: verdict(source) for name, source in fuzz_cases()},
        "mutations": {label: verdict(source)
                      for label, source in mutation_cases()},
    }


if __name__ == "__main__":
    FIXTURE.write_text(json.dumps(compute(), indent=1, sort_keys=True) + "\n")
    print(f"wrote {FIXTURE}")
