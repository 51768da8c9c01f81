"""The front end reproduces the digests it produced before its lexer,
parser and node classes were rewritten (``tests/fixtures/
frontend_golden.json``): token streams, ASTs and lowered programs of the
ten benchmark sources, lexer corner cases, and the verdict — lowered
program or exact diagnostic — on every fuzz fixture and seeded mutation."""

import json

import pytest

from repro.bench.configs import ALL_BENCHMARKS
from tests import frontend_golden

GOLDEN = json.loads(frontend_golden.FIXTURE.read_text())
FUZZ = dict(frontend_golden.fuzz_cases())
MUTATIONS = dict(frontend_golden.mutation_cases())


def test_fixture_covers_exactly_the_cases():
    assert set(GOLDEN["benchmarks"]) == set(ALL_BENCHMARKS)
    assert set(GOLDEN["lexer"]) == {repr(source) for source
                                    in frontend_golden.LEXER_SNIPPETS}
    assert set(GOLDEN["fuzz"]) == set(FUZZ) and len(FUZZ) >= 4
    assert set(GOLDEN["mutations"]) == set(MUTATIONS)


@pytest.mark.parametrize("name", sorted(ALL_BENCHMARKS))
def test_benchmark_tokens_ast_and_ir(name):
    assert (frontend_golden.benchmark_case(ALL_BENCHMARKS[name].source)
            == GOLDEN["benchmarks"][name])


@pytest.mark.parametrize("source", frontend_golden.LEXER_SNIPPETS, ids=repr)
def test_lexer_corner_case(source):
    assert frontend_golden.lex_verdict(source) == GOLDEN["lexer"][repr(source)]


@pytest.mark.parametrize("name", sorted(FUZZ))
def test_fuzz_fixture_verdict(name):
    assert frontend_golden.verdict(FUZZ[name]) == GOLDEN["fuzz"][name]


def test_mutation_verdicts():
    mismatched = [label for label, source in MUTATIONS.items()
                  if frontend_golden.verdict(source)
                  != GOLDEN["mutations"][label]]
    assert mismatched == []
