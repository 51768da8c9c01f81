"""The compiled interpreter replays the event streams the tree-walker
produced (``tests/fixtures/interp_golden.json``, taken on the parent
commit): per-thread event digests, simulated totals, checked accesses
and the final heap, for every benchmark × configuration × setting plus a
rollback-and-retry, an audited and a nested-section scenario."""

import json

import pytest

from tests import interp_golden

GOLDEN = json.loads(interp_golden.FIXTURE.read_text())
BENCH_CASES = dict(interp_golden.benchmark_cases())


def test_fixture_covers_exactly_the_cases():
    assert set(GOLDEN) == set(BENCH_CASES) | set(interp_golden.SCENARIOS)


@pytest.mark.parametrize("label", sorted(BENCH_CASES))
def test_benchmark_event_stream(label):
    assert interp_golden.run_benchmark_case(*BENCH_CASES[label]) == GOLDEN[label]


@pytest.mark.parametrize("label", sorted(interp_golden.SCENARIOS))
def test_scenario_event_stream(label):
    assert interp_golden.SCENARIOS[label]() == GOLDEN[label]
