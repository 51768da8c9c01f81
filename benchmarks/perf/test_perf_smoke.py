"""Smoke test of the benchmark itself: ``pytest benchmarks/perf``.

Not part of tier-1 (``testpaths`` is ``tests``): it spawns every workload
several times and takes a couple of minutes.  It checks that each
workload runs clean at ``--passes 3``, that every metric the manifest
names is reported, that exact counts repeat run to run, and that
``BENCHMARK.json`` is what ``metrics.py`` says and fits the contract.
"""

from __future__ import annotations

import json
import os
import re
import subprocess
import sys

import pytest

import metrics

PERF_DIR = os.path.dirname(os.path.abspath(__file__))
ROOT = os.path.dirname(os.path.dirname(PERF_DIR))
NAME = re.compile(r"[A-Za-z0-9][A-Za-z0-9_.-]{0,63}\Z")
UNIT = re.compile(r"[A-Za-z0-9_/%.-]{1,16}\Z")


def run(workload: str, trace: int) -> dict:
    done = subprocess.run(
        [sys.executable, os.path.join(PERF_DIR, "run.py"), "--workload",
         workload, "--seed", "0", "--passes", "3", "--trace", str(trace)],
        cwd=ROOT, stdout=subprocess.PIPE, text=True, timeout=170)
    assert done.returncode == 0, done.stdout
    result = json.loads(done.stdout.splitlines()[-1])
    assert set(result) == {"correct", "attempted", "failed", "metrics"}
    assert result["correct"] is True
    assert result["failed"] == 0 and result["attempted"] >= 1
    return result["metrics"]


def test_manifest_is_in_sync_and_within_limits():
    with open(os.path.join(ROOT, "BENCHMARK.json")) as handle:
        manifest = json.load(handle)
    assert manifest == metrics.manifest(), \
        "run `python benchmarks/perf/run.py --write-manifest`"
    assert set(manifest) == {"command", "paths", "run_seconds", "workloads",
                             "end_to_end", "per_layer"}
    assert manifest["paths"] == ["benchmarks/perf"]
    assert 1 <= manifest["run_seconds"] <= 60
    assert 2 <= len(manifest["workloads"]) <= 8
    assert 1 <= len(manifest["end_to_end"]) <= 16
    assert 1 <= len(manifest["per_layer"]) <= 128
    names = [entry["name"] for kind in ("workloads", "end_to_end",
                                        "per_layer")
             for entry in manifest[kind]]
    assert len(names) == len(set(names))
    assert all(NAME.match(name) for name in names)
    for workload in manifest["workloads"]:
        assert set(workload) == {"name", "why"}
        assert len(workload["why"]) <= 200 and "\n" not in workload["why"]
    for metric in manifest["end_to_end"]:
        assert set(metric) == {"name", "unit", "better", "bound"}
        assert 0 < metric["bound"] <= 0.25
    for metric in manifest["end_to_end"] + manifest["per_layer"]:
        assert UNIT.match(metric["unit"])
        assert metric["better"] in ("lower", "higher")
    setup = {m["name"]: m for m in manifest["end_to_end"]}["setup_s"]
    assert (setup["unit"], setup["better"]) == ("s", "lower")
    assert setup["bound"] == max(m["bound"] for m in manifest["end_to_end"])


def test_no_top_level_bench_module_here():
    # tier-1 imports every benchmarks/bench_*.py and expects tests in it
    assert not [name for name in os.listdir(PERF_DIR)
                if name.startswith("bench_")]


@pytest.mark.parametrize("workload", list(metrics.WORKLOADS))
def test_workload_runs_clean_and_counts_repeat(workload):
    end_to_end = run(workload, 0)
    assert list(end_to_end) == [name for name, *_rest in metrics.END_TO_END]
    for name, unit, _better, _bound in metrics.END_TO_END:
        assert end_to_end[name]["unit"] == unit
        assert end_to_end[name]["value"] > 0, name
    first, second = run(workload, 1), run(workload, 1)
    assert list(first) == metrics.PER_LAYER_NAMES
    for name in metrics.EXACT_COUNTS:
        assert first[name]["value"] == second[name]["value"], name
