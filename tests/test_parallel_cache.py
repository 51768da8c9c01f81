"""The bottom-up summary walk and the persistent analysis cache.

Four guarantee families for the solver's walk and the cached engine paths:

* **golden equivalence** — for every benchmark program and k ∈ {0, 1, 9},
  the default run, a checkpointed cold run, and the cache-less reference
  all produce identical lock sets, and a warm rerun against a populated
  disk cache reproduces the cold run byte for byte;
* **one walk** — the access summary of a function outside any call cycle
  is solved exactly once: after its callees, and never again;
* **incremental invalidation** — editing one function recomputes exactly
  its SCC cone: callee summaries below the edit load from disk, functions
  above it (and only those) re-solve;
* **accounting** — the kernel's transfer counters partition transfer
  executions exactly (``call_transfers + mask_hits + mask_fallbacks ==
  dataflow_steps``) and the two disk namespaces (bench result cells, analysis cache) cannot collide
  under a shared ``--cache-dir`` root.
"""

import os
import shutil
from collections import Counter

import pytest

from repro.bench import ALL_BENCHMARKS
from repro.bench.executor import _cache_path
from repro.bench.programs.spec import generate_spec_program
from repro.cfg import build_cfgs, build_schedule, call_graph, tarjan_sccs
from repro.inference import (Engine, ExternalSpec, LockInference,
                             ReferenceEngine, SharedAnalysis, SpecLibrary,
                             diskcache, open_cache)
from repro.inference.diskcache import cone_hashes
from repro.inference.solver import SummarySolver
from repro.lang import ir, lower_program, parse_program
from repro.pointer import PointsTo
from tests.test_libspec import SRC as LIBSPEC_SRC

KS = (0, 1, 9)


def _locks_by_section(result):
    return {sid: section.locks for sid, section in result.sections.items()}


def _rendered(locks_by_section):
    return {
        sid: sorted(str(lock) for lock in locks)
        for sid, locks in locks_by_section.items()
    }


# ---------------------------------------------------------------------------
# golden equivalence: default == checkpointed == warm == reference engine
# ---------------------------------------------------------------------------


@pytest.mark.parametrize("name", sorted(ALL_BENCHMARKS))
def test_parallel_and_warm_match_reference(name, tmp_path):
    # "parallel" in the id is historical: the fork fan-out it names never
    # got a task past its weight gate — the id stays because the suite's
    # floor list pins it
    source = ALL_BENCHMARKS[name].source
    cache_root = str(tmp_path / "cache")
    for k in KS:
        reference = _locks_by_section(
            LockInference(source, k=k, enable_caches=False).run())
        default = LockInference(source, k=k).run()
        cold = LockInference(source, k=k, cache_dir=cache_root,
                             checkpoint_every=1).run()
        warm = LockInference(source, k=k, cache_dir=cache_root).run()
        for label, got in (("default", default),
                           ("checkpointed-cold", cold),
                           ("warm", warm)):
            got = _locks_by_section(got)
            assert got == reference, f"{name} k={k}: {label} diverged"
            assert _rendered(got) == _rendered(reference)
        # checkpointing only flushes at the walk's level boundaries: the
        # cold run solves exactly the summaries the default run solves
        assert (cold.profile.summary_runs
                == default.profile.summary_runs), f"{name} k={k}"
        # the warm rerun of an unchanged program must skip dataflow
        assert warm.profile.dataflow_steps == 0, f"{name} k={k}"
        assert warm.profile.sections_from_disk == len(reference)


# ---------------------------------------------------------------------------
# one walk: an access summary outside a call cycle is solved once
# ---------------------------------------------------------------------------


# the benchmark sources call at most one level deep from a section, where
# no order re-solves a summary; the two SPEC-like programs of the infer_k9
# corpus have the call chains where the lazy order did
SPEC_CHAINS = {"spec-gzip": ("gzip", 0.5), "spec-parser": ("parser", 0.7)}


@pytest.mark.parametrize("name", sorted(ALL_BENCHMARKS) + sorted(SPEC_CHAINS))
def test_walk_solves_each_acyclic_access_summary_once(name, monkeypatch):
    if name in SPEC_CHAINS:
        source = generate_spec_program(*SPEC_CHAINS[name], 0)
    else:
        source = ALL_BENCHMARKS[name].source
    runs = Counter()
    compute = SummarySolver._compute_summary

    def counting(self, key):
        runs[key] += 1
        return compute(self, key)

    monkeypatch.setattr(SummarySolver, "_compute_summary", counting)
    for k in KS:
        runs.clear()
        result = LockInference(source, k=k).run()
        schedule = build_schedule(result.program)
        for key, count in runs.items():
            if key[0] != "acc":
                continue
            if schedule.recursive[schedule.func_scc[key[1]]]:
                continue
            assert count == 1, f"{name} k={k}: {key} solved {count} times"


# ---------------------------------------------------------------------------
# call-graph condensation
# ---------------------------------------------------------------------------

CHAIN = """
int g;
int h() { g = g + 1; return g; }
int mid() { int x; x = h(); return x; }
int f() { int y; y = mid(); return y; }
void main() {
  int r;
  r = 7;
  atomic { r = f(); }
}
"""

MUTUAL = """
int g;
int even(int n) { if (n == 0) { return 1; } return odd(n - 1); }
int odd(int n) { if (n == 0) { return 0; } return even(n - 1); }
void main() {
  int r;
  atomic { r = even(g); }
}
"""


def test_tarjan_reverse_topological():
    graph = {"a": {"b"}, "b": {"c"}, "c": set(), "d": {"a"}}
    sccs = tarjan_sccs(graph)
    assert ("c",) in sccs and ("a",) in sccs
    order = {comp: idx for idx, comp in enumerate(sccs)}
    assert order[("c",)] < order[("b",)] < order[("a",)] < order[("d",)]


def test_tarjan_mutual_recursion_single_component():
    program = lower_program(parse_program(MUTUAL))
    schedule = build_schedule(program)
    assert schedule.func_scc["even"] == schedule.func_scc["odd"]
    idx = schedule.func_scc["even"]
    assert schedule.sccs[idx] == ("even", "odd")
    assert schedule.recursive[idx]
    assert not schedule.recursive[schedule.func_scc["main"]]


def test_levels_are_call_independent():
    program = lower_program(parse_program(CHAIN))
    schedule = build_schedule(program)
    graph = call_graph(program)
    for level in schedule.levels:
        funcs = {f for idx in level for f in schedule.sccs[idx]}
        for idx in level:
            for func in schedule.sccs[idx]:
                callees_here = graph[func] & funcs
                assert callees_here <= set(schedule.sccs[idx])
    # the chain must layer bottom-up: h below mid below f below main
    depth = {}
    for d, level in enumerate(schedule.levels):
        for idx in level:
            for func in schedule.sccs[idx]:
                depth[func] = d
    assert depth["h"] < depth["mid"] < depth["f"] < depth["main"]


def test_cone_hashes_change_exactly_above_an_edit():
    before = lower_program(parse_program(CHAIN))
    after = lower_program(parse_program(CHAIN.replace("g + 1", "g + 2")))
    h_before = cone_hashes(before, build_schedule(before))
    h_after = cone_hashes(after, build_schedule(after))
    # the edit is inside h: h and every transitive caller change ...
    for func in ("h", "mid", "f", "main"):
        assert h_before[func] != h_after[func]
    # ... and an edit in main leaves every callee's cone untouched
    after_main = lower_program(parse_program(CHAIN.replace("r = 7", "r = 8")))
    h_main = cone_hashes(after_main, build_schedule(after_main))
    for func in ("h", "mid", "f"):
        assert h_before[func] == h_main[func]
    assert h_before["main"] != h_main["main"]


# ---------------------------------------------------------------------------
# incremental invalidation: only the dirty SCC cone recomputes
# ---------------------------------------------------------------------------


def _run_engine(source, cache_root=None, k=9):
    program = lower_program(parse_program(source))
    pointsto = PointsTo(program).analyze()
    cfgs = build_cfgs(program)
    disk = None
    if cache_root is not None:
        disk = open_cache(cache_root, program, pointsto, k, True)
    engine = Engine(program, cfgs, pointsto, k=k, disk_cache=disk)
    locks = {}
    for func_name, cfg in cfgs.items():
        for section in cfg.sections.values():
            locks[section.section_id] = engine.analyze_section(
                func_name, section).locks
    if disk is not None:
        disk.store_dirty(engine)
    return engine, locks


def test_edit_recomputes_only_dirty_cone(tmp_path):
    cache_root = str(tmp_path)
    cold, cold_locks = _run_engine(CHAIN, cache_root)
    assert cold.computed_funcs >= {"f", "mid", "h"}

    # warm, unchanged: nothing recomputes, summaries come from disk
    warm, warm_locks = _run_engine(CHAIN, cache_root)
    assert warm_locks == cold_locks
    assert warm.computed_funcs == set()
    assert warm.stats["sections_from_disk"] == 1

    # pointer-preserving edit in main only: every callee summary loads,
    # only the section in main re-runs
    edited_main = CHAIN.replace("r = 7", "r = 8")
    engine, _ = _run_engine(edited_main, cache_root)
    assert engine.computed_funcs == set()
    assert engine.stats["sections_from_disk"] == 0
    assert engine.loaded_funcs >= {"f"}
    assert engine.stats["dataflow_steps"] > 0

    # edit the leaf: its whole caller cone is dirty, nothing usable on disk
    edited_leaf = CHAIN.replace("g + 1", "g + 2")
    engine, _ = _run_engine(edited_leaf, cache_root)
    assert engine.computed_funcs >= {"f", "mid", "h"}
    assert engine.stats["summaries_from_disk"] == 0
    assert engine.stats["sections_from_disk"] == 0


def test_warm_precompute_loads_instead_of_solving(tmp_path):
    # with the section entries gone the warm rerun walks the section's
    # callee cone again, and finds every summary in a bundle
    cache_root = str(tmp_path)
    _run_engine(CHAIN, cache_root)
    shutil.rmtree(os.path.join(cache_root, "analysis", "sect"))
    warm, _ = _run_engine(CHAIN, cache_root)
    assert warm.stats["sections_from_disk"] == 0
    assert warm.loaded_funcs >= {"f", "mid", "h"}
    assert warm.computed_funcs == set()
    assert warm.stats["summary_runs"] == 0
    assert warm.stats["dataflow_steps"] > 0


# ---------------------------------------------------------------------------
# accounting and namespacing
# ---------------------------------------------------------------------------


@pytest.mark.parametrize("name", ("vacation", "TH"))
def test_transfer_counters_partition_steps(name):
    source = ALL_BENCHMARKS[name].source
    program = lower_program(parse_program(source))
    pointsto = PointsTo(program).analyze()
    cfgs = build_cfgs(program)
    engine = Engine(program, cfgs, pointsto, k=9)
    for func_name, cfg in cfgs.items():
        for section in cfg.sections.values():
            engine.analyze_section(func_name, section)
    stats = engine.stats
    # every transfer execution is exactly one call transfer, kernel mask
    # hit, or kernel fallback — the counters partition the steps exactly
    assert (stats["call_transfers"] + stats["mask_hits"]
            + stats["mask_fallbacks"] == stats["dataflow_steps"])
    engine.check_partition()
    # the kernel's fast path must actually serve repeat visits
    assert stats["mask_hits"] > 0
    # call nodes are a minority of the steps, and all of them are counted
    assert 0 < stats["call_transfers"] < stats["dataflow_steps"]


def test_broken_transfer_partition_fails_the_run(monkeypatch):
    # every kernel build counts one mask hit no transfer made: the run's
    # collection point must refuse the counters
    build_kernel = Engine._build_kernel

    def miscounting(self, *args):
        self.stats["mask_hits"] += 1
        return build_kernel(self, *args)

    monkeypatch.setattr(Engine, "_build_kernel", miscounting)
    source = ALL_BENCHMARKS["vacation"].source
    with pytest.raises(AssertionError, match="!= dataflow_steps"):
        LockInference(source, k=9).run()


def test_reference_engine_still_counts_raw_steps():
    source = ALL_BENCHMARKS["vacation"].source
    program = lower_program(parse_program(source))
    pointsto = PointsTo(program).analyze()
    cfgs = build_cfgs(program)
    engine = ReferenceEngine(program, cfgs, pointsto, k=9)
    for func_name, cfg in cfgs.items():
        for section in cfg.sections.values():
            engine.analyze_section(func_name, section)
    assert engine.stats["dataflow_steps"] > 0
    for counter in ("call_transfers", "mask_hits", "mask_fallbacks"):
        assert engine.stats[counter] == 0


def test_cell_and_analysis_namespaces_disjoint(tmp_path):
    root = str(tmp_path)
    cell = _cache_path(root, "deadbeef")
    assert os.path.relpath(cell, root).split(os.sep)[0] == "cells"
    program = lower_program(parse_program(CHAIN))
    pointsto = PointsTo(program).analyze()
    disk = open_cache(root, program, pointsto, 9, True)
    assert os.path.relpath(disk.root, root).split(os.sep)[0] == "analysis"


def test_disk_cache_keys_depend_on_configuration(tmp_path):
    root = str(tmp_path)
    cold, locks = _run_engine(CHAIN, root)
    assert cold.computed_funcs
    # same program, different k: nothing may be served from the k=9 cache
    program = lower_program(parse_program(CHAIN))
    pointsto = PointsTo(program).analyze()
    cfgs = build_cfgs(program)
    disk = open_cache(root, program, pointsto, 1, True)
    engine = Engine(program, cfgs, pointsto, k=1, disk_cache=disk)
    for func_name, cfg in cfgs.items():
        for section in cfg.sections.values():
            engine.analyze_section(func_name, section)
    assert engine.stats["sections_from_disk"] == 0
    assert engine.stats["summaries_from_disk"] == 0


# x and y point to distinct allocations that z merges into one Steensgaard
# class: the Andersen oracle tells their cells apart, so the two alias
# oracles infer different lock sets for the same program and k
SPLIT_BY_ANDERSEN = """
struct e { e* next; }
void f(int c) {
  e* x = new e;
  e* y = new e;
  e* z = x;
  z = y;
  atomic {
    x->next = y;
    e* w = y->next;
    w->next = null;
  }
}
"""


def _alias_locks(alias, cache_dir=None):
    result = LockInference(SPLIT_BY_ANDERSEN, k=9, alias=alias,
                           cache_dir=cache_dir).run()
    return {sid: sorted(map(str, section.locks))
            for sid, section in result.sections.items()}


@pytest.mark.parametrize("first, second", [("steensgaard", "andersen"),
                                           ("andersen", "steensgaard")])
def test_disk_cache_keys_depend_on_the_alias_oracle(tmp_path, first, second):
    cold = {alias: _alias_locks(alias) for alias in (first, second)}
    assert cold[first] != cold[second]
    root = str(tmp_path)
    assert _alias_locks(first, root) == cold[first]
    # warm-started from the other oracle's entries: its own cold result
    assert _alias_locks(second, root) == cold[second]
    assert _alias_locks(first, root) == cold[first]


def _spec_locks(with_spec, cache_dir=None):
    specs = SpecLibrary([ExternalSpec("ext_touch", param_effects=("ro",))])
    result = LockInference(LIBSPEC_SRC, k=9, cache_dir=cache_dir,
                           specs=specs if with_spec else None).run()
    return {sid: sorted(map(str, section.locks))
            for sid, section in result.sections.items()}


@pytest.mark.parametrize("first, second", [(False, True), (True, False)],
                         ids=["nospec-spec", "spec-nospec"])
def test_disk_cache_keys_depend_on_the_spec_library(tmp_path, first, second):
    cold = {spec: _spec_locks(spec) for spec in (first, second)}
    assert cold[first] != cold[second]
    root = str(tmp_path)
    assert _spec_locks(first, root) == cold[first]
    # warm-started from the other library's entries: its own cold result
    assert _spec_locks(second, root) == cold[second]
    assert _spec_locks(first, root) == cold[first]


# ---------------------------------------------------------------------------
# front entries across a schema bump
# ---------------------------------------------------------------------------


def test_front_entry_from_an_older_schema_is_a_miss(tmp_path, monkeypatch):
    root = str(tmp_path)
    cold = SharedAnalysis(CHAIN)
    monkeypatch.setattr(diskcache, "_FRONT_SCHEMA",
                        diskcache._FRONT_SCHEMA - 1)
    diskcache.store_front(root, CHAIN, cold.program, cold.cfgs,
                          cold.pointsto)
    monkeypatch.undo()
    assert diskcache.load_front(root, CHAIN) is None
    first = SharedAnalysis(CHAIN, cache_dir=root)
    assert not first.front_from_disk
    assert SharedAnalysis(CHAIN, cache_dir=root).front_from_disk


def test_front_entry_in_the_old_node_layout_fails_closed(tmp_path,
                                                         monkeypatch):
    """Nodes used to pickle as a class reference plus a ``__dict__``; a
    slotted node cannot take that state, and the load degrades to a miss."""

    class DictNode:
        def __init__(self, name):
            self.name = name

    DictNode.__module__, DictNode.__qualname__ = ir.__name__, "VarAtom"
    monkeypatch.setattr(ir, "VarAtom", DictNode)
    payload = diskcache._pickle((DictNode("x"), {}, None))
    monkeypatch.undo()
    diskcache._atomic_write(diskcache._front_path(str(tmp_path), CHAIN),
                            payload)
    corrupt = diskcache.corrupt_entries_seen()
    assert diskcache.load_front(str(tmp_path), CHAIN) is None
    assert diskcache.corrupt_entries_seen() == corrupt + 1
