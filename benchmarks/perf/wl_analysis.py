"""The analysis workloads: ``infer_k9``, ``front_large``, ``cache_warm``.

Inputs are the ten benchmark sources of ``repro.bench.configs`` plus
seeded SPEC-like programs; a pass is ``source text -> rendered lock sets
-> transformed program text``.  The traced pass re-drives the pipeline
through the public functions ``LockInference`` itself calls, one span per
stage, and its output is checked against the same oracle as the one-call
pass.
"""

from __future__ import annotations

import os
import statistics
import time
from collections import Counter
from typing import Dict, List, Tuple

from repro.bench.configs import ALL_BENCHMARKS
from repro.bench.programs.spec import generate_spec_program
from repro.cfg import build_cfgs, build_schedule
from repro.inference import (Engine, InferenceResult, LockInference,
                             diskcache, transform_with_inference)
from repro.lang import ir, lower_program, print_lowered_program
from repro.lang.parser import Parser
from repro.locks.terms import interning_stats
from repro.pointer import PointsTo

import golden
from wl_base import Workload

K = 9
SMALL_SPEC = (("gzip", 0.5), ("parser", 0.7))
LARGE_SPEC = ("gzip", 5.0)


def small_corpus(seed: int) -> Dict[str, str]:
    """The ten benchmark sources plus two seeded SPEC-like programs."""
    sources = {name: spec.source for name, spec in ALL_BENCHMARKS.items()}
    for name, kloc in SMALL_SPEC:
        sources[name] = generate_spec_program(name, kloc, seed)
    return sources


def large_source(seed: int) -> str:
    return generate_spec_program(*LARGE_SPEC, seed)


def count_lines(sources: Dict[str, str]) -> int:
    return sum(len(text.splitlines()) for text in sources.values())


def analyze(source: str, k: int, **options):
    """The one-call path: source text to rendered locks and program."""
    result = LockInference(source, k=k, **options).run()
    text = result.describe()
    printed = print_lowered_program(transform_with_inference(result))
    return result, text, printed


def solve_sections(engine: Engine, cfgs) -> Dict[str, object]:
    return {section.section_id: engine.analyze_section(func_name, section)
            for func_name, cfg in cfgs.items()
            for section in cfg.sections.values()}


def count_engine(stats: Counter, engine: Engine, result) -> None:
    for name in ("dataflow_steps", "summary_runs", "section_reruns",
                 "mask_hits", "mask_fallbacks", "transfer_cache_hits",
                 "transfer_cache_stale", "sections_from_disk",
                 "summaries_from_disk"):
        stats[name] += engine.stats[name]
    stats["fact_terms"] += engine.fact_terms
    stats["peak_bits"] = max(stats["peak_bits"], engine.peak_bits)
    stats["alias_hits"] += engine.oracle.stats["class_hits"]
    stats["alias_misses"] += engine.oracle.stats["class_misses"]
    counts = result.lock_counts()
    stats["sections"] += len(result.sections)
    stats["locks_total"] += counts.total
    stats["locks_fine"] += counts.fine_ro + counts.fine_rw


def ratio(numerator: float, denominator: float) -> float:
    return numerator / denominator if denominator else 0.0


def engine_metrics(stats: Counter) -> Dict[str, float]:
    return {
        "inference.dataflow_steps": stats["dataflow_steps"],
        "inference.summary_runs": stats["summary_runs"],
        "inference.section_reruns": stats["section_reruns"],
        "inference.mask_hit_rate": ratio(
            stats["mask_hits"], stats["mask_hits"] + stats["mask_fallbacks"]),
        "inference.call_cache_hits": stats["transfer_cache_hits"],
        "inference.call_cache_stale": stats["transfer_cache_stale"],
        "inference.fact_terms": stats["fact_terms"],
        "inference.peak_bits": stats["peak_bits"],
        "inference.alias_class_hit_rate": ratio(
            stats["alias_hits"], stats["alias_hits"] + stats["alias_misses"]),
        "inference.sections": stats["sections"],
        "inference.locks_total": stats["locks_total"],
        "inference.locks_fine_share": ratio(stats["locks_fine"],
                                            stats["locks_total"]),
        "locks.interned_terms": sum(interning_stats().values()),
    }


class _Inference(Workload):
    """``source -> lock sets -> transformed text`` at one k."""

    k = K

    def make_sources(self) -> Dict[str, str]:
        raise NotImplementedError

    def prepare(self, traced: bool = False) -> None:
        self.sources = self.make_sources()
        self.lines = count_lines(self.sources)
        self.expected: Dict[str, Tuple[str, str]] = {}
        self.golden_miss: List[str] = []
        self.steps: Dict[str, int] = {}
        self.stats: Counter = Counter()

    def input_digests(self) -> Dict[str, str]:
        return golden.sha256_each(self.sources)

    def build_oracle(self) -> None:
        # the dict-based reference engine: no interner, kernels or caches
        for name, source in self.sources.items():
            _result, text, printed = analyze(source, self.k,
                                             enable_caches=False)
            self.expected[name] = (text, printed)
        pinned = None if self.regen else golden.load(
            "locks.json", self.name, self.seed)
        if pinned is not None:
            self.golden_miss = [name for name, digest
                                in self.lock_digests().items()
                                if pinned.get(name) != digest]

    def lock_digests(self) -> Dict[str, str]:
        return {name: golden.sha256(text + "\n--\n" + printed)
                for name, (text, printed) in self.expected.items()}

    def run_pass(self):
        outputs = []
        for name, source in self.sources.items():
            result, text, printed = analyze(source, self.k)
            outputs.append((name, text, printed,
                            result.profile.dataflow_steps))
        return self.lines, outputs

    def check(self, outputs):
        failed = []
        for name, text, printed, steps in outputs:
            if (text, printed) != self.expected[name]:
                failed.append(f"{self.name}/{name}: output differs from "
                              "the reference engine")
            elif name in self.golden_miss:
                failed.append(f"{self.name}/{name}: output differs from "
                              "golden/locks.json")
            elif self.steps.setdefault(name, steps) != steps:
                # one-call and staged passes alike must repeat the count
                failed.append(f"{self.name}/{name}: {steps} dataflow "
                              f"steps, earlier passes {self.steps[name]}")
        return len(outputs), failed

    def traced_pass(self, tracer):
        self.stats = stats = Counter()
        outputs = []
        for name, source in self.sources.items():
            with tracer.span("lang.lex"):
                parser = Parser(source)
            with tracer.span("lang.parse"):
                tree = parser.parse_program()
            with tracer.span("lang.lower"):
                program = lower_program(tree)
            with tracer.span("pointer.steensgaard"):
                pointsto = PointsTo(program).analyze()
            with tracer.span("cfg.build"):
                cfgs = build_cfgs(program)
            with tracer.span("inference.dataflow"):
                engine = Engine(program, cfgs, pointsto, k=self.k)
                sections = solve_sections(engine, cfgs)
            result = InferenceResult(program=program, cfgs=cfgs,
                                     pointsto=pointsto, sections=sections,
                                     k=self.k)
            with tracer.span("inference.describe"):
                text = result.describe()
            with tracer.span("inference.transform"):
                lowered = transform_with_inference(result)
            with tracer.span("lang.print"):
                printed = print_lowered_program(lowered)
            with tracer.span("harness.count"):
                stats["tokens"] += len(parser.tokens)
                stats["ir_instrs"] += sum(
                    ir.count_instrs(func.body)
                    for func in program.functions.values())
                stats["cfg_nodes"] += sum(len(cfg.nodes)
                                          for cfg in cfgs.values())
                count_engine(stats, engine, result)
            outputs.append((name, text, printed,
                            engine.stats["dataflow_steps"]))
        return self.lines, outputs

    def layer_metrics(self, span_times, span_counts):
        stats = self.stats
        report = engine_metrics(stats)
        report.update({"lang.tokens": stats["tokens"],
                       "lang.ir_instrs": stats["ir_instrs"],
                       "cfg.nodes": stats["cfg_nodes"]})
        return report

    def golden_sections(self):
        return {"inputs.json": self.input_digests(),
                "locks.json": self.lock_digests()}


class InferK9(_Inference):
    name = "infer_k9"

    def make_sources(self):
        return small_corpus(self.seed)


class FrontLarge(_Inference):
    name = "front_large"
    k = 0

    def make_sources(self):
        return {"gzip-large": large_source(self.seed)}


class CacheWarm(Workload):
    """Replay every program of the corpus from a filled disk cache."""

    name = "cache_warm"
    sweeps = 2

    def prepare(self, traced: bool = False) -> None:
        self.sources = small_corpus(self.seed)
        self.sources["gzip-large"] = large_source(self.seed)
        self.cache_dir = os.path.join(self.scratch, "cache")
        self.expected: Dict[str, str] = {}
        self.stats: Counter = Counter()
        self.io_samples: List[float] = []
        self.cold_s = 0.0
        if traced:
            # the same inputs without a cache: fill_s minus this is what
            # storing costs.  It runs first, so the fill sees warm intern
            # tables and the difference is a floor, not a ceiling.
            t0 = time.perf_counter()
            for source in self.sources.values():
                LockInference(source, k=K).run().describe()
            self.cold_s = time.perf_counter() - t0
        t0 = time.perf_counter()
        for source in self.sources.values():
            LockInference(source, k=K, cache_dir=self.cache_dir).run()
        self.fill_s = time.perf_counter() - t0

    def input_digests(self):
        return golden.sha256_each(self.sources)

    def build_oracle(self) -> None:
        for name, source in self.sources.items():
            self.expected[name] = LockInference(
                source, k=K, enable_caches=False).run().describe()

    def run_pass(self):
        outputs = []
        io_s = 0.0
        for _sweep in range(self.sweeps):
            for name, source in self.sources.items():
                result = LockInference(source, k=K,
                                       cache_dir=self.cache_dir).run()
                outputs.append((name, result.describe(),
                                result.profile.dataflow_steps))
                io_s += result.profile.cache_io_time
        self.io_samples.append(io_s)
        return len(outputs), outputs

    def check(self, outputs):
        failed = []
        for name, text, steps in outputs:
            if steps != 0:
                failed.append(f"cache_warm/{name}: warm replay ran "
                              f"{steps} dataflow steps")
            elif text != self.expected[name]:
                failed.append(f"cache_warm/{name}: replayed lock sets "
                              "differ from the reference engine")
        return len(outputs), failed

    def traced_pass(self, tracer):
        self.stats = stats = Counter()
        outputs = []
        for _sweep in range(self.sweeps):
            for name, source in self.sources.items():
                with tracer.span("diskcache.load_front"):
                    program, cfgs, pointsto = diskcache.load_front(
                        self.cache_dir, source)
                with tracer.span("cfg.schedule"):
                    schedule = build_schedule(program)
                with tracer.span("diskcache.open"):
                    disk = diskcache.open_cache(self.cache_dir, program,
                                                pointsto, K, True, schedule)
                # the engine reads the cache from inside the solve
                disk.load_section = tracer.wrap("diskcache.read",
                                                disk.load_section)
                disk.load_bundle = tracer.wrap("diskcache.read",
                                               disk.load_bundle)
                with tracer.span("inference.dataflow"):
                    engine = Engine(program, cfgs, pointsto, k=K,
                                    disk_cache=disk)
                    sections = solve_sections(engine, cfgs)
                with tracer.span("diskcache.store"):
                    disk.store_dirty(engine)
                result = InferenceResult(program=program, cfgs=cfgs,
                                         pointsto=pointsto,
                                         sections=sections, k=K)
                with tracer.span("inference.describe"):
                    text = result.describe()
                with tracer.span("harness.count"):
                    stats["sccs"] += len(schedule.sccs)
                    count_engine(stats, engine, result)
                outputs.append((name, text,
                                engine.stats["dataflow_steps"]))
        return len(outputs), outputs

    def layer_metrics(self, span_times, span_counts):
        files = [os.path.join(root, filename)
                 for root, _dirs, filenames in os.walk(self.cache_dir)
                 for filename in filenames if filename.endswith(".pkl")]
        stats = self.stats
        report = engine_metrics(stats)
        report.update({
            "cfg.sccs": stats["sccs"],
            "diskcache.fill_s": self.fill_s,
            "diskcache.store_overhead_s": self.fill_s - self.cold_s,
            "diskcache.bytes": sum(os.path.getsize(path) for path in files),
            "diskcache.entries": len(files),
            "diskcache.io_s": statistics.median(self.io_samples),
            "diskcache.sections_from_disk": stats["sections_from_disk"],
            "diskcache.summaries_from_disk": stats["summaries_from_disk"],
            "diskcache.replay_steps": stats["dataflow_steps"],
        })
        return report

    def golden_sections(self):
        return {"inputs.json": self.input_digests()}
