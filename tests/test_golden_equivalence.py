"""Golden equivalence: the optimized engine must match the naive engine.

The performance layer (term interning, the bitset dataflow kernel with its
gen/kill masks and per-term memos, dependency-driven section convergence)
is required to be *result-preserving*: for every benchmark program and
every configuration (k ∈ {0, 1, 3, 9}, effects on/off) the optimized
engine must produce lock sets identical — down to the rendered text — to
``ReferenceEngine`` (the seed's restart-until-globally-stable loop and
uncached, set-based transfer functions).

Both engines share one parse/lower/points-to front half per program so
points-to class ids are comparable across runs.  The same comparison runs
under the Andersen may-alias oracle (k ∈ {1, 9}): the kernel's
class-indexed frame is only sound relative to the oracle in use, so each
oracle gets its own kernel ≡ reference check.
"""

import os
import subprocess
import sys

import pytest

from repro.bench import ALL_BENCHMARKS
from repro.cfg import build_cfgs
from repro.inference import Engine, ReferenceEngine
from repro.lang import lower_program, parse_program
from repro.pointer import Andersen, AndersenOracle, PointsTo

KS = (0, 1, 3, 9)

_SRC = os.path.join(os.path.dirname(__file__), os.pardir, "src")
# Import ``repro.inference.reference`` in a fresh interpreter and list the
# ``repro.inference`` modules that came with it.
_IMPORT_PROBE = """
import sys
sys.path.insert(0, sys.argv[1])
import repro.inference.reference
print(*sorted(m for m in sys.modules if m.startswith("repro.inference.")))
"""


def _section_locks(engine_cls, program, cfgs, pointsto, k, use_effects,
                   oracle=None):
    engine = engine_cls(program, cfgs, pointsto, k=k, use_effects=use_effects,
                        oracle=oracle)
    out = {}
    for func_name, cfg in cfgs.items():
        for section in cfg.sections.values():
            result = engine.analyze_section(func_name, section)
            out[section.section_id] = result.locks
    return out


def _assert_engines_agree(name, alias, ks):
    spec = ALL_BENCHMARKS[name]
    program = lower_program(parse_program(spec.source))
    pointsto = PointsTo(program).analyze()
    cfgs = build_cfgs(program)
    oracle = None
    if alias == "andersen":
        oracle = AndersenOracle(pointsto,
                                Andersen(program, pointsto).analyze())
    for k in ks:
        for use_effects in (True, False):
            optimized = _section_locks(Engine, program, cfgs, pointsto, k,
                                       use_effects, oracle)
            reference = _section_locks(ReferenceEngine, program, cfgs,
                                       pointsto, k, use_effects, oracle)
            assert optimized.keys() == reference.keys()
            for section_id in reference:
                assert optimized[section_id] == reference[section_id], (
                    f"{name} {alias} k={k} effects={use_effects} "
                    f"section={section_id}"
                )
                # byte-identical rendering, not merely set-equal objects
                assert (
                    sorted(str(lock) for lock in optimized[section_id])
                    == sorted(str(lock) for lock in reference[section_id])
                )


@pytest.mark.parametrize("name", sorted(ALL_BENCHMARKS))
def test_optimized_engine_matches_reference(name):
    _assert_engines_agree(name, "steensgaard", KS)


@pytest.mark.parametrize("name", sorted(ALL_BENCHMARKS))
def test_optimized_engine_matches_reference_under_andersen(name):
    _assert_engines_agree(name, "andersen", (1, 9))


def test_reference_engine_reports_no_cache_activity():
    spec = ALL_BENCHMARKS["vacation"]
    program = lower_program(parse_program(spec.source))
    pointsto = PointsTo(program).analyze()
    cfgs = build_cfgs(program)
    engine = ReferenceEngine(program, cfgs, pointsto, k=9)
    for func_name, cfg in cfgs.items():
        for section in cfg.sections.values():
            engine.analyze_section(func_name, section)
    assert engine.stats["dataflow_steps"] > 0
    assert engine.stats["call_transfers"] == 0
    assert engine.stats["mask_hits"] == 0
    assert engine.stats["mask_fallbacks"] == 0
    assert engine.fact_terms == 0
    assert engine.peak_bits == 0
    # the reference path must stay pure — no kernels, no fact interner —
    # and structurally so: its import closure cannot reach them
    done = subprocess.run([sys.executable, "-c", _IMPORT_PROBE, _SRC],
                          capture_output=True, text=True, timeout=60)
    assert done.returncode == 0, done.stderr
    loaded = done.stdout.split()
    assert "repro.inference.transfer" in loaded
    assert "repro.inference.kernel" not in loaded
    assert "repro.inference.facts" not in loaded


def test_optimized_engine_actually_caches():
    spec = ALL_BENCHMARKS["vacation"]
    program = lower_program(parse_program(spec.source))
    pointsto = PointsTo(program).analyze()
    cfgs = build_cfgs(program)
    engine = Engine(program, cfgs, pointsto, k=9)
    for func_name, cfg in cfgs.items():
        for section in cfg.sections.values():
            engine.analyze_section(func_name, section)
    # statement transfers run on the bitset kernel: repeat visits must be
    # served by the identity-mask/memo fast path, not per-fact fallbacks
    assert engine.stats["mask_hits"] > 0
    assert engine.stats["mask_fallbacks"] > 0
    assert engine.stats["call_transfers"] > 0
    assert engine.fact_terms > 0
    assert engine.peak_bits > 0
