"""repro — a reproduction of "Inferring Locks for Atomic Sections" (PLDI'08).

The package implements the paper's full system in Python:

* :mod:`repro.lang`      — the mini-C input language (Fig. 3), parser, and
  lowering to the simple statement forms of Fig. 4;
* :mod:`repro.cfg`       — control-flow graphs with program points;
* :mod:`repro.pointer`   — Steensgaard unification points-to analysis and
  the mayAlias oracle (§4.3);
* :mod:`repro.locks`     — the lock formalism: effects, concrete semantics
  (§3.2), lock terms, abstract lock schemes (§3.3), and the paper's
  Σ_k × Σ_≡ × Σ_ε instantiation;
* :mod:`repro.inference` — the backward lock-inference dataflow with
  function summaries (§4) and the acquireAll/releaseAll transformation;
* :mod:`repro.runtime`   — the multi-granularity lock runtime (§5): modes,
  compatibility, intention locks, and the deadlock-free protocol;
* :mod:`repro.interp`    — a concurrent interpreter with the §4.2
  protection checker and a conflict-serializability auditor;
* :mod:`repro.stm`       — the TL2 STM baseline;
* :mod:`repro.sim`       — the deterministic multicore simulator;
* :mod:`repro.bench`     — the §6 benchmarks, workloads, and harness.

Quickstart::

    from repro import infer_locks, transform_with_inference

    result = infer_locks(source_code, k=9)
    print(result.describe())             # locks per atomic section
    program = transform_with_inference(result)   # lock-based program
"""

from ._lazy import lazy_exports

__version__ = "1.0.0"

__getattr__, __dir__, __all__ = lazy_exports(__name__, globals(), {
    "lang": ("parse_program", "lower_program", "print_program",
             "print_lowered_program"),
    "inference": ("infer_locks", "LockInference", "InferenceResult",
                  "LockClassCounts", "transform_program",
                  "transform_with_inference", "transform_global"),
    "pointer": ("PointsTo", "AliasOracle"),
    "locks": ("Lock", "RO", "RW", "KLimitScheme", "PointsToScheme",
              "EffectScheme", "FieldScheme", "ProductScheme"),
    "interp": ("World", "ThreadExec", "ProtectionError"),
    "sim": ("Scheduler",),
    "stm": ("TL2System", "TL2Tx", "TxAbort"),
    "bench": ("BenchSpec", "ALL_BENCHMARKS", "MICRO_BENCHMARKS",
              "STAMP_BENCHMARKS", "CONFIGS", "RunResult", "run_benchmark"),
})
__all__.append("__version__")
