"""Lock inference: the paper's §4 analysis framework and transformation."""

from .._lazy import lazy_exports

__getattr__, __dir__, __all__ = lazy_exports(__name__, globals(), {
    "analysis": ("LockInference", "infer_locks", "InferenceResult",
                 "LockClassCounts", "AnalysisProfile", "SharedAnalysis"),
    "memo": ("shared_analysis",),
    "budget": ("AnalysisBudget", "BudgetExhausted"),
    "kernel": ("Engine",),
    "reference": ("ReferenceEngine",),
    "engine": ("SectionLocks", "SummaryResult"),
    "diskcache": ("AnalysisDiskCache", "analysis_salt", "open_cache"),
    "libspec": ("ExternalSpec", "SpecLibrary", "reachable_classes"),
    "transform": ("transform_program", "transform_with_inference",
                  "transform_global"),
})
