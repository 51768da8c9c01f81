"""Lock inference: the paper's §4 analysis framework and transformation."""

from .analysis import (
    AnalysisProfile,
    InferenceResult,
    LockClassCounts,
    LockInference,
    SharedAnalysis,
    infer_locks,
    shared_analysis,
)
from .budget import AnalysisBudget, BudgetExhausted, CheckpointPolicy
from .diskcache import AnalysisDiskCache, analysis_salt, open_cache
from .engine import SectionLocks, SummaryResult
from .kernel import Engine
from .libspec import ExternalSpec, SpecLibrary, reachable_classes
from .reference import ReferenceEngine
from .schedule import PrecomputeReport, precompute_summaries
from .transform import (
    transform_global,
    transform_program,
    transform_with_inference,
)

__all__ = [
    "LockInference",
    "infer_locks",
    "InferenceResult",
    "LockClassCounts",
    "AnalysisProfile",
    "SharedAnalysis",
    "shared_analysis",
    "AnalysisBudget",
    "BudgetExhausted",
    "CheckpointPolicy",
    "Engine",
    "ReferenceEngine",
    "SectionLocks",
    "SummaryResult",
    "AnalysisDiskCache",
    "analysis_salt",
    "open_cache",
    "PrecomputeReport",
    "precompute_summaries",
    "ExternalSpec",
    "SpecLibrary",
    "reachable_classes",
    "transform_program",
    "transform_with_inference",
    "transform_global",
]
