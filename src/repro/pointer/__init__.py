"""Pointer analyses: Steensgaard unification (paper §4.3) and helpers."""

from .._lazy import lazy_exports

__getattr__, __dir__, __all__ = lazy_exports(__name__, globals(), {
    "steensgaard": ("PointsTo", "ECR", "AllocSite", "IDX_FIELD"),
    "aliasing": ("AliasOracle",),
    "andersen": ("Andersen", "AndersenOracle"),
    "unionfind": ("UnionFind",),
})
