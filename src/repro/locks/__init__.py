"""Lock formalism: effects, lock terms, concrete semantics, abstract schemes."""

from .._lazy import lazy_exports

__getattr__, __dir__, __all__ = lazy_exports(__name__, globals(), {
    "effects": ("RO", "RW", "eff_join", "eff_leq", "eff_meet"),
    "terms": ("Term", "TVar", "TStar", "TPlus", "TIndex", "IndexExpr", "IVar",
              "IConst", "IBin", "IUnknown", "term_size", "term_free_vars",
              "term_has_unknown", "term_for_access_path"),
    "concrete": ("Denotation", "ALL", "GLOBAL_LOCK", "conflict", "coarser",
                 "denotation_leq", "is_fine_grain"),
    "paperlock": ("Lock", "global_lock", "coarse_lock", "fine_lock",
                  "lock_leq", "lock_lt", "lock_join", "reduce_locks"),
    "scheme": ("AbstractLockScheme", "EffectScheme", "FieldScheme",
               "KLimitScheme", "PointsToScheme", "ProductScheme"),
    "typescheme": ("TypeScheme",),
})
