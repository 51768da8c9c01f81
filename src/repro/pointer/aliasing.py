"""The mayAlias oracle and lock-term class queries (analysis inputs, §4.1).

The inference framework consumes the pointer analysis through two questions:

* ``class_of_term`` — which points-to equivalence class contains the cell a
  lock term denotes (this is the Σ_≡ component of an inferred lock);
* ``may_alias_terms`` — may two lock terms denote the same cell (used by the
  store transfer function S_{*x=y}).

With a unification-based analysis both reduce to walking the term through
the ECR graph: two cells may alias iff their classes coincide.

Both queries sit in the dataflow's inner loop (every substitution step asks
``may_alias_terms`` once per deref), so the oracle keeps a memo table for
``may_alias_terms`` on top of the ECR cache (a second one for
``class_of_term`` had no measurable effect — ``docs/PERFORMANCE.md``). The
memo tables are only sound while the underlying points-to solution is stable;
anything that unifies further ECRs afterwards must call :meth:`invalidate`.
"""

from __future__ import annotations

from typing import Dict, Tuple

from ..locks.terms import Term, TIndex, TPlus, TStar, TVar
from .steensgaard import ECR, PointsTo


class AliasOracle:
    """Caches class lookups for lock terms within one analyzed program."""

    def __init__(self, pointsto: PointsTo) -> None:
        self.pointsto = pointsto
        self._cache: Dict[Tuple[str, Term], ECR] = {}
        self._alias_cache: Dict[Tuple[str, Term, str, Term], bool] = {}
        # counters of the deleted class_of_term memo: read only by
        # benchmarks/perf/wl_analysis.py, which may not change in the PR
        # that deleted it; they stay at 0 until a benchmark PR drops
        # inference.alias_class_hit_rate
        self.stats: Dict[str, int] = {"class_hits": 0, "class_misses": 0}

    def invalidate(self) -> None:
        """Drop all memoized answers (call after mutating the points-to
        solution, e.g. re-running unification on an extended program)."""
        self._cache.clear()
        self._alias_cache.clear()

    def term_ecr(self, func_name: str, term: Term) -> ECR:
        """ECR of the cell *term* denotes, with variables scoped to
        *func_name*."""
        key = (func_name, term)
        cached = self._cache.get(key)
        if cached is not None:
            return cached.find()
        pt = self.pointsto
        if isinstance(term, TVar):
            ecr = pt.var_ecr(func_name, term.name)
        elif isinstance(term, TStar):
            ecr = pt.pts_class(self.term_ecr(func_name, term.inner))
        elif isinstance(term, TPlus):
            ecr = pt.offset_class(self.term_ecr(func_name, term.inner),
                                  term.fieldname)
        elif isinstance(term, TIndex):
            ecr = pt.offset_class(self.term_ecr(func_name, term.inner), None)
        else:
            raise TypeError(f"unknown term {term!r}")
        self._cache[key] = ecr
        return ecr

    def class_of_term(self, func_name: str, term: Term) -> int:
        return self.pointsto.class_id(self.term_ecr(func_name, term))

    def may_alias_terms(self, func_a: str, a: Term, func_b: str, b: Term) -> bool:
        """May the cells denoted by *a* and *b* coincide?"""
        if func_a == func_b and a is b:
            return True
        key = (func_a, a, func_b, b)
        cached = self._alias_cache.get(key)
        if cached is None:
            cached = self._may_alias_uncached(func_a, a, func_b, b)
            self._alias_cache[key] = cached
        return cached

    def _may_alias_uncached(self, func_a: str, a: Term, func_b: str,
                            b: Term) -> bool:
        """Unification-based answer: yes iff the ECR classes are equal."""
        return self.term_ecr(func_a, a) is self.term_ecr(func_b, b)
