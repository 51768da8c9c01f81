"""The in-process analysis memo, content-addressed by ``sha256(source)``.

Per source it holds the :class:`SharedAnalysis` front; per ``(k,
use_effects)`` one :class:`MemoEntry`, the :class:`InferenceResult` plus
the values derived from it (the analysis server's response payload and
base64 pickle).  The server owns one :class:`AnalysisMemo`; :data:`MEMO`
serves the bench harness, the explorer, the reports and
:func:`shared_analysis`.  Only :meth:`AnalysisMemo.flush` evicts.
"""

from __future__ import annotations

import hashlib
import threading
from typing import Callable, Dict, Optional, Tuple

from .analysis import InferenceResult, LockInference, SharedAnalysis


def source_hash(source: str) -> str:
    return hashlib.sha256(source.encode("utf-8")).hexdigest()


class MemoEntry:
    """A result and its derived values, each built once, on first use,
    under the key's single-flight lock (which the entry inherits)."""

    __slots__ = ("result", "_lock", "_derived")

    def __init__(self, result: InferenceResult, lock: threading.Lock) -> None:
        self.result = result
        self._lock = lock
        self._derived: Dict[str, object] = {}

    def derive(self, name: str,
               build: Callable[[InferenceResult], object]) -> object:
        value = self._derived.get(name)
        if value is None:
            with self._lock:
                value = self._derived.get(name)
                if value is None:
                    value = self._derived[name] = build(self.result)
        return value


class AnalysisMemo:
    """Fronts per source and results per ``(source, k, use_effects)``;
    misses fall through to the disk cache at *cache_dir*.

    Reads take no lock (one dict read is atomic); writes hold it.  A miss
    solves behind a per-key single-flight lock, which leaves the table
    once the result is stored — or not: partial results are never
    memoized, so a later request may still converge fully."""

    def __init__(self, cache_dir: Optional[str] = None) -> None:
        self.cache_dir = cache_dir
        self._lock = threading.Lock()
        self._fronts: Dict[str, SharedAnalysis] = {}
        self._entries: Dict[Tuple[str, int, bool], MemoEntry] = {}
        self._flights: Dict[Tuple[str, int, bool], threading.Lock] = {}

    def front(self, source: str, sha: Optional[str] = None) -> SharedAnalysis:
        sha = sha or source_hash(source)
        front = self._fronts.get(sha)
        if front is None:
            front = SharedAnalysis(source, cache_dir=self.cache_dir)
            with self._lock:
                front = self._fronts.setdefault(sha, front)
        return front

    def entry(self, source: str, k: int, use_effects: bool = True,
              allow_partial: bool = False) -> Tuple[MemoEntry, bool]:
        """The key's entry, and whether it was memoized before the call."""
        sha = source_hash(source)
        key = (sha, k, use_effects)
        entry = self._entries.get(key)
        if entry is not None:
            return entry, True
        with self._lock:
            flight = self._flights.setdefault(key, threading.Lock())
        try:
            with flight:
                entry = self._entries.get(key)
                if entry is not None:
                    return entry, True
                result = LockInference(
                    self.front(source, sha), k=k, use_effects=use_effects,
                    cache_dir=self.cache_dir,
                    allow_partial=allow_partial).run()
                entry = MemoEntry(result, flight)
                if not result.partial:
                    with self._lock:
                        self._entries[key] = entry
                return entry, False
        finally:
            with self._lock:
                if self._flights.get(key) is flight:
                    del self._flights[key]

    def result(self, source: str, k: int) -> InferenceResult:
        return self.entry(source, k)[0].result

    def install(self, source: str, k: int, result: InferenceResult) -> None:
        with self._lock:
            self._entries[(source_hash(source), k, result.use_effects)] = \
                MemoEntry(result, threading.Lock())

    def counts(self) -> Dict[str, int]:
        return {"fronts": len(self._fronts), "results": len(self._entries)}

    def flush(self) -> Dict[str, int]:
        """Drop every front and entry; the disk cache is untouched."""
        with self._lock:
            counts = self.counts()
            self._fronts.clear()
            self._entries.clear()
        return counts


MEMO = AnalysisMemo()


def shared_analysis(source: str) -> SharedAnalysis:
    """:data:`MEMO`'s front for *source*, shared by a whole k sweep."""
    return MEMO.front(source)
