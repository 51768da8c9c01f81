"""Persistent cross-run analysis cache.

Three namespaces under ``<root>/analysis/`` (kept separate from the bench
executor's result cells, which live under ``<root>/cells/``):

* ``front/`` — the parsed front half (lowered program, CFGs, pointer
  results) pickled per source hash.  Loading it lets a warm run skip
  parsing, lowering, CFG construction, and the Steensgaard solve outright.
* ``summ/``  — per-function summary bundles: every summary-table entry
  belonging to one function, keyed by the function's *cone hash*
  (:func:`cone_hashes` — its own canonical IR text folded with all
  transitive callees') plus the analysis salt.
* ``sect/``  — final section lock sets, same key plus the section id.

The key discipline carries the soundness argument: a bundle/section hit
requires the whole SCC cone to be byte-identical, so every value that went
into the cached fixpoint is unchanged; the salt folds in the engine
configuration (k, effects mode, alias oracle, cache schema version) and a
whole-program *pointer fingerprint*, so any edit that renumbers Steensgaard
equivalence classes — class ids appear inside cached coarse emissions and
locks — conservatively invalidates everything.  An edit that keeps the pointer
structure intact invalidates exactly the dirty SCC cone: the edited
function's hash and its (transitive) callers' change, everything below
stays warm.

Entries are pickled with the interned-term ``__reduce__`` hooks, so terms
re-intern on load; writes go through a temp file + ``os.replace`` so
concurrent runs sharing a cache root never observe torn files.

Serialization boundary invariant: cached values hold *terms*, never the
engine's dense fact-interner IDs (:mod:`repro.inference.facts`).  IDs are
assigned in per-run first-interning order, so they are meaningless in any
other process or run; keeping the stored form term-shaped means the salt
and cone-hash scheme above is entirely unaffected by the bitset kernel,
and a loading engine simply re-interns terms into its own ID space on
first use (no schema bump, no remap on load).

Concurrency discipline (the cache is shared by parallel ``repro analyze``
processes, bench-executor workers, and the ``repro serve`` worker
threads):

* pickling raises the process-global recursion limit, so the whole
  raise/dump/restore is serialized on a module lock — without it two
  threads restore each other's limits mid-dump;
* the per-salt summary table is merge-and-replaced under an advisory
  ``fcntl.flock`` (with a bounded timeout) taken on a sidecar ``.lock``
  file: the merge re-reads the table from disk inside the lock, so two
  concurrent writers never lose each other's entries;
* torn, truncated, or otherwise unreadable entries degrade to a cache
  miss: the entry is unlinked (the store after recomputation rewrites
  it) and counted in the ``corrupt_entries`` counter;
* writers that crash between the temp write and the rename leave
  ``*.tmp.<pid>.*`` files behind; :func:`gc_stale_tmp` (run every time a
  cache is opened) removes any whose owning pid is gone or whose mtime
  is older than :data:`TMP_TTL_S`.
"""

from __future__ import annotations

import hashlib
import json
import os
import pickle
import sys
import threading
import time
from contextlib import contextmanager
from typing import Callable, Dict, List, Optional, Sequence, Tuple

try:
    import fcntl
except ImportError:  # pragma: no cover - non-POSIX platforms
    fcntl = None

from ..cfg import CallSchedule, build_schedule
from ..lang import ir
from ..obs import trace

# bump when the on-disk layout or the meaning of cached values changes
# (front 2: AST/IR nodes became slotted classes pickled positionally)
CACHE_SCHEMA = 1
_FRONT_SCHEMA = 2

# advisory-lock acquisition budget for the summary-table merge; on timeout
# the store is skipped (counted, never fatal — the summaries recompute)
LOCK_TIMEOUT_S = 10.0
LOCK_POLL_S = 0.02

# a temp file this much older than now is stale even if a process with the
# embedded pid still exists (pid reuse); writes finish in well under this
TMP_TTL_S = 3600.0


def _sha(text: str) -> str:
    return hashlib.sha256(text.encode("utf-8")).hexdigest()


def function_text(func: ir.LoweredFunction) -> str:
    """A canonical, whitespace-stable rendering of one lowered function.

    Covers everything the per-function dataflow reads from the IR: the
    signature, the declared locals with their types, and the structured
    body (branch conditions included).  Two functions with equal text are
    interchangeable for the summary solver given equal pointer results.
    """
    lines: List[str] = [
        f"func {func.name}({', '.join(func.params)})",
        f"ret {func.ret_type}",
        "locals " + ", ".join(
            f"{name}:{func.locals[name]}" for name in sorted(func.locals)
        ),
    ]

    def emit(instrs: Sequence[ir.Instr], depth: int) -> None:
        pad = "." * depth
        for instr in instrs:
            if isinstance(instr, ir.IIf):
                lines.append(f"{pad}if {instr.cond}")
                emit(instr.then, depth + 1)
                lines.append(f"{pad}else")
                emit(instr.orelse, depth + 1)
            elif isinstance(instr, ir.IWhile):
                lines.append(f"{pad}while {instr.cond}")
                emit(instr.body, depth + 1)
            elif isinstance(instr, ir.IAtomic):
                lines.append(f"{pad}atomic {instr.section_id}")
                emit(instr.body, depth + 1)
            else:
                lines.append(f"{pad}{instr}")

    emit(func.body, 0)
    return "\n".join(lines)


def cone_hashes(program: ir.LoweredProgram,
                schedule: CallSchedule) -> Dict[str, str]:
    """Per-function content hash of the function's whole SCC cone.

    Computed bottom-up over the condensation: a component's hash folds the
    canonical text of every member with the (sorted) hashes of the
    components it calls.  Every function of one SCC shares its component's
    hash — mutual recursion is one invalidation unit — and a function's
    hash changes iff its own IR or any transitive callee's IR changed.
    """
    scc_hash: List[str] = [""] * len(schedule.sccs)
    for idx, component in enumerate(schedule.sccs):
        parts = [function_text(program.functions[name]) for name in component]
        parts.extend(sorted(scc_hash[c] for c in schedule.scc_callees[idx]))
        scc_hash[idx] = _sha("\x00".join(parts))
    return {
        name: scc_hash[idx]
        for idx, component in enumerate(schedule.sccs)
        for name in component
    }


def pointer_fingerprint(pointsto) -> str:
    """Canonical digest of the Steensgaard result.

    Covers everything lock inference reads from the pointer analysis: the
    class of every variable, and per class its points-to class and field
    classes.  Class ids are the canonical walk-order numbering
    (:meth:`PointsTo._assign_class_ids`), so the fingerprint is a pure
    function of the program text — equal programs hash equal across
    processes and runs.  Memoized on the instance (and carried through
    the pickled front half): the result cannot change once the analysis
    has run.
    """
    cached = getattr(pointsto, "_fingerprint", None)
    if cached is not None:
        return cached
    class_ids = pointsto._class_ids
    var_part = sorted(
        (key, class_ids.get(ecr.find(), -1))
        for key, ecr in pointsto._vars.items()
    )
    class_part = []
    for cid in range(pointsto._next_class_id):
        ecr = pointsto.ecr_of_class_id(cid)
        if ecr is None:
            continue
        pts = ecr.pts.find() if ecr.pts is not None else None
        pts_id = class_ids.get(pts, -1) if pts is not None else -1
        fields = sorted(
            (name, class_ids.get(f.find(), -1))
            for name, f in ecr.fields.items()
        )
        class_part.append((cid, pts_id, fields))
    digest = _sha(repr((var_part, class_part)))
    pointsto._fingerprint = digest
    return digest


def analysis_salt(pointsto, k: int, use_effects: bool,
                  alias: str = "steensgaard") -> str:
    """The per-configuration component of every summary/section key.

    *alias* names the alias oracle (``LockInference(alias=...)``): an
    Andersen run can split a Steensgaard class, so the two never share
    summaries or section lock sets.
    """
    return _sha(
        f"schema={CACHE_SCHEMA};k={k};effects={use_effects};"
        f"alias={alias};pointer={pointer_fingerprint(pointsto)}"
    )


def _atomic_write(path: str, payload: bytes) -> None:
    with trace.timed("diskcache.write", "diskcache",
                     file=os.path.basename(path), bytes=len(payload)):
        os.makedirs(os.path.dirname(path), exist_ok=True)
        # pid first (so the GC can test liveness), thread id second (so two
        # server worker threads never write through the same temp file)
        tmp = f"{path}.tmp.{os.getpid()}.{threading.get_ident()}"
        with open(tmp, "wb") as handle:
            handle.write(payload)
        os.replace(tmp, path)


# ``sys.setrecursionlimit`` is process-global: the raise/dump/restore below
# must be one critical section, or a thread leaving its ``finally`` clause
# restores a low limit underneath a thread still mid-dump (and the last
# restorer leaves the raised limit behind for good).
_PICKLE_LOCK = threading.Lock()


def _pickle(value) -> bytes:
    # CFGs and ECR graphs are deep object webs; the pickler walks them
    # recursively, so give it headroom proportional to nothing in
    # particular but comfortably above any corpus function
    with _PICKLE_LOCK:
        limit = sys.getrecursionlimit()
        try:
            sys.setrecursionlimit(max(limit, 100_000))
            return pickle.dumps(value, protocol=pickle.HIGHEST_PROTOCOL)
        finally:
            sys.setrecursionlimit(limit)


class CacheLockTimeout(Exception):
    """The advisory file lock could not be acquired within the budget."""


@contextmanager
def _file_lock(path: str, timeout: float = LOCK_TIMEOUT_S):
    """Advisory exclusive lock on the sidecar ``<path>.lock``.

    ``flock`` is per open file description, so the lock excludes both
    other processes and other threads of this process (each call opens
    its own descriptor).  Acquisition polls ``LOCK_NB`` so a wedged
    holder cannot block a writer forever; :class:`CacheLockTimeout`
    fires after *timeout* seconds.  On platforms without ``fcntl`` the
    lock degrades to a no-op (single-writer semantics as before).
    """
    if fcntl is None:  # pragma: no cover - non-POSIX platforms
        yield
        return
    os.makedirs(os.path.dirname(path), exist_ok=True)
    handle = open(f"{path}.lock", "a+b")
    try:
        deadline = time.monotonic() + timeout
        while True:
            try:
                fcntl.flock(handle.fileno(), fcntl.LOCK_EX | fcntl.LOCK_NB)
                break
            except OSError:
                if time.monotonic() >= deadline:
                    raise CacheLockTimeout(
                        f"could not lock {path!r} within {timeout}s")
                time.sleep(LOCK_POLL_S)
        try:
            yield
        finally:
            fcntl.flock(handle.fileno(), fcntl.LOCK_UN)
    finally:
        handle.close()


def _tmp_pid(filename: str) -> Optional[int]:
    """The writer pid embedded in a temp-file name, if parseable."""
    marker = ".tmp."
    at = filename.rfind(marker)
    if at < 0:
        return None
    digits = filename[at + len(marker):].split(".", 1)[0]
    return int(digits) if digits.isdigit() else None


def _pid_alive(pid: int) -> bool:
    try:
        os.kill(pid, 0)
    except ProcessLookupError:
        return False
    except OSError:
        pass  # e.g. EPERM: the pid exists but belongs to someone else
    return True


def gc_stale_tmp(root: str, ttl_s: float = TMP_TTL_S) -> int:
    """Remove orphaned ``*.tmp.<pid>.*`` files under *root*.

    A crashed or killed writer never reaches its ``os.replace``, leaving
    the temp file behind forever.  A temp file is reclaimed when its
    owning pid no longer exists, or unconditionally once it is older
    than *ttl_s* (no write takes an hour; a live pid that old is reuse).
    Returns the number of files removed.
    """
    removed = 0
    now = time.time()
    for dirpath, _dirnames, filenames in os.walk(root):
        for filename in filenames:
            if ".tmp." not in filename:
                continue
            path = os.path.join(dirpath, filename)
            pid = _tmp_pid(filename)
            try:
                stale = (pid is None or not _pid_alive(pid)
                         or now - os.path.getmtime(path) > ttl_s)
                if stale:
                    os.unlink(path)
                    removed += 1
            except OSError:
                continue  # raced with its writer's rename, or already gone
    return removed


# corrupt entries seen by module-level readers (the front cache has no
# AnalysisDiskCache instance to count on); instance reads also feed this
_corrupt_seen = 0


def corrupt_entries_seen() -> int:
    """Process-wide count of cache entries dropped as corrupt."""
    return _corrupt_seen


def _read_pickle(path: Optional[str],
                 on_corrupt: Optional[Callable[[str], None]] = None):
    """Load a pickled entry; any unreadable entry degrades to a miss.

    A missing file is an ordinary miss.  Anything else — truncated write,
    foreign schema, unpicklable payload — counts as a *corrupt* entry:
    the file is unlinked so the post-recompute store rewrites it, the
    process-wide counter bumps, and *on_corrupt* (the per-instance stats
    hook) fires.  Never raises.
    """
    global _corrupt_seen
    if path is None:
        return None
    try:
        with trace.timed("diskcache.read", "diskcache",
                         file=os.path.basename(path)) as span:
            with open(path, "rb") as handle:
                payload = handle.read()
            span.attrs["bytes"] = len(payload)
            return pickle.loads(payload)
    except FileNotFoundError:
        return None
    except Exception:
        _corrupt_seen += 1
        if on_corrupt is not None:
            on_corrupt(path)
        try:
            os.unlink(path)
        except OSError:
            pass
        return None


class AnalysisDiskCache:
    """Summary/section store for one (program, pointer result, k, effects).

    Engine-facing surface: ``load_bundle`` / ``load_section`` /
    ``store_section`` (called from inside the solve) and ``store_dirty``
    (called once per run to persist whatever the solve changed).  The
    condensation the cone hashes were computed over rides along as
    ``schedule``, so the solver walks it instead of building a second one.
    """

    def __init__(self, root: str, cone: Dict[str, str], salt: str,
                 schedule: Optional[CallSchedule] = None) -> None:
        self.root = root
        self.cone = cone
        self.salt = salt
        self.schedule = schedule
        # the summary table file, read at most once per cache instance:
        # {func_name: (cone_hash, {summary_key: SummaryResult})}
        self._summ_table: Optional[Dict[str, Tuple[str, Dict]]] = None
        self.stats: Dict[str, int] = dict.fromkeys((
            "bundle_hits",
            "bundle_misses",
            "bundles_stored",
            "section_hits",
            "section_misses",
            "sections_stored",
            "corrupt_entries",
            "lock_timeouts",
        ), 0)

    # -- keys ----------------------------------------------------------

    def _summ_path(self) -> str:
        # one file per salt: the salt pins program configuration + pointer
        # structure, per-function cone hashes inside the table gate
        # staleness after pointer-preserving edits
        return os.path.join(self.root, "summ", f"{self.salt[:32]}.pkl")

    def _section_path(self, func_name: str, section_id: str) -> Optional[str]:
        cone = self.cone.get(func_name)
        if cone is None:
            return None
        digest = _sha(f"section;{func_name};{section_id};{cone};{self.salt}")
        return os.path.join(self.root, "sect", f"{digest[:32]}.pkl")

    def _on_corrupt(self, path: str) -> None:
        self.stats["corrupt_entries"] += 1
        if trace.get_tracer().enabled:
            trace.instant("cache-corrupt", "diskcache",
                          file=os.path.basename(path))

    def _read(self, path: Optional[str]):
        return _read_pickle(path, on_corrupt=self._on_corrupt)

    # -- summary bundles -----------------------------------------------

    def _table(self) -> Dict[str, Tuple[str, Dict]]:
        if self._summ_table is None:
            data = self._read(self._summ_path())
            self._summ_table = data if isinstance(data, dict) else {}
        return self._summ_table

    def load_bundle(self, func_name: str) -> Optional[Dict[tuple, object]]:
        record = self._table().get(func_name)
        if record is None or record[0] != self.cone.get(func_name):
            self.stats["bundle_misses"] += 1
            if trace.get_tracer().enabled:
                trace.instant(
                    "cache-bundle", "diskcache", func=func_name,
                    outcome="miss" if record is None else "stale")
            return None
        self.stats["bundle_hits"] += 1
        if trace.get_tracer().enabled:
            trace.instant("cache-bundle", "diskcache", func=func_name,
                          outcome="hit", entries=len(record[1]))
        return dict(record[1])

    def store_dirty(self, engine, *, items=None, dirty_funcs=None) -> int:
        """Persist the bundles of every function the solve changed.

        Loaded-and-unchanged functions keep their existing record; a
        function whose table gained or moved entries — including freshly
        computed ones — is rewritten into the (single, per-salt) summary
        file, which is written once per call.

        The merge-and-replace holds the per-salt advisory file lock and
        re-reads the on-disk table inside it: a concurrent writer (a
        second ``repro analyze`` process or another server worker) that
        landed since this cache instance first read the table keeps its
        entries — an unlocked read-modify-write would silently drop them.
        Entries this instance loaded earlier are still on disk (nothing
        deletes them), so fresh-read-plus-dirty-merge loses nothing.
        On lock timeout the store is skipped and counted; the summaries
        simply recompute next run.

        *items*/*dirty_funcs* override the engine's live table with a
        safe-point snapshot (``engine.converged_snapshot()``): persisted
        bundles are treated as final and never recomputed, so a partial
        (budget-exhausted) unwind or a mid-run checkpoint must only flush
        summaries captured with the worklist drained — live mid-fixpoint
        values are below the fixpoint and would poison future runs.
        """
        if items is None:
            items = engine.summary_items()
        if dirty_funcs is None:
            dirty_funcs = engine.dirty_funcs
        per_func: Dict[str, Dict[tuple, object]] = {}
        for key, value in items:
            per_func.setdefault(key[1], {})[key] = value
        dirty: Dict[str, Tuple[str, Dict]] = {}
        for func_name in sorted(dirty_funcs):
            entries = per_func.get(func_name)
            cone = self.cone.get(func_name)
            if entries and cone is not None:
                dirty[func_name] = (cone, dict(entries))
        if not dirty:
            return 0
        path = self._summ_path()
        try:
            with _file_lock(path):
                on_disk = _read_pickle(path, on_corrupt=self._on_corrupt)
                table = on_disk if isinstance(on_disk, dict) else {}
                table.update(dirty)
                _atomic_write(path, _pickle(table))
        except CacheLockTimeout:
            self.stats["lock_timeouts"] += 1
            return 0
        self._summ_table = table
        self.stats["bundles_stored"] += len(dirty)
        return len(dirty)

    # -- section locks -------------------------------------------------

    def load_section(self, func_name: str, section_id: str):
        locks = self._read(self._section_path(func_name, section_id))
        outcome = "miss" if locks is None else "hit"
        if trace.get_tracer().enabled:
            trace.instant("cache-section", "diskcache", func=func_name,
                          section=section_id, outcome=outcome)
        if locks is None:
            self.stats["section_misses"] += 1
            return None
        self.stats["section_hits"] += 1
        return locks

    def store_section(self, func_name: str, section_id: str, locks) -> None:
        path = self._section_path(func_name, section_id)
        if path is None:
            return
        _atomic_write(path, _pickle(locks))
        self.stats["sections_stored"] += 1

    # -- checkpoint progress cursor ------------------------------------

    def _progress_path(self) -> str:
        # keyed by the same salt as the summary table: a cursor is only
        # meaningful against the bundles it was written with
        return os.path.join(self.root, "progress", f"{self.salt[:32]}.json")

    def store_progress(self, **fields) -> None:
        """Atomically rewrite the ``progress.json`` cursor.

        Human-readable JSON, written tmp+rename like everything else, so
        a SIGKILL leaves either the old cursor or the new one — never a
        torn file.  The cursor is advisory (resume correctness comes from
        the cone-hashed bundles themselves); it records where the last
        checkpoint landed for observability and the resume event.
        """
        record = {"v": 1, "salt": self.salt[:32], "ts": time.time()}
        record.update(fields)
        payload = (json.dumps(record, sort_keys=True) + "\n").encode("utf-8")
        _atomic_write(self._progress_path(), payload)

    def load_progress(self) -> Optional[Dict]:
        """The last checkpoint cursor, or ``None`` (missing/corrupt/stale
        salt — all equivalent: start from what the bundles provide)."""
        try:
            with open(self._progress_path(), encoding="utf-8") as handle:
                record = json.load(handle)
        except (OSError, ValueError):
            return None
        if not isinstance(record, dict) or record.get("salt") != self.salt[:32]:
            return None
        return record

    def clear_progress(self) -> None:
        """Drop the cursor after an uninterrupted completion."""
        try:
            os.unlink(self._progress_path())
        except OSError:
            pass


def open_cache(root: str, program, pointsto, k: int, use_effects: bool,
               schedule=None,
               alias: str = "steensgaard") -> AnalysisDiskCache:
    """Build the cache view for one analysis configuration."""
    if schedule is None:
        schedule = build_schedule(program)
    analysis_root = os.path.join(root, "analysis")
    if os.path.isdir(analysis_root):
        # reclaim temp files orphaned by crashed/killed writers before any
        # of this run's own writes land
        gc_stale_tmp(analysis_root)
    return AnalysisDiskCache(
        analysis_root,
        cone_hashes(program, schedule),
        analysis_salt(pointsto, k, use_effects, alias),
        schedule,
    )


# ---------------------------------------------------------------------------
# front-half cache (parse + lower + CFGs + pointer analysis)
# ---------------------------------------------------------------------------


def _front_path(root: str, source: str) -> str:
    digest = _sha(f"front;schema={_FRONT_SCHEMA};{source}")
    return os.path.join(root, "analysis", "front", f"{digest[:32]}.pkl")


def load_front(root: str, source: str) -> Optional[Tuple]:
    """Load ``(program, cfgs, pointsto)`` for *source*, or ``None``.

    A corrupt front entry (torn write, foreign pickle) is a miss: the
    caller recomputes and :func:`store_front` rewrites it.
    """
    return _read_pickle(_front_path(root, source))


def store_front(root: str, source: str, program, cfgs, pointsto) -> None:
    _atomic_write(_front_path(root, source),
                  _pickle((program, cfgs, pointsto)))
