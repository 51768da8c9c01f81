"""Versioned event envelope v1: one schema for every JSONL stream.

Every record the repo emits — executor lifecycle, resilience runtime,
chaos harness, tracer spans — is a flat JSON object carrying the same
envelope fields:

* ``v``      — schema version (``SCHEMA_VERSION``);
* ``event``  — the kind, one of :data:`EVENT_KINDS`;
* ``source`` — which subsystem emitted it;
* ``ts``     — wall-clock seconds since the epoch at emission time;

plus the kind's payload fields, *flat* alongside the envelope (that keeps
v1 a strict superset of the pre-envelope formats: old consumers that read
``record["event"]`` / ``record["ticks"]`` keep working unchanged).  Extra
fields beyond a kind's required set are allowed — the chaos harness tags
``program``/``fault``/``seed`` context onto resilience events.

Nothing in the repo writes or reads any other version: a record whose
``v`` is not ``SCHEMA_VERSION`` is rejected where it is loaded
(:func:`repro.obs.export.load_events`), not upgraded.
"""

from __future__ import annotations

import json
import os
import time
from typing import Dict, Optional

__all__ = [
    "SCHEMA_VERSION",
    "EVENT_KINDS",
    "EventKind",
    "SchemaError",
    "envelope",
    "validate_event",
    "EventWriter",
]

SCHEMA_VERSION = 1

_NUM = (int, float)
_STR = (str,)
_INT = (int,)
_BOOL = (bool,)
_LIST = (list,)
_DICT = (dict,)


class SchemaError(ValueError):
    """A record does not validate against the envelope schema."""


class EventKind:
    """Schema of one event kind: its source and required payload fields."""

    __slots__ = ("name", "source", "required")

    def __init__(self, name: str, source: str,
                 required: Optional[Dict[str, tuple]] = None) -> None:
        self.name = name
        self.source = source
        self.required = dict(required or {})


def _kinds(source: str, table: Dict[str, Dict[str, tuple]]):
    return {name: EventKind(name, source, req) for name, req in table.items()}


# Required payload fields per kind.  Validation is *open*: extra fields are
# always allowed, so context tagging (chaos) and future additions don't
# break old validators.  ``ticks`` in cell-finish/cache-hit may be null for
# non-simulation results, hence no type pin there.
EVENT_KINDS: Dict[str, EventKind] = {}
EVENT_KINDS.update(_kinds("executor", {
    "sweep-start": {"cells": _INT, "jobs": _INT, "resume": _BOOL},
    "cell-start": {"cell": _DICT, "label": _STR, "config": _STR,
                   "threads": _INT, "attempt": _INT},
    "cell-finish": {"cell": _DICT, "label": _STR, "config": _STR,
                    "threads": _INT, "attempt": _INT, "duration_s": _NUM},
    "cell-error": {"cell": _DICT, "label": _STR, "config": _STR,
                   "threads": _INT, "attempt": _INT, "will_retry": _BOOL},
    "cache-hit": {"cell": _DICT, "label": _STR, "config": _STR,
                  "threads": _INT, "key": _STR},
    "sweep-end": {"cells": _INT, "ok": _INT, "errors": _INT,
                  "cached": _INT, "duration_s": _NUM},
}))
EVENT_KINDS.update(_kinds("resilience", {
    "degrade-global": {"tick": _INT},
    "degrade-section": {"tick": _INT, "section": _STR},
    "restore-section": {"tick": _INT, "section": _STR},
    "restore-global": {"tick": _INT},
    "recovered": {"tick": _INT, "tid": _INT, "section": _STR},
    "rollback": {"tick": _INT, "tid": _INT, "section": _STR},
    "retry": {"tick": _INT, "tid": _INT, "section": _STR, "attempts": _INT},
    "deadlock-detected": {"tick": _INT, "cycle": _LIST},
    "lock-reclaim": {"tick": _INT, "tid": _INT, "nodes": _INT},
    "lease-expired": {"tick": _INT, "tid": _INT},
    "probe": {"tick": _INT, "section": _STR, "tid": _INT},
}))
EVENT_KINDS.update(_kinds("chaos", {
    "canary": {"program": _STR},
}))
EVENT_KINDS.update(_kinds("serve", {
    "serve-start": {"socket": _STR, "max_inflight": _INT,
                    "queue_depth": _INT},
    "serve-stop": {"requests": _INT, "drained": _BOOL},
    "request-start": {"req": _STR, "kind": _STR},
    "request-finish": {"req": _STR, "kind": _STR, "duration_s": _NUM,
                       "served": _STR},
    "request-error": {"req": _STR, "kind": _STR, "error": _STR,
                      "duration_s": _NUM},
    "serve-warm": {"socket": _STR, "entries": _INT},
}))
EVENT_KINDS.update(_kinds("tracer", {
    "span": {"name": _STR, "clock": _STR, "start": _NUM, "dur": _NUM,
             "track": (int, str), "depth": _INT},
    "instant": {"name": _STR, "clock": _STR, "at": _NUM, "track": (int, str)},
    "counter": {"name": _STR, "clock": _STR, "at": _NUM,
                "track": (int, str), "values": _DICT},
    "metrics": {"snapshot": _DICT},
}))
EVENT_KINDS.update(_kinds("inference", {
    # anytime analysis: a budget axis was spent and sections degraded to
    # the global lock; checkpoint/resume cursors of the solver's walk
    "budget-exhausted": {"reason": _STR, "degraded": _INT},
    "checkpoint": {"level": _INT, "bundles": _INT},
    "resume": {"level": _INT, "levels_skipped": _INT},
}))


def envelope(kind: str, /, ts: Optional[float] = None,
             **payload: object) -> Dict[str, object]:
    """Build a v1 record for *kind*; payload fields land flat in the dict.

    *kind* is positional-only so a payload may itself carry a ``kind``
    field (the serve request events do)."""
    spec = EVENT_KINDS.get(kind)
    if spec is None:
        raise SchemaError(f"unknown event kind {kind!r}")
    record: Dict[str, object] = {
        "v": SCHEMA_VERSION,
        "event": kind,
        "source": spec.source,
        "ts": round(time.time(), 3) if ts is None else ts,
    }
    record.update(payload)
    if __debug__:
        validate_event(record)
    return record


def validate_event(record: Dict[str, object]) -> None:
    """Raise :class:`SchemaError` unless *record* is a valid v1 envelope."""
    if not isinstance(record, dict):
        raise SchemaError(f"event must be a dict, got {type(record).__name__}")
    version = record.get("v")
    if version != SCHEMA_VERSION:
        raise SchemaError(f"unsupported schema version {version!r}")
    kind = record.get("event")
    spec = EVENT_KINDS.get(kind) if isinstance(kind, str) else None
    if spec is None:
        raise SchemaError(f"unknown event kind {kind!r}")
    if record.get("source") != spec.source:
        raise SchemaError(
            f"{kind}: source {record.get('source')!r}, "
            f"expected {spec.source!r}")
    if not isinstance(record.get("ts"), _NUM):
        raise SchemaError(f"{kind}: missing/non-numeric ts")
    for field, types in spec.required.items():
        if field not in record:
            raise SchemaError(f"{kind}: missing required field {field!r}")
        value = record[field]
        if value is not None and not isinstance(value, types):
            raise SchemaError(
                f"{kind}: field {field!r} has type "
                f"{type(value).__name__}, expected "
                f"{'/'.join(t.__name__ for t in types)}")


class EventWriter:
    """Appends envelope records to a JSONL file, one object per line."""

    def __init__(self, path: str) -> None:
        directory = os.path.dirname(os.path.abspath(path))
        os.makedirs(directory, exist_ok=True)
        self.path = path
        self._handle = open(path, "a")

    def write(self, record: Dict[str, object]) -> None:
        self._handle.write(json.dumps(record, sort_keys=True) + "\n")
        self._handle.flush()

    def write_all(self, records) -> None:
        for record in records:
            self.write(record)

    def close(self) -> None:
        if self._handle is not None:
            self._handle.close()
            self._handle = None

    def __enter__(self) -> "EventWriter":
        return self

    def __exit__(self, *exc) -> None:
        self.close()
