"""Exporters: envelope JSONL -> Chrome trace JSON or a text flame summary.

The Chrome exporter emits the ``{"traceEvents": [...]}`` JSON that both
``chrome://tracing`` and https://ui.perfetto.dev open directly.  The two
span clocks become separate *processes* in the trace so they get separate
timelines: every (os process, clock) pair maps to one Chrome pid, every
span track (OS thread for wall spans, simulator thread id for tick spans)
to one tid.  Wall timestamps are normalised to the earliest span and
scaled to microseconds; tick timestamps use one microsecond per tick.

The text summary is the terminal-friendly rendering: wall-clock time per
span name (the per-phase flame profile) and, on the tick clock, per-section
open time with the share of ticks spent blocked per lock node — the
"section s blocked 41% of ticks on lock ℓ" correlation, joined with the
``locks-chosen`` instants the inference engine emits.
"""

from __future__ import annotations

import json
from collections import defaultdict
from typing import Dict, Iterable, List, Tuple

from .events import SCHEMA_VERSION, SchemaError, validate_event

__all__ = ["load_events", "to_chrome", "summarize"]


def load_events(path: str, validate: bool = False) -> List[Dict[str, object]]:
    """Load a v1 JSONL event stream.

    Fails closed: a line that is not a JSON object stamped with
    ``SCHEMA_VERSION`` raises :class:`SchemaError` naming the line.
    """
    events = []
    with open(path) as handle:
        for number, line in enumerate(handle, 1):
            line = line.strip()
            if not line:
                continue
            try:
                record = json.loads(line)
            except ValueError as err:
                raise SchemaError(
                    f"{path}:{number}: not a JSON record ({err})") from None
            version = record.get("v") if isinstance(record, dict) else None
            if version != SCHEMA_VERSION:
                raise SchemaError(
                    f"{path}:{number}: schema version {version!r}, "
                    f"expected {SCHEMA_VERSION}")
            if validate:
                validate_event(record)
            events.append(record)
    return events


# ---------------------------------------------------------------------------
# Chrome trace (Perfetto) export
# ---------------------------------------------------------------------------


class _IdMap:
    """Dense small-integer ids for arbitrary hashable keys."""

    def __init__(self, start: int = 1) -> None:
        self._ids: Dict[object, int] = {}
        self._start = start

    def get(self, key: object) -> int:
        if key not in self._ids:
            self._ids[key] = self._start + len(self._ids)
        return self._ids[key]

    def items(self):
        return self._ids.items()


def to_chrome(events: Iterable[Dict[str, object]]) -> Dict[str, object]:
    """Convert envelope events to a Chrome/Perfetto trace dict."""
    tracer_kinds = ("span", "instant", "counter")
    records = [e for e in events if e.get("event") in tracer_kinds]

    wall_starts = [e["start"] for e in records
                   if e["event"] == "span" and e.get("clock") == "wall"]
    wall_starts += [e["at"] for e in records
                    if e["event"] in ("instant", "counter")
                    and e.get("clock") == "wall"]
    wall_origin = min(wall_starts) if wall_starts else 0.0

    pids = _IdMap()
    tids = _IdMap()
    trace_events: List[Dict[str, object]] = []

    def _us(record: Dict[str, object], value: float) -> float:
        if record.get("clock") == "ticks":
            return float(value)  # 1 tick == 1 us
        return (float(value) - wall_origin) * 1e6

    for record in records:
        proc = record.get("proc", 0)
        clock = record.get("clock", "wall")
        track = record.get("track", 0)
        pid = pids.get((proc, clock))
        tid = tids.get((proc, clock, track))
        base = {
            "name": record.get("name", ""),
            "cat": record.get("cat") or record.get("source", "trace"),
            "pid": pid,
            "tid": tid,
        }
        args = dict(record.get("attrs") or {})
        kind = record["event"]
        if kind == "span":
            base.update(ph="X", ts=_us(record, record["start"]),
                        dur=max(_us(record, record["start"] + record["dur"])
                                - _us(record, record["start"]), 0.0),
                        args=args)
        elif kind == "instant":
            base.update(ph="i", ts=_us(record, record["at"]), s="t",
                        args=args)
        else:  # counter
            base.update(ph="C", ts=_us(record, record["at"]),
                        args=dict(record.get("values") or {}))
        trace_events.append(base)

    metadata: List[Dict[str, object]] = []
    for (proc, clock), pid in sorted(pids.items(), key=lambda kv: kv[1]):
        label = "sim ticks" if clock == "ticks" else "wall clock"
        metadata.append({"ph": "M", "name": "process_name", "pid": pid,
                         "tid": 0, "args": {"name": f"{label} (proc {proc})"}})
    for (proc, clock, track), tid in sorted(tids.items(),
                                            key=lambda kv: kv[1]):
        pid = pids.get((proc, clock))
        name = f"T{track}" if clock == "ticks" else f"thread-{track}"
        metadata.append({"ph": "M", "name": "thread_name", "pid": pid,
                         "tid": tid, "args": {"name": name}})

    return {
        "traceEvents": metadata + trace_events,
        "displayTimeUnit": "ms",
        "otherData": {"schema": "repro-envelope-v1",
                      "tick_unit": "1 tick = 1us on sim-ticks processes"},
    }


# ---------------------------------------------------------------------------
# text flame summary
# ---------------------------------------------------------------------------


def _wall_table(records) -> List[str]:
    per_name: Dict[Tuple[str, str], List[float]] = defaultdict(list)
    for record in records:
        per_name[(record.get("cat", ""), record["name"])].append(
            float(record["dur"]))
    if not per_name:
        return []
    lines = ["== wall clock: time per span ==",
             f"{'span':34s} {'count':>6s} {'total_s':>9s} "
             f"{'mean_ms':>9s} {'max_ms':>9s}"]
    ordered = sorted(per_name.items(), key=lambda kv: -sum(kv[1]))
    for (cat, name), durs in ordered:
        label = f"{name} [{cat}]" if cat else name
        total = sum(durs)
        lines.append(f"{label[:34]:34s} {len(durs):6d} {total:9.4f} "
                     f"{1e3 * total / len(durs):9.3f} "
                     f"{1e3 * max(durs):9.3f}")
    return lines


def _section_table(events, tick_spans) -> List[str]:
    sections: Dict[Tuple[object, str], Dict[str, object]] = {}
    blocked: Dict[Tuple[object, str], Dict[Tuple[str, str], int]] = \
        defaultdict(lambda: defaultdict(int))
    chosen: Dict[str, List[object]] = {}

    for record in events:
        if record.get("event") == "instant" \
                and record.get("name") == "locks-chosen":
            attrs = record.get("attrs") or {}
            chosen[str(attrs.get("section"))] = attrs.get("locks", [])

    for record in tick_spans:
        attrs = record.get("attrs") or {}
        name = record["name"]
        proc = record.get("proc", 0)
        if name.startswith("section:"):
            key = (proc, name[len("section:"):])
            entry = sections.setdefault(key, {"runs": 0, "ticks": 0,
                                              "tracks": set()})
            entry["runs"] += 1
            entry["ticks"] += int(record["dur"])
            entry["tracks"].add(record.get("track"))
        elif name == "blocked":
            section = str(attrs.get("section"))
            node = (str(attrs.get("node")), str(attrs.get("mode", "")))
            blocked[(proc, section)][node] += int(record["dur"])

    if not sections:
        return []
    lines = ["", "== sim ticks: per-section open/blocked time =="]
    for (proc, section), entry in sorted(
            sections.items(), key=lambda kv: (-kv[1]["ticks"], str(kv[0]))):
        locks = chosen.get(section)
        lock_note = f"  locks={locks}" if locks else ""
        lines.append(
            f"section {section} (proc {proc}): {entry['runs']} runs on "
            f"{len(entry['tracks'])} threads, {entry['ticks']} ticks open"
            f"{lock_note}")
        open_ticks = max(entry["ticks"], 1)
        for (node, mode), ticks in sorted(
                blocked.get((proc, section), {}).items(),
                key=lambda kv: -kv[1]):
            suffix = f"[{mode}]" if mode else ""
            lines.append(
                f"    blocked on {node}{suffix}: {ticks} ticks "
                f"({100.0 * ticks / open_ticks:.1f}% of open)")
    return lines


def summarize(events: Iterable[Dict[str, object]]) -> str:
    """Render the per-phase / per-lock flame summary as text."""
    events = list(events)
    spans = [e for e in events if e.get("event") == "span"]
    wall = [e for e in spans if e.get("clock") == "wall"]
    ticks = [e for e in spans if e.get("clock") == "ticks"]
    instants = [e for e in events if e.get("event") == "instant"]

    lines: List[str] = []
    counts: Dict[Tuple[str, str], int] = defaultdict(int)
    for event in events:
        counts[(str(event.get("source", "?")), str(event.get("event")))] += 1
    lines.append("== events ==")
    for (source, kind), n in sorted(counts.items()):
        lines.append(f"{source:12s} {kind:20s} {n:6d}")

    wall_lines = _wall_table(wall)
    if wall_lines:
        lines.append("")
        lines.extend(wall_lines)
    lines.extend(_section_table(instants, ticks))
    return "\n".join(lines)
