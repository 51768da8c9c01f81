"""Process-global tracer: nested spans on two clocks, no-ops when disabled.

Spans are measured with the monotonic ``time.perf_counter`` (clock
``"wall"``) or with the simulator's tick counter (clock ``"ticks"``; the
scheduler publishes the current tick on :attr:`Tracer.now_ticks` each
iteration while tracing is on).  Finished spans become flat envelope
records (see :mod:`repro.obs.events`) buffered in the tracer; ``drain()``
hands them over — worker processes drain into their result payloads and
the coordinator re-adopts them, so one JSONL stream ends up with spans
from every process of a sweep.

Disabled tracing is the default and is engineered to cost almost nothing:
``span(...)`` returns one shared no-op context manager (no allocation),
and every emit helper starts with a single ``enabled`` attribute test.
``timed(...)`` is the exception — it always measures (its ``duration``
feeds :class:`~repro.inference.analysis.AnalysisProfile` phase timers)
but only records a span when tracing is on.
"""

from __future__ import annotations

import os
import threading
import time
from typing import Dict, List, Optional

from .events import envelope

__all__ = [
    "Tracer",
    "get_tracer",
    "configure",
    "span",
    "timed",
    "instant",
]


def _jsonable(value):
    if value is None or isinstance(value, (bool, int, float, str)):
        return value
    if isinstance(value, (list, tuple)):
        return [_jsonable(item) for item in value]
    if isinstance(value, dict):
        return {str(k): _jsonable(v) for k, v in value.items()}
    return str(value)


class _NoopSpan:
    """Shared do-nothing context manager returned while tracing is off."""

    __slots__ = ()

    def __enter__(self):
        return self

    def __exit__(self, *exc):
        return False


_NOOP = _NoopSpan()


class _SpanHandle:
    """An open span; records itself on exit if it was entered live."""

    __slots__ = ("_tracer", "name", "cat", "attrs", "start", "duration",
                 "_live", "_depth")

    def __init__(self, tracer: "Tracer", name: str, cat: str,
                 attrs: Dict[str, object]) -> None:
        self._tracer = tracer
        self.name = name
        self.cat = cat
        self.attrs = attrs
        self.start = 0.0
        self.duration = 0.0
        self._live = False
        self._depth = 0

    def __enter__(self) -> "_SpanHandle":
        tracer = self._tracer
        if tracer.enabled:
            self._live = True
            local = tracer._local
            self._depth = local.depth = getattr(local, "depth", 0) + 1
        self.start = time.perf_counter()
        return self

    def __exit__(self, *exc) -> bool:
        self.duration = time.perf_counter() - self.start
        if self._live:
            tracer = self._tracer
            tracer._local.depth -= 1
            tracer._record(envelope(
                "span", name=self.name, cat=self.cat, clock="wall",
                start=self.start, dur=self.duration,
                track=threading.get_ident(), proc=os.getpid(),
                depth=self._depth, attrs=_jsonable(self.attrs),
            ))
        return False


class Tracer:
    """Buffer of envelope records behind an ``enabled`` switch."""

    def __init__(self) -> None:
        self.enabled = False
        #: current simulator tick, published by the scheduler's run loop
        #: while tracing is enabled; tick-clock emit helpers default to it.
        self.now_ticks = 0
        self._records: List[Dict[str, object]] = []
        self._lock = threading.Lock()
        self._local = threading.local()

    # -- lifecycle ----------------------------------------------------------

    def configure(self, enabled: bool) -> None:
        self.enabled = bool(enabled)

    def reset(self) -> None:
        with self._lock:
            self._records = []
        self.now_ticks = 0

    def drain(self) -> List[Dict[str, object]]:
        """Return all buffered records and clear the buffer."""
        with self._lock:
            records, self._records = self._records, []
        return records

    def adopt(self, records) -> None:
        """Append records drained elsewhere (e.g. in a worker process)."""
        with self._lock:
            self._records.extend(records)

    def _record(self, record: Dict[str, object]) -> None:
        with self._lock:
            self._records.append(record)

    # -- wall-clock spans ---------------------------------------------------

    def span(self, name: str, cat: str = "", **attrs: object):
        """Nested wall-clock span; no-op (and allocation-free) if disabled."""
        if not self.enabled:
            return _NOOP
        return _SpanHandle(self, name, cat, attrs)

    def timed(self, name: str, cat: str = "", **attrs: object) -> _SpanHandle:
        """Span that always measures ``duration``; records only if enabled."""
        return _SpanHandle(self, name, cat, attrs)

    def instant(self, name: str, cat: str = "", **attrs: object) -> None:
        if not self.enabled:
            return
        self._record(envelope(
            "instant", name=name, cat=cat, clock="wall",
            at=time.perf_counter(), track=threading.get_ident(),
            proc=os.getpid(), attrs=_jsonable(attrs),
        ))

    # -- tick-clock spans (simulator time) ----------------------------------

    def begin_section(self, track: int, name: str,
                      **attrs: object) -> Optional[Dict[str, object]]:
        """Open a tick-clock span; returns a token for :meth:`end_section`."""
        if not self.enabled:
            return None
        return {"track": track, "name": name, "start": self.now_ticks,
                "attrs": dict(attrs)}

    def end_section(self, token: Optional[Dict[str, object]],
                    **attrs: object) -> None:
        if token is None or not self.enabled:
            return
        merged = dict(token["attrs"])
        merged.update(attrs)
        self.tick_span(token["track"], token["name"],
                       token["start"], self.now_ticks, **merged)

    def tick_span(self, track: int, name: str, start: int, end: int,
                  cat: str = "sim", **attrs: object) -> None:
        """Record a completed span on the simulator tick clock."""
        if not self.enabled:
            return
        self._record(envelope(
            "span", name=name, cat=cat, clock="ticks",
            start=int(start), dur=max(0, int(end) - int(start)),
            track=track, proc=os.getpid(), depth=1,
            attrs=_jsonable(attrs),
        ))

    def sample(self, name: str, values: Dict[str, object],
               clock: str = "ticks", track: int = 0,
               at: Optional[float] = None) -> None:
        """Record one counter sample (renders as a Chrome counter track)."""
        if not self.enabled:
            return
        if at is None:
            at = self.now_ticks if clock == "ticks" else time.perf_counter()
        self._record(envelope(
            "counter", name=name, clock=clock, at=at, track=track,
            proc=os.getpid(), values=_jsonable(values),
        ))

    def event(self, record: Dict[str, object]) -> None:
        """Adopt an already-built envelope record (e.g. a checkpoint)."""
        if not self.enabled:
            return
        self._record(record)


_TRACER = Tracer()


def get_tracer() -> Tracer:
    """The process-global tracer (forked workers inherit their own copy)."""
    return _TRACER


def configure(enabled: bool) -> Tracer:
    _TRACER.configure(enabled)
    return _TRACER


def span(name: str, cat: str = "", **attrs: object):
    if not _TRACER.enabled:
        return _NOOP
    return _SpanHandle(_TRACER, name, cat, attrs)


def timed(name: str, cat: str = "", **attrs: object) -> _SpanHandle:
    return _SpanHandle(_TRACER, name, cat, attrs)


def instant(name: str, cat: str = "", **attrs: object) -> None:
    if _TRACER.enabled:
        _TRACER.instant(name, cat, **attrs)
