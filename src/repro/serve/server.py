"""Long-lived analysis service: warm fronts, memoized results, bounded pool.

:class:`AnalysisServer` keeps the expensive halves of the pipeline resident
across requests:

* an :class:`~repro.inference.memo.AnalysisMemo`: the front half per
  source (a repeat request skips parse/lower/CFG/pointer), and per
  ``(source_hash, k, use_effects)`` the result with its payload and pickle
  encoded once — a repeat request costs a lookup (``served: "memo"``);
* the process's :class:`AnalysisDiskCache` state stays warm, so even a
  flushed server re-serves summaries from disk (``served: "warm"`` when
  the solve ran zero dataflow steps, ``"computed"`` otherwise).

Requests arrive over a Unix domain socket (or TCP) framed by
:mod:`repro.serve.protocol`.  ``analyze`` requests flow through a bounded
queue drained by ``max_inflight`` worker threads; a full queue answers
immediately with a structured ``backpressure`` error rather than stalling
the connection.  Each request is bounded by a wall-clock deadline enforced
cooperatively inside the solver (:mod:`repro.sim.deadline` — the engine's
worklist polls it), is traced as a ``serve:<req-id>`` wall span, and feeds
the server's per-kind counters and latency histograms, which ``status``
reports.

``status``/``flush``/``shutdown`` are O(1) and handled inline on the
connection thread.  SIGTERM/SIGINT (wired by the CLI) trigger a graceful
drain: the listener closes, queued requests finish, then the server emits
``serve-stop`` with ``drained: true``.
"""

from __future__ import annotations

import base64
import dataclasses
import os
import queue
import socket
import threading
import time
from typing import Callable, Dict, Optional

from ..inference.memo import AnalysisMemo
from ..lang import SourceError
from ..obs import trace
from ..obs.events import EventWriter, envelope
from ..obs.metrics import Histogram
from ..sim.deadline import DeadlineExceeded, clear_deadline, set_deadline
from . import protocol

DEFAULT_MAX_INFLIGHT = 2
DEFAULT_QUEUE_DEPTH = 8
#: per-request wall-clock budget when neither the server nor the request
#: pins one; generous — the corpus analyzes in milliseconds
DEFAULT_DEADLINE_S = 60.0


class AnalysisServer:
    """One resident analysis process serving framed requests.

    *analyzer* is injectable for tests: ``analyzer(source, k, use_effects)
    -> dict payload`` replaces the real pipeline (e.g. a sleeper, to make
    backpressure deterministic).  The default analyzer implements the
    warm-state contract documented on the module.
    """

    def __init__(
        self,
        socket_path: Optional[str] = None,
        host: Optional[str] = None,
        port: int = 0,
        cache_dir: Optional[str] = None,
        max_inflight: int = DEFAULT_MAX_INFLIGHT,
        queue_depth: int = DEFAULT_QUEUE_DEPTH,
        deadline_s: Optional[float] = DEFAULT_DEADLINE_S,
        events_path: Optional[str] = None,
        analyzer: Optional[Callable[[str, int, bool], Dict[str, object]]]
        = None,
    ) -> None:
        if socket_path is None and host is None:
            raise ValueError("need a --socket path or a --host/--port pair")
        self.socket_path = socket_path
        self.host = host
        self.port = port
        self.max_inflight = max(1, max_inflight)
        self.queue_depth = max(1, queue_depth)
        self.deadline_s = deadline_s
        self._analyzer = analyzer

        self._events: Optional[EventWriter] = (
            EventWriter(events_path) if events_path else None)
        self._events_lock = threading.Lock()

        self._memo = AnalysisMemo(cache_dir)

        self._queue: "queue.Queue" = queue.Queue(maxsize=self.queue_depth)
        self._workers = []
        self._listener: Optional[socket.socket] = None
        self._acceptor: Optional[threading.Thread] = None
        self._conns = set()
        self._conns_lock = threading.Lock()
        self._shutting_down = threading.Event()
        self._stopped = threading.Event()
        # requests handled by kind, analyze responses by provenance
        # (memo/warm/computed), error responses by protocol error code,
        # and request wall-clock latency in seconds by kind; connection
        # and worker threads update them under the one lock
        self._requests: Dict[str, int] = {}
        self._served: Dict[str, int] = {}
        self._errors: Dict[str, int] = {}
        self._latency: Dict[str, Histogram] = {}
        self._count_lock = threading.Lock()

    # -- lifecycle -----------------------------------------------------

    @property
    def address(self) -> str:
        if self.socket_path is not None:
            return self.socket_path
        return f"{self.host}:{self.port}"

    def start(self) -> None:
        """Bind the listener and start the worker pool + acceptor."""
        if self.socket_path is not None:
            listener = socket.socket(socket.AF_UNIX, socket.SOCK_STREAM)
            try:
                os.unlink(self.socket_path)
            except OSError:
                pass
            listener.bind(self.socket_path)
        else:
            listener = socket.socket(socket.AF_INET, socket.SOCK_STREAM)
            listener.setsockopt(socket.SOL_SOCKET, socket.SO_REUSEADDR, 1)
            listener.bind((self.host, self.port))
            self.port = listener.getsockname()[1]
        listener.listen(16)
        self._listener = listener
        for n in range(self.max_inflight):
            worker = threading.Thread(target=self._worker_loop,
                                      name=f"serve-worker-{n}", daemon=True)
            worker.start()
            self._workers.append(worker)
        self._acceptor = threading.Thread(target=self._accept_loop,
                                          name="serve-accept", daemon=True)
        self._acceptor.start()
        self._emit(envelope("serve-start", socket=self.address,
                            max_inflight=self.max_inflight,
                            queue_depth=self.queue_depth))

    def serve_forever(self) -> None:
        """:meth:`start` then block until a shutdown completes."""
        if self._listener is None:
            self.start()
        self._stopped.wait()

    def initiate_shutdown(self) -> None:
        """Begin a graceful drain; safe to call from a signal handler."""
        if self._shutting_down.is_set():
            return
        self._shutting_down.set()
        # a drainer thread does the blocking work so signal handlers return
        threading.Thread(target=self._drain, name="serve-drain",
                         daemon=True).start()

    def _drain(self) -> None:
        if self._listener is not None:
            try:
                self._listener.close()
            except OSError:
                pass
        # sentinels queue *behind* any pending requests: workers finish the
        # backlog, then exit — that is the graceful-drain guarantee
        for _ in self._workers:
            self._queue.put(None)
        for worker in self._workers:
            worker.join()
        with self._conns_lock:
            conns = list(self._conns)
        for conn in conns:
            try:
                conn.shutdown(socket.SHUT_RDWR)
            except OSError:
                pass
            try:
                conn.close()
            except OSError:
                pass
        if self.socket_path is not None:
            try:
                os.unlink(self.socket_path)
            except OSError:
                pass
        self._emit(envelope("serve-stop", requests=self._request_total(),
                            drained=True))
        if self._events is not None:
            with self._events_lock:
                self._events.close()
        self._stopped.set()

    def stop(self, timeout: float = 30.0) -> bool:
        """Test helper: initiate a drain and wait for it to finish."""
        self.initiate_shutdown()
        return self._stopped.wait(timeout)

    # -- plumbing ------------------------------------------------------

    def _emit(self, record: Dict[str, object]) -> None:
        if self._events is not None:
            with self._events_lock:
                self._events.write(record)
        tracer = trace.get_tracer()
        if tracer.enabled:
            tracer.event(record)

    def _count(self, table: Dict[str, int], key: str) -> None:
        with self._count_lock:
            table[key] = table.get(key, 0) + 1

    def _request_total(self) -> int:
        with self._count_lock:
            return sum(self._requests.values())

    def _accept_loop(self) -> None:
        while not self._shutting_down.is_set():
            try:
                conn, _addr = self._listener.accept()
            except OSError:
                break  # listener closed by the drain
            with self._conns_lock:
                self._conns.add(conn)
            threading.Thread(target=self._connection_loop, args=(conn,),
                             name="serve-conn", daemon=True).start()

    def _connection_loop(self, conn: socket.socket) -> None:
        send_lock = threading.Lock()
        try:
            while True:
                try:
                    request = protocol.recv_message(conn)
                except protocol.ProtocolError:
                    break
                if request is None:
                    break
                self._dispatch(conn, send_lock, request)
        finally:
            with self._conns_lock:
                self._conns.discard(conn)
            try:
                conn.close()
            except OSError:
                pass

    def _send(self, conn: socket.socket, send_lock: threading.Lock,
              response: Dict[str, object]) -> None:
        try:
            with send_lock:
                protocol.send_message(conn, response)
        except OSError:
            pass  # client went away; its loss

    # -- dispatch ------------------------------------------------------

    def _dispatch(self, conn, send_lock, request: Dict[str, object]) -> None:
        req_id = str(request.get("id", "?"))
        kind = request.get("kind")
        if (request.get("v") != protocol.PROTOCOL_VERSION
                or kind not in protocol.REQUEST_KINDS):
            self._error(conn, send_lock, req_id, str(kind), "bad-request",
                        f"unsupported request {request.get('v')!r}/{kind!r}",
                        started=time.perf_counter())
            return
        self._count(self._requests, kind)
        self._emit(envelope("request-start", req=req_id, kind=kind))
        if kind == "analyze":
            if self._shutting_down.is_set():
                self._error(conn, send_lock, req_id, kind, "shutting-down",
                            "server is draining",
                            started=time.perf_counter())
                return
            try:
                self._queue.put_nowait(
                    (conn, send_lock, request, time.perf_counter()))
            except queue.Full:
                self._error(conn, send_lock, req_id, kind, "backpressure",
                            f"request queue full "
                            f"(depth {self.queue_depth}); retry later",
                            started=time.perf_counter())
            return
        started = time.perf_counter()
        if kind == "status":
            payload = self._status_payload()
        elif kind == "flush":
            payload = self._flush()
        else:  # shutdown
            payload = {"draining": True}
        self._finish(conn, send_lock, req_id, kind, started,
                     served="inline", payload=payload)
        if kind == "shutdown":
            self.initiate_shutdown()

    def _finish(self, conn, send_lock, req_id: str, kind: str,
                started: float, served: str,
                payload: Dict[str, object]) -> None:
        duration = time.perf_counter() - started
        self._observe(kind, duration)
        self._emit(envelope("request-finish", req=req_id, kind=kind,
                            duration_s=round(duration, 6), served=served))
        self._send(conn, send_lock,
                   protocol.ok_response(req_id, served=served, **payload))

    def _error(self, conn, send_lock, req_id: str, kind: str, code: str,
               message: str, started: float) -> None:
        duration = time.perf_counter() - started
        self._count(self._errors, code)
        self._observe(kind, duration)
        self._emit(envelope("request-error", req=req_id, kind=kind,
                            error=code, duration_s=round(duration, 6)))
        self._send(conn, send_lock,
                   protocol.error_response(req_id, code, message))

    def _observe(self, kind: str, duration: float) -> None:
        with self._count_lock:
            hist = self._latency.get(kind)
            if hist is None:
                hist = self._latency[kind] = Histogram()
            hist.observe(duration)

    # -- inline kinds --------------------------------------------------

    def _metrics(self) -> Dict[str, object]:
        """The status ``metrics`` wire object: per family its ``kind``,
        its one label's name and ``{label value: value}``."""
        def family(kind, label, values):
            return {"kind": kind, "labels": [label], "values": values}
        with self._count_lock:
            return {
                "serve.errors": family("counter", "code",
                                       dict(self._errors)),
                "serve.latency": family(
                    "histogram", "kind",
                    {key: hist.to_dict()
                     for key, hist in self._latency.items()}),
                "serve.requests": family("counter", "kind",
                                         dict(self._requests)),
                "serve.served": family("counter", "how",
                                       dict(self._served)),
            }

    def _status_payload(self) -> Dict[str, object]:
        warm = self._memo.counts()
        return {
            "socket": self.address,
            "pid": os.getpid(),
            "requests": self._request_total(),
            "queued": self._queue.qsize(),
            "max_inflight": self.max_inflight,
            "queue_depth": self.queue_depth,
            "warm_fronts": warm["fronts"],
            "warm_results": warm["results"],
            "draining": self._shutting_down.is_set(),
            "metrics": self._metrics(),
        }

    def _flush(self) -> Dict[str, object]:
        return {"flushed": self._memo.flush()}

    # -- analyze -------------------------------------------------------

    def _worker_loop(self) -> None:
        while True:
            item = self._queue.get()
            if item is None:
                return
            conn, send_lock, request, started = item
            req_id = str(request.get("id", "?"))
            with trace.span(f"serve:{req_id}", "serve", kind="analyze"):
                self._handle_analyze(conn, send_lock, request, req_id,
                                     started)

    def _handle_analyze(self, conn, send_lock, request, req_id: str,
                        started: float) -> None:
        source = request.get("source")
        if not isinstance(source, str) or not source:
            self._error(conn, send_lock, req_id, "analyze", "bad-request",
                        "analyze needs a non-empty 'source' string", started)
            return
        k = request.get("k", 9)
        use_effects = bool(request.get("use_effects", True))
        want_pickle = bool(request.get("want_pickle", False))
        allow_partial = bool(request.get("allow_partial", False))
        if not isinstance(k, int) or k < 0:
            self._error(conn, send_lock, req_id, "analyze", "bad-request",
                        f"bad k {k!r}", started)
            return
        deadline = request.get("deadline_s", self.deadline_s)
        try:
            if deadline is not None:
                set_deadline(float(deadline))
            try:
                payload = self._analyze(source, k, use_effects, want_pickle,
                                        allow_partial)
            finally:
                clear_deadline()
        except DeadlineExceeded as err:
            # only reachable without allow_partial: opted-in requests get
            # a degraded-but-sound partial payload instead (the solver
            # converts the expiry into global-lock fallbacks)
            self._error(conn, send_lock, req_id, "analyze", "deadline",
                        str(err), started)
            return
        except SourceError as err:
            self._error(conn, send_lock, req_id, "analyze", "bad-request",
                        err.diagnostic(source), started)
            return
        except Exception as err:  # noqa: BLE001 - one request, not the server
            self._error(conn, send_lock, req_id, "analyze", "analysis-error",
                        f"{type(err).__name__}: {err}", started)
            return
        served = payload.pop("served")
        self._count(self._served, served)
        self._finish(conn, send_lock, req_id, "analyze", started,
                     served=served, payload=payload)

    def _analyze(self, source: str, k: int, use_effects: bool,
                 want_pickle: bool,
                 allow_partial: bool = False) -> Dict[str, object]:
        if self._analyzer is not None:
            payload = dict(self._analyzer(source, k, use_effects))
            payload.setdefault("served", "computed")
            return payload
        entry, memoized = self._memo.entry(source, k, use_effects,
                                           allow_partial)
        result = entry.result
        if memoized:
            served = "memo"
        elif result.partial:
            served = "partial"
        else:
            served = ("warm" if result.profile is not None
                      and result.profile.dataflow_steps == 0 else "computed")
        payload = dict(entry.derive("payload", _payload), served=served)
        if want_pickle:
            payload["pickle"] = entry.derive("pickle", _encode)
        return payload


def _payload(result) -> Dict[str, object]:
    """Every ``analyze`` response field of *result* but ``served``."""
    profile = result.profile
    return {
        "sections": result.describe(),
        "counts": dataclasses.asdict(result.lock_counts()),
        "analysis_time": result.analysis_time,
        "pointer_time": result.pointer_time,
        "dataflow_time": result.dataflow_time,
        "profile": profile.as_dict() if profile is not None else None,
        "partial": result.partial,
        "degraded_sections": sorted(result.degraded_sections),
    }


def _encode(result) -> str:
    """The ``pickle`` field: *result*, pickled and base64-encoded."""
    from ..inference.diskcache import _pickle

    return base64.b64encode(_pickle(result)).decode("ascii")
