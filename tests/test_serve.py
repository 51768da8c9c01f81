"""The long-lived analysis service: protocol, server semantics, drain.

Guarantee families:

* **protocol** — framing round-trips, clean-EOF vs torn-frame handling,
  envelope validation, closed error-code set;
* **equivalence** — N concurrent client threads against one server, over
  every corpus benchmark and k ∈ {0, 1, 9}, produce responses identical
  to a fresh single-shot :class:`LockInference` run, and repeats are
  served from warm state (``memo``; after a flush, ``warm`` with zero
  dataflow steps — the disk cache answers everything);
* **operational semantics** — bounded queue answers ``backpressure``
  when full, per-request deadlines surface as structured ``deadline``
  errors, ``flush`` drops resident state without breaking correctness,
  ``shutdown``/SIGTERM drain gracefully (queued work finishes, the
  socket file disappears, the event stream ends with ``serve-stop``).
"""

import base64
import json
import os
import pickle
import signal
import socket
import subprocess
import sys
import threading
import time

import pytest

from repro.bench import ALL_BENCHMARKS
from repro.inference import LockInference
from repro.obs.events import validate_event
from repro.serve import AnalysisServer, ServeClient, ServeError, protocol
from repro.serve.client import fetch_inference

KS = (0, 1, 9)

SRC = os.path.join(os.path.dirname(__file__), "..", "src")


@pytest.fixture()
def server(tmp_path):
    """A started server on a per-test Unix socket; drained on teardown."""
    srv = AnalysisServer(
        socket_path=str(tmp_path / "serve.sock"),
        cache_dir=str(tmp_path / "cache"),
        max_inflight=2,
        events_path=str(tmp_path / "events.jsonl"),
    )
    srv.start()
    yield srv
    assert srv.stop(timeout=30), "server failed to drain"


def _client(server):
    return ServeClient(socket_path=server.socket_path)


# ---------------------------------------------------------------------------
# protocol
# ---------------------------------------------------------------------------


def test_framing_roundtrip():
    left, right = socket.socketpair()
    try:
        message = {"v": 1, "kind": "status", "id": "abc",
                   "payload": ["x", 1, {"y": None}]}
        protocol.send_message(left, message)
        assert protocol.recv_message(right) == message
    finally:
        left.close()
        right.close()


def test_clean_eof_is_none_torn_frame_raises():
    left, right = socket.socketpair()
    left.close()
    assert protocol.recv_message(right) is None
    right.close()

    left, right = socket.socketpair()
    try:
        left.sendall(b"\x00\x00\x00\x10part")  # 16-byte frame, 4 sent
        left.close()
        with pytest.raises(protocol.ProtocolError):
            protocol.recv_message(right)
    finally:
        right.close()


def test_oversized_and_nonjson_frames_raise():
    left, right = socket.socketpair()
    try:
        left.sendall(b"\xff\xff\xff\xff")  # 4 GiB frame announcement
        with pytest.raises(protocol.ProtocolError):
            protocol.recv_message(right)
    finally:
        left.close()
        right.close()

    left, right = socket.socketpair()
    try:
        payload = b"not json"
        import struct

        left.sendall(struct.pack(">I", len(payload)) + payload)
        with pytest.raises(protocol.ProtocolError):
            protocol.recv_message(right)
    finally:
        left.close()
        right.close()


def test_envelopes_and_error_codes():
    req = protocol.request("analyze", source="x")
    assert req["v"] == protocol.PROTOCOL_VERSION
    assert req["kind"] == "analyze" and req["id"]
    with pytest.raises(ValueError):
        protocol.request("frobnicate")
    with pytest.raises(ValueError):
        protocol.error_response("id", "not-a-code")
    ok = protocol.ok_response("id", x=1)
    assert protocol.check_response(ok)["x"] == 1
    err = protocol.error_response("id", "backpressure", "full")
    with pytest.raises(ServeError) as caught:
        protocol.check_response(err)
    assert caught.value.code == "backpressure"


# ---------------------------------------------------------------------------
# equivalence: concurrent clients vs single-shot inference
# ---------------------------------------------------------------------------


def _expected(source, k):
    result = LockInference(source, k=k).run()
    counts = result.lock_counts()
    return result.describe(), {
        "fine_ro": counts.fine_ro, "fine_rw": counts.fine_rw,
        "coarse_ro": counts.coarse_ro, "coarse_rw": counts.coarse_rw,
        "global_locks": counts.global_locks,
    }


def test_concurrent_clients_match_single_shot(server):
    """N client threads, every corpus benchmark × k, vs local inference."""
    jobs = [(spec.source, k)
            for spec in ALL_BENCHMARKS.values() for k in KS]
    responses = {}
    errors = []

    def worker(worker_id):
        try:
            with _client(server) as client:
                for index, (source, k) in enumerate(jobs):
                    if index % 3 != worker_id % 3:
                        continue
                    response = client.analyze(source, k=k)
                    responses[(worker_id, index)] = response
        except Exception as err:  # noqa: BLE001 - collected for the assert
            errors.append(err)

    threads = [threading.Thread(target=worker, args=(n,)) for n in range(6)]
    for thread in threads:
        thread.start()
    for thread in threads:
        thread.join()
    assert not errors, errors

    for (worker_id, index), response in responses.items():
        source, k = jobs[index]
        sections, counts = _expected(source, k)
        assert response["sections"] == sections, (worker_id, index)
        assert response["counts"] == counts
        assert response["served"] in ("memo", "warm", "computed")

    # two workers hit every job index (6 workers mod 3), so every job was
    # requested at least twice: repeats must come from warm state
    with _client(server) as client:
        for source, k in jobs:
            repeat = client.analyze(source, k=k)
            assert repeat["served"] == "memo"


def test_flush_then_warm_hits_run_zero_dataflow_steps(server):
    source = ALL_BENCHMARKS["hashtable"].source
    with _client(server) as client:
        first = client.analyze(source, k=9)
        assert first["served"] == "computed"
        assert first["profile"]["dataflow_steps"] > 0
        flushed = client.flush()["flushed"]
        assert flushed == {"fronts": 1, "results": 1}
        warm = client.analyze(source, k=9)
        # resident memo is gone; the disk cache answers every summary and
        # section, so the solve replays with zero transfer executions
        assert warm["served"] == "warm"
        assert warm["profile"]["dataflow_steps"] == 0
        assert warm["sections"] == first["sections"]
        assert warm["counts"] == first["counts"]


def test_fetch_inference_returns_working_result(server):
    source = ALL_BENCHMARKS["list"].source
    result = fetch_inference(source, 9, socket_path=server.socket_path)
    local = LockInference(source, k=9).run()
    assert result.describe() == local.describe()
    assert result.k == 9
    # and a second fetch serves from the memoized result object
    with _client(server) as client:
        assert client.analyze(source, k=9,
                              want_pickle=True)["served"] == "memo"


# ---------------------------------------------------------------------------
# the memo: each result's wire forms are built once per resident entry
# ---------------------------------------------------------------------------


@pytest.fixture()
def encodes(monkeypatch):
    """Counts the pickling of whole inference results (the disk cache
    pickles fronts and summary tables through the same function)."""
    from repro.inference import InferenceResult, diskcache

    calls = []
    real = diskcache._pickle

    def counting(value):
        if isinstance(value, InferenceResult):
            calls.append(value)
        return real(value)

    monkeypatch.setattr(diskcache, "_pickle", counting)
    return calls


def test_repeated_pickle_requests_encode_once(server, encodes):
    source = ALL_BENCHMARKS["hashtable"].source
    with _client(server) as client:
        responses = [client.analyze(source, k=9, want_pickle=True)
                     for _ in range(3)]
    assert [r["served"] for r in responses] == ["computed", "memo", "memo"]
    assert len(encodes) == 1
    assert responses[1]["pickle"] == responses[0]["pickle"]
    assert responses[2]["pickle"] == responses[0]["pickle"]

    from repro.inference import transform_with_inference
    from repro.lang import print_lowered_program

    decoded = pickle.loads(base64.b64decode(responses[2]["pickle"]))
    fresh = LockInference(source, k=9).run()
    assert decoded.describe() == fresh.describe()
    assert (print_lowered_program(transform_with_inference(decoded))
            == print_lowered_program(transform_with_inference(fresh)))


def test_flush_drops_the_encodings(server, encodes):
    source = ALL_BENCHMARKS["list"].source
    with _client(server) as client:
        first = client.analyze(source, k=1, want_pickle=True)
        assert client.flush()["flushed"] == {"fronts": 1, "results": 1}
        again = client.analyze(source, k=1, want_pickle=True)
    assert again["served"] != "memo"
    assert len(encodes) == 2
    assert again["sections"] == first["sections"]


def test_single_flight_table_empties_after_each_result(server):
    sources = [spec.source for spec in ALL_BENCHMARKS.values()][:4]
    with _client(server) as client:
        for source in sources:
            client.analyze(source, k=0)
        client.flush()
    assert server._memo._flights == {}


def test_memo_single_flights_results_and_derived_values():
    """More threads than cores, switching often: one key is solved once
    and each derived value built once, whoever asks first."""
    from repro.inference.memo import AnalysisMemo

    memo = AnalysisMemo()
    source = ALL_BENCHMARKS["TH"].source
    built, solved, errors = [], [], []

    def build(result):
        built.append(result)
        time.sleep(0.01)  # widen the window for a racing second build
        return "encoded"

    def worker():
        try:
            entry, memoized = memo.entry(source, 9)
            if not memoized:
                solved.append(entry)
            assert entry.derive("pickle", build) == "encoded"
        except Exception as err:  # noqa: BLE001 - collected for the assert
            errors.append(err)

    interval = sys.getswitchinterval()
    sys.setswitchinterval(1e-5)
    try:
        threads = [threading.Thread(target=worker) for _ in range(8)]
        for thread in threads:
            thread.start()
        for thread in threads:
            thread.join(timeout=120)
    finally:
        sys.setswitchinterval(interval)
    assert not any(thread.is_alive() for thread in threads)
    assert not errors, errors
    assert len(solved) == 1 and len(built) == 1
    assert memo.counts() == {"fronts": 1, "results": 1}
    assert memo._flights == {}


class _CollidingSource(str):
    """Source text whose hash equals every other instance's."""

    def __hash__(self) -> int:
        return 0


def test_server_memo_tells_colliding_sources_apart(server):
    # the wire carries plain text, so the colliding strings go straight
    # into the server's analyze path
    first = _CollidingSource(ALL_BENCHMARKS["rbtree"].source)
    second = _CollidingSource(ALL_BENCHMARKS["genome"].source)
    assert hash(first) == hash(second) and first != second
    for source in (first, second, first, second):
        payload = server._analyze(source, 9, True, want_pickle=False)
        assert payload["sections"] == _expected(str(source), 9)[0]


# ---------------------------------------------------------------------------
# operational semantics
# ---------------------------------------------------------------------------


def test_backpressure_when_queue_full(tmp_path):
    release = threading.Event()
    entered = threading.Event()

    def slow_analyzer(source, k, use_effects):
        entered.set()
        release.wait(timeout=30)
        return {"sections": "", "counts": {}, "analysis_time": 0.0,
                "pointer_time": 0.0, "dataflow_time": 0.0, "profile": None}

    server = AnalysisServer(socket_path=str(tmp_path / "s.sock"),
                            max_inflight=1, queue_depth=1,
                            analyzer=slow_analyzer)
    server.start()
    try:
        blocker = ServeClient(socket_path=server.socket_path)
        waiter = ServeClient(socket_path=server.socket_path)
        overflow = ServeClient(socket_path=server.socket_path)
        try:
            # occupy the one worker...
            protocol.send_message(blocker._sock,
                                  protocol.request("analyze", source="a"))
            assert entered.wait(timeout=10)
            # ...fill the one queue slot...
            protocol.send_message(waiter._sock,
                                  protocol.request("analyze", source="b"))
            deadline = time.monotonic() + 10
            while server._queue.qsize() < 1:
                assert time.monotonic() < deadline
                time.sleep(0.01)
            # ...and the next request must bounce, immediately
            with pytest.raises(ServeError) as caught:
                overflow.analyze("c")
            assert caught.value.code == "backpressure"
            release.set()
            assert protocol.check_response(
                protocol.recv_message(blocker._sock))["served"]
            assert protocol.check_response(
                protocol.recv_message(waiter._sock))["served"]
        finally:
            blocker.close()
            waiter.close()
            overflow.close()
    finally:
        release.set()
        assert server.stop(timeout=30)


def test_deadline_surfaces_as_structured_error(server):
    source = ALL_BENCHMARKS["vacation"].source
    with _client(server) as client:
        with pytest.raises(ServeError) as caught:
            client.analyze(source, k=9, deadline_s=0.0)
        assert caught.value.code == "deadline"
        # the worker is fine afterwards: the same request with a sane
        # deadline succeeds on the same connection
        assert client.analyze(source, k=9)["served"] == "computed"


def test_bad_requests_are_structured_not_fatal(server):
    with _client(server) as client:
        with pytest.raises(ServeError) as caught:
            client.request("analyze")  # no source
        assert caught.value.code == "bad-request"
        with pytest.raises(ServeError) as caught:
            client.request("analyze", source="x", k=-2)
        assert caught.value.code == "bad-request"
        protocol.send_message(client._sock,
                              {"v": 99, "kind": "status", "id": "z"})
        response = protocol.recv_message(client._sock)
        assert response["ok"] is False
        assert response["error"] == "bad-request"
        # the connection survived all three
        assert client.status()["requests"] >= 0


def test_status_reports_warm_state(server):
    source = ALL_BENCHMARKS["kmeans"].source
    with _client(server) as client:
        client.analyze(source, k=0)
        client.analyze(source, k=1)
        status = client.status()
    assert status["warm_fronts"] == 1  # one source, one shared front
    assert status["warm_results"] == 2  # two (source, k) results
    assert status["max_inflight"] == 2
    assert not status["draining"]
    latency = status["metrics"]["serve.latency"]["values"]["analyze"]
    assert latency["count"] == 2


def test_status_metrics_wire_shape(server):
    """The status ``metrics`` object is a wire format: four families,
    each with ``kind``, ``labels`` and ``values``, present even when
    empty."""
    with _client(server) as client:
        empty = client.status()["metrics"]
        client.analyze(ALL_BENCHMARKS["kmeans"].source, k=0)
        with pytest.raises(ServeError):
            client.request("analyze")  # no source: bad-request
        metrics = client.status()["metrics"]
    assert list(empty) == ["serve.errors", "serve.latency",
                           "serve.requests", "serve.served"]
    assert empty["serve.errors"] == {"kind": "counter", "labels": ["code"],
                                     "values": {}}
    assert empty["serve.latency"] == {"kind": "histogram",
                                      "labels": ["kind"], "values": {}}
    assert empty["serve.served"]["values"] == {}
    # the status request counts itself before the snapshot is taken
    assert empty["serve.requests"]["values"] == {"status": 1}
    assert list(metrics) == list(empty)
    assert metrics["serve.errors"] == {
        "kind": "counter", "labels": ["code"],
        "values": {"bad-request": 1}}
    assert metrics["serve.requests"] == {
        "kind": "counter", "labels": ["kind"],
        "values": {"status": 2, "analyze": 2}}
    assert metrics["serve.served"] == {
        "kind": "counter", "labels": ["how"],
        "values": {"computed": 1}}
    latency = metrics["serve.latency"]
    assert latency["kind"] == "histogram" and latency["labels"] == ["kind"]
    # status latency is observed after its own snapshot: first status only
    assert sorted(latency["values"]) == ["analyze", "status"]
    analyze = latency["values"]["analyze"]
    assert sorted(analyze) == ["bounds", "count", "counts", "max", "min",
                               "total"]
    assert analyze["count"] == 2
    assert len(analyze["counts"]) == len(analyze["bounds"]) + 1
    assert latency["values"]["status"]["count"] == 1


def test_status_counters_lose_no_concurrent_update(server):
    """Connection threads bump the shared counters and histograms: under
    a very short switch interval, no increment may be lost."""
    threads, per_thread = 4, 100

    def hammer():
        with _client(server) as client:
            for _ in range(per_thread):
                client.status()

    interval = sys.getswitchinterval()
    sys.setswitchinterval(1e-6)
    try:
        workers = [threading.Thread(target=hammer) for _ in range(threads)]
        for worker in workers:
            worker.start()
        for worker in workers:
            worker.join(timeout=60)
    finally:
        sys.setswitchinterval(interval)
    assert not any(worker.is_alive() for worker in workers)
    with _client(server) as client:
        status = client.status()
    sent = threads * per_thread
    assert status["requests"] == sent + 1
    metrics = status["metrics"]
    assert metrics["serve.requests"]["values"] == {"status": sent + 1}
    assert metrics["serve.latency"]["values"]["status"]["count"] == sent


@pytest.mark.filterwarnings(
    "error::pytest.PytestUnhandledThreadExceptionWarning")
def test_shutdown_drains_and_event_stream_validates(tmp_path):
    events_path = tmp_path / "events.jsonl"
    server = AnalysisServer(socket_path=str(tmp_path / "s.sock"),
                            cache_dir=str(tmp_path / "cache"),
                            events_path=str(events_path))
    server.start()
    source = ALL_BENCHMARKS["rbtree"].source
    with ServeClient(socket_path=server.socket_path) as client:
        client.analyze(source, k=9)
        client.shutdown()
    assert server._stopped.wait(timeout=30)
    assert not os.path.exists(server.socket_path)
    records = [json.loads(line)
               for line in events_path.read_text().splitlines()]
    for record in records:
        validate_event(record)  # every serve event is a valid v1 envelope
    kinds = [record["event"] for record in records]
    assert kinds[0] == "serve-start"
    assert kinds[-1] == "serve-stop"
    stop = records[-1]
    assert stop["drained"] is True
    assert stop["requests"] >= 2
    finishes = [r for r in records if r["event"] == "request-finish"]
    assert {f["served"] for f in finishes} <= {"computed", "memo", "warm",
                                               "inline"}


@pytest.mark.filterwarnings(
    "error::pytest.PytestUnhandledThreadExceptionWarning")
def test_drain_of_an_idle_connection_ends_its_thread_cleanly(tmp_path,
                                                              monkeypatch):
    """The drain closes a socket its connection thread is about to read:
    that read fails with EBADF, which must end the thread like an EOF."""
    closed = threading.Event()
    recv_message = protocol.recv_message

    def recv_after_close(sock):
        closed.wait(timeout=30)
        return recv_message(sock)

    monkeypatch.setattr(protocol, "recv_message", recv_after_close)
    server = AnalysisServer(socket_path=str(tmp_path / "s.sock"))
    server.start()
    with socket.socket(socket.AF_UNIX) as idle:
        idle.connect(server.socket_path)
        deadline = time.monotonic() + 30
        while not server._conns and time.monotonic() < deadline:
            time.sleep(0.01)
        conn_threads = [t for t in threading.enumerate()
                        if t.name == "serve-conn"]
        assert server._conns and conn_threads
        assert server.stop(timeout=30)
        closed.set()
        for thread in conn_threads:
            thread.join(timeout=30)
    assert not any(t.is_alive() for t in conn_threads)


def test_cli_client_unreadable_source_is_exit_2_not_a_traceback(
        server, tmp_path, capsys):
    from repro.cli import main

    missing = str(tmp_path / "nonexistent.mc")
    code = main(["client", "analyze", missing,
                 "--socket", server.socket_path])
    assert code == 2
    assert capsys.readouterr().err.startswith(
        f"error[read]: cannot read {missing}: ")


def test_sigterm_drains_subprocess(tmp_path):
    """A real ``repro serve`` process exits 0 on SIGTERM, removing the
    socket and closing the stream with ``serve-stop``."""
    sock = str(tmp_path / "s.sock")
    events = str(tmp_path / "ev.jsonl")
    env = dict(os.environ, PYTHONPATH=SRC)
    proc = subprocess.Popen(
        [sys.executable, "-m", "repro", "serve", "--socket", sock,
         "--cache-dir", str(tmp_path / "cache"), "--events", events],
        env=env, stdout=subprocess.PIPE, stderr=subprocess.PIPE)
    try:
        deadline = time.monotonic() + 30
        while not os.path.exists(sock):
            assert time.monotonic() < deadline, "server never bound"
            assert proc.poll() is None, proc.stderr.read().decode()
            time.sleep(0.05)
        with ServeClient(socket_path=sock) as client:
            response = client.analyze(ALL_BENCHMARKS["TH"].source, k=9)
            assert response["served"] == "computed"
        proc.send_signal(signal.SIGTERM)
        assert proc.wait(timeout=30) == 0
    finally:
        if proc.poll() is None:
            proc.kill()
            proc.wait()
    assert not os.path.exists(sock)
    kinds = [json.loads(line)["event"]
             for line in open(events).read().splitlines()]
    assert kinds[-1] == "serve-stop"
