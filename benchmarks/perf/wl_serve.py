"""The service workload: ``served_memo``.

An ``AnalysisServer`` runs in this process on a Unix socket with no disk
cache; one ``ServeClient`` (closed loop, one connection) computes every
source once in set-up, so each timed request is a memo hit: framing,
socket, memo lookup and result encoding, and no analysis at all.
"""

from __future__ import annotations

import json
import os
from collections import Counter
from typing import Dict

from repro.inference import LockInference
from repro.serve import AnalysisServer, ProtocolError, ServeClient, ServeError

import golden
from wl_analysis import K, small_corpus
from wl_base import Workload

MEMO_SWEEPS = 100
PICKLE_SWEEPS = 4


class ServedMemo(Workload):
    name = "served_memo"

    def prepare(self, traced: bool = False) -> None:
        self.sources = small_corpus(self.seed)
        self.expected: Dict[str, str] = {}
        self.stats: Counter = Counter()
        self.server = AnalysisServer(
            socket_path=os.path.join(self.scratch, "serve.sock"),
            cache_dir=None)
        self.server.start()
        self.client = ServeClient(socket_path=self.server.socket_path)
        for source in self.sources.values():
            self.client.analyze(source, k=K)

    def input_digests(self):
        return golden.sha256_each(self.sources)

    def build_oracle(self) -> None:
        for name, source in self.sources.items():
            self.expected[name] = LockInference(
                source, k=K, enable_caches=False).run().describe()

    def request(self, name: str, source: str, want_pickle: bool):
        """One closed-loop request; a structured or transport error is a
        failed operation, not a crash."""
        try:
            return name, want_pickle, self.client.analyze(
                source, k=K, want_pickle=want_pickle)
        except (ServeError, ProtocolError, OSError) as err:
            return name, want_pickle, err

    def run_pass(self):
        outputs = []
        for sweeps, want_pickle in ((MEMO_SWEEPS, False),
                                    (PICKLE_SWEEPS, True)):
            for _sweep in range(sweeps):
                for name, source in self.sources.items():
                    outputs.append(self.request(name, source, want_pickle))
        return len(outputs), outputs

    def check(self, outputs):
        failed = []
        for name, want_pickle, response in outputs:
            if isinstance(response, Exception):
                failed.append(f"served_memo/{name}: {response!r}")
            elif response.get("served") != "memo":
                failed.append(f"served_memo/{name}: served "
                              f"{response.get('served')!r}, not from memo")
            elif response["sections"] != self.expected[name]:
                failed.append(f"served_memo/{name}: sections differ from "
                              "the in-process reference engine")
            elif want_pickle and not response.get("pickle"):
                failed.append(f"served_memo/{name}: no pickled result")
        self.errors = sum(isinstance(response, Exception)
                          for _name, _pickle, response in outputs)
        return len(outputs), failed

    def traced_pass(self, tracer):
        self.stats = stats = Counter()
        sent_before = self.client.stats["requests"]
        outputs = []
        for sweeps, want_pickle in ((MEMO_SWEEPS, False),
                                    (PICKLE_SWEEPS, True)):
            span_name = "serve.pickle" if want_pickle else "serve.memo"
            for sweep in range(sweeps):
                for name, source in self.sources.items():
                    span = tracer.enter(span_name)
                    try:
                        output = self.request(name, source, want_pickle)
                    finally:
                        tracer.exit(span)
                    outputs.append(output)
                    if sweep == 0 and isinstance(output[2], dict):
                        with tracer.span("harness.count"):
                            stats["payload_bytes"] += len(
                                json.dumps(output[2], sort_keys=True))
        stats["requests"] = self.client.stats["requests"] - sent_before
        return len(outputs), outputs

    def layer_metrics(self, span_times, span_counts):
        def per_request(span_name: str) -> float:
            calls = span_counts.get(span_name, 0)
            return span_times.get(span_name, 0.0) / calls if calls else 0.0

        return {
            "serve.memo_rtt_us": 1e6 * per_request("serve.memo"),
            "serve.pickle_rtt_ms": 1e3 * per_request("serve.pickle"),
            "serve.requests": self.stats["requests"],
            "serve.errors": self.errors,
            "serve.payload_bytes": self.stats["payload_bytes"],
        }

    def golden_sections(self):
        return {"inputs.json": self.input_digests()}

    def close(self) -> None:
        self.client.close()
        self.server.stop()
        super().close()
