"""repro.obs — zero-dependency tracing, histograms, and the event envelope.

Three pieces, all stdlib-only:

* :mod:`repro.obs.trace` — a process-global :class:`~repro.obs.trace.Tracer`
  emitting nested spans on the wall clock and the simulator tick clock;
  compiled to no-ops while disabled (the default; overhead is benchmarked
  in ``benchmarks/bench_obs.py``);
* :mod:`repro.obs.metrics` — the fixed-bucket
  :class:`~repro.obs.metrics.Histogram` behind the server's per-kind
  latency (every counter lives on the component that counts it);
* :mod:`repro.obs.events` — envelope v1, the one JSONL schema every event
  stream (executor, serve, tracer, inference) validates against, plus
  :mod:`repro.obs.export` turning a stream into a Chrome/Perfetto trace or
  a text flame summary (``python -m repro trace``).

See ``docs/OBSERVABILITY.md`` for the span taxonomy and usage.
"""

from .._lazy import lazy_exports

__getattr__, __dir__, __all__ = lazy_exports(__name__, globals(), {
    "events": ("EVENT_KINDS", "SCHEMA_VERSION", "EventWriter", "SchemaError",
               "envelope", "validate_event"),
    "export": ("load_events", "summarize", "to_chrome"),
    "metrics": ("DEFAULT_BUCKETS", "Histogram"),
    "trace": ("Tracer", "configure", "get_tracer", "instant", "span",
              "timed"),
})
