"""Property-based tests for the observability core (`repro.obs`).

Two families of properties pin the algebra the subsystem relies on:

* span nesting — for any tree of ``with tracer.span(...)`` blocks executed
  on any number of threads, the recorded intervals of each thread track are
  well-parenthesized: pairwise disjoint or fully nested, never partially
  overlapping;
* histogram merge — associative and commutative (exact over integer-valued
  observations, where float addition is exact).
"""

import threading

from hypothesis import given, settings, strategies as st

from repro.obs.metrics import Histogram
from repro.obs.trace import Tracer


# A nesting tree: each node is a list of children.
TREES = st.recursive(
    st.just([]),
    lambda kids: st.lists(kids, max_size=3),
    max_leaves=12,
)


def _run_tree(tracer, tree, label):
    for number, child in enumerate(tree):
        with tracer.span(f"{label}.{number}", "test"):
            _run_tree(tracer, child, f"{label}.{number}")


def _well_parenthesized(spans):
    """Every pair of intervals is disjoint or nested (never crossing)."""
    spans = sorted(spans, key=lambda s: (s["start"], -s["dur"]))
    for i, a in enumerate(spans):
        a_end = a["start"] + a["dur"]
        for b in spans[i + 1:]:
            b_end = b["start"] + b["dur"]
            assert (b["start"] >= a_end  # disjoint
                    or b_end <= a_end), (  # nested inside a
                f"crossing spans: {a['name']} and {b['name']}"
            )


@settings(max_examples=40, deadline=None)
@given(tree=TREES)
def test_span_nesting_well_parenthesized(tree):
    tracer = Tracer()
    tracer.configure(True)
    _run_tree(tracer, tree, "root")
    records = tracer.drain()
    assert all(r["event"] == "span" for r in records)
    _well_parenthesized(records)
    # depth bookkeeping survives: every span carries a positive depth
    assert all(r["depth"] >= 1 for r in records)


@settings(max_examples=15, deadline=None)
@given(trees=st.lists(TREES, min_size=2, max_size=3))
def test_span_nesting_per_thread_track(trees):
    """Concurrent threads interleave freely, but each *track* (thread) of
    the shared tracer stays well-parenthesized on its own."""
    tracer = Tracer()
    tracer.configure(True)
    workers = [
        threading.Thread(target=_run_tree, args=(tracer, tree, f"t{i}"))
        for i, tree in enumerate(trees)
    ]
    for worker in workers:
        worker.start()
    for worker in workers:
        worker.join()
    by_track = {}
    for record in tracer.drain():
        by_track.setdefault(record["track"], []).append(record)
    for spans in by_track.values():
        _well_parenthesized(spans)


# Integer observations keep every float sum exact, so the associativity
# property is genuinely exact rather than approximately-true.
SAMPLES = st.lists(st.integers(min_value=-10**6, max_value=10**6),
                   max_size=40)


def _hist(values):
    hist = Histogram(bounds=(0.0, 10.0, 1000.0))
    for value in values:
        hist.observe(value)
    return hist


@settings(max_examples=60, deadline=None)
@given(a=SAMPLES, b=SAMPLES)
def test_histogram_merge_commutative(a, b):
    assert _hist(a).merge(_hist(b)) == _hist(b).merge(_hist(a))


@settings(max_examples=60, deadline=None)
@given(a=SAMPLES, b=SAMPLES, c=SAMPLES)
def test_histogram_merge_associative(a, b, c):
    ha, hb, hc = _hist(a), _hist(b), _hist(c)
    assert ha.merge(hb).merge(hc) == ha.merge(hb.merge(hc))


@settings(max_examples=60, deadline=None)
@given(a=SAMPLES, b=SAMPLES)
def test_histogram_merge_equals_union(a, b):
    assert _hist(a).merge(_hist(b)) == _hist(a + b)
