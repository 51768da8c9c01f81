"""The bitset dataflow kernel's fact encoding and engine equivalence.

Two layers of guarantees for :mod:`repro.inference.facts` and the bitset
engine core built on it:

* **encoding laws** (hypothesis over random term/effect sets) — the 2-bit
  fact encoding round-trips through ``encode``/``decode``, bitwise OR is
  exactly the effect-lattice join (``ro ⊔ rw = rw``), popcount matches the
  fact-set shape, and ``remap`` adopts a foreign interner's bits without
  changing their meaning (the remap round-trip property);
* **engine equivalence** (hypothesis over k ∈ {0, 1, 9} × effects on/off,
  exhaustively per benchmark program) — the bitset engine's section locks
  render byte-identically to the set-based ``ReferenceEngine``;
* **frame soundness** — the kernel's class-indexed identity mask claims a
  term passes a write unchanged from two facts alone (the k-limit tracks
  it; it reads no cell of the written cell's points-to class).  That is
  sound only relative to the alias oracle in use, so it is checked against
  ``TransferSpec.pre_image`` under the Steensgaard *and* the Andersen
  oracle, over the benchmark corpus and over hypothesis-built terms; two
  pinned programs hold the identities the class test must leave to the
  per-term memo.

FactInterner unit tests (ID stability, reverse lookup, canonical bit
patterns) anchor the properties on pinned examples.
"""

import pytest
from hypothesis import HealthCheck, given, settings
from hypothesis import strategies as st

from repro.bench import ALL_BENCHMARKS
from repro.bench.programs.spec import generate_spec_program
from repro.cfg import build_cfgs
from repro.inference import Engine, ReferenceEngine
from repro.inference.facts import FactInterner, popcount
from repro.inference.transfer import TRACKED
from repro.lang import lower_program, parse_program
from repro.locks.effects import RO, RW, eff_join
from repro.locks.terms import IBin, IConst, IVar, TIndex, TPlus, TStar, TVar
from repro.pointer import AliasOracle, Andersen, AndersenOracle, PointsTo

# ---------------------------------------------------------------------------
# strategies: hash-consed terms and {term: effect} fact sets
# ---------------------------------------------------------------------------

_LEAVES = st.sampled_from([TVar(name) for name in ("a", "b", "g", "p", "q")])
_TERMS = st.recursive(
    _LEAVES,
    lambda inner: st.one_of(
        inner.map(TStar),
        st.tuples(inner, st.sampled_from(("f", "next"))).map(
            lambda pair: TPlus(pair[0], pair[1])),
    ),
    max_leaves=4,
)
_FACT_SETS = st.dictionaries(_TERMS, st.sampled_from((RO, RW)), max_size=10)


# ---------------------------------------------------------------------------
# FactInterner unit tests
# ---------------------------------------------------------------------------


def test_ids_are_stable_and_dense():
    interner = FactInterner()
    terms = [TVar("x"), TStar(TVar("x")), TPlus(TVar("y"), "f")]
    first = [interner.term_id(t) for t in terms]
    assert first == [0, 1, 2]  # dense, first-interning order
    again = [interner.term_id(t) for t in terms]
    assert again == first  # re-interning never moves an ID
    assert len(interner) == 3


def test_reverse_lookup():
    interner = FactInterner()
    term = TStar(TVar("p"))
    tid = interner.term_id(term)
    assert interner.term(tid) is term  # hash-consing: identity, not just eq
    assert interner.fact(interner.fact_id(term, RO)) == (term, RO)
    assert interner.fact(interner.fact_id(term, RW)) == (term, RW)


def test_canonical_bit_patterns():
    interner = FactInterner()
    term = TVar("x")
    ro = interner.bits_for(term, RO)
    rw = interner.bits_for(term, RW)
    assert ro == interner.term_bit(term)
    assert ro.bit_length() % 2 == 1  # presence bit sits at an even position
    assert rw == ro | (ro << 1)  # rw sets BOTH bits of the pair
    assert ro | rw == rw  # so OR is the effect join


def test_encode_joins_duplicate_terms():
    interner = FactInterner()
    term = TVar("x")
    bits = interner.encode([(term, RO), (term, RW)])
    assert bits == interner.bits_for(term, RW)
    assert interner.decode(bits) == {term: RW}


def test_decode_tolerates_lone_rw_bit():
    interner = FactInterner()
    term = TVar("x")
    lone_high = interner.term_bit(term) << 1
    assert interner.decode(lone_high) == {term: RW}


def test_popcount_py39_fallback_agrees():
    from repro.inference.facts import _bit_count
    for value in (0, 1, 0b1011, (1 << 75) | 7):
        assert _bit_count(value) == bin(value).count("1")
        assert popcount(value) == bin(value).count("1")


# ---------------------------------------------------------------------------
# encoding laws (hypothesis)
# ---------------------------------------------------------------------------


@given(facts=_FACT_SETS)
def test_encode_decode_round_trip(facts):
    interner = FactInterner()
    assert interner.decode(interner.encode(facts)) == facts


@given(left=_FACT_SETS, right=_FACT_SETS)
def test_or_is_the_fact_set_join(left, right):
    interner = FactInterner()
    joined = dict(left)
    for term, eff in right.items():
        joined[term] = eff_join(joined.get(term, eff), eff)
    assert (interner.encode(left) | interner.encode(right)
            == interner.encode(joined))


@given(facts=_FACT_SETS)
def test_popcount_matches_fact_shape(facts):
    interner = FactInterner()
    rw_count = sum(1 for eff in facts.values() if eff == RW)
    assert popcount(interner.encode(facts)) == len(facts) + rw_count


@given(facts=_FACT_SETS, warmup=st.lists(_TERMS, max_size=6))
def test_remap_round_trip(facts, warmup):
    source = FactInterner()
    bits = source.encode(facts)
    local = FactInterner()
    for term in warmup:  # different interning order → different ID space
        local.term_id(term)
    assert local.decode(local.remap(bits, source)) == source.decode(bits)
    # remapping twice through the same interner is idempotent
    once = local.remap(bits, source)
    assert local.remap(once, local) == once


# ---------------------------------------------------------------------------
# engine equivalence: bitset kernel ≡ set-based reference
# ---------------------------------------------------------------------------

_FRONT_CACHE = {}


def _front(name):
    if name not in _FRONT_CACHE:
        program = lower_program(parse_program(ALL_BENCHMARKS[name].source))
        pointsto = PointsTo(program).analyze()
        cfgs = build_cfgs(program)
        _FRONT_CACHE[name] = (program, pointsto, cfgs)
    return _FRONT_CACHE[name]


def _render(engine):
    """Analyze every section with *engine*; the locks as sorted text."""
    out = {}
    for func_name, cfg in engine.cfgs.items():
        for section in cfg.sections.values():
            result = engine.analyze_section(func_name, section)
            out[section.section_id] = sorted(str(l) for l in result.locks)
    return out


def _rendered_locks(engine_cls, program, cfgs, pointsto, k, use_effects):
    return _render(engine_cls(program, cfgs, pointsto, k=k,
                              use_effects=use_effects))


@pytest.mark.parametrize("name", sorted(ALL_BENCHMARKS))
@settings(max_examples=6, deadline=None,
          suppress_health_check=[HealthCheck.function_scoped_fixture,
                                 HealthCheck.too_slow])
@given(k=st.sampled_from((0, 1, 9)), use_effects=st.booleans())
def test_bitset_engine_matches_reference(name, k, use_effects):
    program, pointsto, cfgs = _front(name)
    optimized = _rendered_locks(Engine, program, cfgs, pointsto, k,
                                use_effects)
    reference = _rendered_locks(ReferenceEngine, program, cfgs, pointsto, k,
                                use_effects)
    assert optimized == reference, f"{name} k={k} effects={use_effects}"


# ---------------------------------------------------------------------------
# frame soundness: the class-indexed identity mask vs. the per-term pre-image
# ---------------------------------------------------------------------------

ALIASES = ("steensgaard", "andersen")
# the infer_k9 corpus of benchmarks/perf: ten sources + two SPEC-like ones
_SPEC_LIKE = {"gzip": 0.5, "parser": 0.7}
_SOLVED = {}


def _solved(source, k, alias):
    """A bitset engine that has analyzed every section of *source*, the
    locks it rendered, and a fresh reference engine over the same front
    half and oracle."""
    program = lower_program(parse_program(source))
    pointsto = PointsTo(program).analyze()
    if alias == "andersen":
        oracle = AndersenOracle(pointsto,
                                Andersen(program, pointsto).analyze())
    else:
        oracle = AliasOracle(pointsto)
    cfgs = build_cfgs(program)
    engine = Engine(program, cfgs, pointsto, k=k, oracle=oracle)
    reference = ReferenceEngine(program, cfgs, pointsto, k=k, oracle=oracle)
    return engine, _render(engine), reference


def _frame_claims(engine, kill, term):
    """The two facts the kernel's frame rests on, recomputed from the spec."""
    write = kill.sub.write
    write_class = engine.oracle.class_of_term(write.func, write.definite)
    return (engine.spec.k_limit(kill.func, term) is TRACKED
            and write_class not in engine.spec.read_classes(kill.func, term))


def _check_claim(engine, kill, term):
    """True if the frame claims *term* under *kill*'s write — in which case
    the per-term pre-image must agree it is the identity."""
    claimed = _frame_claims(engine, kill, term)
    if claimed:
        assert engine.spec.pre_image(kill.func, kill.sub, term) == (
            [term], []), f"{kill.func}: {kill.sub.write} on {term}"
    return claimed


@pytest.mark.parametrize("alias", ALIASES)
@pytest.mark.parametrize("name", sorted(ALL_BENCHMARKS) + sorted(_SPEC_LIKE))
def test_frame_claims_only_identities_on_the_corpus(name, alias):
    if name in _SPEC_LIKE:
        source = generate_spec_program(name, _SPEC_LIKE[name], 0)
    else:
        source = ALL_BENCHMARKS[name].source
    claims = 0
    for k in (1, 9):
        engine, _, _ = _solved(source, k, alias)
        for kill in engine._kill_kernels.values():
            index = engine._read_index.get(kill.func)
            if index is None:
                continue  # no fact ever crossed a write of this scope
            interner = engine._interner
            # every kill kernel x every fact term seen in its scope
            for term, _eff in interner.iter_facts(index.known):
                claims += _check_claim(engine, kill, term)
            # ... and the mask the kernel used is exactly that claim
            for term, _eff in interner.iter_facts(kill.known):
                assert (bool(kill.identity_mask & interner.term_bit(term))
                        == _frame_claims(engine, kill, term))
    assert claims > 0


_FRAME_SRC = """
struct e { e* next; int* data; int key; }
e* head;
int n;
void f(e* x, e* y, int* w, int i, int j) {
  atomic {
    e* z = x->next;
    y->next = z;
    head = y;
    w[i] = n;
    z->data = w;
    x->key = j;
    i = j + 1;
    y->next = null;
    n = x->key;
  }
}
void main() {
  e* a = new e;
  e* b = new e;
  int* d = new int[4];
  f(a, b, d, 1, 2);
  f(b, a, d, 0, 1);
}
"""
_FRAME_INDICES = st.recursive(
    st.one_of(st.sampled_from([IVar("i"), IVar("j"), IVar("n")]),
              st.integers(0, 3).map(IConst)),
    lambda inner: st.tuples(inner, inner).map(
        lambda pair: IBin("+", pair[0], pair[1])),
    max_leaves=3,
)
_FRAME_TERMS = st.recursive(
    st.sampled_from([TVar(name) for name in
                     ("x", "y", "z", "w", "i", "j", "head", "n")]),
    lambda inner: st.one_of(
        inner.map(TStar),
        st.tuples(inner, st.sampled_from(("next", "data", "key"))).map(
            lambda pair: TPlus(pair[0], pair[1])),
        st.tuples(inner, _FRAME_INDICES).map(
            lambda pair: TIndex(pair[0], pair[1])),
    ),
    max_leaves=5,
)


@settings(max_examples=150, deadline=None)
@given(term=_FRAME_TERMS)
def test_frame_claims_only_identities_on_built_terms(term):
    for alias in ALIASES:
        if alias not in _SOLVED:
            _SOLVED[alias] = _solved(_FRAME_SRC, 9, alias)[0]
        engine = _SOLVED[alias]
        assert len(engine._kill_kernels) >= 9
        for kill in engine._kill_kernels.values():
            _check_claim(engine, kill, term)


# (*(*ȳ + .next) + .next): the cell two `next` derefs past y
_TWO_PAST_Y = TPlus(TStar(TPlus(TStar(TVar("y")), "next")), "next")


def _unclaimed_identities(engine):
    """(kill, term) pairs whose memoized pre-image is the term itself: the
    identities the per-term path found because the frame did not claim
    them."""
    found = []
    for kill in engine._kill_kernels.values():
        for tid, (ro_bits, classes) in kill.memo.items():
            if ro_bits == 1 << (tid << 1) and not classes:
                term = engine._interner.term(tid)
                assert not _frame_claims(engine, kill, term)
                found.append((kill, term))
    return found


def test_null_store_through_a_may_alias_stays_with_the_memo():
    # `x->next = null` may overwrite the cell `y->next` names (x and y share
    # a class), but a null content adds no alternative reading: the term
    # two derefs past y is its own pre-image although it reads a cell of
    # the written class
    source = """
    struct e { e* next; }
    void f(e* x, e* y) {
      atomic {
        x->next = null;
        e* z = y->next;
        z->next = null;
      }
    }
    void main() { e* a = new e; f(a, a); }
    """
    engine, locks, reference = _solved(source, 9, "steensgaard")
    (kill, term), = _unclaimed_identities(engine)
    assert kill.sub.write.ptr_content is None
    assert kill.write_class in engine.spec.read_classes("f", term)
    assert term is _TWO_PAST_Y
    assert locks == _render(reference)
    assert any(str(term) in lock
               for section in locks.values() for lock in section)


def test_andersen_distinct_cells_in_one_class_stay_with_the_memo():
    # x and y point to distinct allocations that z merges into one
    # Steensgaard class: the store through x cannot touch y's object under
    # the Andersen oracle, yet the class test (rightly) claims nothing
    source = """
    struct e { e* next; }
    void f(int c) {
      e* x = new e;
      e* y = new e;
      e* z = x;
      z = y;
      atomic {
        x->next = y;
        e* w = y->next;
        w->next = null;
      }
    }
    """
    engine, locks, reference = _solved(source, 9, "andersen")
    (kill, term), = _unclaimed_identities(engine)
    write = kill.sub.write
    assert kill.write_class in engine.spec.read_classes("f", term)
    assert term is _TWO_PAST_Y
    assert not engine.oracle.may_alias_terms(
        "f", _TWO_PAST_Y.inner.inner, write.func, write.definite)
    assert locks == _render(reference)
    # the unification oracle must rewrite the same term: no identity at all
    steens, steens_locks, _ = _solved(source, 9, "steensgaard")
    assert _unclaimed_identities(steens) == []
    assert steens_locks != locks
