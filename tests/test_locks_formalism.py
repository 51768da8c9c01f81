"""Lock formalism tests: effects, concrete semantics, terms, paper locks."""

from hypothesis import given, settings
from hypothesis import strategies as st

from repro.locks import (
    ALL,
    RO,
    RW,
    Denotation,
    GLOBAL_LOCK,
    IBin,
    IConst,
    IUnknown,
    IVar,
    Lock,
    TIndex,
    TPlus,
    TStar,
    TVar,
    coarse_lock,
    coarser,
    conflict,
    denotation_leq,
    eff_join,
    eff_leq,
    eff_meet,
    fine_lock,
    global_lock,
    is_fine_grain,
    lock_join,
    lock_leq,
    lock_lt,
    reduce_locks,
    term_for_access_path,
    term_free_vars,
    term_has_unknown,
    term_size,
)

# ---------------------------------------------------------------------------
# effects lattice
# ---------------------------------------------------------------------------


def test_effect_order():
    assert eff_leq(RO, RO) and eff_leq(RO, RW) and eff_leq(RW, RW)
    assert not eff_leq(RW, RO)


def test_effect_join_meet():
    assert eff_join(RO, RO) == RO
    assert eff_join(RO, RW) == RW
    assert eff_meet(RW, RW) == RW
    assert eff_meet(RO, RW) == RO


# ---------------------------------------------------------------------------
# concrete lock semantics (§3.2)
# ---------------------------------------------------------------------------


def test_global_lock_protects_everything():
    assert GLOBAL_LOCK.protects(("cell", 1), RW)
    assert GLOBAL_LOCK.protects(("cell", 2), RO)


def test_read_lock_does_not_protect_writes():
    lock = Denotation(frozenset({("c", 1)}), RO)
    assert lock.protects(("c", 1), RO)
    assert not lock.protects(("c", 1), RW)


def test_conflict_definition():
    a = Denotation(frozenset({("c", 1)}), RW)
    b = Denotation(frozenset({("c", 1)}), RO)
    c = Denotation(frozenset({("c", 2)}), RW)
    ro1 = Denotation(frozenset({("c", 1)}), RO)
    assert conflict(a, b)  # shared location + a write
    assert not conflict(a, c)  # disjoint
    assert not conflict(b, ro1)  # both read-only
    assert conflict(GLOBAL_LOCK, a)


def test_coarser_relation():
    fine = Denotation(frozenset({("c", 1)}), RO)
    coarse = Denotation(frozenset({("c", 1), ("c", 2)}), RW)
    assert coarser(coarse, fine)
    assert not coarser(fine, coarse)
    assert coarser(GLOBAL_LOCK, coarse)


def test_fine_grain_predicate():
    assert is_fine_grain(Denotation(frozenset({("c", 1)}), RW))
    assert not is_fine_grain(Denotation(frozenset({("c", 1), ("c", 2)}), RW))
    assert not is_fine_grain(GLOBAL_LOCK)


def test_denotation_leq_is_partial_order_on_samples():
    samples = [
        Denotation(frozenset(), RO),
        Denotation(frozenset({("c", 1)}), RO),
        Denotation(frozenset({("c", 1)}), RW),
        Denotation(ALL, RO),
        GLOBAL_LOCK,
    ]
    for a in samples:
        assert denotation_leq(a, a)
        for b in samples:
            for c in samples:
                if denotation_leq(a, b) and denotation_leq(b, c):
                    assert denotation_leq(a, c)


# ---------------------------------------------------------------------------
# lock terms
# ---------------------------------------------------------------------------


def test_term_size_counts_operators():
    assert term_size(TVar("x")) == 1
    assert term_size(TStar(TVar("x"))) == 2
    assert term_size(TPlus(TStar(TVar("x")), "f")) == 3
    deep = term_for_access_path("x", "f", "*", "g", "*")
    assert term_size(deep) == 5


def test_term_size_counts_index_complexity():
    t = TIndex(TStar(TVar("a")), IBin("%", IVar("k"), IConst(64)))
    assert term_size(t) == 4  # a(1) + star(1) + index(1) + binop(1)


def test_term_free_vars():
    t = TIndex(TStar(TVar("a")), IBin("%", IVar("k"), IConst(64)))
    assert term_free_vars(t) == frozenset({"a", "k"})


def test_term_has_unknown():
    assert not term_has_unknown(TStar(TVar("x")))
    assert term_has_unknown(TIndex(TVar("a"), IUnknown()))


def test_access_path_builder():
    t = term_for_access_path("x", "*", "next")
    assert t == TPlus(TStar(TVar("x")), "next")
    t2 = term_for_access_path("a", "*", 3)
    assert t2 == TIndex(TStar(TVar("a")), IConst(3))


# ---------------------------------------------------------------------------
# the paper's tree-shaped locks (Σ_k × Σ_≡ × Σ_ε)
# ---------------------------------------------------------------------------


def _locks():
    term = TStar(TVar("x"))
    other = TStar(TVar("y"))
    return [
        global_lock(RW),
        coarse_lock(1, RO),
        coarse_lock(1, RW),
        coarse_lock(2, RW),
        fine_lock(term, 1, RO, "f"),
        fine_lock(term, 1, RW, "f"),
        fine_lock(other, 2, RW, "f"),
    ]


def test_lock_order_tree_shape():
    glob = global_lock(RW)
    c1 = coarse_lock(1, RW)
    f1 = fine_lock(TStar(TVar("x")), 1, RW, "f")
    f2 = fine_lock(TStar(TVar("y")), 2, RW, "f")
    assert lock_leq(f1, c1) and lock_leq(c1, glob) and lock_leq(f1, glob)
    assert not lock_leq(f2, c1)  # different class
    assert not lock_leq(c1, f1)


def test_lock_order_respects_effects():
    assert lock_leq(coarse_lock(1, RO), coarse_lock(1, RW))
    assert not lock_leq(coarse_lock(1, RW), coarse_lock(1, RO))


def test_lock_order_is_partial_order():
    locks = _locks()
    for a in locks:
        assert lock_leq(a, a)
        for b in locks:
            if lock_leq(a, b) and lock_leq(b, a):
                assert a == b
            for c in locks:
                if lock_leq(a, b) and lock_leq(b, c):
                    assert lock_leq(a, c)


def test_lock_join_is_upper_bound():
    locks = _locks()
    for a in locks:
        for b in locks:
            j = lock_join(a, b)
            assert lock_leq(a, j) and lock_leq(b, j)


def test_reduce_locks_drops_covered():
    glob = global_lock(RW)
    c1 = coarse_lock(1, RW)
    f1 = fine_lock(TStar(TVar("x")), 1, RW, "f")
    assert reduce_locks([c1, f1]) == frozenset({c1})
    assert reduce_locks([glob, c1, f1]) == frozenset({glob})
    c2 = coarse_lock(2, RW)
    assert reduce_locks([c1, c2]) == frozenset({c1, c2})


def test_reduce_locks_keeps_rw_over_ro():
    c_ro = coarse_lock(1, RO)
    c_rw = coarse_lock(1, RW)
    assert reduce_locks([c_ro, c_rw]) == frozenset({c_rw})


@given(st.lists(st.sampled_from(_locks()), min_size=0, max_size=7))
@settings(max_examples=200, deadline=None)
def test_reduce_locks_is_antichain_and_covering(locks):
    reduced = reduce_locks(locks)
    # antichain: no element strictly below another
    for a in reduced:
        for b in reduced:
            assert not lock_lt(a, b)
    # covering: every input lock is ≤ some kept lock
    for lock in locks:
        assert any(lock_leq(lock, kept) for kept in reduced)


def _pairwise_reduce(locks):
    """The definition ``reduce_locks`` implements in one pass: keep each
    lock that no other lock of the set strictly covers."""
    locks = set(locks)
    return frozenset(lock for lock in locks
                     if not any(lock_lt(lock, other) for other in locks))


_EFFECTS = st.sampled_from((RO, RW))
_CLASSES = st.integers(min_value=0, max_value=3)
_RANDOM_LOCK = st.one_of(
    _EFFECTS.map(global_lock),
    st.builds(coarse_lock, _CLASSES, _EFFECTS),
    st.builds(fine_lock,
              st.sampled_from((TVar("x"), TStar(TVar("x")), TStar(TVar("y")),
                               TPlus(TStar(TVar("x")), "next"))),
              _CLASSES, _EFFECTS, st.sampled_from(("f", "g"))),
)


@given(st.lists(_RANDOM_LOCK, max_size=24))
@settings(max_examples=400, deadline=None)
def test_reduce_locks_matches_the_pairwise_definition(locks):
    assert reduce_locks(locks) == _pairwise_reduce(locks)
