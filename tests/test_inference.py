"""Lock inference tests: the paper's examples and core behaviors."""

import pytest

from repro.bench.harness import run_seq
from repro.inference import (LockInference, infer_locks,
                             transform_with_inference)
from repro.interp import ThreadExec, World
from repro.locks import RO, RW
from repro.locks.terms import TPlus, TStar, TVar, term_for_access_path
from repro.pointer.aliasing import AliasOracle

MOVE_SRC = """
struct elem { elem* next; int* data; }
struct list { elem* head; }

void move(list* from, list* to) {
  atomic {
    elem* x = to->head;
    elem* y = from->head;
    from->head = null;
    if (x == null) {
      to->head = y;
    } else {
      while (x->next != null) { x = x->next; }
      x->next = y;
    }
  }
}

void main() {
  list* a = new list;
  list* b = new list;
  move(a, b);
}
"""


def locks_of(result, section):
    return result.locks_for(section).locks


def test_figure1_move_k9():
    """The paper's Figure 1(c): fine locks on &(to->head) and &(from->head)
    plus a coarse lock E over the list elements."""
    result = infer_locks(MOVE_SRC, k=9)
    locks = locks_of(result, "move#1")
    fine_terms = {lock.term for lock in locks if lock.is_fine}
    assert TPlus(TStar(TVar("to")), "head") in fine_terms
    assert TPlus(TStar(TVar("from")), "head") in fine_terms
    coarse = [lock for lock in locks if lock.is_coarse]
    assert len(coarse) >= 1  # the element lock E
    assert all(lock.eff == RW for lock in locks if lock.is_fine
               and lock.term.fieldname == "head")


def test_figure1_move_k0_all_coarse():
    result = infer_locks(MOVE_SRC, k=0)
    locks = locks_of(result, "move#1")
    assert all(lock.is_coarse for lock in locks)


FIG2_SRC = """
struct obj { int* data; }

void fig2(obj* y, int* w, int c) {
  obj* x;
  x = null;
  if (c == 0) { x = y; }
  atomic {
    x->data = w;
    int* z = y->data;
    *z = 0;
  }
}

void main() { obj* o = new obj; fig2(o, new int, 1); }
"""


def test_figure2_backward_tracing_with_aliasing():
    """Figure 2: the access *z traces back to {y->data, w} because x and y
    may alias."""
    result = infer_locks(FIG2_SRC, k=9)
    locks = locks_of(result, "fig2#1")
    fine = {lock.term for lock in locks if lock.is_fine}
    # *z protected via *(y->data content) and *w̄ (the aliased branch)
    assert term_for_access_path("y", "*", "data", "*") in fine
    assert TStar(TVar("w")) in fine


def test_effects_distinguish_read_only_sections():
    src = """
    struct c { int v; }
    c* C;
    int get() { int r; atomic { r = C->v; } return r; }
    void put(int x) { atomic { C->v = x; } }
    void main() { C = new c; put(1); int g = get(); }
    """
    result = infer_locks(src, k=9)
    get_locks = locks_of(result, "get#1")
    put_locks = locks_of(result, "put#1")
    assert all(lock.eff == RO for lock in get_locks)
    assert any(lock.eff == RW for lock in put_locks)


def test_use_effects_false_promotes_to_rw():
    src = """
    struct c { int v; }
    c* C;
    int get() { int r; atomic { r = C->v; } return r; }
    void main() { C = new c; int g = get(); }
    """
    result = infer_locks(src, k=9, use_effects=False)
    assert all(lock.eff == RW for lock in locks_of(result, "get#1"))


def test_unbounded_traversal_needs_coarse():
    src = """
    struct n { n* next; }
    n* HEAD;
    void walk() {
      atomic {
        n* c = HEAD;
        while (c != null) { c = c->next; }
      }
    }
    void main() { HEAD = new n; walk(); }
    """
    result = infer_locks(src, k=9)
    locks = locks_of(result, "walk#1")
    assert any(lock.is_coarse for lock in locks)


def test_fresh_allocation_needs_no_lock():
    """Objects allocated inside the section are unreachable at entry
    (the paper's k=3 drop in Figure 7)."""
    src = """
    struct n { int v; }
    void f() {
      atomic {
        n* x = new n;
        x->v = 1;
      }
    }
    void main() { f(); }
    """
    result = infer_locks(src, k=9)
    assert locks_of(result, "f#1") == frozenset()


def test_fresh_allocation_through_callee():
    """The allocation-site tracing must cross function boundaries via
    summaries: make() returns a fresh node, so writes to it need no lock."""
    src = """
    struct n { int v; n* next; }
    n* make(int v) {
      n* x = new n;
      x->v = v;
      return x;
    }
    void f() {
      atomic {
        n* y = make(3);
        y->v = 4;
      }
    }
    void main() { f(); }
    """
    result = infer_locks(src, k=9)
    assert locks_of(result, "f#1") == frozenset()


def test_callee_accesses_are_protected():
    src = """
    struct c { int v; }
    c* C;
    void bump() { C->v = C->v + 1; }
    void f() { atomic { bump(); } }
    void main() { C = new c; f(); }
    """
    result = infer_locks(src, k=9)
    locks = locks_of(result, "f#1")
    assert any(lock.eff == RW for lock in locks)
    fine_terms = {lock.term for lock in locks if lock.is_fine}
    assert TPlus(TStar(TVar("C")), "v") in fine_terms


def test_recursive_callee_terminates_and_coarsens():
    src = """
    struct n { n* next; int v; }
    n* HEAD;
    void visit(n* c) {
      if (c != null) {
        c->v = 1;
        visit(c->next);
      }
    }
    void f() { atomic { visit(HEAD); } }
    void main() { HEAD = new n; f(); }
    """
    result = infer_locks(src, k=9)
    locks = locks_of(result, "f#1")
    assert locks  # something protects the traversal
    assert any(lock.is_coarse for lock in locks)


def test_unknown_callee_forces_global():
    src = """
    int g;
    void f() { atomic { mystery(); g = 1; } }
    void main() { f(); }
    """
    result = infer_locks(src, k=9)
    locks = locks_of(result, "f#1")
    assert any(lock.is_global for lock in locks)


def test_global_variable_cells_are_locked():
    src = """
    int g;
    void f() { atomic { g = g + 1; } }
    void main() { f(); }
    """
    result = infer_locks(src, k=9)
    locks = locks_of(result, "f#1")
    fine = [lock for lock in locks if lock.is_fine]
    assert any(lock.term == TVar("g") and lock.eff == RW for lock in fine)


def test_thread_local_variables_omitted():
    src = """
    void f() {
      atomic {
        int x = 1;
        x = x + 1;
      }
    }
    void main() { f(); }
    """
    result = infer_locks(src, k=9)
    assert locks_of(result, "f#1") == frozenset()


def test_dynamic_index_fine_lock():
    """The hashtable-2 effect: a bucket write addressed by k % 64 gets a
    single fine-grain lock."""
    src = """
    struct e { e* next; int key; }
    e** T;
    void put(int k) {
      atomic {
        e* n = new e;
        n->key = k;
        int h = k % 64;
        n->next = T[h];
        T[h] = n;
      }
    }
    void main() { T = new e*[64]; put(5); }
    """
    result = infer_locks(src, k=9)
    locks = locks_of(result, "put#1")
    fine_rw = [lock for lock in locks if lock.is_fine and lock.eff == RW]
    assert len(fine_rw) == 1  # exactly the bucket cell


def test_dynamic_index_coarsens_at_small_k():
    src = """
    struct e { e* next; int key; }
    e** T;
    void put(int k) {
      atomic {
        int h = k % 64;
        T[h] = null;
      }
    }
    void main() { T = new e*[64]; put(5); }
    """
    result = infer_locks(src, k=2)
    locks = locks_of(result, "put#1")
    assert all(not (lock.is_fine and lock.eff == RW) for lock in locks)
    assert any(lock.is_coarse and lock.eff == RW for lock in locks)


def test_loaded_index_coarsens():
    """An index loaded from the heap is not expressible at entry (the
    resizing hashtable effect)."""
    src = """
    struct t { int n; }
    t* T;
    int* A;
    void put(int k) {
      atomic {
        int h = k % T->n;
        A[h] = 1;
      }
    }
    void main() { T = new t; A = new int[8]; put(3); }
    """
    result = infer_locks(src, k=9)
    locks = locks_of(result, "put#1")
    write_locks = [lock for lock in locks if lock.eff == RW]
    assert write_locks and all(lock.is_coarse for lock in write_locks)


def test_merge_joins_branches():
    src = """
    struct c { int v; int w; }
    c* C;
    void f(int b) {
      atomic {
        if (b == 0) { C->v = 1; } else { C->w = 2; }
      }
    }
    void main() { C = new c; f(0); }
    """
    result = infer_locks(src, k=9)
    locks = locks_of(result, "f#1")
    fine_terms = {lock.term for lock in locks if lock.is_fine and lock.eff == RW}
    assert TPlus(TStar(TVar("C")), "v") in fine_terms
    assert TPlus(TStar(TVar("C")), "w") in fine_terms


def test_multiple_sections_independent():
    src = """
    int a;
    int b;
    void f() { atomic { a = 1; } atomic { b = 2; } }
    void main() { f(); }
    """
    result = infer_locks(src, k=9)
    terms1 = {lock.term for lock in locks_of(result, "f#1")}
    terms2 = {lock.term for lock in locks_of(result, "f#2")}
    assert TVar("a") in terms1 and TVar("a") not in terms2
    assert TVar("b") in terms2 and TVar("b") not in terms1


def test_lock_counts_classification():
    result = infer_locks(MOVE_SRC, k=9)
    counts = result.lock_counts()
    assert counts.fine_rw == 2
    assert counts.coarse_rw >= 1
    assert counts.total == counts.fine_rw + counts.coarse_rw + counts.fine_ro \
        + counts.coarse_ro + counts.global_locks


def test_analysis_times_recorded():
    result = infer_locks(MOVE_SRC, k=9)
    assert result.pointer_time >= 0
    assert result.dataflow_time >= 0
    assert result.analysis_time == result.pointer_time + result.dataflow_time


# `g` redirects `p`, and `f` reaches `g` only through their cycle.  The
# trailing `g(0)` makes the backward pass ask for g's write effects before
# f's; without it f is asked first.
CYCLE_WRITES_SRC = """
struct cell { int val; }  struct other { int val; }
cell* p; cell* q; other* r;
void g(int n) { p = q; if (n > 0) { f(n - 1); } }
void f(int n) { if (n > 0) { g(n - 1); } }
void setup() { p = new cell; q = new cell; r = new other; }
void op() { atomic { f(2); p->val = 1; %s } }
void main() { setup(); op(); }
"""


@pytest.mark.parametrize("enable_caches", (True, False),
                         ids=("kernel", "reference"))
@pytest.mark.parametrize("k", (1, 9))
def test_cycle_member_writes_do_not_depend_on_first_demand(k, enable_caches):
    """Every member of a call cycle writes what the whole cycle writes:
    `f(2)` may rewrite `p`, so `p->val` after it cannot keep a fine lock
    named by the pre-call `p` — whichever of f, g was asked first."""
    covering = []
    for tail in ("g(0); r->val = 2;", ""):
        result = LockInference(CYCLE_WRITES_SRC % tail, k=k,
                               enable_caches=enable_caches).run()
        world = World(transform_with_inference(result),
                      pointsto=result.pointsto, check=True)
        run_seq(world, "setup")
        # the §4.2 checker raises ProtectionError on an uncovered access
        for _tick in ThreadExec(world, 1, mode="locks").call("op", []):
            pass
        cls = AliasOracle(result.pointsto).class_of_term(
            "op", TPlus(TStar(TVar("p")), "val"))
        covering.append([
            (lock.is_coarse, lock.eff)
            for lock in locks_of(result, "op#1") if lock.cls == cls])
    assert covering[0] == covering[1] == [(True, RW)]
