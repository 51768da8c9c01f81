"""``TransferSpec.node_rule``: the one enumeration of a statement node's
written cell and G set, and both drivers as consumers of it.

One case per IR statement kind × ``with_g``.  For each, the node's
``(write, gens, coarse)`` triple is read from the spec and the expected IN
set of an OUT set is computed from that triple alone (pre-image of OUT
under ``write``, joined with ``gens``; ``coarse`` emitted); the reference
engine's dict transfer and the kernel's compiled gen/kill transfer must
both produce exactly that, so neither can be running rules of its own.
"""

import pytest

from repro.cfg import Node, build_cfgs
from repro.inference import Engine, ReferenceEngine
from repro.inference.solver import Run
from repro.inference.subst import Substituter
from repro.inference.transfer import is_call, join_into
from repro.lang import ir, lower_program, parse_program
from repro.locks.effects import RO, RW
from repro.locks.terms import IVar, TIndex, TPlus, TStar, TVar
from repro.pointer import PointsTo

SOURCE = """
struct n { n* next; int v; }
n* G;
n* H;
int I;
int* A;
int id(int x) { return x; }
void bare() { return; }
void f(n* p, int i) {
  n* q = p;
  G = H;
  n** r = &q;
  n* s = *r;
  int* t = &p->v;
  int* u = &A[I];
  n* fresh = new n;
  A = new int[I];
  H = null;
  I = 7;
  i = I + i;
  i = -I;
  *r = G;
  p->v = 3;
  p->next = null;
  nop(2);
  if (I < i) { i = 0; }
  i = id(I);
}
void main() { G = new n; H = G; A = new int[4]; f(G, 1); bare(); }
"""

PROGRAM = lower_program(parse_program(SOURCE))
POINTSTO = PointsTo(PROGRAM).analyze()
CFGS = build_cfgs(PROGRAM)


def _kind(node):
    if node.kind != "instr":
        return node.kind
    instr = node.instr
    label = type(instr).__name__
    if isinstance(instr, ir.IAssign):
        label += "/" + type(instr.rhs).__name__
    elif isinstance(instr, ir.IStore):
        label += "/" + type(instr.value).__name__
    elif isinstance(instr, ir.IReturn):
        label += "/" + ("bare" if instr.value is None else "value")
    return label


def _nodes_by_kind():
    found = {}
    for func_name, cfg in CFGS.items():
        for node in cfg.nodes:
            if not is_call(node):
                found.setdefault(_kind(node), (func_name, node))
    # acquireAll/releaseAll exist only in transformed programs
    found["IAcquireAll"] = ("f", Node(9001, "instr",
                                      instr=ir.IAcquireAll("f#1", ())))
    found["IReleaseAll"] = ("f", Node(9002, "instr",
                                      instr=ir.IReleaseAll("f#1")))
    return found


NODES = _nodes_by_kind()
KINDS = (
    "entry", "exit", "branch",
    "IAssign/RVar", "IAssign/RAddrVar", "IAssign/RLoad",
    "IAssign/RFieldAddr", "IAssign/RIndexAddr", "IAssign/RNew",
    "IAssign/RNewArray", "IAssign/RNull", "IAssign/RConst",
    "IAssign/RArith", "IStore/VarAtom", "IStore/ConstAtom",
    "IStore/NullAtom", "IReturn/value", "IReturn/bare", "INop",
    "IAcquireAll", "IReleaseAll",
)


def test_source_covers_every_statement_kind():
    assert set(KINDS) <= set(NODES)


def _out_facts():
    """An OUT set touching every variable the program's writes can hit."""
    return {
        TVar("G"): RO,
        TStar(TVar("G")): RW,
        TPlus(TStar(TVar("p")), "v"): RW,
        TPlus(TStar(TVar("H")), "next"): RO,
        TStar(TStar(TVar("r"))): RO,
        TStar(TVar("q")): RW,
        TIndex(TStar(TVar("A")), IVar("i")): RW,
        TIndex(TStar(TVar("A")), IVar("I")): RO,
        TStar(TVar("ret$id")): RO,
    }


@pytest.mark.parametrize("with_g", (True, False))
@pytest.mark.parametrize("kind", KINDS)
@pytest.mark.parametrize("k", (1, 9))
def test_both_drivers_consume_the_node_rule(kind, with_g, k):
    func_name, node = NODES[kind]
    out = _out_facts()

    reference = ReferenceEngine(PROGRAM, CFGS, POINTSTO, k=k)
    spec = reference.spec
    write, gens, coarse = spec.node_rule(func_name, node, with_g)
    if not with_g:
        assert not gens and not coarse
    expected_coarse = set(coarse)
    if write is None:
        expected = dict(out)
    else:
        expected = {}
        sub = Substituter(reference.oracle, write, func_name)
        for term, eff in out.items():
            tracked, widened = spec.pre_image(func_name, sub, term)
            join_into(expected, dict.fromkeys(tracked, eff))
            expected_coarse.update((cls, eff) for cls in widened)
    join_into(expected, gens)

    run = Run(reference, ("test",))
    assert reference._transfer(func_name, node, out, run, with_g) == expected
    assert run.coarse == expected_coarse

    kernel = Engine(PROGRAM, CFGS, POINTSTO, k=k)
    encode, decode = kernel._interner.encode, kernel._interner.decode
    for _visit in range(2):  # the second visit is served from the memos
        run = Run(kernel, ("test",))
        got = kernel._transfer(func_name, node, encode(out), run, with_g)
        assert decode(got) == expected
        assert run.coarse == expected_coarse
    assert kernel.stats["mask_hits"] >= 1


def test_g_sets_of_the_paper_rules():
    """Pin the G sets themselves on the cases Figure 4 spells out."""
    spec = ReferenceEngine(PROGRAM, CFGS, POINTSTO, k=9).spec

    def gens(kind):
        func_name, node = NODES[kind]
        return spec.node_rule(func_name, node, True).gens

    # *r = G: the stored-to cell rw, the global read ro (r is thread-local)
    assert gens("IStore/VarAtom") == {TStar(TVar("r")): RW, TVar("G"): RO}
    # s = *r: the loaded cell ro
    assert gens("IAssign/RLoad") == {TStar(TVar("r")): RO}
    # q = p: thread-local cells on both sides need no lock (§4.3)
    assert gens("IAssign/RVar") == {}
    # if (I < i): the global operand ro
    assert gens("branch") == {TVar("I"): RO}
    # A = new int[I]: the written global cell rw, the size operand ro
    assert gens("IAssign/RNewArray") == {TVar("A"): RW, TVar("I"): RO}
