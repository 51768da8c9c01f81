"""Steensgaard-style unification-based points-to analysis (paper §4.3).

The paper instantiates both the Σ_≡ lock scheme and the ``mayAlias`` oracle
with Steensgaard's flow- and context-insensitive analysis [22]. We implement
a field-sensitive variant: every equivalence class (ECR) carries

* ``pts``    — the class of cells that pointers stored in this class's cells
               point to, and
* ``fields`` — per-offset classes: ``offset(κ, f)`` is the class of cells
               ``(o, f)`` for objects whose base cells are in κ.

All dynamic array offsets collapse into the single pseudo-field ``$idx``
(Steensgaard treats arrays as a single element). Unification is a single
pass over all instructions; merging two classes recursively merges their
pointees and common fields.
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import Dict, FrozenSet, List, Optional, Tuple

from ..lang import ast, ir

IDX_FIELD = "$idx"

VarKey = Tuple[str, str]  # (function name or "" for globals, variable name)


class ECR:
    """Equivalence class representative node (union-find with payload)."""

    __slots__ = ("parent", "rank", "pts", "fields")

    def __init__(self) -> None:
        self.parent: "ECR" = self
        self.rank = 0
        self.pts: Optional["ECR"] = None
        self.fields: Dict[str, "ECR"] = {}

    def find(self) -> "ECR":
        root = self
        while root.parent is not root:
            root = root.parent
        node = self
        while node.parent is not root:
            node.parent, node = root, node.parent
        return root


@dataclass
class AllocSite:
    """One ``new`` instruction: the paper's allocation-site abstraction."""

    site_id: int
    func_name: str
    type_name: str
    is_array: bool


class PointsTo:
    """Whole-program Steensgaard analysis over a lowered program."""

    def __init__(self, program: ir.LoweredProgram) -> None:
        self.program = program
        # each function's own names (locals and params), for var_key
        self._scopes: Dict[str, FrozenSet[str]] = {
            name: frozenset(func.locals).union(func.params)
            for name, func in program.functions.items()}
        self._vars: Dict[VarKey, ECR] = {}
        self._sites: Dict[int, ECR] = {}
        self.sites: Dict[int, AllocSite] = {}
        self._class_ids: Dict[ECR, int] = {}
        self._next_class_id = 0
        self._analyzed = False

    # -- ECR helpers ----------------------------------------------------------

    def _union(self, a: ECR, b: ECR) -> ECR:
        pending: List[Tuple[ECR, ECR]] = [(a, b)]
        root = a.find()
        while pending:
            x, y = pending.pop()
            rx, ry = x.find(), y.find()
            if rx is ry:
                continue
            if rx.rank < ry.rank:
                rx, ry = ry, rx
            ry.parent = rx
            if rx.rank == ry.rank:
                rx.rank += 1
            # merge payloads of ry into rx
            if ry.pts is not None:
                if rx.pts is None:
                    rx.pts = ry.pts
                else:
                    pending.append((rx.pts, ry.pts))
            for fname, fecr in ry.fields.items():
                if fname in rx.fields:
                    pending.append((rx.fields[fname], fecr))
                else:
                    rx.fields[fname] = fecr
            ry.pts = None
            ry.fields = {}
        return root.find()

    def _get_pts(self, ecr: ECR) -> ECR:
        root = ecr.find()
        if root.pts is None:
            root.pts = ECR()
        return root.pts.find()

    def _get_field(self, ecr: ECR, fieldname: str) -> ECR:
        root = ecr.find()
        if fieldname not in root.fields:
            root.fields[fieldname] = ECR()
        return root.fields[fieldname].find()

    # -- variable / site lookup -----------------------------------------------

    def var_key(self, func_name: str, name: str) -> VarKey:
        """Resolve *name* in *func_name* to its variable key (global aware)."""
        if name.startswith(ast.RET_PREFIX):
            # ret$f belongs to function f, whatever scope mentions it.
            return (name[len(ast.RET_PREFIX):], name)
        if name.startswith("$"):
            return (func_name, name)
        scope = self._scopes.get(func_name)
        if scope is not None and name in scope:
            return (func_name, name)
        if name in self.program.globals:
            return ("", name)
        return (func_name, name)

    def var_ecr(self, func_name: str, name: str) -> ECR:
        key = self.var_key(func_name, name)
        ecr = self._vars.get(key)
        if ecr is None:
            ecr = ECR()
            self._vars[key] = ecr
        return ecr.find()

    def site_ecr(self, site_id: int) -> ECR:
        ecr = self._sites.get(site_id)
        if ecr is None:
            ecr = ECR()
            self._sites[site_id] = ecr
        return ecr.find()

    # -- allocation-site numbering ----------------------------------------------

    def number_sites(self) -> None:
        next_site = 0
        for func in self.program.functions.values():
            for instr in ir.walk_instrs(func.body):
                if isinstance(instr, ir.IAssign) and isinstance(
                    instr.rhs, (ir.RNew, ir.RNewArray)
                ):
                    instr.site = next_site
                    self.sites[next_site] = AllocSite(
                        site_id=next_site,
                        func_name=func.name,
                        type_name=instr.rhs.type_name,
                        is_array=isinstance(instr.rhs, ir.RNewArray),
                    )
                    next_site += 1

    # -- constraint generation ---------------------------------------------------

    def analyze(self) -> "PointsTo":
        """Run the single-pass unification over every function."""
        if self._analyzed:
            return self
        self.number_sites()
        for func in self.program.functions.values():
            for instr in ir.walk_instrs(func.body):
                self._process(func, instr)
        self._assign_class_ids()
        self._analyzed = True
        return self

    def _assign_class_ids(self) -> None:
        """Pin class-id numbering to canonical program order.

        Ids used to be minted on first query, which made them — and the
        canonical lock-acquisition order built on them — depend on which
        inference configurations and simulations had already queried this
        (possibly shared) analysis earlier in the process.  Assigning them
        here, by a fixed closure walk over every variable, allocation site,
        and declared struct field, makes the numbering a pure function of
        the program text, so cached analyses give identical results in any
        query order.
        """
        for site_id in sorted(self._sites):
            # pre-create the cells a runtime access could touch, so the
            # checker's lazy class_of_site_cell can't mint new classes
            ecr = self._sites[site_id]
            site = self.sites.get(site_id)
            if site is not None:
                struct = self.program.structs.get(site.type_name)
                if struct is not None:
                    for fieldname in struct.field_names:
                        self._get_field(ecr, fieldname)
                if site.is_array:
                    self._get_field(ecr, IDX_FIELD)
        queue: List[ECR] = []
        for name in self.program.globals:
            queue.append(self.var_ecr("", name))
        for func in self.program.functions.values():
            for name in func.params:
                queue.append(self.var_ecr(func.name, name))
            for name in func.locals:
                queue.append(self.var_ecr(func.name, name))
            queue.append(self.var_ecr(func.name, ast.return_var(func.name)))
        for key in list(self._vars):  # temps the pass created beyond the above
            queue.append(self._vars[key])
        for site_id in sorted(self._sites):
            queue.append(self._sites[site_id])
        head = 0
        seen = set()
        while head < len(queue):
            root = queue[head].find()
            head += 1
            if root in seen:
                continue
            seen.add(root)
            self.class_id(root)
            if root.pts is not None:
                queue.append(root.pts)
            for fieldname in sorted(root.fields):
                queue.append(root.fields[fieldname])

    def _process(self, func: ir.LoweredFunction, instr: ir.Instr) -> None:
        fname = func.name
        if isinstance(instr, ir.IAssign):
            self._process_assign(fname, instr)
        elif isinstance(instr, ir.IStore):
            if isinstance(instr.value, ir.VarAtom):
                target = self._get_pts(self.var_ecr(fname, instr.addr))
                self._union(
                    self._get_pts(target),
                    self._get_pts(self.var_ecr(fname, instr.value.name)),
                )
        elif isinstance(instr, ir.IReturn):
            if isinstance(instr.value, ir.VarAtom):
                ret = self.var_ecr(fname, ast.return_var(fname))
                self._union(
                    self._get_pts(ret),
                    self._get_pts(self.var_ecr(fname, instr.value.name)),
                )

    def _process_assign(self, fname: str, instr: ir.IAssign) -> None:
        rhs = instr.rhs
        dest = self.var_ecr(fname, instr.dest)
        if isinstance(rhs, ir.RVar):
            self._union(self._get_pts(dest), self._get_pts(self.var_ecr(fname, rhs.src)))
        elif isinstance(rhs, ir.RAddrVar):
            self._union(self._get_pts(dest), self.var_ecr(fname, rhs.src))
        elif isinstance(rhs, ir.RLoad):
            src_pts = self._get_pts(self.var_ecr(fname, rhs.src))
            self._union(self._get_pts(dest), self._get_pts(src_pts))
        elif isinstance(rhs, ir.RFieldAddr):
            base_pts = self._get_pts(self.var_ecr(fname, rhs.src))
            self._union(self._get_pts(dest), self._get_field(base_pts, rhs.fieldname))
        elif isinstance(rhs, ir.RIndexAddr):
            base_pts = self._get_pts(self.var_ecr(fname, rhs.src))
            self._union(self._get_pts(dest), self._get_field(base_pts, IDX_FIELD))
        elif isinstance(rhs, (ir.RNew, ir.RNewArray)):
            assert instr.site is not None, "allocation sites must be numbered"
            self._union(self._get_pts(dest), self.site_ecr(instr.site))
        elif isinstance(rhs, ir.RCall):
            callee = self.program.functions.get(rhs.func)
            if callee is None:
                return  # external/unknown function: whole-program assumption
            for param, arg in zip(callee.params, rhs.args):
                if isinstance(arg, ir.VarAtom):
                    self._union(
                        self._get_pts(self.var_ecr(rhs.func, param)),
                        self._get_pts(self.var_ecr(fname, arg.name)),
                    )
            ret = self.var_ecr(rhs.func, ast.return_var(rhs.func))
            self._union(self._get_pts(dest), self._get_pts(ret))
        # RNull / RConst / RArith: no pointer flow

    # -- post-analysis queries --------------------------------------------------

    def class_id(self, ecr: ECR) -> int:
        """Stable integer id for *ecr*'s class (assigned on first use)."""
        root = ecr.find()
        cid = self._class_ids.get(root)
        if cid is None:
            cid = self._next_class_id
            self._next_class_id += 1
            self._class_ids[root] = cid
        return cid

    def class_of_var(self, func_name: str, name: str) -> int:
        """Class id of the *cell of* variable ``name`` (i.e., of ``&name``)."""
        return self.class_id(self.var_ecr(func_name, name))

    def pts_class(self, class_ecr: ECR) -> ECR:
        return self._get_pts(class_ecr)

    def offset_class(self, class_ecr: ECR, fieldname: Optional[str]) -> ECR:
        return self._get_field(class_ecr, fieldname if fieldname else IDX_FIELD)

    def ecr_of_class_id(self, cid: int) -> Optional[ECR]:
        for ecr, known in self._class_ids.items():
            if known == cid and ecr.find() is ecr:
                return ecr
        for ecr, known in self._class_ids.items():
            if known == cid:
                return ecr.find()
        return None

    def class_of_site_base(self, site_id: int) -> int:
        """Class id of the base cells of objects allocated at *site_id*."""
        return self.class_id(self.site_ecr(site_id))

    def class_of_site_cell(self, site_id: int, offset: object) -> int:
        """Class id of cell ``(o, offset)`` for objects from *site_id*.

        Integer offsets (array cells) collapse into ``$idx``; the base cell
        (offset None) is the site class itself.
        """
        site = self.site_ecr(site_id)
        if offset is None:
            return self.class_id(site)
        fieldname = IDX_FIELD if isinstance(offset, int) else str(offset)
        return self.class_id(self._get_field(site, fieldname))

    def same_class(self, a: ECR, b: ECR) -> bool:
        return a.find() is b.find()
