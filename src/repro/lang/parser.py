"""Recursive-descent parser for the mini-C surface syntax.

Grammar (roughly)::

    program   := (struct_decl | global_decl | function_decl)*
    struct    := "struct" IDENT "{" (type IDENT ";")* "}"
    global    := type IDENT ";"
    function  := type IDENT "(" params ")" block
    block     := "{" stmt* "}"
    stmt      := decl | assign | if | while | atomic | return | call ";"
               | "nop" "(" INT ")" ";" | block
    assign    := lvalue "=" expr ";"
    lvalue    := unary  (restricted to Var / Deref / FieldAccess / IndexAccess)

Expressions use standard C precedence:
``||  &&  ==/!=  </<=/>/>=  +/-  *,/,%  unary(* & ! -)  postfix(-> [])``;
every binary operator is left-associative.

The parser reads the lexer's ``kinds``/``texts`` columns by position.  An
operator or keyword is recognised by its text alone: no identifier,
integer or eof token can spell one, so ``check(t)`` is one list index and
one compare.
"""

from __future__ import annotations

from typing import List, Optional

from . import ast
from .errors import SourceError
from .lexer import Token, tokenize


class ParseError(SourceError):
    phase = "parse"

    def __init__(self, message: str, token: Token) -> None:
        super().__init__(f"{message} (got {token.text!r})",
                         line=token.line,
                         col=getattr(token, "col", None) or None)
        self.token = token


_LVALUES = (ast.Var, ast.Deref, ast.FieldAccess, ast.IndexAccess)

# binding strength of each binary operator; any other text binds at 0
_PRECEDENCE = {
    "||": 1,
    "&&": 2,
    "==": 3, "!=": 3,
    "<": 4, "<=": 4, ">": 4, ">=": 4,
    "+": 5, "-": 5,
    "*": 6, "/": 6, "%": 6,
}


class Parser:
    def __init__(self, source: str) -> None:
        self.tokens = tokenize(source)
        self.kinds = self.tokens.kinds
        self.texts = self.tokens.texts
        self.pos = 0

    # -- token helpers ------------------------------------------------------
    # ``pos`` never passes the trailing eof token: the parser only steps
    # over a token it has already matched, and eof matches nothing.

    def peek(self) -> Token:
        """The current token, with its position (for diagnostics)."""
        return self.tokens[self.pos]

    def check(self, text: str) -> bool:
        return self.texts[self.pos] == text

    def accept(self, text: str) -> bool:
        if self.texts[self.pos] == text:
            self.pos += 1
            return True
        return False

    def expect(self, text: str) -> None:
        if self.texts[self.pos] != text:
            raise ParseError(f"expected {text!r}", self.peek())
        self.pos += 1

    def expect_ident(self) -> str:
        pos = self.pos
        if self.kinds[pos] != "ident":
            raise ParseError("expected identifier", self.peek())
        self.pos = pos + 1
        return self.texts[pos]

    # -- types --------------------------------------------------------------

    def looks_like_type(self) -> bool:
        pos = self.pos
        text = self.texts[pos]
        if text == "int" or text == "void":
            return True
        # "name *" or "name* name" style declarations: IDENT followed by '*'
        return self.kinds[pos] == "ident" and self.texts[pos + 1] == "*"

    def parse_type(self) -> ast.Type:
        pos = self.pos
        text = self.texts[pos]
        if text == "void":
            self.pos = pos + 1
            return ast.VOID
        if text == "int":
            self.pos = pos + 1
            base: ast.Type = ast.INT
            name = "int"
        elif self.kinds[pos] == "ident":
            self.pos = pos + 1
            name = text
            base = ast.PtrType(name)  # a bare struct name only appears with *
            if not self.check("*"):
                raise ParseError("struct values must be pointers (use T*)",
                                 self.peek())
        else:
            raise ParseError("expected type", self.peek())
        # collect pointer stars
        while self.accept("*"):
            base = ast.PtrType(name)
            name = name + "*"
        return base

    # -- program ------------------------------------------------------------

    def parse_program(self) -> ast.Program:
        program = ast.Program()
        kinds = self.kinds
        while kinds[self.pos] != "eof":
            if self.check("struct"):
                decl = self.parse_struct()
                program.structs[decl.name] = decl
            else:
                self.parse_global_or_function(program)
        return program

    def parse_struct(self) -> ast.StructDecl:
        self.expect("struct")
        name = self.expect_ident()
        self.expect("{")
        fields: List = []
        while not self.check("}"):
            ftype = self.parse_type()
            fname = self.expect_ident()
            self.expect(";")
            fields.append((ftype, fname))
        self.expect("}")
        self.accept(";")
        return ast.StructDecl(name, fields)

    def parse_global_or_function(self, program: ast.Program) -> None:
        decl_type = self.parse_type()
        name = self.expect_ident()
        if self.accept("("):
            params: List[ast.Param] = []
            if not self.check(")"):
                while True:
                    ptype = self.parse_type()
                    pname = self.expect_ident()
                    params.append(ast.Param(ptype, pname))
                    if not self.accept(","):
                        break
            self.expect(")")
            body = self.parse_block()
            program.functions[name] = ast.FunctionDecl(decl_type, name,
                                                       params, body)
        else:
            self.expect(";")
            program.globals[name] = ast.GlobalDecl(decl_type, name)

    # -- statements ----------------------------------------------------------

    def parse_block(self) -> ast.Block:
        self.expect("{")
        stmts: List[ast.Stmt] = []
        texts = self.texts
        while texts[self.pos] != "}":
            stmts.append(self.parse_stmt())
        self.pos += 1
        return ast.Block(stmts)

    def parse_stmt(self) -> ast.Stmt:
        text = self.texts[self.pos]
        if text == "{":
            return self.parse_block()
        if text == "if":
            return self.parse_if()
        if text == "while":
            self.pos += 1
            self.expect("(")
            cond = self.parse_expr()
            self.expect(")")
            body = self.parse_stmt_as_block()
            return ast.While(cond, body)
        if text == "atomic":
            self.pos += 1
            return ast.Atomic(self.parse_block())
        if text == "return":
            self.pos += 1
            value = None if self.check(";") else self.parse_expr()
            self.expect(";")
            return ast.Return(value)
        if text == "nop":
            self.pos += 1
            self.expect("(")
            if self.kinds[self.pos] != "int":
                raise ParseError("nop expects an integer literal", self.peek())
            cost = int(self.texts[self.pos])
            self.pos += 1
            self.expect(")")
            self.expect(";")
            return ast.Nop(cost)
        if self.looks_like_type():
            decl_type = self.parse_type()
            name = self.expect_ident()
            init = None
            if self.accept("="):
                init = self.parse_expr()
            self.expect(";")
            return ast.VarDecl(decl_type, name, init)
        # assignment or call statement
        expr = self.parse_expr()
        if self.accept("="):
            value = self.parse_expr()
            self.expect(";")
            if not isinstance(expr, _LVALUES):
                raise ParseError("invalid assignment target", self.peek())
            return ast.Assign(expr, value)
        self.expect(";")
        if not isinstance(expr, ast.CallExpr):
            raise ParseError("expression statement must be a call",
                             self.peek())
        return ast.ExprStmt(expr)

    def parse_stmt_as_block(self) -> ast.Block:
        stmt = self.parse_stmt()
        return stmt if isinstance(stmt, ast.Block) else ast.Block([stmt])

    def parse_if(self) -> ast.If:
        self.expect("if")
        self.expect("(")
        cond = self.parse_expr()
        self.expect(")")
        then = self.parse_stmt_as_block()
        orelse: Optional[ast.Block] = None
        if self.accept("else"):
            if self.check("if"):
                orelse = ast.Block([self.parse_if()])
            else:
                orelse = self.parse_stmt_as_block()
        return ast.If(cond, then, orelse)

    # -- expressions ----------------------------------------------------------

    def parse_expr(self, min_precedence: int = 1) -> ast.Expr:
        """Precedence climbing: the operand, then every binary operator
        binding at least *min_precedence*, each with a right operand of
        strictly higher binding (left associativity)."""
        left = self.parse_unary()
        texts = self.texts
        while True:
            op = texts[self.pos]
            precedence = _PRECEDENCE.get(op, 0)
            if precedence < min_precedence:
                return left
            self.pos += 1
            left = ast.Binary(op, left, self.parse_expr(precedence + 1))

    def parse_unary(self) -> ast.Expr:
        """A prefix operator applied to a unary expression, or a primary
        followed by its postfix ``->f`` / ``[i]`` chain."""
        texts = self.texts
        text = texts[self.pos]
        if text == "*":
            self.pos += 1
            return ast.Deref(self.parse_unary())
        if text == "&":
            self.pos += 1
            operand = self.parse_unary()
            if not isinstance(operand, _LVALUES):
                raise ParseError("cannot take the address of this expression",
                                 self.peek())
            return ast.AddrOf(operand)
        if text == "!" or text == "-":
            self.pos += 1
            return ast.Unary(text, self.parse_unary())
        expr = self.parse_primary()
        while True:
            text = texts[self.pos]
            if text == "->":
                self.pos += 1
                expr = ast.FieldAccess(expr, self.expect_ident())
            elif text == "[":
                self.pos += 1
                index = self.parse_expr()
                self.expect("]")
                expr = ast.IndexAccess(expr, index)
            else:
                return expr

    def parse_primary(self) -> ast.Expr:
        pos = self.pos
        kind = self.kinds[pos]
        text = self.texts[pos]
        if kind == "ident":
            # an identifier is never the last token: eof follows it
            if self.texts[pos + 1] != "(":
                self.pos = pos + 1
                return ast.Var(text)
            self.pos = pos + 2
            args: List[ast.Expr] = []
            if not self.check(")"):
                while True:
                    args.append(self.parse_expr())
                    if not self.accept(","):
                        break
            self.expect(")")
            return ast.CallExpr(text, tuple(args))
        if kind == "int":
            self.pos = pos + 1
            return ast.IntLit(int(text))
        if text == "null":
            self.pos = pos + 1
            return ast.Null()
        if text == "new":
            self.pos = pos + 1
            type_name = "int" if self.accept("int") else self.expect_ident()
            while self.accept("*"):
                type_name += "*"
            if self.accept("["):
                size = self.parse_expr()
                self.expect("]")
                return ast.NewArray(type_name, size)
            return ast.New(type_name)
        if text == "(":
            self.pos = pos + 1
            expr = self.parse_expr()
            self.expect(")")
            return expr
        raise ParseError("expected expression", self.peek())


def parse_program(source: str) -> ast.Program:
    """Parse mini-C *source* text into a :class:`repro.lang.ast.Program`."""
    parser = Parser(source)
    try:
        return parser.parse_program()
    except RecursionError:
        # a recursive-descent parser overflows on pathologically nested
        # input; that is a property of the input, not a crash
        raise ParseError("expression nesting too deep",
                         parser.peek()) from None


def parse_expr(source: str) -> ast.Expr:
    """Parse a single expression (used by tests and examples)."""
    parser = Parser(source)
    expr = parser.parse_expr()
    if parser.kinds[parser.pos] != "eof":
        raise ParseError("trailing input after expression", parser.peek())
    return expr
