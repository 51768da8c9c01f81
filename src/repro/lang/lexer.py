"""Tokenizer for the mini-C surface syntax."""

from __future__ import annotations

import re
from typing import Iterator, List, Tuple

from .errors import SourceError

KEYWORDS = {
    "struct",
    "int",
    "void",
    "if",
    "else",
    "while",
    "atomic",
    "return",
    "new",
    "null",
    "nop",
}


class LexError(SourceError):
    """Raised when the input contains an unrecognizable character."""

    phase = "lex"

    def __init__(self, message: str, line: int, col: int = None) -> None:
        super().__init__(message, line=line, col=col)


class Token:
    __slots__ = ("kind", "text", "line", "col")

    def __init__(self, kind: str, text: str, line: int, col: int = 0) -> None:
        self.kind = kind  # "ident" | "int" | "kw" | "op" | "eof"
        self.text = text
        self.line = line
        self.col = col  # 1-based column of the first character

    def __repr__(self) -> str:
        return f"Token({self.kind}, {self.text!r}, line={self.line})"


class TokenList:
    """The token sequence of one source text, stored column-wise.

    ``kinds`` and ``texts`` hold one entry per token (the parser indexes
    them directly); ``starts`` holds each token's source offset.  Indexing
    and iteration build :class:`Token` objects, resolving offsets to line
    and column only then — positions are needed for diagnostics, not for
    parsing.
    """

    __slots__ = ("source", "kinds", "texts", "starts")

    def __init__(self, source: str, kinds: List[str], texts: List[str],
                 starts: List[int]) -> None:
        self.source = source
        self.kinds = kinds
        self.texts = texts
        self.starts = starts

    def __len__(self) -> int:
        return len(self.texts)

    def __getitem__(self, index: int) -> Token:
        line, col = position(self.source, self.starts[index])
        return Token(self.kinds[index], self.texts[index], line, col)

    def __iter__(self) -> Iterator[Token]:
        # one forward scan: count the newlines between consecutive tokens
        source = self.source
        line, line_start, previous = 1, 0, 0
        for kind, text, start in zip(self.kinds, self.texts, self.starts):
            newlines = source.count("\n", previous, start)
            if newlines:
                line += newlines
                line_start = source.rfind("\n", previous, start) + 1
            previous = start
            yield Token(kind, text, line, start - line_start + 1)


def position(source: str, offset: int) -> Tuple[int, int]:
    """The 1-based ``(line, col)`` of *offset* in *source*."""
    line_start = source.rfind("\n", 0, offset) + 1
    return source.count("\n", 0, offset) + 1, offset - line_start + 1


# One compiled master pattern drives the tokenizer, one match per token:
# the leading ``[ \t\r\n]*`` swallows the whitespace before the token, and
# line/column are recovered from the token's offset only when asked for.
# Alternative order matters: digits must win over identifier tails (so
# ``123abc`` still lexes as INT then IDENT), two-char operators must win
# over their one-char prefixes, and comments must win over ``/``.
# ``skip`` is a comment, or the end of the text after trailing whitespace
# (so no search fails part-way through a run of blanks).  ``bcopen`` only
# matches when the closing ``*/`` is missing (the comment branch failed),
# turning an unterminated comment into a LexError instead of silently
# lexing ``/`` and ``*`` operators; ``bad`` is any other character.
_TOKEN_RE = re.compile(
    r"""[ \t\r\n]*(?:
      (?P<op>==|!=|<=|>=|&&|\|\||->|[+\-*%<>=!&(){}\[\];,.]|/(?![/*]))
    | (?P<int>[0-9]+)
    | (?P<ident>[\w$]+)
    | (?P<skip>//[^\n]*|/\*.*?\*/|\Z)
    | (?P<bcopen>/\*)
    | (?P<bad>.)
    )""",
    re.VERBOSE | re.DOTALL,
)


def tokenize(source: str) -> TokenList:
    """Split *source* into tokens ending with an ``eof`` token."""
    kinds: List[str] = []
    texts: List[str] = []
    starts: List[int] = []
    add_kind, add_text, add_start = kinds.append, texts.append, starts.append
    for m in _TOKEN_RE.finditer(source):
        kind = m.lastgroup
        if kind == "op" or kind == "int" or kind == "ident":
            text = m[kind]
            # no operator or number spells a keyword
            add_kind("kw" if text in KEYWORDS else kind)
            add_text(text)
            add_start(m.start(kind))
        elif kind == "bad":
            offset = m.start(kind)
            raise LexError(f"unexpected character {source[offset]!r}",
                           *position(source, offset))
        elif kind == "bcopen":
            raise LexError("unterminated block comment",
                           *position(source, m.start(kind)))
        # "skip" produces no token
    add_kind("eof")
    add_text("")
    add_start(len(source))
    return TokenList(source, kinds, texts, starts)
