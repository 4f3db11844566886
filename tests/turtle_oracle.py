"""Reference Turtle reader: the character-at-a-time tokenizer and parser.

This is the reader ``oasiskg.rdfio`` used before its tokenizer became one
compiled regex, kept as the oracle for the differential tests.  One change
since: like the package reader, it passes each ``@prefix`` base through
``Iri``, so both refuse an unusable base where it is declared.
``_tokenize`` walks the text one character at a time with ``advance()``,
tracking line and column as it goes, and returns one ``_Token`` per
token; ``parse_turtle`` consumes them.  It rejects the empty prefix, and
an IRI that ``Iri`` refuses escapes as ``InvalidIri``.
"""

from __future__ import annotations

from dataclasses import dataclass

from oasiskg.rdfio import ParseError
from oasiskg.terms import Iri, Obj
from oasiskg.vocab import DEFAULT_PREFIXES, RDF_TYPE


@dataclass(frozen=True)
class _Token:
    kind: str  # iri, pname, literal, punct, a, prefix-decl
    value: str
    line: int
    col: int


_PUNCT = {".", ";", ","}
_PNAME_START = set(
    "ABCDEFGHIJKLMNOPQRSTUVWXYZabcdefghijklmnopqrstuvwxyz_"
)
_PNAME_CHARS = _PNAME_START | set("0123456789-.")
_UNESCAPES = {"\\": "\\", '"': '"', "n": "\n", "r": "\r", "t": "\t"}


def _tokenize(text: str) -> list[_Token]:
    tokens: list[_Token] = []
    i = 0
    line = 1
    col = 1
    n = len(text)

    def advance(count: int = 1) -> None:
        nonlocal i, line, col
        for _ in range(count):
            if i < n and text[i] == "\n":
                line += 1
                col = 1
            else:
                col += 1
            i += 1

    while i < n:
        ch = text[i]
        if ch in " \t\r\n":
            advance()
            continue
        if ch == "#":
            while i < n and text[i] != "\n":
                advance()
            continue
        start_line, start_col = line, col
        if ch == "<":
            advance()
            begin = i
            while i < n and text[i] not in ">\n":
                advance()
            if i >= n or text[i] != ">":
                raise ParseError(start_line, start_col, "unterminated IRI")
            value = text[begin:i]
            advance()
            tokens.append(_Token("iri", value, start_line, start_col))
            continue
        if ch == '"':
            advance()
            buf: list[str] = []
            while True:
                if i >= n or text[i] == "\n":
                    raise ParseError(start_line, start_col, "unterminated literal")
                c = text[i]
                if c == "\\":
                    advance()
                    if i >= n or text[i] not in _UNESCAPES:
                        raise ParseError(line, col, "unsupported escape")
                    buf.append(_UNESCAPES[text[i]])
                    advance()
                    continue
                if c == '"':
                    advance()
                    break
                buf.append(c)
                advance()
            tokens.append(_Token("literal", "".join(buf), start_line, start_col))
            continue
        if ch in _PUNCT:
            advance()
            tokens.append(_Token("punct", ch, start_line, start_col))
            continue
        if ch == "@":
            begin = i
            advance()
            while i < n and text[i].isalpha():
                advance()
            word = text[begin:i]
            if word != "@prefix":
                raise ParseError(start_line, start_col, f"unsupported directive {word}")
            tokens.append(_Token("prefix-decl", word, start_line, start_col))
            continue
        if ch in _PNAME_START:
            begin = i
            while i < n and text[i] in _PNAME_CHARS:
                advance()
            head = text[begin:i]
            if i < n and text[i] == ":":
                advance()
                lbegin = i
                while i < n and text[i] in _PNAME_CHARS:
                    advance()
                local = text[lbegin:i]
                # a trailing dot belongs to the statement, not the name
                while local.endswith("."):
                    local = local[:-1]
                    i -= 1
                    col -= 1
                tokens.append(
                    _Token("pname", f"{head}:{local}", start_line, start_col)
                )
                continue
            if head == "a":
                tokens.append(_Token("a", "a", start_line, start_col))
                continue
            raise ParseError(start_line, start_col, f"unexpected token {head!r}")
        raise ParseError(start_line, start_col, f"unexpected character {ch!r}")
    return tokens


Triple = tuple[Iri, Iri, Obj]


def parse_turtle(
    text: str, prefixes: dict[str, str] | None = None
) -> tuple[list[Triple], dict[str, str]]:
    """Parse the Turtle subset.  Returns triples in document order plus
    the prefix table in effect at the end."""
    table = dict(DEFAULT_PREFIXES)
    if prefixes:
        table.update(prefixes)
    tokens = _tokenize(text)
    triples: list[Triple] = []
    pos = 0

    def peek() -> _Token | None:
        return tokens[pos] if pos < len(tokens) else None

    def take() -> _Token:
        nonlocal pos
        tok = peek()
        if tok is None:
            last = tokens[-1] if tokens else _Token("punct", "", 1, 1)
            raise ParseError(last.line, last.col, "unexpected end of input")
        pos += 1
        return tok

    def expect_punct(value: str) -> None:
        tok = take()
        if tok.kind != "punct" or tok.value != value:
            raise ParseError(tok.line, tok.col, f"expected {value!r}")

    def expand(tok: _Token) -> Iri:
        prefix, local = tok.value.split(":", 1)
        base = table.get(prefix)
        if base is None:
            raise ParseError(tok.line, tok.col, f"unknown prefix {prefix!r}")
        return Iri(base + local)

    def term(tok: _Token, *, role: str) -> Obj:
        if tok.kind == "iri":
            return Iri(tok.value)
        if tok.kind == "pname":
            return expand(tok)
        if tok.kind == "literal" and role == "object":
            return tok.value
        if tok.kind == "a" and role == "predicate":
            return RDF_TYPE
        raise ParseError(tok.line, tok.col, f"unexpected {tok.kind} as {role}")

    while (tok := peek()) is not None:
        if tok.kind == "prefix-decl":
            take()
            name_tok = take()
            if name_tok.kind != "pname" or not name_tok.value.endswith(":"):
                raise ParseError(name_tok.line, name_tok.col, "expected prefix name")
            prefix = name_tok.value.split(":", 1)[0]
            iri_tok = take()
            if iri_tok.kind != "iri":
                raise ParseError(iri_tok.line, iri_tok.col, "expected IRI")
            expect_punct(".")
            table[prefix] = Iri(iri_tok.value).value
            continue
        subject = term(take(), role="subject")
        if not isinstance(subject, Iri):
            raise ParseError(tok.line, tok.col, "subject must be an IRI")
        while True:
            pred_tok = take()
            predicate = term(pred_tok, role="predicate")
            if not isinstance(predicate, Iri):
                raise ParseError(pred_tok.line, pred_tok.col, "predicate must be an IRI")
            while True:
                triples.append((subject, predicate, term(take(), role="object")))
                sep = take()
                if sep.kind != "punct":
                    raise ParseError(sep.line, sep.col, "expected , ; or .")
                if sep.value == ",":
                    continue
                break
            if sep.value == ".":
                break
            # after ';' a bare '.' closes the statement
            nxt = peek()
            if nxt is not None and nxt.kind == "punct" and nxt.value == ".":
                take()
                break
    return triples, table
