"""Reading and writing graphs.

Export is canonical N-Triples: one triple per line, full IRIs, sorted by
subject / predicate / object, LF endings, trailing newline.  Equal
assertion sets always serialize to byte-identical files.

Import accepts a Turtle subset that covers everything the exporter can
produce plus the usual conveniences: ``@prefix``, prefixed names (the
empty prefix too, as in ``:a``), ``a`` for rdf:type, ``;`` and ``,``
lists, ``#`` comments, quoted literals with ``\\"``, ``\\\\``, ``\\n``,
``\\r``, ``\\t`` escapes.  No blank nodes, no language tags, no
datatypes, no multi-line literals.  Canonical N-Triples is read by the
same parser.  An IRI that :class:`Iri` refuses (``<>``, or one holding
a space), a ``@prefix`` base included, is a :class:`ParseError` at its
position, like any other unparsable input.
"""

from __future__ import annotations

import re

from .core import KnowledgeBase
from .terms import Iri, ModelError, Obj
from .vocab import DEFAULT_PREFIXES, RDF_TYPE


class ParseError(ModelError):
    def __init__(self, line: int, col: int, message: str) -> None:
        super().__init__(f"line {line}, col {col}: {message}")
        self.line = line
        self.col = col
        self.detail = message


# ---------------------------------------------------------------------------
# Export
# ---------------------------------------------------------------------------

_LITERAL_ESCAPES = {
    "\\": "\\\\",
    '"': '\\"',
    "\n": "\\n",
    "\r": "\\r",
    "\t": "\\t",
}


def _escape_literal(value: str) -> str:
    return "".join(_LITERAL_ESCAPES.get(ch, ch) for ch in value)


def _render_object(obj: Obj) -> str:
    if isinstance(obj, Iri):
        return f"<{obj.value}>"
    return f'"{_escape_literal(obj)}"'


def export_canonical(kb: KnowledgeBase) -> str:
    lines = [
        f"<{a.subject.value}> <{a.predicate.value}> {_render_object(a.object)} ."
        for a in sorted(kb.assertions, key=lambda a: a.sort_key())
    ]
    return "\n".join(lines) + ("\n" if lines else "")


def graph_hash(kb: KnowledgeBase) -> str:
    import hashlib  # here, not at the top: loading OpenSSL costs every CLI run

    return hashlib.sha256(export_canonical(kb).encode("utf-8")).hexdigest()


def write_graph(kb: KnowledgeBase, path: str) -> None:
    with open(path, "w", encoding="utf-8", newline="\n") as fh:
        fh.write(export_canonical(kb))


# ---------------------------------------------------------------------------
# Import
# ---------------------------------------------------------------------------


# One token per match: the token, then the whitespace and comments after
# it.  The pname local part gives back trailing dots, which close the
# statement.  No atomic groups or possessive quantifiers (Python 3.10).
_SKIP = r"[ \t\r\n]*(?:#[^\n]*[ \t\r\n]*)*"
_NAME = r"[A-Za-z0-9_.\-]"
_LITERAL = r'[^"\\\n]*(?:\\[\\"nrt][^"\\\n]*)*'  # up to the closing quote
_TOKEN = re.compile(
    rf"(?:<(?P<iri>[^>\n]*)>"
    rf'|"(?P<literal>{_LITERAL})"'
    rf"|(?P<punct>[.;,])"
    rf"|(?P<pname>(?:[A-Za-z_]{_NAME}*)?:(?:{_NAME}*[A-Za-z0-9_\-])?)"
    rf"|(?P<a>a)(?!{_NAME}|:)"
    rf"|(?P<prefix_decl>@prefix)(?![^\W\d_])"
    rf"){_SKIP}"
)
_SKIP_RE = re.compile(_SKIP)
_LITERAL_RE = re.compile(_LITERAL)
_HEAD = re.compile(f"{_NAME}*")
_ESCAPE = re.compile(r"\\(.)")
_UNESCAPES = {"\\": "\\", '"': '"', "n": "\n", "r": "\r", "t": "\t"}


def _error(text: str, offset: int, message: str) -> ParseError:
    """A ParseError at the line and column of ``text[offset]``."""
    line = text.count("\n", 0, offset) + 1
    return ParseError(line, offset - text.rfind("\n", 0, offset), message)


def _reject(text: str, pos: int) -> ParseError:
    """The ParseError for ``text[pos]``, where no token starts."""
    ch = text[pos]
    if ch == "<":
        return _error(text, pos, "unterminated IRI")
    if ch == '"':
        end = _LITERAL_RE.match(text, pos + 1).end()
        if end == len(text) or text[end] == "\n":
            return _error(text, pos, "unterminated literal")
        return _error(text, end + 1, "unsupported escape")  # after a backslash
    if ch == "@":
        end = pos + 1
        while end < len(text) and text[end].isalpha():
            end += 1
        if text[pos:end] != "@prefix":
            return _error(text, pos, f"unsupported directive {text[pos:end]}")
        # '@prefix²': the lookahead takes '²' for a letter, isalpha() does not
        pos, ch = end, text[end]
    elif ch.isascii() and (ch.isalpha() or ch == "_"):
        head = _HEAD.match(text, pos).group()
        return _error(text, pos, f"unexpected token {head!r}")
    return _error(text, pos, f"unexpected character {ch!r}")


def _tokenize(text: str) -> list[tuple[str, str, int]]:
    """``(kind, value, offset)`` per token; kind is a group of ``_TOKEN``."""
    tokens = []
    seen: dict[str, str] = {}  # one string per distinct value, hashed once
    pos = _SKIP_RE.match(text).end()
    for m in _TOKEN.finditer(text, pos):
        if m.start() != pos:
            break
        kind = m.lastgroup
        value = m.group(kind)
        if kind == "literal" and "\\" in value:
            value = _ESCAPE.sub(lambda e: _UNESCAPES[e.group(1)], value)
        tokens.append((kind, seen.setdefault(value, value), pos))
        pos = m.end()
    if pos < len(text):
        raise _reject(text, pos)
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
    iris: dict[str, Iri] = {}  # IRI text -> Iri, sparing a call into Iri
    names: dict[str, Iri] = {}  # prefixed name -> Iri, until the next @prefix

    def iri(value: str, offset: int) -> Iri:
        found = iris.get(value)
        if found is None:
            try:
                found = iris[value] = Iri(value)
            except ModelError:
                raise _error(text, offset, f"invalid IRI {value!r}") from None
        return found

    def term(token: tuple[str, str, int], role: str) -> Obj:
        kind, value, offset = token
        if kind == "iri":
            return iris.get(value) or iri(value, offset)
        if kind == "pname":
            found = names.get(value)
            if found is None:
                prefix, local = value.split(":", 1)
                if prefix not in table:
                    raise _error(text, offset, f"unknown prefix {prefix!r}")
                found = names[value] = iri(table[prefix] + local, offset)
            return found
        if kind == "literal" and role == "object":
            return value
        if kind == "a" and role == "predicate":
            return RDF_TYPE
        kind = kind.replace("_", "-")  # prefix_decl: a group name needs "_"
        raise _error(text, offset, f"unexpected {kind} as {role}")

    # reading past the last token is the only IndexError below: the
    # input ended inside a statement
    i, n = 0, len(tokens)
    try:
        while i < n:
            if tokens[i][0] == "prefix_decl":
                name = tokens[i + 1]
                if name[0] != "pname" or not name[1].endswith(":"):
                    raise _error(text, name[2], "expected prefix name")
                base = tokens[i + 2]
                if base[0] != "iri":
                    raise _error(text, base[2], "expected IRI")
                end = tokens[i + 3]
                if end[:2] != ("punct", "."):
                    raise _error(text, end[2], "expected '.'")
                table[name[1][:-1]] = iri(base[1], base[2]).value
                names.clear()
                i += 4
                continue
            subject = term(tokens[i], "subject")
            i += 1
            while True:
                predicate = term(tokens[i], "predicate")
                while True:
                    triples.append((subject, predicate, term(tokens[i + 1], "object")))
                    sep = tokens[i + 2]
                    i += 2
                    if sep[0] != "punct":
                        raise _error(text, sep[2], "expected , ; or .")
                    if sep[1] != ",":
                        break
                i += 1
                if sep[1] == ".":
                    break
                # after ';' a bare '.' closes the statement
                if i < n and tokens[i][:2] == ("punct", "."):
                    i += 1
                    break
    except IndexError:
        last = tokens[-1][2] if tokens else 0
        raise _error(text, last, "unexpected end of input") from None
    return triples, table


def import_turtle(kb: KnowledgeBase, text: str) -> int:
    """Parse and assert into the knowledge base; returns the triple count.

    Prefixes declared in the document are registered on the kb, except
    the empty prefix, which stays local to the document.  Unknown
    predicates are kept for the validator to report.
    """
    triples, table = parse_turtle(text, kb.prefixes)
    for prefix, base in table.items():
        if prefix:
            kb.register_prefix(prefix, base)
    for subject, predicate, obj in triples:
        kb.assert_property(subject, predicate, obj)
    return len(triples)


def read_graph(path: str) -> KnowledgeBase:
    with open(path, "r", encoding="utf-8") as fh:
        text = fh.read()
    kb = KnowledgeBase()
    import_turtle(kb, text)
    return kb
