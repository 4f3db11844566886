"""Reading and writing graphs.

Export is canonical N-Triples: one triple per line, full IRIs, LF
endings, trailing newline.  Lines are ordered by subject, then
predicate, then IRI objects before literals, then object, each compared
by code point: the order of ``sort_key`` in ``terms``.  That is not the
lines' text order (``<http://x/a>`` sorts before ``<http://x/a-b>``,
although ``-`` sorts below ``>``).  Equal assertion sets always
serialize to byte-identical files.  ``export_canonical`` builds one
plain row per assertion, ``(subject, predicate, 0, IRI)`` or
``(subject, predicate, 1, literal)``, which is its sort key, sorts the
rows with no key function and renders each line with one f-string,
escaping literals only; ``tests/export_oracle.py``, the export that
sorted by the key function, is the oracle it is held to.

Import accepts a Turtle subset that covers everything the exporter can
produce plus the usual conveniences: ``@prefix``, prefixed names (the
empty prefix too, as in ``:a``), ``a`` for rdf:type, ``;`` and ``,``
lists, ``#`` comments, quoted literals with ``\\"``, ``\\\\``, ``\\n``,
``\\r``, ``\\t`` escapes.  No blank nodes, no language tags, no
datatypes, no multi-line literals.  An IRI that :class:`Iri` refuses
(``<>``, or one holding a space), a ``@prefix`` base included, is a
:class:`ParseError` at its position, like any other unparsable input.

The reader makes one pass over the text.  Where a statement starts, one
compiled match first tries a whole N-Triples statement, ``<s> <p> <o> .``
or ``<s> <p> "literal" .`` with spaces or tabs between the terms, which
is how canonical N-Triples is read.  Anything else (``@prefix``,
prefixed names, ``a``, ``;`` and ``,`` lists, a line break inside a
statement) is read one token at a time by the same grammar.  Errors keep
the precedence of a reader that lexes the whole text before it parses:
an unparsable character anywhere beats any grammar error, so on a
grammar error the rest of the text is lexed before it is raised.  The
character-at-a-time reader this replaced, ``tests/turtle_oracle.py``,
is the oracle the differential tests hold it to, line, column and
message.

``import_turtle`` hands the parsed triples to ``KnowledgeBase.load`` in
one batch, and registers the document's prefixes only once it returns.
It turns the cyclic collector off while it parses and loads, and back on
afterwards only if it was on before, on every exit path; this is the
one place the package touches the collector.  What it builds holds no
cycle (see the comment there), so the pause leaves nothing for the
collector to find, only spares it rescanning a growing store.
"""

from __future__ import annotations

import gc
import re

from .core import KnowledgeBase, Triple
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


def export_canonical(kb: KnowledgeBase) -> str:
    # each row equals the assertion's sort_key, so a plain sort, with no
    # Python call per row, puts the rows in canonical order
    rows = [
        (a.subject.value, a.predicate.value, 1, o)
        if isinstance(o := a.object, str)
        else (a.subject.value, a.predicate.value, 0, o.value)
        for a in kb.assertions
    ]
    rows.sort()
    lines = [
        f'<{s}> <{p}> "{_escape_literal(o)}" .' if literal else f"<{s}> <{p}> <{o}> ."
        for s, p, literal, o in rows
    ]
    lines.append("")  # the join then ends the text with a newline
    return "\n".join(lines)


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
# One N-Triples statement per match: the four tokens (IRI, IRI, IRI or
# literal, '.') that _TOKEN would give one by one.  Its IRIs are [^>]*,
# which scans about twice as fast as _TOKEN's [^>\n]* but lets an IRI
# span a line break; Iri refuses such a value, and parse_turtle's error
# path then reports the unterminated IRI at its '<', as _TOKEN would.
_STATEMENT = re.compile(
    rf'<([^>]*)>[ \t]+<([^>]*)>[ \t]+(?:<([^>]*)>|"({_LITERAL})")[ \t]+\.{_SKIP}'
)
_SKIP_RE = re.compile(_SKIP)
_LITERAL_RE = re.compile(_LITERAL)
_HEAD = re.compile(f"{_NAME}*")
_ESCAPE = re.compile(r"\\(.)")
_UNESCAPES = {"\\": "\\", '"': '"', "n": "\n", "r": "\r", "t": "\t"}


def _unescape(literal: str) -> str:
    return _ESCAPE.sub(lambda e: _UNESCAPES[e.group(1)], literal)


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


def _lexed_to(text: str, pos: int) -> int:
    """Where tokens starting at ``pos`` run out: ``len(text)``, or the
    first offset where no token starts."""
    m = _TOKEN.match(text, pos)
    while m is not None:
        pos = m.end()
        m = _TOKEN.match(text, pos)
    return pos


def parse_turtle(
    text: str, prefixes: dict[str, str] | None = None
) -> tuple[list[Triple], dict[str, str]]:
    """Parse the Turtle subset.  Returns triples in document order plus
    the prefix table in effect at the end."""
    table = dict(DEFAULT_PREFIXES)
    if prefixes:
        table.update(prefixes)
    triples: list[Triple] = []
    iris: dict[str, Iri] = {}  # IRI text -> Iri, sparing a call into Iri
    names: dict[str, Iri] = {}  # prefixed name -> Iri, until the next @prefix
    end = len(text)
    pos = _SKIP_RE.match(text).end()  # where the next token starts
    last = 0  # where the last token taken one by one started

    def iri(value: str, offset: int) -> Iri:
        found = iris.get(value)
        if found is None:
            try:
                found = iris[value] = Iri(value)
            except ModelError:
                raise _error(text, offset, f"invalid IRI {value!r}") from None
        return found

    def take() -> tuple[str, str, int]:
        """The next token as ``(kind, value, offset)``; kind is a group
        of ``_TOKEN``."""
        nonlocal pos, last
        if pos == end:
            raise _error(text, last, "unexpected end of input")
        m = _TOKEN.match(text, pos)
        if m is None:
            raise _reject(text, pos)
        kind = m.lastgroup
        value = m.group(kind)
        if kind == "literal" and "\\" in value:
            value = _unescape(value)
        last, pos = pos, m.end()
        return kind, value, last

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

    statement = _STATEMENT.match
    try:
        while pos < end:
            m = statement(text, pos)
            if m is not None:
                s, p, o, literal = m.groups()
                subject = iris.get(s) or iri(s, pos)
                predicate = iris.get(p) or iri(p, m.start(2) - 1)
                if literal is None:
                    obj = iris.get(o) or iri(o, m.start(3) - 1)
                else:
                    obj = _unescape(literal) if "\\" in literal else literal
                triples.append((subject, predicate, obj))
                pos = m.end()
                continue
            token = take()
            if token[0] == "prefix_decl":
                name = take()
                if name[0] != "pname" or not name[1].endswith(":"):
                    raise _error(text, name[2], "expected prefix name")
                base = take()
                if base[0] != "iri":
                    raise _error(text, base[2], "expected IRI")
                dot = take()
                if dot[:2] != ("punct", "."):
                    raise _error(text, dot[2], "expected '.'")
                table[name[1][:-1]] = iri(base[1], base[2]).value
                names.clear()
                continue
            subject = term(token, "subject")
            while True:
                predicate = term(take(), "predicate")
                while True:
                    triples.append((subject, predicate, term(take(), "object")))
                    kind, sep, offset = take()
                    if kind != "punct":
                        raise _error(text, offset, "expected , ; or .")
                    if sep != ",":
                        break
                if sep == ".":
                    break
                # after ';' a bare '.' closes the statement
                if text.startswith(".", pos):
                    take()
                    break
    except ParseError:
        # an unparsable character anywhere beats a grammar error
        stop = _lexed_to(text, pos)
        if stop < end:
            raise _reject(text, stop) from None
        raise
    return triples, table


def import_turtle(kb: KnowledgeBase, text: str) -> int:
    """Parse and assert into the knowledge base; returns the triple count.

    Prefixes declared in the document are registered on the kb, except
    the empty prefix, which stays local to the document.  Unknown
    predicates are kept for the validator to report.  A document with a
    literal class is refused whole: nothing of it is written.
    """
    # The parser and the store build terms, triples, assertions, records
    # and the lists and dicts that index them; each points only at what
    # it holds, never back, so no cycle can form and reference counting
    # frees whatever is dropped.  The cyclic collector would only rescan
    # the growing store, so it is off while the document is read.
    was_enabled = gc.isenabled()
    gc.disable()
    try:
        triples, table = parse_turtle(text, kb.prefixes)
        kb.load(triples)
    finally:
        if was_enabled:
            gc.enable()
    for prefix, base in table.items():
        if prefix:
            kb.register_prefix(prefix, base)
    return len(triples)


def read_graph(path: str) -> KnowledgeBase:
    with open(path, "r", encoding="utf-8") as fh:
        text = fh.read()
    kb = KnowledgeBase()
    import_turtle(kb, text)
    return kb
