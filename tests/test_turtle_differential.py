"""The regex tokenizer of ``oasiskg.rdfio`` against the character-level
reader it replaced (``tests/turtle_oracle.py``).

Both parsers must agree on triples, on the final prefix table and on
every ``ParseError``'s line, column and detail, except in the two places
where the new reader differs on purpose, which are tested on their own:
the empty prefix (the oracle stops at ``:`` with "unexpected character
':'") and IRIs that ``Iri`` refuses (the oracle lets ``InvalidLocalName``
escape, the new reader raises a ``ParseError`` at the token).
"""

from __future__ import annotations

import ast
import random
import re

import pytest

import turtle_oracle
from conftest import build_protocol_scenario, random_behaviour_spec, random_process_spec
from oasiskg import Iri, KnowledgeBase, export_canonical, import_turtle, rdfio, vocab
from oasiskg.builder import build_plan, build_process
from oasiskg.rdfio import ParseError, parse_turtle
from oasiskg.terms import InvalidLocalName, ModelError

EX = "http://example.org/"

#: every feature of the subset: @prefix, a, ';' and ',' lists, '; .',
#: comments, trailing-dot prefixed names, all five escapes, tabs, CRLF
HAND_WRITTEN = (
    "@prefix ex: <http://example.org/> .\n"
    "@prefix oasis: <http://example.org/oasis#> .  # trailing comment\n"
    "# a whole-line comment with <brackets>, \"quotes\" and ; . ,\n"
    "ex:alice a oasis:Agent ;\toasis:hasBehaviour ex:b1 , ex:b2 ; .\r\n"
    "ex:b1 oasis:dependsOn ex:b2.\n"
    "ex:b.2 oasis:dependsOn ex:b_3-x ,\n"
    "\t\t<http://example.org/b4> .\n"
    'ex:e oasis:hasEventKind "tab\\there \\"q\\" back\\\\slash\\nnl\\rcr" .\r\n'
    "<http://example.org/x> <http://example.org/oasis#dependsOn> <http://example.org/y> .\n"
    "@prefix ex: <http://other.example/> .\n"
    "ex:alice a oasis:Agent.\n"
)

#: one-character edits are drawn from these: Turtle's own syntax
#: characters, a letter, a digit and a non-ASCII letter
ALPHABET = '<>":.;,@#\\ \t\r\nq7é'

#: every error the oracle can raise ("subject must be an IRI" and
#: "predicate must be an IRI" cannot: ``term`` rejects literals first)
ORACLE_ERRORS = {
    "unterminated IRI": r"unterminated IRI",
    "unterminated literal": r"unterminated literal",
    "unsupported escape": r"unsupported escape",
    "unsupported directive": r"unsupported directive @\S*",
    "unexpected token": r"unexpected token '.*'",
    "unexpected character": r"unexpected character '.*'",
    "end of input": r"unexpected end of input",
    "expected '.'": r"expected '\.'",
    "unknown prefix": r"unknown prefix '.*'",
    "unexpected kind": r"unexpected (iri|pname|literal|punct|a|prefix-decl) as "
    r"(subject|predicate|object)",
    "expected prefix name": r"expected prefix name",
    "expected IRI": r"expected IRI",
    "expected separator": r"expected , ; or \.",
}


def outcome(parse, text: str):
    """What one parser makes of ``text``, in comparable form."""
    try:
        triples, table = parse(text)
    except ParseError as err:
        return ("parse", err.line, err.col, err.detail)
    except ModelError as err:
        return ("model", type(err).__name__, str(err))
    return ("ok", triples, table)


def exports() -> list[str]:
    """Canonical exports of builder-made graphs, literals included."""
    texts = []
    kb = KnowledgeBase()
    build_protocol_scenario(kb, with_events=True)
    kb.assert_property(
        Iri(EX + "a_modify_event"), vocab.HAS_EVENT_KIND, 'tab\t"q" \\ nl\n cr\r'
    )
    texts.append(export_canonical(kb))
    for seed in range(4):
        rng = random.Random(seed)
        kb = KnowledgeBase()
        build_plan(kb, random_behaviour_spec(rng, f"p{seed}"))
        build_process(kb, random_process_spec(rng, f"q{seed}"))
        texts.append(export_canonical(kb))
    return texts


def mutate(rng: random.Random, text: str) -> str:
    pos = rng.randrange(len(text) + 1)
    ch = rng.choice(ALPHABET)
    op = rng.choice(("insert", "delete", "replace"))
    if op == "insert":
        return text[:pos] + ch + text[pos:]
    if op == "delete":
        return text[:pos] + text[pos + 1 :]
    return text[:pos] + ch + text[pos + 1 :]


def assert_same(text: str, seen: dict[str, int]) -> None:
    """Both parsers agree on ``text``, or differ only as documented."""
    want = outcome(turtle_oracle.parse_turtle, text)
    got = outcome(parse_turtle, text)
    if want[0] == "parse":
        kinds = [k for k, pattern in ORACLE_ERRORS.items() if re.fullmatch(pattern, want[3])]
        assert len(kinds) == 1, want
        seen[kinds[0]] = seen.get(kinds[0], 0) + 1
    if want[0] == "parse" and want[3] == "unexpected character ':'":
        seen["empty prefix"] = seen.get("empty prefix", 0) + 1
        return
    if want[0] == "model":
        # the oracle let InvalidLocalName escape; the reader names the token
        assert want[1] == InvalidLocalName.__name__, (text, want)
        assert got[0] == "parse" and got[3].startswith("invalid IRI "), (text, got)
        seen["invalid IRI"] = seen.get("invalid IRI", 0) + 1
        return
    seen[want[0]] = seen.get(want[0], 0) + 1
    assert got == want, text


def test_exports_parse_as_the_oracle_parses_them():
    for text in exports():
        triples, table = parse_turtle(text)
        assert (triples, table) == turtle_oracle.parse_turtle(text)
        # each distinct IRI is built once per call
        iris = [t for triple in triples for t in triple if isinstance(t, Iri)]
        assert len({id(t) for t in iris}) == len(set(iris))


def test_hand_written_turtle_parses_as_the_oracle_parses_it():
    triples, table = parse_turtle(HAND_WRITTEN)
    assert (triples, table) == turtle_oracle.parse_turtle(HAND_WRITTEN)
    assert table["ex"] == "http://other.example/"
    assert (Iri(EX + "b.2"), vocab.DEPENDS_ON, Iri(EX + "b_3-x")) in triples
    assert (Iri(EX + "b1"), vocab.DEPENDS_ON, Iri(EX + "b2")) in triples
    assert (Iri("http://other.example/alice"), vocab.RDF_TYPE, vocab.AGENT) in triples
    assert 'tab\there "q" back\\slash\nnl\rcr' in [t[2] for t in triples]
    assert len(triples) == 9


def test_seeded_mutations_match_the_oracle():
    rng = random.Random(20261018)
    small_export = "".join(exports()[0].splitlines(keepends=True)[::12])
    bases = [HAND_WRITTEN, small_export]
    seen: dict[str, int] = {}
    for base in bases:
        assert_same(base, seen)
    for i in range(3000):
        text = bases[i % 2]
        for _ in range(rng.choice((1, 1, 2))):
            text = mutate(rng, text)
        assert_same(text, seen)
    missing = [kind for kind in ORACLE_ERRORS if not seen.get(kind)]
    assert not missing, seen
    assert seen["ok"] >= 500 and seen["empty prefix"] >= 10, seen
    assert seen["invalid IRI"] >= 10, seen


#: N-Triples-shaped statements, which the reader takes one match each,
#: between Turtle that it reads token by token: tabs and runs of spaces
#: between terms, comments between statements, every escape, a full
#: triple followed by ';' and ',' lists, '@prefix' lines in between
STATEMENTS = (
    "<http://example.org/a> <http://example.org/oasis#dependsOn> <http://example.org/b> .\n"
    "# between statements, with <http://example.org/x> and \"q\" . ;\n"
    "<http://example.org/a>\t<http://example.org/oasis#dependsOn>\t\t<http://example.org/c>   .  # after\n"
    '<http://example.org/e>  \t <http://example.org/oasis#hasEventKind> "tab\\there \\"q\\" back\\\\slash\\nnl\\rcr" .\r\n'
    "<http://example.org/a> <http://example.org/oasis#dependsOn> <http://example.org/d> ;\n"
    "\t<http://example.org/oasis#dependsOn> <http://example.org/e> , <http://example.org/f> .\n"
    "@prefix ex: <http://example.org/> .\n"
    "<http://example.org/g> <http://example.org/oasis#dependsOn> ex:h .\n"
    "ex:i <http://example.org/oasis#dependsOn> <http://example.org/j>.\n"
    "<http://example.org/k> a <http://example.org/oasis#Agent> .\n"
    "@prefix oasis: <http://example.org/oasis#> .\n"
    '<http://example.org/l> <http://example.org/oasis#hasEventKind> "plain" .\n'
    "@prefix q: <http://example.org/q/> .\n"
    "<http://example.org/m> oasis:dependsOn <http://example.org/n> .\n"
    "@prefix r: <http://example.org/r/> .\n"
    "<http://example.org/o> <http://example.org/oasis#dependsOn> q:p .\n"
)


#: a short document, where an edit often lands on the '@prefix' line or
#: cuts the last statement short
SHORT = (
    "<http://example.org/a> <http://example.org/oasis#dependsOn> <http://example.org/b> .\n"
    "@prefix ex: <http://example.org/> .\n"
    "ex:b\t<http://example.org/oasis#dependsOn>  <http://example.org/c> .\n"
)


def spaced_export() -> str:
    """Every 40th line of an export, with tabs and runs of spaces
    between terms and, after every second statement, a comment or an
    ``@prefix`` line."""
    gaps = (" ", "\t", "  ", " \t ")
    lines = []
    for i, line in enumerate(exports()[0].splitlines()[::40]):
        subject, predicate, rest = line.split(" ", 2)
        obj = rest[: -len(" .")]
        lines.append(gaps[i % 4].join((subject, predicate, obj, ".")))
        if i % 4 == 1:
            lines.append(f"# comment {i} <not-an-iri> .")
        elif i % 4 == 3:
            lines.append(f"@prefix p{i}: <{EX}p{i}/> .")
    return "\n".join(lines) + "\n"


class CountingMatch:
    """A compiled pattern that counts the matches it finds."""

    def __init__(self, pattern: re.Pattern) -> None:
        self.pattern = pattern
        self.found = 0

    def match(self, text: str, pos: int):
        m = self.pattern.match(text, pos)
        self.found += m is not None
        return m


def test_seeded_statement_mutations_match_the_oracle(monkeypatch):
    statements = CountingMatch(rdfio._STATEMENT)
    tokens = CountingMatch(rdfio._TOKEN)
    monkeypatch.setattr(rdfio, "_STATEMENT", statements)
    monkeypatch.setattr(rdfio, "_TOKEN", tokens)
    rng = random.Random(20261019)
    bases = [STATEMENTS, spaced_export(), SHORT]
    seen: dict[str, int] = {}
    paths = {"statement": 0, "token": 0, "both": 0}  # among cases read whole
    for i in range(3003):
        text = bases[i % 3]
        if i >= 3:
            for _ in range(rng.choice((1, 1, 2))):
                text = mutate(rng, text)
        statements.found = tokens.found = 0
        got = outcome(parse_turtle, text)
        if got[0] == "ok":
            paths["statement"] += statements.found > 0
            paths["token"] += tokens.found > 0
            paths["both"] += statements.found > 0 and tokens.found > 0
        elif got[0] == "parse" and got[3].startswith("invalid IRI "):
            # the oracle gives no position here: it must be the IRI's '<'
            iri = ast.literal_eval(got[3][len("invalid IRI ") :])
            offset = sum(len(line) + 1 for line in text.split("\n")[: got[1] - 1]) + got[2] - 1
            assert text.startswith(f"<{iri}>", offset), (text, got)
        assert_same(text, seen)
    missing = [kind for kind in ORACLE_ERRORS if not seen.get(kind)]
    assert not missing, seen
    assert seen["ok"] >= 500 and seen["invalid IRI"] >= 10, seen
    assert min(paths.values()) >= 100, paths


# ---------------------------------------------------------------------------
# The two deliberate divergences
# ---------------------------------------------------------------------------


EMPTY_PREFIX = "@prefix : <http://example.org/> .\n:a a <http://example.org/C> .\n"


def test_empty_prefix_is_accepted_and_stays_in_the_document():
    with pytest.raises(ParseError) as err:
        turtle_oracle.parse_turtle(EMPTY_PREFIX)
    assert (err.value.line, err.value.col) == (1, 9)
    triples, table = parse_turtle(EMPTY_PREFIX)
    assert triples == [(Iri(EX + "a"), vocab.RDF_TYPE, Iri(EX + "C"))]
    assert table[""] == EX
    kb = KnowledgeBase()
    assert import_turtle(kb, EMPTY_PREFIX) == 1
    assert "" not in kb.prefixes


@pytest.mark.parametrize(
    "text, line, col, iri",
    [
        ("<http://x/a> <http://x/p> <> .", 1, 27, ""),
        ("<http://x/a b> <http://x/p> <http://x/o> .", 1, 1, "http://x/a b"),
        ('<http://x/a>\t<http://x/p q>  "o" .', 1, 14, "http://x/p q"),
        ("<http://x/a> <http://x/p> <http://x/o> .\n<http://x/a> <http://x/p> <o\t> .", 2, 27, "o\t"),
        ('@prefix q: <http://x/"> .\n<http://x/a> q:p <http://x/o> .', 1, 12, 'http://x/"'),
        ("@prefix p: <http://x/a b> .\n", 1, 12, "http://x/a b"),
        ("@prefix p: <> .\n", 1, 12, ""),
    ],
)
def test_iris_that_iri_refuses_are_parse_errors(text, line, col, iri):
    with pytest.raises(InvalidLocalName):
        turtle_oracle.parse_turtle(text)
    with pytest.raises(ParseError) as err:
        parse_turtle(text)
    assert (err.value.line, err.value.col) == (line, col)
    assert err.value.detail == f"invalid IRI {iri!r}"
