from __future__ import annotations

import random

import pytest

from oasiskg import (
    Iri,
    KnowledgeBase,
    export_canonical,
    graph_hash,
    import_turtle,
    read_graph,
    write_graph,
)
from oasiskg.rdfio import ParseError, parse_turtle
from oasiskg import vocab


EX = "http://example.org/"


def ex(local: str) -> Iri:
    return Iri(EX + local)


def populate(kb: KnowledgeBase, edges):
    for s, p, o in edges:
        kb.assert_property(ex(s), vocab.term(p), ex(o) if isinstance(o, str) and not o.startswith('"') else o)


# ---------------------------------------------------------------------------
# Canonical export
# ---------------------------------------------------------------------------


def test_empty_graph_exports_empty_string(kb: KnowledgeBase):
    assert export_canonical(kb) == ""


def test_export_is_sorted_and_newline_terminated(kb: KnowledgeBase):
    kb.assert_property(ex("b"), vocab.DEPENDS_ON, ex("z"))
    kb.assert_property(ex("a"), vocab.DEPENDS_ON, ex("z"))
    text = export_canonical(kb)
    assert text.endswith("\n")
    lines = text.splitlines()
    assert lines == sorted(lines)
    assert lines[0].startswith("<http://example.org/a>")
    assert all(line.endswith(" .") for line in lines)


def test_insertion_order_does_not_change_the_hash(kb: KnowledgeBase):
    edges = [
        ("a", "dependsOn", "b"),
        ("b", "dependsOn", "c"),
        ("c", "hasBehaviour", "d"),
        ("d", "playRole", "e"),
        ("e", "providesBehaviour", "f"),
    ]
    reference = None
    rng = random.Random(20240817)
    for _ in range(20):
        shuffled = edges[:]
        rng.shuffle(shuffled)
        other = KnowledgeBase()
        populate(other, shuffled)
        digest = graph_hash(other)
        if reference is None:
            reference = digest
        assert digest == reference


def test_literals_sort_after_iris_under_the_same_predicate(kb: KnowledgeBase):
    # an undeclared predicate may carry both shapes
    p = ex("p")
    kb.assert_property(ex("e"), p, "signal")
    kb.assert_property(ex("e"), p, ex("signal"))
    lines = export_canonical(kb).splitlines()
    assert lines[0].endswith("<http://example.org/signal> .")
    assert lines[1].endswith('"signal" .')


def test_literal_escapes_round_trip(kb: KnowledgeBase, tmp_path):
    tricky = 'tab\there "quoted" back\\slash\nnewline\rreturn'
    kb.assert_property(ex("e"), vocab.HAS_EVENT_KIND, tricky)
    path = tmp_path / "graph.nt"
    write_graph(kb, path)
    text = path.read_text()
    assert "\\t" in text and '\\"' in text and "\\n" in text and "\\r" in text
    again = read_graph(path)
    values = again.objects(ex("e"), vocab.HAS_EVENT_KIND)
    assert values == [tricky]


def test_round_trip_is_byte_identical(tmp_path):
    kb = KnowledgeBase()
    populate(
        kb,
        [
            ("alice", "hasBehaviour", "b"),
            ("b", "dependsOn", "c"),
        ],
    )
    kb.assert_membership(ex("alice"), vocab.AGENT)
    first = tmp_path / "one.nt"
    write_graph(kb, first)
    again = read_graph(first)
    second = tmp_path / "two.nt"
    write_graph(again, second)
    assert first.read_bytes() == second.read_bytes()


# ---------------------------------------------------------------------------
# Parser features
# ---------------------------------------------------------------------------


def test_parse_accepts_prefixes_a_and_lists():
    text = """
@prefix ex: <http://example.org/> .
@prefix oasis: <http://example.org/oasis#> .

# agents come first
ex:alice a oasis:Agent ;
    oasis:hasBehaviour ex:b1 , ex:b2 .
ex:b1 oasis:dependsOn ex:b2 .
"""
    triples, prefixes = parse_turtle(text)
    assert prefixes["ex"] == "http://example.org/"
    assert (ex("alice"), vocab.RDF_TYPE, vocab.AGENT) in triples
    assert (ex("alice"), vocab.HAS_BEHAVIOUR, ex("b1")) in triples
    assert (ex("alice"), vocab.HAS_BEHAVIOUR, ex("b2")) in triples
    assert len(triples) == 4


def test_parse_handles_trailing_dot_after_semicolon():
    text = "<http://example.org/a> <http://example.org/oasis#dependsOn> <http://example.org/b> ; ."
    triples, _ = parse_turtle(text)
    assert len(triples) == 1


def test_parse_pname_with_trailing_dot_rolls_back():
    text = (
        "@prefix ex: <http://example.org/> .\n"
        "@prefix oasis: <http://example.org/oasis#> .\n"
        "ex:a oasis:dependsOn ex:b.\n"
    )
    triples, _ = parse_turtle(text)
    assert triples == [(ex("a"), vocab.DEPENDS_ON, ex("b"))]


def test_parse_literal_objects():
    text = (
        "@prefix ex: <http://example.org/> .\n"
        "@prefix oasis: <http://example.org/oasis#> .\n"
        'ex:e oasis:hasEventKind "sig\\nnal" .\n'
    )
    triples, _ = parse_turtle(text)
    assert triples == [(ex("e"), vocab.HAS_EVENT_KIND, "sig\nnal")]


def test_import_turtle_registers_prefixes(kb: KnowledgeBase):
    import_turtle(
        kb,
        "@prefix zz: <http://zz.example/> .\n"
        "zz:a <http://example.org/oasis#dependsOn> zz:b .\n",
    )
    assert kb.resolve("zz:a") == Iri("http://zz.example/a")
    assert len(kb) == 1


def test_read_graph_keeps_unknown_predicates(tmp_path):
    path = tmp_path / "bad.nt"
    path.write_text(
        "<http://example.org/a> <http://example.org/madeUp> <http://example.org/b> .\n"
    )
    assert len(read_graph(path)) == 1  # left for the validator to report


# ---------------------------------------------------------------------------
# Parser errors carry positions
# ---------------------------------------------------------------------------


@pytest.mark.parametrize(
    "text, needle",
    [
        ("<http://example.org/a> <http://example.org/b>", "end of input"),
        ("<http://example.org/a> .", "predicate"),
        ('"floating" <http://x/p> <http://x/o> .', "subject"),
        ("@prefix ex <http://example.org/> .", "unexpected token"),
        ("qq:a <http://x/p> <http://x/o> .", "unknown prefix"),
        ("<http://example.org/a> <http://x/p> <http://x/o> ,", "end of input"),
        ('<http://x/a> <http://x/p> "unterminated .', "unterminated literal"),
        ("<http://x/a> <http://x/p> <http://x/o> <http://x/extra> .", "expected"),
    ],
)
def test_parse_errors(text, needle):
    with pytest.raises(ParseError) as err:
        parse_turtle(text)
    assert needle.lower() in str(err.value).lower()
    assert err.value.line >= 1
    assert err.value.col >= 1


def test_parse_error_reports_the_right_line():
    text = (
        "@prefix ex: <http://example.org/> .\n"
        "@prefix oasis: <http://example.org/oasis#> .\n"
        "ex:a oasis:dependsOn ex:b .\n"
        "ex:a oasis:dependsOn .\n"
    )
    with pytest.raises(ParseError) as err:
        parse_turtle(text)
    assert err.value.line == 4
