from __future__ import annotations

import gc
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
from oasiskg.core import LayerConstraintViolated
from oasiskg.rdfio import ParseError, parse_turtle
from oasiskg import rdfio, vocab


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


def test_lines_follow_the_canonical_order_not_their_text_order(kb: KnowledgeBase):
    # the README's case: subject, predicate and object each compare by
    # code point, so <http://x/a> comes first although '-' sorts below '>'
    a, a_b, o = Iri("http://x/a"), Iri("http://x/a-b"), Iri("http://x/o")
    for s, p, obj in ((a_b, a, o), (a, a, o), (o, a_b, o), (o, a, o), (o, o, a_b), (o, o, a)):
        kb.assert_property(s, p, obj)
    lines = export_canonical(kb).splitlines()
    assert lines == [
        "<http://x/a> <http://x/a> <http://x/o> .",
        "<http://x/a-b> <http://x/a> <http://x/o> .",
        "<http://x/o> <http://x/a> <http://x/o> .",
        "<http://x/o> <http://x/a-b> <http://x/o> .",
        "<http://x/o> <http://x/o> <http://x/a> .",
        "<http://x/o> <http://x/o> <http://x/a-b> .",
    ]
    assert lines != sorted(lines)


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


def test_a_refused_document_writes_nothing(kb: KnowledgeBase):
    """A literal class refuses the whole document: neither the triples
    before it nor the document's prefixes reach the knowledge base."""
    text = (
        "@prefix q: <http://q.example/> .\n"
        "q:a <http://example.org/oasis#dependsOn> q:b .\n"
        'q:a a "lit" .\n'
    )
    with pytest.raises(LayerConstraintViolated, match="class must be an IRI"):
        import_turtle(kb, text)
    assert len(kb) == 0
    assert not kb.entities
    assert "q" not in kb.prefixes


@pytest.fixture
def gc_restored():
    """Put the collector back as the test found it, whatever the test did."""
    was_enabled = gc.isenabled()
    yield
    if was_enabled:
        gc.enable()
    else:
        gc.disable()


@pytest.mark.parametrize("enabled", [True, False])
@pytest.mark.parametrize(
    "text, error",
    [
        ("<http://example.org/a> <http://example.org/oasis#dependsOn> <http://example.org/b> .\n", None),
        ("<http://example.org/a> <http://example.org/oasis#dependsOn> ?b .\n", ParseError),
        ('<http://example.org/a> a "lit" .\n', LayerConstraintViolated),
    ],
    ids=["clean", "parse-error", "literal-class"],
)
def test_import_turtle_leaves_the_collector_as_it_found_it(
    kb: KnowledgeBase, gc_restored, monkeypatch, text, error, enabled
):
    """The collector is off while the document is parsed and loaded,
    and afterwards on again only if it was on before, on every exit."""
    during = []
    parse, load = rdfio.parse_turtle, KnowledgeBase.load

    def parse_watched(*args):
        during.append(gc.isenabled())
        return parse(*args)

    def load_watched(*args):
        during.append(gc.isenabled())
        return load(*args)

    monkeypatch.setattr(rdfio, "parse_turtle", parse_watched)
    monkeypatch.setattr(KnowledgeBase, "load", load_watched)
    if enabled:
        gc.enable()
    else:
        gc.disable()
    if error is None:
        import_turtle(kb, text)
    else:
        with pytest.raises(error):
            import_turtle(kb, text)
    assert gc.isenabled() is enabled
    assert during == ([False] if error is ParseError else [False, False])


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
