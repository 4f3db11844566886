from __future__ import annotations

import copy
import itertools
import pickle
import random

import pytest

from oasiskg import Assertion, Code, Iri, KnowledgeBase, validate
from oasiskg.terms import InvalidLocalName, InvalidPrefix, UnknownPrefix
from oasiskg import vocab
from oasiskg.vocab import LayerTag, RDF_TYPE

from conftest import store_state


AGENT = vocab.AGENT
EX = "http://example.org/"


def ex(local: str) -> Iri:
    return Iri(EX + local)


# ---------------------------------------------------------------------------
# Iri and Assertion
# ---------------------------------------------------------------------------


def test_iri_local_name():
    assert Iri("http://example.org/oasis#Agent").local == "Agent"
    assert Iri("http://example.org/foo").local == "foo"


def test_iri_rejects_reserved_characters():
    for bad in ("", "http://x/ y", "http://x/<y>", 'http://x/"y"'):
        with pytest.raises(InvalidLocalName):
            Iri(bad)


def test_iri_sorts_by_codepoint():
    values = ["http://b/", "http://a/", "http://a/#x"]
    iris = sorted(Iri(v) for v in values)
    assert [i.value for i in iris] == sorted(values)


def test_assertion_sort_key_orders_literals_after_iris():
    s, p = ex("s"), ex("p")
    a_iri = Assertion(s, p, ex("o"))
    a_lit = Assertion(s, p, "http://example.org/o")  # same text, literal
    assert a_iri.sort_key() < a_lit.sort_key()


# ---------------------------------------------------------------------------
# Prefixes and minting
# ---------------------------------------------------------------------------


def test_mint_iri_and_resolve(kb: KnowledgeBase):
    assert kb.mint_iri("ex", "request_lock_task_operator") == ex(
        "request_lock_task_operator"
    )
    assert kb.resolve("alice") == ex("alice")
    assert kb.resolve("ex:alice") == ex("alice")
    assert kb.resolve("http://other.example/alice") == Iri(
        "http://other.example/alice"
    )


@pytest.mark.parametrize(
    "name, local", [("", ""), ("ex:", ""), ("ex:a b", "a b"), ("ex:a<b", "a<b")]
)
def test_resolve_blames_the_local_part(kb: KnowledgeBase, name, local):
    # a prefixed name's empty or unusable local part is refused as the
    # bare name's is, naming that part, not the namespace or whole IRI
    with pytest.raises(InvalidLocalName) as err:
        kb.resolve(name)
    assert type(err.value) is InvalidLocalName
    assert err.value.local == local
    assert str(err.value) == f"local name contains reserved characters: {local!r}"


def test_resolve_keeps_prefixed_names_iri_accepts(kb: KnowledgeBase):
    # wider than mint_iri's local names: whatever makes an IRI Iri takes
    assert kb.resolve("ex:a/b") == ex("a/b")
    assert kb.resolve("ex:a:b") == ex("a:b")
    assert kb.resolve("ex:a#b") == ex("a#b")


def test_mint_iri_rejects_bad_input(kb: KnowledgeBase):
    with pytest.raises(UnknownPrefix):
        kb.mint_iri("nope", "x")
    with pytest.raises(InvalidLocalName):
        kb.mint_iri("ex", "has space")
    with pytest.raises(InvalidLocalName):
        kb.mint_iri("ex", "")


def test_register_prefix_binds_a_base_for_resolve(kb: KnowledgeBase):
    kb.register_prefix("zz", "http://zz.example/")
    assert kb.resolve("zz:thing") == Iri("http://zz.example/thing")


@pytest.mark.parametrize(
    "prefix, base, empty",
    [
        ("", "http://x/", "prefix"),
        ("p", "", "base IRI"),
        ("", "", "prefix and base IRI"),
        ("p", "http://x/a b", None),  # no part empty: a base Iri refuses
    ],
)
def test_register_prefix_names_the_empty_part(kb: KnowledgeBase, prefix, base, empty):
    before = dict(kb.prefixes)
    with pytest.raises(InvalidPrefix) as caught:
        kb.register_prefix(prefix, base)
    reason = "base IRI contains reserved characters" if empty is None else f"empty {empty}"
    assert str(caught.value).endswith(f": {reason}")
    assert kb.prefixes == before


def test_fresh_iris_count_up_past_names_in_use(kb: KnowledgeBase):
    assert [kb.fresh_iri(EX + "a__") for _ in range(2)] == [ex("a__1"), ex("a__2")]
    kb.assert_membership(ex("b__4"), AGENT)
    kb.declare_class(ex("b__5"))
    assert [kb.fresh_iri(EX + "b__") for _ in range(2)] == [ex("b__3"), ex("b__6")]
    assert kb.fresh_iri(EX + "a__") == ex("a__7")


# ---------------------------------------------------------------------------
# Assertions, memberships, idempotency
# ---------------------------------------------------------------------------


def test_assert_membership_is_idempotent(kb: KnowledgeBase):
    kb.assert_membership(ex("alice"), AGENT)
    kb.assert_membership(ex("alice"), AGENT)
    assert len(kb) == 1
    assert kb.entity(ex("alice")).memberships == {AGENT: None}


def test_rdf_type_goes_through_membership(kb: KnowledgeBase):
    kb.assert_property(ex("alice"), RDF_TYPE, AGENT)
    assert kb.has_class(ex("alice"), AGENT)
    assert Assertion(ex("alice"), RDF_TYPE, AGENT) in kb


def test_duplicate_property_assertions_collapse(kb: KnowledgeBase):
    p = vocab.DEPENDS_ON
    kb.assert_property(ex("a"), p, ex("b"))
    kb.assert_property(ex("a"), p, ex("b"))
    assert len(kb) == 1


def test_every_iri_in_an_assertion_gets_an_entity_record(kb: KnowledgeBase):
    kb.assert_property(ex("a"), vocab.DEPENDS_ON, ex("b"))
    assert kb.entity(ex("a")) is not None
    assert kb.entity(ex("b")) is not None


def test_remove_retracts_assertions_and_memberships(kb: KnowledgeBase):
    kb.assert_membership(ex("alice"), AGENT)
    kb.assert_property(ex("a"), vocab.DEPENDS_ON, ex("b"))
    kb.remove(Assertion(ex("alice"), RDF_TYPE, AGENT))
    kb.remove(Assertion(ex("a"), vocab.DEPENDS_ON, ex("b")))
    assert len(kb) == 0
    assert not kb.has_class(ex("alice"), AGENT)
    assert kb.query() == []


# ---------------------------------------------------------------------------
# Layer discipline
# ---------------------------------------------------------------------------


def test_layer_is_derived_from_memberships(kb: KnowledgeBase):
    kb.assert_membership(ex("x"), LayerTag.TEMPLATE.class_iri)
    assert kb.entity(ex("x")).layer is LayerTag.TEMPLATE
    rec = kb.entity(ex("x"))
    assert len(rec.layer_classes) == 1


def test_validate_reports_every_second_layer_tag():
    # brute force over all ordered pairs of distinct layer tags
    for first, second in itertools.permutations(LayerTag, 2):
        kb = KnowledgeBase()
        kb.assert_membership(ex("x"), first.class_iri)
        kb.assert_membership(ex("x"), second.class_iri)
        assert [(v.code, v.subjects) for v in validate(kb)] == [
            (Code.LAYER_MIX, (ex("x"),))
        ]


def test_store_records_layer_mixing_for_the_validator(kb: KnowledgeBase):
    kb.assert_membership(ex("x"), LayerTag.TEMPLATE.class_iri)
    kb.assert_membership(ex("x"), LayerTag.EXECUTION.class_iri)
    rec = kb.entity(ex("x"))
    assert len(rec.layer_classes) == 2
    assert rec.layer is None


def test_unknown_predicates_are_stored_and_reported(kb: KnowledgeBase):
    kb.assert_property(ex("a"), ex("madeUp"), ex("b"))
    assert kb.query() == [Assertion(ex("a"), ex("madeUp"), ex("b"))]
    assert [(v.code, v.subjects) for v in validate(kb)] == [
        (Code.UNKNOWN_PREDICATE, (ex("madeUp"),))
    ]


def _layer_example(kb: KnowledgeBase, tag: LayerTag, name: str) -> Iri:
    node = ex(name)
    kb.assert_membership(node, vocab.BEHAVIOUR)
    kb.assert_membership(node, tag.class_iri)
    return node


def test_validate_reports_overloads_across_the_wrong_layers():
    # overloadsBehaviour wants behaviour-layer subject, template-layer object
    pred = vocab.term("overloadsBehaviour")
    illegal = 0
    for s_tag, o_tag in itertools.product(LayerTag, LayerTag):
        kb = KnowledgeBase()
        s = _layer_example(kb, s_tag, "s")
        o = _layer_example(kb, o_tag, "o")
        kb.assert_property(s, pred, o)
        assert kb.entails(s, pred, o)
        crossed = [
            v.subjects for v in validate(kb) if v.code is Code.OVERLOAD_CROSS_LAYER
        ]
        if s_tag is LayerTag.BEHAVIOUR and o_tag is LayerTag.TEMPLATE:
            assert crossed == []
        else:
            assert crossed == [(s, o)]
            illegal += 1
    assert illegal == 15


def _play_role_from_a_non_agent(kb: KnowledgeBase) -> None:
    kb.assert_membership(ex("role"), vocab.ROLE)
    kb.assert_property(ex("nobody"), vocab.PLAY_ROLE, ex("role"))


def _iri_on_a_literal_property(kb: KnowledgeBase) -> None:
    kb.assert_membership(ex("e"), vocab.EVENT)
    kb.assert_property(ex("e"), vocab.HAS_EVENT_KIND, "signal")
    kb.assert_property(ex("e"), vocab.HAS_EVENT_KIND, ex("not_a_literal"))


def _literal_on_an_object_property(kb: KnowledgeBase) -> None:
    kb.assert_membership(ex("e"), vocab.EVENT)
    kb.assert_property(ex("e"), vocab.TRIGGERS_EVENT, "literal")


@pytest.mark.parametrize(
    "populate, subjects, message",
    [
        (
            _play_role_from_a_non_agent,
            (ex("nobody"), ex("role")),
            "playRole: subject must be a Agent",
        ),
        (
            _iri_on_a_literal_property,
            (ex("e"), ex("not_a_literal")),
            "hasEventKind: object must be a literal",
        ),
        (
            _literal_on_an_object_property,
            (ex("e"),),
            "triggersEvent: object must be an IRI",
        ),
    ],
)
def test_validate_reports_endpoint_constraints(kb, populate, subjects, message):
    populate(kb)
    assert [
        (v.subjects, v.message)
        for v in validate(kb)
        if v.code is Code.LAYER_CONSTRAINT
    ] == [(subjects, message)]


# ---------------------------------------------------------------------------
# Queries and entailment
# ---------------------------------------------------------------------------


def _naive_query(kb: KnowledgeBase, s, p, o, entail):
    preds = None
    if p is not None:
        preds = vocab.SUB_CLOSURE.get(p, frozenset((p,))) if entail else {p}
    hits = [
        a
        for a in kb.assertions
        if (s is None or a.subject == s)
        and (preds is None or a.predicate in preds)
        and (o is None or a.object == o)
    ]
    return sorted(hits, key=lambda a: a.sort_key())


def test_query_matches_naive_scan_for_every_pattern(kb: KnowledgeBase):
    kb.assert_membership(ex("alice"), AGENT)
    kb.assert_membership(ex("b1"), vocab.BEHAVIOUR)
    kb.assert_property(ex("alice"), vocab.HAS_BEHAVIOUR, ex("b1"))
    kb.assert_property(ex("x"), vocab.term("overloadsBehaviour"), ex("y"))
    kb.assert_property(ex("x"), vocab.term("overloadsGoalDescription"), ex("z"))
    kb.assert_property(ex("e"), vocab.HAS_EVENT_KIND, "signal")
    subjects = [None, ex("alice"), ex("x"), ex("missing")]
    predicates = [None, vocab.HAS_BEHAVIOUR, vocab.OVERLOADS, RDF_TYPE]
    objects = [None, ex("b1"), ex("y"), "signal"]
    for s, p, o in itertools.product(subjects, predicates, objects):
        for entail in (False, True):
            got = kb.query(s, p, o, entail=entail)
            assert got == _naive_query(kb, s, p, o, entail), (s, p, o, entail)


def test_entails_follows_declared_subproperties(kb: KnowledgeBase):
    kb.assert_property(ex("x"), vocab.term("overloadsBehaviour"), ex("y"))
    assert kb.entails(ex("x"), vocab.term("overloadsBehaviour"), ex("y"))
    assert kb.entails(ex("x"), vocab.OVERLOADS, ex("y"))
    assert not kb.entails(ex("x"), vocab.SUBMITTED_TO, ex("y"))
    assert not kb.entails(ex("y"), vocab.OVERLOADS, ex("x"))


def test_objects_and_subjects_keep_assertion_order(kb: KnowledgeBase):
    for name in ("c", "a", "b"):
        kb.assert_property(ex("root"), vocab.DEPENDS_ON, ex(name))
    assert kb.objects(ex("root"), vocab.DEPENDS_ON) == [ex("c"), ex("a"), ex("b")]
    kb.assert_property(ex("z"), vocab.DEPENDS_ON, ex("c"))
    assert kb.subjects(vocab.DEPENDS_ON, ex("c")) == [ex("root"), ex("z")]


def test_indexes_match_a_scan_of_the_assertions_step_by_step():
    # after each insert, repeated insert, typing, remove or re-add, every
    # lookup and edge-list read gives what a scan over kb.assertions gives,
    # in its order: the lists hold each assertion once, in insertion order,
    # and a re-add goes to the end.  Objects and probes include literals,
    # which sit in the literal buckets, and IRIs never used as a subject,
    # whose records hold incoming edges only
    rng = random.Random(20261019)
    kb = KnowledgeBase()
    nodes = [ex(f"n{i}") for i in range(5)]
    sinks = [ex(f"sink{i}") for i in range(2)]
    classes = [AGENT, vocab.BEHAVIOUR, ex("Widget")]
    # hasNext and two of its subproperties give entailment work to do
    predicates = [
        vocab.HAS_NEXT,
        vocab.HAS_FINAL_STATE,
        vocab.HAS_NEXT_NON_TERMINATING,
        vocab.DEPENDS_ON,
    ]
    literals = ["signal", "n0", ""]
    removed: list[Assertion] = []
    done = {op: 0 for op in ("insert", "again", "type", "literal", "remove", "re-add")}
    removed_objects = {"node": 0, "sink": 0, "class": 0, "literal": 0}
    for step in range(2000):
        op = rng.choice(tuple(done))
        if op in ("again", "remove") and kb.assertions:
            a = rng.choice(list(kb.assertions))
        elif op == "re-add" and removed:
            a = removed.pop(rng.randrange(len(removed)))
        elif op == "type":
            a = Assertion(rng.choice(nodes), RDF_TYPE, rng.choice(classes))
        elif op == "literal":
            a = Assertion(rng.choice(nodes), vocab.HAS_EVENT_KIND, rng.choice(literals))
        else:
            op = "insert"
            a = Assertion(rng.choice(nodes), rng.choice(predicates), rng.choice(nodes + sinks))
        done[op] += 1
        if op == "remove":
            kb.remove(a)
            removed.append(a)
            o = a.object
            kind = "literal" if o in literals else "sink" if o in sinks else "node"
            removed_objects["class" if o in classes else kind] += 1
        else:
            kb.assert_property(a.subject, a.predicate, a.object)
        probe = Assertion(
            rng.choice(nodes),
            rng.choice(predicates + [RDF_TYPE, vocab.HAS_EVENT_KIND]),
            rng.choice(nodes + sinks + literals + [ex("unseen")]),
        )
        for t in (a, probe):
            s, p, o = t.subject, t.predicate, t.object
            for pattern in itertools.product((None, s), (None, p), (None, o)):
                for entail in (False, True):
                    got = kb.query(*pattern, entail=entail)
                    assert got == _naive_query(kb, *pattern, entail), (step, pattern, entail)
            closure = vocab.SUB_CLOSURE.get(p, {p})
            direct = [x for x in kb.assertions if x.subject is s and x.predicate is p]
            entailed = [x for x in kb.assertions if x.subject is s and x.predicate in closure]
            into = [x for x in kb.assertions if x.predicate is p and x.object == o]
            assert kb.objects(s, p) == [x.object for x in direct], step
            assert kb.objects(s, p, entail=True) == [x.object for x in entailed], step
            assert kb.entails(s, p, o) == any(x.object == o for x in entailed), step
            assert kb.subjects(p, o) == [x.subject for x in into], step
            assert list(kb.edges(s)) == [x for x in kb.assertions if x.subject is s], step
            assert list(kb.in_edges(o)) == [x for x in kb.assertions if x.object == o], step
            if isinstance(o, Iri):
                assert list(kb.edges(o)) == [x for x in kb.assertions if x.subject is o], step
    assert min(done.values()) >= 200, done
    assert min(removed_objects.values()) >= 20, removed_objects
    assert all(not kb.edges(sink) for sink in sinks)
    assert any(kb.in_edges(sink) for sink in sinks)


@pytest.mark.parametrize(
    "clone",
    [lambda kb: pickle.loads(pickle.dumps(kb)), copy.deepcopy],
    ids=["pickle", "deepcopy"],
)
def test_a_copied_store_keeps_its_edges(clone):
    # a record's edge lists are not record fields, so they go along as
    # extra state; the copy answers and removes as the original does
    kb = KnowledgeBase()
    kb.journal = []
    kb.assert_membership(ex("a"), AGENT)
    kb.assert_property(ex("a"), vocab.DEPENDS_ON, ex("b"))
    kb.assert_property(ex("b"), vocab.DEPENDS_ON, ex("a"))
    kb.assert_property(ex("a"), vocab.HAS_EVENT_KIND, "signal")
    again = clone(kb)
    assert store_state(again) == store_state(kb)
    assert again.objects(ex("a"), vocab.DEPENDS_ON) == [ex("b")]
    assert again.subjects(vocab.HAS_EVENT_KIND, "signal") == [ex("a")]
    for a in list(kb.assertions):
        kb.remove(a)
        again.remove(a)
        assert store_state(again) == store_state(kb)


def test_lookups_match_a_brute_force_scan():
    # objects, objects with entailment and subjects over every subject,
    # predicate and object the graph uses, checked against a scan of
    # kb.assertions in its insertion order as the graph grows and shrinks
    rng = random.Random(5813)
    kb = KnowledgeBase()
    nodes = [ex(f"n{i}") for i in range(6)]
    literals = ["signal", "n0", ""]
    overloads = sorted(vocab.SUB_CLOSURE[vocab.OVERLOADS] - {vocab.OVERLOADS})[:3]
    # a predicate with subproperties, three of those, one the vocabulary
    # does not declare and one that takes literals
    predicates = [vocab.OVERLOADS, *overloads, ex("undeclared"), vocab.HAS_EVENT_KIND]
    removed: list[Assertion] = []
    readded = 0
    for step in range(600):
        roll = rng.random()
        if roll < 0.15 and kb.assertions:
            a = rng.choice(list(kb.assertions))
            kb.remove(a)
            removed.append(a)
        elif roll < 0.3 and removed:
            a = removed.pop(rng.randrange(len(removed)))
            readded += a not in kb
            kb.assert_property(a.subject, a.predicate, a.object)
        else:
            p = rng.choice(predicates)
            o = rng.choice(literals) if p is vocab.HAS_EVENT_KIND else rng.choice(nodes + literals)
            kb.assert_property(rng.choice(nodes), p, o)
        if step % 20:
            continue
        for s, p in itertools.product(nodes + [ex("missing")], predicates):
            closure = vocab.SUB_CLOSURE.get(p, {p})
            assert kb.objects(s, p) == [
                a.object for a in kb.assertions if a.subject is s and a.predicate is p
            ], (step, s, p)
            assert kb.objects(s, p, entail=True) == [
                a.object for a in kb.assertions if a.subject is s and a.predicate in closure
            ], (step, s, p)
        for p, o in itertools.product(predicates, nodes + literals + ["missing"]):
            assert kb.subjects(p, o) == [
                a.subject for a in kb.assertions if a.predicate is p and a.object == o
            ], (step, p, o)
    assert readded >= 20 and any(not isinstance(a.object, Iri) for a in kb.assertions)
    assert any(a.predicate in overloads for a in kb.assertions)
