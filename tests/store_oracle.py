"""Reference inserts: one triple at a time.

These are ``KnowledgeBase.assert_membership``, ``assert_property`` and
``_store`` as they were before the store got its one insert loop,
``KnowledgeBase.load``, kept unchanged (as functions of the kb) as the
oracle for the differential tests.  Only where ``_store`` files a new
assertion follows the store's layout: the subject's and the IRI
object's records hold the edge lists, and a literal object's bucket
the rest.  ``load`` is how ``import_turtle`` wrote a document with
them: a scan that refuses a literal class before the first write, then
one ``assert_property`` per triple.
"""

from __future__ import annotations

from oasiskg.core import EntityRecord, KnowledgeBase, Triple, literal_class
from oasiskg.terms import Assertion, Iri, Obj
from oasiskg.vocab import RDF_TYPE


def assert_membership(kb: KnowledgeBase, iri: Iri, cls: Iri) -> None:
    entities = kb.entities
    rec = entities.get(iri)
    if rec is None:
        rec = entities[iri] = EntityRecord(iri)
    if cls in rec.memberships:
        return
    if cls not in entities:
        entities[cls] = EntityRecord(cls)
    rec.memberships[cls] = None
    _store(kb, Assertion(iri, RDF_TYPE, cls))


def assert_property(kb: KnowledgeBase, subject: Iri, predicate: Iri, obj: Obj) -> None:
    if predicate == RDF_TYPE:
        if not isinstance(obj, Iri):
            raise literal_class(subject, obj)
        assert_membership(kb, subject, obj)
        return
    entities = kb.entities
    if subject not in entities:
        entities[subject] = EntityRecord(subject)
    if isinstance(obj, Iri) and obj not in entities:
        entities[obj] = EntityRecord(obj)
    _store(kb, Assertion(subject, predicate, obj))


def _store(kb: KnowledgeBase, assertion: Assertion) -> None:
    assertions = kb.assertions
    size = len(assertions)
    assertions.setdefault(assertion)
    if len(assertions) == size:
        return
    kb.entities[assertion.subject]._out.append(assertion)
    obj = assertion.object
    if isinstance(obj, Iri):
        kb.entities[obj]._in.append(assertion)
    else:
        kb._literal_in.setdefault(obj, []).append(assertion)
    if kb.journal is not None:
        kb.journal.append(assertion)


def load(kb: KnowledgeBase, triples: list[Triple]) -> None:
    for subject, predicate, obj in triples:
        if predicate == RDF_TYPE and not isinstance(obj, Iri):
            raise literal_class(subject, obj)
    for subject, predicate, obj in triples:
        assert_property(kb, subject, predicate, obj)
