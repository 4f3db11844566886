"""``KnowledgeBase.load`` against one-at-a-time inserts.

``tests/store_oracle.py`` holds the inserts as they were before the
store got its one insert loop.  Both are fed the same seeded batches, on
stores that start empty or already hold triples, with the change journal
off or on, and with retractions between batches; every index must come
out the same, in the same order.
"""

from __future__ import annotations

import copy
import pickle
import random
from dataclasses import FrozenInstanceError

import pytest

import store_oracle
from conftest import store_state
from oasiskg import Assertion, Iri, KnowledgeBase, vocab
from oasiskg.core import LayerConstraintViolated
from oasiskg.vocab import RDF_TYPE

EX = "http://example.org/load/"


def ex(local: str) -> Iri:
    return Iri(EX + local)


NODES = [ex(f"n{i}") for i in range(12)]
CLASSES = [ex(f"C{i}") for i in range(5)] + [vocab.AGENT, vocab.DEPRECATED_THING]
PREDICATES = [ex(f"p{i}") for i in range(4)] + [vocab.DEPENDS_ON]
LITERALS = ["", "x", "a b", 'q"uote', "line\nbreak"]


def random_triple(rng: random.Random) -> tuple:
    roll = rng.random()
    subject = rng.choice(NODES + CLASSES[:2])
    if roll < 0.35:
        return (subject, RDF_TYPE, rng.choice(CLASSES))
    predicate = rng.choice(PREDICATES)
    if roll < 0.55:
        return (subject, predicate, rng.choice(LITERALS))
    return (subject, predicate, rng.choice(NODES + CLASSES))


def random_batch(rng: random.Random) -> list[tuple]:
    batch = [random_triple(rng) for _ in range(rng.randint(0, 30))]
    if batch and rng.random() < 0.5:  # repeat some triples within the batch
        batch += rng.sample(batch, rng.randint(1, len(batch)))
        rng.shuffle(batch)
    if rng.random() < 0.15:  # a literal class refuses the batch
        batch.insert(rng.randint(0, len(batch)), (rng.choice(NODES), RDF_TYPE, "lit"))
    return batch


def apply(kb: KnowledgeBase, insert, batch: list[tuple]) -> str | None:
    try:
        insert(kb, batch)
    except LayerConstraintViolated as error:
        return str(error)
    return None


@pytest.mark.parametrize("seed", range(40))
def test_load_matches_one_at_a_time_inserts(seed: int):
    rng = random.Random(seed)
    fast, slow = KnowledgeBase(), KnowledgeBase()
    if seed % 2:
        fast.journal, slow.journal = [], []
    for step in range(6):
        batch = random_batch(rng)
        refused = apply(fast, KnowledgeBase.load, batch)
        assert refused == apply(slow, store_oracle.load, batch), (seed, step)
        assert store_state(fast) == store_state(slow), (seed, step)
        if fast.assertions and rng.random() < 0.4:  # retract, so re-adds go last
            for assertion in rng.sample(list(fast.assertions), min(3, len(fast))):
                fast.remove(assertion)
                slow.remove(assertion)
    # one triple at a time through the public methods, too
    for _ in range(20):
        subject, predicate, obj = random_triple(rng)
        if predicate is RDF_TYPE:
            fast.assert_membership(subject, obj)
            store_oracle.assert_membership(slow, subject, obj)
        else:
            fast.assert_property(subject, predicate, obj)
            store_oracle.assert_property(slow, subject, predicate, obj)
    assert store_state(fast) == store_state(slow), seed


def test_the_batches_cover_the_cases_that_differ():
    """The seeded batches above hold every case the insert path treats
    on its own."""
    seen = set()
    for seed in range(40):
        rng = random.Random(seed)
        known: set = set()
        for _ in range(6):
            batch = random_batch(rng)
            triples = set()
            for s, p, o in batch:
                if (s, p, o) in triples:
                    seen.add("repeated type" if p is RDF_TYPE else "repeated triple")
                triples.add((s, p, o))
                if p is RDF_TYPE and isinstance(o, Iri) and o not in known:
                    seen.add("class first seen as an object")
                if p is not RDF_TYPE and isinstance(o, str):
                    seen.add("literal object")
                if p is RDF_TYPE and isinstance(o, str):
                    seen.add("literal class")
                known.add(s)
                if isinstance(o, Iri):
                    known.add(o)
    assert seen == {
        "repeated type",
        "repeated triple",
        "class first seen as an object",
        "literal object",
        "literal class",
    }


def test_a_refused_batch_writes_nothing():
    """A literal class last in the batch refuses it whole, before the
    first write: no assertion, no entity, no journal entry."""
    kb = KnowledgeBase()
    kb.journal = []
    a, b = ex("a"), ex("b")
    batch = [
        (a, vocab.DEPENDS_ON, b),
        (a, RDF_TYPE, vocab.AGENT),
        (b, ex("p0"), "text"),
        (b, RDF_TYPE, "lit"),
    ]
    with pytest.raises(LayerConstraintViolated, match="class must be an IRI"):
        kb.load(batch)
    assert not kb.assertions
    assert not kb.entities
    assert kb.journal == []
    assert not kb._literal_in


FIELDS = ("subject", "predicate", "object")


@pytest.mark.parametrize("seed", range(10))
def test_every_stored_assertion_is_a_frozen_assertion(seed: int):
    """``load`` builds each assertion past ``Assertion``'s constructor; what
    it stores is an ``Assertion`` all the same, wherever the store keeps
    it: in the assertion set, the edge lists, the literal buckets and the
    journal."""
    rng = random.Random(seed)
    kb = KnowledgeBase()
    kb.journal = []
    for _ in range(6):
        apply(kb, KnowledgeBase.load, random_batch(rng))
    subject, predicate, obj = random_triple(rng)
    kb.assert_property(subject, predicate, obj)
    kb.assert_membership(subject, rng.choice(CLASSES))
    stored = {id(a): a for a in kb.assertions}
    for pool in (
        kb.journal,
        *(rec.edges for rec in kb.entities.values()),
        *(rec._in for rec in kb.entities.values()),
        *kb._literal_in.values(),
    ):
        assert all(stored.get(id(a)) is a for a in pool)
    assert stored
    for a in stored.values():
        built = Assertion(a.subject, a.predicate, a.object)
        assert type(a) is Assertion
        for field in FIELDS:
            with pytest.raises(FrozenInstanceError):
                setattr(a, field, built.subject)
            with pytest.raises(FrozenInstanceError):
                delattr(a, field)
        assert a == built and hash(a) == hash(built)
        assert repr(a) == repr(built)
        for twin in (pickle.loads(pickle.dumps(a)), copy.deepcopy(a)):
            assert type(twin) is Assertion
            assert twin == a and hash(twin) == hash(a)
            assert [getattr(twin, f) for f in FIELDS] == [getattr(a, f) for f in FIELDS]
