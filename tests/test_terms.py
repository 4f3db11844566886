"""Term semantics: interned IRIs with identity equality, value ordering."""

from __future__ import annotations

import copy
import gc
import pickle
import weakref

import pytest

from oasiskg import Assertion, Iri, KnowledgeBase, export_canonical
from oasiskg import terms
from oasiskg.terms import InvalidIri, InvalidLocalName

X = "http://x/a"


def test_an_iri_is_the_one_instance_for_its_value():
    assert Iri(X) is Iri(X)
    assert Iri(value=X) is Iri(X)
    assert Iri(X) is not Iri("http://x/b")
    assert hash(Iri(X)) == hash(Iri(X))


def test_the_table_drops_an_iri_nothing_refers_to():
    value = "http://x/only-here"
    iri = Iri(value)
    ref = weakref.ref(iri)
    assert terms._INTERNED[value]() is iri
    del iri
    gc.collect()
    assert ref() is None
    assert value not in terms._INTERNED
    assert Iri(value).value == value


def test_a_collected_iri_is_minted_afresh_and_held_once():
    value = "http://x/minted-twice"
    first = Iri(value)
    gone = weakref.ref(first)
    stale = terms._INTERNED[value]
    del first
    gc.collect()
    assert gone() is None
    again = Iri(value)
    assert terms._INTERNED[value]() is again is Iri(value)
    assert [v for v in terms._INTERNED if v == value] == [value]
    # a late callback of the collected IRI leaves the new entry alone
    terms._forget(stale)
    assert terms._INTERNED[value]() is again


@pytest.mark.parametrize(
    "clone",
    [lambda i: pickle.loads(pickle.dumps(i)), copy.copy, copy.deepcopy],
    ids=["pickle", "copy", "deepcopy"],
)
def test_pickles_and_copies_are_the_interned_instance(clone):
    iri = Iri(X)
    assert clone(iri) is iri
    triple = Assertion(iri, Iri("http://x/p"), "lit")
    again = clone(triple)
    assert again == triple
    assert again.subject is iri


def test_ordering_and_repr_follow_the_value():
    b, a, c = Iri("http://x/b"), Iri(X), Iri("http://x/c")
    assert sorted([b, c, a]) == [a, b, c]
    assert a < b <= b < c and c > b >= b > a
    assert not a < a
    assert repr(a) == "Iri(value='http://x/a')"
    assert str(a) == X
    assert Iri("http://x/path#frag").local == "frag"
    assert Iri("http://x/path/leaf").local == "leaf"


def test_an_iri_is_not_its_string():
    assert Iri(X) != X
    assert X != Iri(X)
    assert len({Iri(X), X}) == 2
    with pytest.raises(TypeError):
        Iri(X) < X
    with pytest.raises(TypeError):
        X >= Iri(X)


@pytest.mark.parametrize("value", ["", "http://x/a b", "http://x/<a>"])
def test_invalid_values_are_refused_every_time(value):
    for _ in range(3):
        with pytest.raises(InvalidIri) as err:
            Iri(value)
        assert str(err.value) == f"IRI is empty or contains reserved characters: {value!r}"
        assert err.value.local == value
    assert value not in terms._INTERNED


def test_a_refused_whole_iri_is_not_blamed_on_a_local_name():
    kb = KnowledgeBase()
    with pytest.raises(InvalidIri) as err:
        kb.resolve("http://x/a b")
    assert str(err.value) == "IRI is empty or contains reserved characters: 'http://x/a b'"
    # handlers written for the error Iri raised before still catch it
    assert isinstance(err.value, InvalidLocalName)
    # a bare local name is still refused as one
    with pytest.raises(InvalidLocalName) as err:
        kb.resolve("a b")
    assert type(err.value) is InvalidLocalName
    assert str(err.value) == "local name contains reserved characters: 'a b'"


def test_an_iri_is_immutable():
    iri = Iri(X)
    with pytest.raises(AttributeError):
        iri.value = "http://x/b"
    with pytest.raises(AttributeError):
        del iri.value
    with pytest.raises(AttributeError):
        iri.extra = 1
    assert iri.value == X


def test_assertions_compare_by_their_terms():
    p = Iri("http://x/p")
    assert Assertion(Iri(X), p, "o") == Assertion(Iri(X), p, "o")
    assert hash(Assertion(Iri(X), p, "o")) == hash(Assertion(Iri(X), p, "o"))
    assert Assertion(Iri(X), p, Iri(X)) != Assertion(Iri(X), p, X)


def test_an_iri_object_and_the_same_literal_are_two_triples():
    kb = KnowledgeBase()
    s, p = Iri("http://x/s"), Iri("http://x/p")
    kb.assert_property(s, p, Iri(X))
    kb.assert_property(s, p, X)
    assert len(kb) == 2
    assert kb.objects(s, p) == [Iri(X), X]
    assert export_canonical(kb).splitlines() == [
        '<http://x/s> <http://x/p> <http://x/a> .',
        '<http://x/s> <http://x/p> "http://x/a" .',
    ]
