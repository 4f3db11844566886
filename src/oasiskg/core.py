"""Typed triple store with derived layer tags and subproperty entailment.

The store keeps one canonical assertion set (``rdf:type`` triples
included) and one record per IRI.  A record holds the entity's class
memberships, from which layer tags are derived, and its edges: the
assertions with the entity as subject and those with it as object, each
list in insertion order.  Each node holds its own relationships, as in
the index-free adjacency of native graph stores (Robinson, Webber &
Eifrem, *Graph Databases*, O'Reilly 2013), so reading a node's edges is
one record lookup.  A literal has no record; the assertions with a
literal as object sit in one bucket map, keyed by the literal.  Nothing
is indexed by predicate: a pattern that gives only a predicate is a
scan of the assertions.

Every insert goes through ``load``, one loop over a batch of triples;
``assert_property`` and ``assert_membership`` hand it a batch of one,
and ``trees.clone_tree`` one batch per cloned tree: the clones'
memberships, their edges and their family links.
It looks up the subject's record and the object's once per triple,
hashes each assertion once, in ``assertions.setdefault``, and appends
it to the two ends' lists only when it is new, so no list holds an
assertion twice.  ``remove`` takes an assertion out of those two lists,
in time linear in their length; nothing in the pipeline removes, only
tests and their mutations do.  An assertion removed and added again goes
to the end of each list, as it does in ``assertions``.

``query`` alone sorts its results; no module of the package calls it,
it serves tests and the benchmark's tracer.  ``objects`` and
``subjects`` scan one subject's or object's edges and match the
predicate by identity (IRIs are interned), building no set per call;
``objects`` with ``entail`` tests each predicate against the
predicate's ``SUB_CLOSURE`` entry instead.  ``edges`` and ``in_edges``
hand out the store's own list, in insertion order, as does
``EntityRecord.edges``: callers read it and must not mutate it, nor
write to the store while iterating it.  The edge lists are not record
fields: a record shows and compares by its IRI and memberships, and a
copy of one carries its lists along as extra state, so a copied store
keeps its edges.

The change journal lists every insert and removal since the graph was
last known clean.  ``validate`` resets it after a clean pass, and the
engine clears the entries of a call it certifies; nothing else in the
package resets it, so ``journal == []`` means the graph is clean and
only certified engine writes have happened since.

The store records whatever it is given and leaves layer mixing,
undeclared predicates and endpoint constraints to the validator; it
refuses only an ``rdf:type`` whose class is a literal.
"""

from __future__ import annotations

from collections.abc import Iterable, Sequence

from . import vocab
from .terms import (
    Assertion,
    InvalidIri,
    InvalidLocalName,
    InvalidPrefix,
    Iri,
    IRI_BAD,
    LOCAL_NAME,
    ModelError,
    Obj,
    Record,
    UnknownPrefix,
)
from .vocab import RDF_TYPE, LayerTag


class LayerConstraintViolated(ModelError):
    def __init__(self, assertion: Assertion, detail: str) -> None:
        super().__init__(
            f"{assertion.predicate.local}({assertion.subject}, "
            f"{assertion.object}): {detail}"
        )
        self.assertion = assertion
        self.detail = detail


def literal_class(subject: Iri, obj: str) -> LayerConstraintViolated:
    """The error for an ``rdf:type`` whose class is a literal."""
    return LayerConstraintViolated(
        Assertion(subject, RDF_TYPE, obj), "class must be an IRI"
    )


class _Adjacency:
    """The slots of an entity's edge lists, outside ``Record``'s fields."""

    __slots__ = ("_out", "_in")


class EntityRecord(Record, _Adjacency):
    """Per-IRI bookkeeping: memberships in insertion order, and the
    store's lists of the assertions with the entity as subject
    (``_out``) and as object (``_in``)."""

    __slots__ = ("iri", "memberships")

    def __init__(self, iri: Iri, memberships: dict[Iri, None] | None = None) -> None:
        self.iri = iri
        self.memberships = {} if memberships is None else memberships
        self._out: list[Assertion] = []
        self._in: list[Assertion] = []

    def __reduce__(self) -> tuple:
        # the edge lists go along as slot state, so a copied store keeps them
        return (
            self.__class__,
            self._fields(self),
            (None, {"_out": self._out, "_in": self._in}),
        )

    @property
    def edges(self) -> list[Assertion]:
        """The assertions with this entity as subject, in insertion
        order: the store's own list, not a copy."""
        return self._out

    @property
    def layer_classes(self) -> frozenset[Iri]:
        return vocab.LAYER_CLASSES.intersection(self.memberships)

    @property
    def layer(self) -> LayerTag | None:
        """Derived layer tag; ``None`` when absent or mixed."""
        tags = self.layer_classes
        if len(tags) == 1:
            (cls,) = tags
            return vocab.LAYER_TAG_OF_CLASS[cls]
        return None

    @property
    def deprecated(self) -> bool:
        return vocab.DEPRECATED_THING in self.memberships

    def has_class(self, cls: Iri) -> bool:
        return cls in self.memberships


Triple = tuple[Iri, Iri, Obj]


class KnowledgeBase:
    """Assertion store, prefix table, clone counter and change journal."""

    def __init__(self) -> None:
        self.prefixes: dict[str, str] = dict(vocab.DEFAULT_PREFIXES)
        self.entities: dict[Iri, EntityRecord] = {}
        self.assertions: dict[Assertion, None] = {}
        #: literal -> the assertions with it as object, in insertion order
        self._literal_in: dict[str, list[Assertion]] = {}
        self._clone_counter = 0
        #: assertions added or removed since the graph was last known
        #: clean, in order; ``None`` until a validation pass comes back
        #: clean (see the module docstring)
        self.journal: list[Assertion] | None = None

    # -- prefixes and minting -------------------------------------------------

    def register_prefix(self, prefix: str, base: str) -> None:
        if not prefix or not base or IRI_BAD.search(base):
            raise InvalidPrefix(prefix, base)
        self.prefixes[prefix] = base

    def mint_iri(self, prefix: str, local: str) -> Iri:
        if prefix not in self.prefixes:
            raise UnknownPrefix(prefix)
        if not LOCAL_NAME.match(local):
            raise InvalidLocalName(local)
        return Iri(self.prefixes[prefix] + local)

    def resolve(self, name: str) -> Iri:
        """Full IRI as-is, ``pfx:local`` via the prefix table, bare local
        name under the ``ex:`` prefix.  An empty local part, or one that
        makes an IRI ``Iri`` refuses, is an ``InvalidLocalName`` naming
        that part."""
        if "://" in name:
            return Iri(name)
        if ":" in name:
            prefix, local = name.split(":", 1)
            if prefix not in self.prefixes:
                raise UnknownPrefix(prefix)
            if not local:
                raise InvalidLocalName(local)
            try:
                return Iri(self.prefixes[prefix] + local)
            except InvalidIri:  # the base was checked when it was bound
                raise InvalidLocalName(local) from None
        return self.mint_iri("ex", name)

    def fresh_iri(self, stem: str) -> Iri:
        """``stem`` followed by the next clone index that makes an IRI no
        entity has yet.  The counter is per store, so a graph read back
        from a file already holds the names an earlier store minted."""
        while True:
            self._clone_counter += 1
            iri = Iri(f"{stem}{self._clone_counter}")
            if iri not in self.entities:
                return iri

    # -- entities ---------------------------------------------------------------

    def entity(self, iri: Iri) -> EntityRecord | None:
        return self.entities.get(iri)

    def has_class(self, iri: Iri, cls: Iri) -> bool:
        rec = self.entities.get(iri)
        return rec.has_class(cls) if rec else False

    def declare_class(self, cls: Iri) -> None:
        """Record a domain class, as an entity with no memberships."""
        if cls not in self.entities:
            self.entities[cls] = EntityRecord(cls)

    # -- assertions ---------------------------------------------------------------

    def assert_membership(self, iri: Iri, cls: Iri) -> None:
        self.load(((iri, RDF_TYPE, cls),))

    def assert_property(self, subject: Iri, predicate: Iri, obj: Obj) -> None:
        self.load(((subject, predicate, obj),))

    def load(self, triples: Sequence[Triple]) -> None:
        """Insert ``triples`` in order: the store's one insert loop.

        An ``rdf:type`` whose class is a literal refuses the whole batch
        before anything is written.  Subjects and IRI objects become
        entities in the order they are first seen; an ``rdf:type`` adds
        a membership, and one the subject already has is skipped without
        registering its class.
        """
        for subject, predicate, obj in triples:
            if predicate is RDF_TYPE and not isinstance(obj, Iri):
                raise literal_class(subject, obj)
        entities = self.entities
        assertions = self.assertions
        literal_in = self._literal_in
        journal = self.journal
        size = len(assertions)
        for subject, predicate, obj in triples:
            rec = entities.get(subject)
            if rec is None:
                rec = entities[subject] = EntityRecord(subject)
            if predicate is RDF_TYPE:
                if obj in rec.memberships:
                    continue
                rec.memberships[obj] = None
            target = None
            if isinstance(obj, Iri):
                target = entities.get(obj)
                if target is None:
                    target = entities[obj] = EntityRecord(obj)
            assertion = Assertion(subject, predicate, obj)
            assertions.setdefault(assertion)  # the one hash of the assertion
            if len(assertions) == size:
                continue
            size += 1
            rec._out.append(assertion)
            if target is not None:
                target._in.append(assertion)
            else:
                bucket = literal_in.get(obj)
                if bucket is None:
                    bucket = literal_in[obj] = []
                bucket.append(assertion)
            if journal is not None:
                journal.append(assertion)

    def remove(self, assertion: Assertion) -> None:
        """Retract one assertion (memberships included).  No-op if absent."""
        if assertion not in self.assertions:
            return
        del self.assertions[assertion]
        rec = self.entities[assertion.subject]
        rec._out.remove(assertion)
        obj = assertion.object
        if isinstance(obj, Iri):
            self.entities[obj]._in.remove(assertion)
        else:
            self._literal_in[obj].remove(assertion)
        if self.journal is not None:
            self.journal.append(assertion)
        if assertion.predicate == RDF_TYPE:
            rec.memberships.pop(obj, None)

    # -- queries -----------------------------------------------------------------

    def entails(self, subject: Iri, predicate: Iri, obj: Obj) -> bool:
        """True when the triple is asserted directly or via a declared
        subproperty of ``predicate``."""
        preds = vocab.SUB_CLOSURE.get(predicate, (predicate,))
        for p in preds:
            if Assertion(subject, p, obj) in self.assertions:
                return True
        return False

    def query(
        self,
        subject: Iri | None = None,
        predicate: Iri | None = None,
        obj: Obj | None = None,
        *,
        entail: bool = False,
    ) -> list[Assertion]:
        """Pattern match; ``None`` is a wildcard.  With ``entail`` the
        predicate position also matches declared subproperties.  Results
        come back in canonical sorted order."""
        preds: frozenset[Iri] | None = None
        if predicate is not None:
            if entail:
                preds = vocab.SUB_CLOSURE.get(predicate, frozenset((predicate,)))
            else:
                preds = frozenset((predicate,))
        pool: Iterable[Assertion]
        if subject is not None:
            pool = self.edges(subject)
        elif obj is not None:
            pool = self.in_edges(obj)
        else:
            pool = self.assertions
        out = [
            a
            for a in pool
            if (subject is None or a.subject == subject)
            and (preds is None or a.predicate in preds)
            and (obj is None or a.object == obj)
        ]
        out.sort(key=Assertion.sort_key)
        return out

    def edges(self, subject: Iri) -> Sequence[Assertion]:
        """Assertions with ``subject`` as subject, in insertion order;
        the store's own list, not a copy."""
        rec = self.entities.get(subject)
        return () if rec is None else rec._out

    def in_edges(self, obj: Obj) -> Sequence[Assertion]:
        """Assertions with ``obj`` as object, in insertion order; the
        store's own list, not a copy."""
        rec = self.entities.get(obj)  # no literal is a key of entities
        if rec is not None:
            return rec._in
        return self._literal_in.get(obj, ())

    def objects(self, subject: Iri, predicate: Iri, *, entail: bool = False) -> list[Obj]:
        """Objects of ``(subject, predicate, ?)`` in assertion order.  With
        ``entail`` the predicate position also matches declared
        subproperties."""
        rec = self.entities.get(subject)
        if rec is None:
            return []
        edges = rec._out
        if entail:
            preds = vocab.SUB_CLOSURE.get(predicate)
            if preds is not None:
                return [a.object for a in edges if a.predicate in preds]
        return [a.object for a in edges if a.predicate is predicate]

    def subjects(self, predicate: Iri, obj: Obj) -> list[Iri]:
        """Subjects of ``(?, predicate, obj)`` in assertion order."""
        return [a.subject for a in self.in_edges(obj) if a.predicate is predicate]

    def __len__(self) -> int:
        return len(self.assertions)

    def __contains__(self, assertion: Assertion) -> bool:
        return assertion in self.assertions
