"""Typed triple store with derived layer tags and subproperty entailment.

The store keeps one canonical assertion set (``rdf:type`` triples
included) plus subject/predicate/object indexes.  Class memberships are
mirrored into per-entity records so layer tags can be derived cheaply;
they are never stored on their own.

Each index maps a term to a list of its assertions in insertion order.
Every insert goes through ``load``, one loop over a batch of triples;
``assert_property`` and ``assert_membership`` hand it a batch of one.
It hashes each assertion once, in ``assertions.setdefault``, and
appends it to the three lists only when it is new, so no list holds an
assertion twice.  ``remove`` takes an assertion out of its three lists,
in time linear in their length; nothing in the pipeline removes, only
tests and their mutations do.  An assertion removed and added again goes
to the end of each list, as it does in ``assertions``.

``query`` alone sorts its results; no module of the package calls it,
it serves tests and the benchmark's tracer.  ``objects`` and
``subjects`` scan one subject's or object's bucket and match the
predicate by identity (IRIs are interned), building no set per call;
``objects`` with ``entail`` tests each predicate against the
predicate's ``SUB_CLOSURE`` entry instead.  ``edges``, ``in_edges`` and
``with_predicate`` hand out a subject's, an object's or a predicate's
bucket itself, in insertion order: callers read it and must not mutate
it, nor write to the store while iterating it.  The validator's
whole-graph pass reads its start edges from the predicate buckets.

The store records whatever it is given and leaves layer mixing,
undeclared predicates and endpoint constraints to the validator; it
refuses only an ``rdf:type`` whose class is a literal.
"""

from __future__ import annotations

from collections.abc import Sequence

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


class EntityRecord(Record):
    """Per-IRI bookkeeping: memberships in insertion order."""

    __slots__ = ("iri", "memberships")

    def __init__(self, iri: Iri, memberships: dict[Iri, None] | None = None) -> None:
        self.iri = iri
        self.memberships = {} if memberships is None else memberships

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
    def mixed_layers(self) -> bool:
        return len(self.layer_classes) > 1

    @property
    def deprecated(self) -> bool:
        return vocab.DEPRECATED_THING in self.memberships

    def has_class(self, cls: Iri) -> bool:
        return cls in self.memberships


_Index = dict[Iri, list[Assertion]]
Triple = tuple[Iri, Iri, Obj]


class KnowledgeBase:
    """Assertion store, prefix table, clone counter and change journal."""

    def __init__(self) -> None:
        self.prefixes: dict[str, str] = dict(vocab.DEFAULT_PREFIXES)
        self.entities: dict[Iri, EntityRecord] = {}
        self.assertions: dict[Assertion, None] = {}
        self._by_s: _Index = {}
        self._by_p: _Index = {}
        self._by_o: dict[Obj, list[Assertion]] = {}
        self._clone_counter = 0
        #: assertions added or removed since the last clean validation
        #: pass, in order; ``None`` until a pass comes back clean
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

    def next_clone_index(self) -> int:
        self._clone_counter += 1
        return self._clone_counter

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
        by_s, by_p, by_o = self._by_s, self._by_p, self._by_o
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
            if isinstance(obj, Iri) and obj not in entities:
                entities[obj] = EntityRecord(obj)
            assertion = Assertion(subject, predicate, obj)
            assertions.setdefault(assertion)  # the one hash of the assertion
            if len(assertions) == size:
                continue
            size += 1
            by_s.setdefault(subject, []).append(assertion)
            by_p.setdefault(predicate, []).append(assertion)
            by_o.setdefault(obj, []).append(assertion)
            if journal is not None:
                journal.append(assertion)

    def remove(self, assertion: Assertion) -> None:
        """Retract one assertion (memberships included).  No-op if absent."""
        if assertion not in self.assertions:
            return
        del self.assertions[assertion]
        self._by_s[assertion.subject].remove(assertion)
        self._by_p[assertion.predicate].remove(assertion)
        self._by_o[assertion.object].remove(assertion)
        if self.journal is not None:
            self.journal.append(assertion)
        if assertion.predicate == RDF_TYPE and isinstance(assertion.object, Iri):
            rec = self.entities.get(assertion.subject)
            if rec is not None:
                rec.memberships.pop(assertion.object, None)

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
        pool: dict[Assertion, None] | list[Assertion]
        if subject is not None:
            pool = self._by_s.get(subject, [])
        elif obj is not None:
            pool = self._by_o.get(obj, [])
        elif preds is not None and len(preds) == 1:
            pool = self._by_p.get(next(iter(preds)), [])
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
        the store's own bucket, not a copy."""
        return self._by_s.get(subject, ())

    def in_edges(self, obj: Obj) -> Sequence[Assertion]:
        """Assertions with ``obj`` as object, in insertion order; the
        store's own bucket, not a copy."""
        return self._by_o.get(obj, ())

    def with_predicate(self, predicate: Iri) -> Sequence[Assertion]:
        """Assertions with ``predicate`` itself as predicate, in insertion
        order; the store's own bucket, not a copy."""
        return self._by_p.get(predicate, ())

    def objects(self, subject: Iri, predicate: Iri, *, entail: bool = False) -> list[Obj]:
        """Objects of ``(subject, predicate, ?)`` in assertion order.  With
        ``entail`` the predicate position also matches declared
        subproperties."""
        bucket = self._by_s.get(subject, ())
        if entail:
            preds = vocab.SUB_CLOSURE.get(predicate)
            if preds is not None:
                return [a.object for a in bucket if a.predicate in preds]
        return [a.object for a in bucket if a.predicate is predicate]

    def subjects(self, predicate: Iri, obj: Obj) -> list[Iri]:
        """Subjects of ``(?, predicate, obj)`` in assertion order."""
        return [a.subject for a in self._by_o.get(obj, ()) if a.predicate is predicate]

    def __len__(self) -> int:
        return len(self.assertions)

    def __contains__(self, assertion: Assertion) -> bool:
        return assertion in self.assertions
