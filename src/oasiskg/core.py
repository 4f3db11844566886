"""Typed triple store with derived layer tags and subproperty entailment.

The store keeps one canonical assertion set (``rdf:type`` triples
included) plus subject/predicate/object indexes.  Class memberships are
mirrored into per-entity records so layer tags can be derived cheaply;
they are never stored on their own.

Each index maps a term to a list of its assertions in insertion order.
An insert hashes its assertion once, in ``assertions.setdefault``, and
appends it to the three lists only when it is new, so no list holds an
assertion twice.  ``remove`` takes an assertion out of its three lists,
in time linear in their length; nothing in the pipeline removes, only
tests and their mutations do.  An assertion removed and added again goes
to the end of each list, as it does in ``assertions``.

``query`` alone sorts its results.  ``edges`` and ``in_edges`` hand out a
subject's or an object's bucket itself, in insertion order: callers read
it and must not mutate it, nor write to the store while iterating it.

The store records whatever it is given and leaves layer mixing,
undeclared predicates and endpoint constraints to the validator; it
refuses only an ``rdf:type`` whose class is a literal.
"""

from __future__ import annotations

from collections.abc import Sequence

from . import vocab
from .terms import (
    Assertion,
    InvalidLocalName,
    InvalidPrefix,
    Iri,
    LOCAL_NAME,
    ModelError,
    Obj,
    Record,
    UnknownPrefix,
)
from .vocab import RDF_TYPE, LayerTag, PropertySpec


class LayerConstraintViolated(ModelError):
    def __init__(self, assertion: Assertion, detail: str) -> None:
        super().__init__(
            f"{assertion.predicate.local}({assertion.subject}, "
            f"{assertion.object}): {detail}"
        )
        self.assertion = assertion
        self.detail = detail


class EntityRecord(Record):
    """Per-IRI bookkeeping: memberships in insertion order."""

    __slots__ = ("iri", "memberships")

    def __init__(self, iri: Iri, memberships: dict[Iri, None] | None = None) -> None:
        self.iri = iri
        self.memberships = {} if memberships is None else memberships

    @property
    def layer_classes(self) -> list[Iri]:
        return [m for m in self.memberships if m in vocab.LAYER_CLASSES]

    @property
    def layer(self) -> LayerTag | None:
        """Derived layer tag; ``None`` when absent or mixed."""
        tags = self.layer_classes
        if len(tags) == 1:
            return vocab.LAYER_TAG_OF_CLASS[tags[0]]
        return None

    @property
    def mixed_layers(self) -> bool:
        return len(self.layer_classes) > 1

    @property
    def deprecated(self) -> bool:
        return vocab.DEPRECATED_THING in self.memberships

    def has_class(self, cls: Iri) -> bool:
        return cls in self.memberships


def _off_layer(rec: EntityRecord | None, layer: LayerTag) -> bool:
    """Whether an edge's endpoint is outside ``layer``.  An endpoint with
    several layer classes is not: mixed endpoints are reported on their
    own, not per edge.  Reads the layer classes once."""
    tags = rec.layer_classes if rec is not None else []
    return len(tags) < 2 and (not tags or vocab.LAYER_TAG_OF_CLASS[tags[0]] is not layer)


_Index = dict[Iri, list[Assertion]]


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
        if not prefix or not base:
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
        name under the ``ex:`` prefix."""
        if "://" in name:
            return Iri(name)
        if ":" in name:
            prefix, local = name.split(":", 1)
            if prefix not in self.prefixes:
                raise UnknownPrefix(prefix)
            return Iri(self.prefixes[prefix] + local)
        return self.mint_iri("ex", name)

    def next_clone_index(self) -> int:
        self._clone_counter += 1
        return self._clone_counter

    # -- entities ---------------------------------------------------------------

    def entity(self, iri: Iri) -> EntityRecord | None:
        return self.entities.get(iri)

    def ensure_entity(self, iri: Iri) -> EntityRecord:
        rec = self.entities.get(iri)
        if rec is None:
            rec = EntityRecord(iri)
            self.entities[iri] = rec
        return rec

    def layer_of(self, iri: Iri) -> LayerTag | None:
        rec = self.entities.get(iri)
        return rec.layer if rec else None

    def has_class(self, iri: Iri, cls: Iri) -> bool:
        rec = self.entities.get(iri)
        return rec.has_class(cls) if rec else False

    def instances_of(self, *classes: Iri) -> list[Iri]:
        """Entities carrying any of the classes, in first-seen order."""
        wanted = set(classes)
        return [
            rec.iri
            for rec in self.entities.values()
            if wanted.intersection(rec.memberships)
        ]

    def declare_class(self, cls: Iri) -> None:
        """Record a domain class; the same as ``ensure_entity``."""
        self.ensure_entity(cls)

    # -- assertions ---------------------------------------------------------------

    def assert_membership(self, iri: Iri, cls: Iri) -> None:
        entities = self.entities
        rec = entities.get(iri)
        if rec is None:
            rec = entities[iri] = EntityRecord(iri)
        if cls in rec.memberships:
            return
        if cls not in entities:
            entities[cls] = EntityRecord(cls)
        rec.memberships[cls] = None
        self._store(Assertion(iri, RDF_TYPE, cls))

    def assert_property(self, subject: Iri, predicate: Iri, obj: Obj) -> None:
        if predicate == RDF_TYPE:
            if not isinstance(obj, Iri):
                raise LayerConstraintViolated(
                    Assertion(subject, predicate, obj), "class must be an IRI"
                )
            self.assert_membership(subject, obj)
            return
        entities = self.entities
        if subject not in entities:
            entities[subject] = EntityRecord(subject)
        if isinstance(obj, Iri) and obj not in entities:
            entities[obj] = EntityRecord(obj)
        self._store(Assertion(subject, predicate, obj))

    def constraint_problem(
        self, spec: PropertySpec, subject: Iri, obj: Obj
    ) -> str | None:
        """First endpoint-constraint violation for the edge, or ``None``."""
        if spec.literal_object != isinstance(obj, str):
            return (
                "object must be a literal"
                if spec.literal_object
                else "object must be an IRI"
            )
        s_rec = self.entities.get(subject)
        if spec.subject_layer is not None and _off_layer(s_rec, spec.subject_layer):
            return f"subject must be in the {spec.subject_layer.value} layer"
        if spec.subject_classes is not None:
            if s_rec is None or not spec.subject_classes.intersection(
                s_rec.memberships
            ):
                names = "/".join(sorted(c.local for c in spec.subject_classes))
                return f"subject must be a {names}"
        if isinstance(obj, Iri):
            o_rec = self.entities.get(obj)
            if spec.object_layer is not None and _off_layer(o_rec, spec.object_layer):
                return f"object must be in the {spec.object_layer.value} layer"
            if spec.object_classes is not None:
                if o_rec is None or not spec.object_classes.intersection(
                    o_rec.memberships
                ):
                    names = "/".join(sorted(c.local for c in spec.object_classes))
                    return f"object must be a {names}"
        return None

    def _store(self, assertion: Assertion) -> None:
        assertions = self.assertions
        size = len(assertions)
        assertions.setdefault(assertion)  # the one hash of the assertion
        if len(assertions) == size:
            return
        self._by_s.setdefault(assertion.subject, []).append(assertion)
        self._by_p.setdefault(assertion.predicate, []).append(assertion)
        self._by_o.setdefault(assertion.object, []).append(assertion)
        if self.journal is not None:
            self.journal.append(assertion)

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

    def objects(self, subject: Iri, predicate: Iri, *, entail: bool = False) -> list[Obj]:
        """Objects of ``(subject, predicate, ?)`` in assertion order."""
        preds = (
            vocab.SUB_CLOSURE.get(predicate, frozenset((predicate,)))
            if entail
            else frozenset((predicate,))
        )
        return [
            a.object
            for a in self._by_s.get(subject, [])
            if a.predicate in preds
        ]

    def subjects(self, predicate: Iri, obj: Obj) -> list[Iri]:
        """Subjects of ``(?, predicate, obj)`` in assertion order."""
        return [a.subject for a in self._by_o.get(obj, []) if a.predicate == predicate]

    def __len__(self) -> int:
        return len(self.assertions)

    def __contains__(self, assertion: Assertion) -> bool:
        return assertion in self.assertions
