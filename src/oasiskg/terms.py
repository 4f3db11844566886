"""Ground value types shared by every module: IRIs, assertions, errors.

IRIs are interned in a weak term table, one object per distinct value,
as in the dictionary encoding of HDT (Fernandez et al., J. Web Semantics
2013).  Every dict or set probe on an IRI, or on an assertion or search
key made of IRIs, then hashes and compares by identity in C.
"""

from __future__ import annotations

import re
import weakref
from operator import attrgetter

#: characters an IRI may not hold, in a prefix's base too
IRI_BAD = re.compile(r'[\s<>"{}|^`\\]')

#: local names acceptable to mint_iri; clone suffixes stay inside this set.
LOCAL_NAME = re.compile(r"^[A-Za-z0-9_][A-Za-z0-9_.\-]*$")


class ModelError(Exception):
    """Base class for every error this package raises on purpose."""


class UnknownPrefix(ModelError):
    def __init__(self, prefix: str) -> None:
        super().__init__(f"prefix not registered: {prefix!r}")
        self.prefix = prefix


class InvalidPrefix(ModelError):
    def __init__(self, prefix: str, base: str) -> None:
        empty = " and ".join(
            part for part, value in (("prefix", prefix), ("base IRI", base)) if not value
        )
        reason = f"empty {empty}" if empty else "base IRI contains reserved characters"
        super().__init__(f"cannot bind prefix {prefix!r} to {base!r}: {reason}")
        self.prefix = prefix
        self.base = base


class InvalidLocalName(ModelError):
    def __init__(self, local: str) -> None:
        super().__init__(f"local name contains reserved characters: {local!r}")
        self.local = local


class InvalidIri(InvalidLocalName):
    """A whole IRI that ``Iri`` refuses.  A subclass of
    :class:`InvalidLocalName`, so handlers of that still catch it."""

    def __init__(self, value: str) -> None:
        ModelError.__init__(self, f"IRI is empty or contains reserved characters: {value!r}")
        self.local = value


class Record:
    """Base of the package's records.  A subclass names its fields, two
    or more, in ``__slots__`` and takes them, in that order, in its own
    ``__init__``.  A record shows, compares and pickles by its fields'
    values.  ``_fields`` reads them into a tuple and ``_key`` what
    equality compares, all fields unless a subclass sets a narrower
    ``operator.attrgetter``; both are called with the record.  A plain
    record can be changed and is not hashable."""

    __slots__ = ()

    def __init_subclass__(cls) -> None:
        super().__init_subclass__()
        if cls.__slots__:
            # read in C: the race search hashes and compares lock states,
            # about four times faster than with a generator over the names
            cls._fields = attrgetter(*cls.__slots__)
            if "_key" not in cls.__dict__:
                cls._key = cls._fields

    def __eq__(self, other: object) -> bool:
        if other.__class__ is self.__class__:
            return self._key(self) == self._key(other)
        return NotImplemented

    def __repr__(self) -> str:
        values = zip(self.__slots__, self._fields(self))
        shown = ", ".join(f"{name}={value!r}" for name, value in values)
        return f"{self.__class__.__qualname__}({shown})"

    def __reduce__(self) -> tuple[type, tuple]:
        return self.__class__, self._fields(self)


#: how a frozen record's ``__init__`` sets its fields, past ``__setattr__``
set_field = object.__setattr__


class Frozen(Record):
    """A record whose ``__init__`` sets each field once, through
    :data:`set_field`; later assignment and deletion raise dataclasses'
    ``FrozenInstanceError``.  That is imported only on this error path:
    importing ``dataclasses`` pulls in ``inspect`` and ``ast`` at start-up.
    A frozen record hashes by ``_key``."""

    __slots__ = ()

    def __hash__(self) -> int:
        return hash(self._key(self))

    def __setattr__(self, name: str, value: object) -> None:
        from dataclasses import FrozenInstanceError

        raise FrozenInstanceError(f"cannot assign to field {name!r}")

    def __delattr__(self, name: str) -> None:
        from dataclasses import FrozenInstanceError

        raise FrozenInstanceError(f"cannot delete field {name!r}")


class Iri:
    """An absolute IRI, interned: ``Iri(value)`` is the one live instance
    for ``value``.

    Equality and hashing are identity, so they run in C; two IRIs with
    the same value are the same object.  A value is checked once, when
    it is first minted.  The table holds weak references only: an IRI
    nothing else refers to is dropped from it.  Comparison and sorting
    are plain codepoint order of ``value``.  Instances are immutable,
    and pickling or copying one gives back the interned instance.
    """

    __slots__ = ("value", "__weakref__")

    value: str

    def __new__(cls, value: str) -> Iri:
        ref = _INTERNED.get(value)
        if ref is not None:
            found = ref()
            if found is not None:
                return found
        if not value or IRI_BAD.search(value):
            raise InvalidIri(value)
        iri = object.__new__(cls)
        set_field(iri, "value", value)
        ref = _Ref(iri, _forget)
        ref.value = value
        _INTERNED[value] = ref
        return iri

    __setattr__ = Frozen.__setattr__  # refused, as a frozen record's
    __delattr__ = Frozen.__delattr__

    def __reduce__(self) -> tuple[type[Iri], tuple[str]]:
        return (Iri, (self.value,))

    def __lt__(self, other: object) -> bool:
        if not isinstance(other, Iri):
            return NotImplemented
        return self.value < other.value

    def __le__(self, other: object) -> bool:
        if not isinstance(other, Iri):
            return NotImplemented
        return self.value <= other.value

    def __gt__(self, other: object) -> bool:
        if not isinstance(other, Iri):
            return NotImplemented
        return self.value > other.value

    def __ge__(self, other: object) -> bool:
        if not isinstance(other, Iri):
            return NotImplemented
        return self.value >= other.value

    def __repr__(self) -> str:
        return f"Iri(value={self.value!r})"

    @property
    def local(self) -> str:
        """Fragment after the last ``#`` or ``/``."""
        cut = max(self.value.rfind("#"), self.value.rfind("/"))
        return self.value[cut + 1 :]

    def __str__(self) -> str:
        return self.value


class _Ref(weakref.ref):
    """A weak reference to an interned Iri that keeps its value, so the
    entry can be found once the Iri is gone."""

    __slots__ = ("value",)


#: value -> weak reference to its one live Iri.  A plain dict, so lookup
#: and insert run in C (a WeakValueDictionary inserts in Python).
_INTERNED: dict[str, _Ref] = {}


def _forget(ref: _Ref, table: dict[str, _Ref] = _INTERNED) -> None:
    """Drop a collected IRI's entry, unless a new one has taken it."""
    if table.get(ref.value) is ref:
        del table[ref.value]


#: Object position of an assertion: an IRI or a plain string literal.
Obj = Iri | str


class Assertion(Frozen):
    """One triple.  ``object`` is either an :class:`Iri` or a literal str."""

    __slots__ = ("subject", "predicate", "object")

    def __init__(self, subject: Iri, predicate: Iri, object: Obj) -> None:
        set_field(self, "subject", subject)
        set_field(self, "predicate", predicate)
        set_field(self, "object", object)

    # the store hashes and compares assertions on every insert and probe
    def __eq__(self, other: object) -> bool:
        if other.__class__ is self.__class__:
            return (self.subject, self.predicate, self.object) == (
                other.subject, other.predicate, other.object
            )
        return NotImplemented

    def __hash__(self) -> int:
        return hash((self.subject, self.predicate, self.object))

    def sort_key(self) -> tuple[str, str, int, str]:
        # literals order after IRIs under the same subject/predicate
        is_lit = 1 if isinstance(self.object, str) else 0
        obj = self.object if isinstance(self.object, str) else self.object.value
        return (self.subject.value, self.predicate.value, is_lit, obj)
