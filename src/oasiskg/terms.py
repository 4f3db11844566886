"""Ground value types shared by every module: IRIs, records, assertions,
errors.

IRIs are interned in a weak term table, one object per distinct value,
as in the dictionary encoding of HDT (Fernandez et al., J. Web Semantics
2013).  Every dict or set probe on an IRI, or on an assertion or search
key made of IRIs, then hashes and compares by identity in C.  A value is
checked once, when it is first minted; ``intern_checked`` interns a
value its caller has already checked, such as a clone name made of a
checked IRI and a checked tail.

A record declares its fields once, in ``__slots__``, its own or those
of the nearest class in its MRO that declares any.  A frozen record gets
the constructor PEP 557 generates for a dataclass, compiled here from
its slots without importing ``dataclasses``.  ``Assertion`` is a frozen
record over the plain slots class ``_Triple``: the two share one
layout, so the store's insert loop builds a ``_Triple`` with plain
attribute stores and then sets its ``__class__`` to ``Assertion``.
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
    or more, in ``__slots__``, or inherits them with an empty
    ``__slots__`` from the nearest class in its MRO that declares some,
    and takes them, in that order, in its ``__init__``, which a frozen
    record has compiled for it.  ``_names`` holds the field names.  A
    record shows, compares and pickles by its fields' values.
    ``_fields`` reads them into a tuple and ``_key`` what equality
    compares, all fields unless a subclass sets a narrower
    ``operator.attrgetter``; both are called with the record.  A plain
    record can be changed and is not hashable."""

    __slots__ = ()
    _names: tuple[str, ...] = ()

    def __init_subclass__(cls) -> None:
        super().__init_subclass__()
        names = next((n for c in cls.__mro__ if (n := c.__dict__.get("__slots__"))), ())
        if names:
            cls._names = names
            # read in C: the race search hashes and compares lock states,
            # about four times faster than with a generator over the names
            cls._fields = attrgetter(*names)
            if "_key" not in cls.__dict__:
                cls._key = cls._fields

    def __eq__(self, other: object) -> bool:
        if other.__class__ is self.__class__:
            return self._key(self) == self._key(other)
        return NotImplemented

    def __repr__(self) -> str:
        values = zip(self._names, self._fields(self))
        shown = ", ".join(f"{name}={value!r}" for name, value in values)
        return f"{self.__class__.__qualname__}({shown})"

    def __reduce__(self) -> tuple[type, tuple]:
        return self.__class__, self._fields(self)


class Frozen(Record):
    """A record whose fields are set once, as it is built; later
    assignment and deletion raise dataclasses' ``FrozenInstanceError``.
    That is imported only on this error path: importing ``dataclasses``
    pulls in ``inspect`` and ``ast`` at start-up.  A frozen record
    hashes by ``_key``.

    A subclass that writes no ``__init__`` gets one compiled from its
    fields (see :func:`_compile_init`): it takes the fields in
    slot order, by position or by keyword, and the class dict
    ``_defaults``, if any, maps the trailing fields to their defaults."""

    __slots__ = ()

    def __init_subclass__(cls) -> None:
        super().__init_subclass__()
        if cls._names and "__init__" not in cls.__dict__:
            cls.__init__ = _compile_init(cls)

    def __hash__(self) -> int:
        return hash(self._key(self))

    def __setattr__(self, name: str, value: object) -> None:
        from dataclasses import FrozenInstanceError

        raise FrozenInstanceError(f"cannot assign to field {name!r}")

    def __delattr__(self, name: str) -> None:
        from dataclasses import FrozenInstanceError

        raise FrozenInstanceError(f"cannot delete field {name!r}")


def _compile_init(cls: type[Frozen]) -> object:
    """``cls.__init__``, compiled once from its field names.  Each field is
    stored through its slot descriptor's own ``__set__``, bound in a
    closure: a call each with no lookup by name, past the refusing
    ``__setattr__``.  Defaults that do not name exactly the trailing
    fields are refused as the class is created."""
    names = cls._names
    defaults = cls.__dict__.get("_defaults", {})
    first = len(names) - len(defaults)
    if set(defaults) != set(names[first:]):
        raise TypeError(
            f"{cls.__qualname__}._defaults must name its last {len(defaults)} "
            f"fields, {names[first:]}, not {tuple(defaults)}"
        )
    setters = ", ".join(f"_set_{name}" for name in names)
    stores = "".join(f"\n        _set_{name}(self, {name})" for name in names)
    source = (
        f"def make({setters}):\n"
        f"    def __init__(self, {', '.join(names)}):{stores}\n"
        f"    return __init__\n"
    )
    namespace: dict[str, object] = {}
    exec(compile(source, f"<{cls.__module__}.{cls.__qualname__}>", "exec"), namespace)
    init = namespace["make"](*(getattr(cls, name).__set__ for name in names))
    init.__defaults__ = tuple(defaults[name] for name in names[first:])
    init.__qualname__ = f"{cls.__qualname__}.__init__"
    init.__module__ = cls.__module__
    return init


class Iri:
    """An absolute IRI, interned: ``Iri(value)`` is the one live instance
    for ``value``.

    Equality and hashing are identity, so they run in C; two IRIs with
    the same value are the same object.  A value is checked once, when
    it is first minted.  The table holds weak references only: an IRI
    nothing else refers to is dropped from it.  ``<`` is plain codepoint
    order of ``value``, which is all sorting needs; ``>`` is its
    reflection, and ``<=`` and ``>=`` are not defined.  Instances are immutable,
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
        return intern_checked(value)

    __setattr__ = Frozen.__setattr__  # refused, as a frozen record's
    __delattr__ = Frozen.__delattr__

    def __reduce__(self) -> tuple[type[Iri], tuple[str]]:
        return (Iri, (self.value,))

    def __lt__(self, other: object) -> bool:
        if not isinstance(other, Iri):
            return NotImplemented
        return self.value < other.value

    def __repr__(self) -> str:
        return f"Iri(value={self.value!r})"

    @property
    def local(self) -> str:
        """Fragment after the last ``#`` or ``/``."""
        cut = max(self.value.rfind("#"), self.value.rfind("/"))
        return self.value[cut + 1 :]

    def __str__(self) -> str:
        return self.value


#: the slot's own setter, which ``Iri.__new__`` sets ``value`` through
_set_value = Iri.value.__set__


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


def intern_checked(value: str) -> Iri:
    """``Iri(value)`` for a value its caller has already checked: the live
    instance if there is one, else a new one, entered in the term table
    without rescanning ``value`` for refused characters.  The one place
    an IRI is minted; ``Iri`` calls it after its own check."""
    ref = _INTERNED.get(value)
    if ref is not None:
        found = ref()
        if found is not None:
            return found
    iri = object.__new__(Iri)
    _set_value(iri, value)
    ref = _Ref(iri, _forget)
    ref.value = value
    _INTERNED[value] = ref
    return iri


#: Object position of an assertion: an IRI or a plain string literal.
Obj = Iri | str


class _Triple:
    """The fields of an :class:`Assertion`, with a plain ``__init__``.
    ``KnowledgeBase.load`` builds one and sets its ``__class__`` to
    ``Assertion``, which adds no slots: CPython allows the assignment
    because the two share one layout.  Three plain attribute stores and
    the assignment cost less than three slot-descriptor calls."""

    __slots__ = ("subject", "predicate", "object")

    def __init__(self, subject: Iri, predicate: Iri, object: Obj) -> None:
        self.subject = subject
        self.predicate = predicate
        self.object = object


class Assertion(Frozen, _Triple):
    """One triple.  ``object`` is either an :class:`Iri` or a literal str.

    ``sort_key`` is the canonical order: subject, then predicate, then
    IRI objects before literals, then object, each compared by code
    point.  Canonical export sorts plain rows equal to these keys.
    """

    __slots__ = ()  # the fields are _Triple's

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
