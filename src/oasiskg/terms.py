"""Ground value types shared by every module: IRIs, assertions, errors.

IRIs are interned in a weak term table, one object per distinct value,
as in the dictionary encoding of HDT (Fernandez et al., J. Web Semantics
2013).  Every dict or set probe on an IRI, or on an assertion or search
key made of IRIs, then hashes and compares by identity in C.
"""

from __future__ import annotations

import re
import weakref
from dataclasses import FrozenInstanceError, dataclass

_IRI_BAD = re.compile(r'[\s<>"{}|^`\\]')

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
        super().__init__(f"cannot bind prefix {prefix!r} to {base!r}: empty {empty}")
        self.prefix = prefix
        self.base = base


class InvalidLocalName(ModelError):
    def __init__(self, local: str) -> None:
        super().__init__(f"local name contains reserved characters: {local!r}")
        self.local = local


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
        if not value or _IRI_BAD.search(value):
            raise InvalidLocalName(value)
        iri = object.__new__(cls)
        object.__setattr__(iri, "value", value)
        ref = _Ref(iri, _forget)
        ref.value = value
        _INTERNED[value] = ref
        return iri

    def __setattr__(self, name: str, value: object) -> None:
        raise FrozenInstanceError(f"cannot assign to field {name!r}")

    def __delattr__(self, name: str) -> None:
        raise FrozenInstanceError(f"cannot delete field {name!r}")

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


@dataclass(frozen=True, slots=True)
class Assertion:
    """One triple.  ``object`` is either an :class:`Iri` or a literal str."""

    subject: Iri
    predicate: Iri
    object: Obj

    def sort_key(self) -> tuple[str, str, int, str]:
        # literals order after IRIs under the same subject/predicate
        is_lit = 1 if isinstance(self.object, str) else 0
        obj = self.object if isinstance(self.object, str) else self.object.value
        return (self.subject.value, self.predicate.value, is_lit, obj)
