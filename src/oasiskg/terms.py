"""Ground value types shared by every module: IRIs, assertions, errors."""

from __future__ import annotations

import re
from dataclasses import dataclass

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


@dataclass(frozen=True, slots=True, order=True)
class Iri:
    """An absolute IRI.  Comparison and sorting are plain codepoint order."""

    value: str

    def __post_init__(self) -> None:
        if not self.value or _IRI_BAD.search(self.value):
            raise InvalidLocalName(self.value)

    @property
    def local(self) -> str:
        """Fragment after the last ``#`` or ``/``."""
        cut = max(self.value.rfind("#"), self.value.rfind("/"))
        return self.value[cut + 1 :]

    def __str__(self) -> str:
        return self.value


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
