"""Reference canonical export: sorted by ``Assertion.sort_key``.

This is ``export_canonical`` as ``oasiskg.rdfio`` had it before export
sorted plain rows with no key function, kept unchanged as the oracle for
the differential tests.  It sorts the assertions with
``Assertion.sort_key``, the canonical order ``terms`` defines, and
renders each object through ``_render_object``.
"""

from __future__ import annotations

from oasiskg.core import KnowledgeBase
from oasiskg.terms import Assertion, Iri, Obj

_LITERAL_ESCAPES = {
    "\\": "\\\\",
    '"': '\\"',
    "\n": "\\n",
    "\r": "\\r",
    "\t": "\\t",
}


def _escape_literal(value: str) -> str:
    return "".join(_LITERAL_ESCAPES.get(ch, ch) for ch in value)


def _render_object(obj: Obj) -> str:
    if isinstance(obj, Iri):
        return f"<{obj.value}>"
    return f'"{_escape_literal(obj)}"'


def export_canonical(kb: KnowledgeBase) -> str:
    lines = [
        f"<{a.subject.value}> <{a.predicate.value}> {_render_object(a.object)} ."
        for a in sorted(kb.assertions, key=Assertion.sort_key)
    ]
    return "\n".join(lines) + ("\n" if lines else "")
