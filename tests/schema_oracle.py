"""An interpreter of the JSON Schema keywords ``build-spec.schema.json`` uses.

It reads ``type``, ``properties``, ``additionalProperties``,
``required``, ``items``, ``minItems``, ``enum``, ``oneOf`` and a
``$ref`` into ``$defs`` with the meaning JSON Schema 2020-12 gives them,
and skips the annotations ``$schema`` and ``title``.  Any other keyword,
a type other than object, array or string, a reference outside the
document or a boolean schema outside ``additionalProperties`` is refused
when the oracle is made, so a schema edit that needs more cannot pass
unchecked.

``errors`` yields the keyword of each failing assertion, one per missing
required property and one for all of an object's unlisted properties,
as a 2020-12 validator reports them: a ``$ref`` reports the referenced
schema's keywords, and a ``oneOf`` reports only itself.
"""

from __future__ import annotations

from collections.abc import Iterator

KEYWORDS = frozenset(
    {"type", "properties", "additionalProperties", "required", "items", "minItems",
     "enum", "oneOf", "$ref", "$defs", "$schema", "title"}
)
TYPES = {"object": dict, "array": list, "string": str}


class UnsupportedSchema(ValueError):
    """The schema needs more than this oracle reads."""


def _check(schema) -> None:
    if not isinstance(schema, dict):
        raise UnsupportedSchema(f"schema {schema!r} is not an object")
    for keyword in schema:
        if keyword not in KEYWORDS:
            raise UnsupportedSchema(f"unsupported keyword {keyword!r}")
    if schema.get("type", "object") not in TYPES:
        raise UnsupportedSchema(f"unsupported type {schema['type']!r}")
    if not schema.get("$ref", "#/").startswith("#/"):
        raise UnsupportedSchema(f"unsupported reference {schema['$ref']!r}")
    extra = schema.get("additionalProperties", True)
    subschemas = [
        *schema.get("properties", {}).values(),
        *schema.get("$defs", {}).values(),
        *schema.get("oneOf", ()),
        *([schema["items"]] if "items" in schema else ()),
        *([] if isinstance(extra, bool) else [extra]),
    ]
    for sub in subschemas:
        _check(sub)


class SchemaOracle:
    def __init__(self, schema: dict) -> None:
        _check(schema)
        self.root = schema

    def _resolve(self, ref: str) -> dict:
        target = self.root
        for step in ref[2:].split("/"):
            target = target[step]
        return target

    def errors(self, instance, schema: dict | None = None) -> Iterator[str]:
        """The keyword of each assertion of ``schema`` (the root schema
        by default) that ``instance`` fails."""
        schema = self.root if schema is None else schema
        if "$ref" in schema:
            yield from self.errors(instance, self._resolve(schema["$ref"]))
        if "type" in schema and not isinstance(instance, TYPES[schema["type"]]):
            yield "type"
        if "enum" in schema and instance not in schema["enum"]:
            yield "enum"
        if "oneOf" in schema:
            passing = [s for s in schema["oneOf"] if next(self.errors(instance, s), None) is None]
            if len(passing) != 1:
                yield "oneOf"
        if isinstance(instance, dict):
            for key in schema.get("required", ()):
                if key not in instance:
                    yield "required"
            properties = schema.get("properties", {})
            extra = schema.get("additionalProperties", True)
            unlisted = [key for key in instance if key not in properties]
            if extra is False and unlisted:
                yield "additionalProperties"
            for key, value in instance.items():
                if key in properties:
                    yield from self.errors(value, properties[key])
                elif not isinstance(extra, bool):
                    yield from self.errors(value, extra)
        if isinstance(instance, list):
            if len(instance) < schema.get("minItems", 0):
                yield "minItems"
            if "items" in schema:
                for item in instance:
                    yield from self.errors(item, schema["items"])
