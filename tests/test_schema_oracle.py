"""The schema oracle on one accepted and one rejected instance per keyword."""

from __future__ import annotations

import re

import pytest

from schema_oracle import SchemaOracle, UnsupportedSchema

_REF = {
    "type": "object",
    "properties": {"goal": {"$ref": "#/$defs/goal"}},
    "$defs": {"goal": {"type": "object", "required": ["name"]}},
}


@pytest.mark.parametrize(
    "schema, good, bad, failing",
    [
        ({"type": "object"}, {}, [], ["type"]),
        ({"type": "array"}, [], {}, ["type"]),
        ({"type": "string"}, "s", 5, ["type"]),
        ({"type": "string"}, "s", True, ["type"]),
        ({"properties": {"a": {"type": "string"}}}, {"a": "s", "b": 5}, {"a": 5}, ["type"]),
        ({"additionalProperties": False}, {}, {"a": 1, "b": 2}, ["additionalProperties"]),
        (
            {"properties": {"a": {}}, "additionalProperties": {"type": "string"}},
            {"a": 5, "b": "s"},
            {"a": 5, "b": 5, "c": 6},
            ["type", "type"],
        ),
        ({"required": ["a", "b"]}, {"a": 1, "b": 2}, {}, ["required", "required"]),
        ({"items": {"type": "string"}}, ["s", "t"], ["s", 5, []], ["type", "type"]),
        ({"minItems": 1}, [0], [], ["minItems"]),
        ({"enum": ["exact", "new"]}, "new", "NEW", ["enum"]),
        ({"oneOf": [{"type": "string"}, {"type": "object"}]}, "s", 5, ["oneOf"]),
        ({"oneOf": [{"type": "string"}, {"enum": ["s"]}]}, "t", "s", ["oneOf"]),
        (_REF, {"goal": {"name": "g"}}, {"goal": {}}, ["required"]),
        (_REF, {}, {"goal": []}, ["type"]),
        ({"$schema": "https://json-schema.org/draft/2020-12/schema", "title": "t"}, 5, None, []),
    ],
)
def test_each_keyword_accepts_and_rejects(schema, good, bad, failing):
    oracle = SchemaOracle(schema)
    assert list(oracle.errors(good)) == []
    assert list(oracle.errors(bad)) == failing


def test_keywords_apply_only_to_their_kind_of_instance():
    oracle = SchemaOracle(
        {"required": ["a"], "additionalProperties": False, "minItems": 1, "items": {"type": "string"}}
    )
    for instance in ("s", 5, None):
        assert list(oracle.errors(instance)) == []


@pytest.mark.parametrize(
    "schema, refused",
    [
        ({"pattern": "^a"}, "unsupported keyword 'pattern'"),
        ({"$defs": {"d": {"maxItems": 1}}}, "unsupported keyword 'maxItems'"),
        ({"oneOf": [{"const": 1}]}, "unsupported keyword 'const'"),
        ({"items": {"properties": {"a": {"format": "iri"}}}}, "unsupported keyword 'format'"),
        ({"additionalProperties": {"minLength": 1}}, "unsupported keyword 'minLength'"),
        ({"type": "integer"}, "unsupported type 'integer'"),
        ({"$ref": "other.json#/a"}, "unsupported reference 'other.json#/a'"),
        ({"items": True}, "schema True is not an object"),
    ],
)
def test_refuses_what_it_does_not_read(schema, refused):
    with pytest.raises(UnsupportedSchema, match=f"^{re.escape(refused)}$"):
        SchemaOracle(schema)
